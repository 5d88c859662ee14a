// Framing-layer tests in isolation (dist/wire, DESIGN.md §12): the codec
// runs over in-memory byte streams here -- no sockets -- so every failure
// mode is driven deterministically: short reads of any granularity, torn
// frames, checksum mismatches, oversized payloads rejected from the
// header, reserved-field violations, and a malformed-frame fuzz loop
// pinning that arbitrary bytes either decode, hit clean EOF, or throw
// WireError -- never anything else.
#include "dist/wire.hpp"

#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <random>
#include <span>
#include <string_view>
#include <vector>

namespace dist = yf::dist;

namespace {

/// In-memory ByteSource that serves at most `chunk` bytes per read_some
/// call -- chunk=1 is the maximally-short-read adversary.
class MemSource final : public dist::ByteSource {
 public:
  MemSource(std::vector<std::byte> data, std::size_t chunk = SIZE_MAX)
      : data_(std::move(data)), chunk_(chunk) {}

  std::size_t read_some(std::span<std::byte> dst) override {
    const std::size_t left = data_.size() - pos_;
    const std::size_t n = std::min({dst.size(), left, chunk_});
    std::copy_n(data_.begin() + static_cast<std::ptrdiff_t>(pos_), n, dst.begin());
    pos_ += n;
    return n;
  }

 private:
  std::vector<std::byte> data_;
  std::size_t pos_ = 0;
  std::size_t chunk_;
};

class MemSink final : public dist::ByteSink {
 public:
  void write_all(std::span<const std::byte> data) override {
    bytes.insert(bytes.end(), data.begin(), data.end());
  }
  std::vector<std::byte> bytes;
};

std::vector<std::byte> bytes_of(std::initializer_list<unsigned> v) {
  std::vector<std::byte> out;
  for (unsigned b : v) out.push_back(static_cast<std::byte>(b));
  return out;
}

/// One encoded frame with the given op and payload bytes.
std::vector<std::byte> encoded(dist::Op op, const std::vector<std::byte>& payload) {
  std::vector<std::byte> out;
  dist::encode_frame(out, op, payload);
  return out;
}

}  // namespace

TEST(DistWire, HeaderLayoutIsExactlyAsSpecified) {
  const auto payload = bytes_of({0xAA, 0xBB, 0xCC});
  const auto frame = encoded(dist::Op::kPush, payload);
  ASSERT_EQ(frame.size(), dist::kHeaderBytes + 3);
  // magic "YFWP"
  EXPECT_EQ(frame[0], std::byte{0x59});
  EXPECT_EQ(frame[1], std::byte{0x46});
  EXPECT_EQ(frame[2], std::byte{0x57});
  EXPECT_EQ(frame[3], std::byte{0x50});
  // version 2, little-endian u16
  EXPECT_EQ(frame[4], std::byte{2});
  EXPECT_EQ(frame[5], std::byte{0});
  // op kPush = 5
  EXPECT_EQ(frame[6], std::byte{5});
  EXPECT_EQ(frame[7], std::byte{0});
  // shard (u32) + shard_version (u64): reserved, zero in v1
  for (std::size_t i = 8; i < 20; ++i) EXPECT_EQ(frame[i], std::byte{0}) << "offset " << i;
  // payload_len = 3 (u64 LE)
  EXPECT_EQ(frame[20], std::byte{3});
  for (std::size_t i = 21; i < 28; ++i) EXPECT_EQ(frame[i], std::byte{0});
  // reserved u32 at 36
  for (std::size_t i = 36; i < 40; ++i) EXPECT_EQ(frame[i], std::byte{0});
}

TEST(DistWire, RoundTripsThroughArbitrarilyShortReads) {
  const auto payload = bytes_of({1, 2, 3, 4, 5, 6, 7});
  for (std::size_t chunk : {std::size_t{1}, std::size_t{2}, std::size_t{5}, SIZE_MAX}) {
    MemSource src(encoded(dist::Op::kPullReply, payload), chunk);
    dist::FrameHeader header;
    std::vector<std::byte> got;
    ASSERT_TRUE(dist::read_frame(src, header, got)) << "chunk " << chunk;
    EXPECT_EQ(header.op, dist::Op::kPullReply);
    EXPECT_EQ(header.version, dist::kWireVersion);
    EXPECT_EQ(got, payload);
    // ...and the stream ends cleanly at the frame boundary.
    EXPECT_FALSE(dist::read_frame(src, header, got));
  }
}

TEST(DistWire, BackToBackFramesDecodeInOrder) {
  std::vector<std::byte> stream;
  dist::encode_frame(stream, dist::Op::kHello, {});
  dist::encode_frame(stream, dist::Op::kPull, {});
  const auto payload = bytes_of({9, 9});
  dist::encode_frame(stream, dist::Op::kError, payload);
  MemSource src(std::move(stream), 3);
  dist::FrameHeader header;
  std::vector<std::byte> got;
  ASSERT_TRUE(dist::read_frame(src, header, got));
  EXPECT_EQ(header.op, dist::Op::kHello);
  EXPECT_TRUE(got.empty());
  ASSERT_TRUE(dist::read_frame(src, header, got));
  EXPECT_EQ(header.op, dist::Op::kPull);
  ASSERT_TRUE(dist::read_frame(src, header, got));
  EXPECT_EQ(header.op, dist::Op::kError);
  EXPECT_EQ(got, payload);
  EXPECT_FALSE(dist::read_frame(src, header, got));
}

TEST(DistWire, TornHeaderThrowsCleanEofReturnsFalse) {
  const auto frame = encoded(dist::Op::kHello, {});
  dist::FrameHeader header;
  std::vector<std::byte> got;
  {
    MemSource empty({});
    EXPECT_FALSE(dist::read_frame(empty, header, got));  // clean EOF
  }
  // Every strictly-partial header is a torn frame, not an EOF.
  for (std::size_t cut : {std::size_t{1}, std::size_t{4}, dist::kHeaderBytes - 1}) {
    MemSource src({frame.begin(), frame.begin() + static_cast<std::ptrdiff_t>(cut)});
    EXPECT_THROW(dist::read_frame(src, header, got), dist::WireError) << "cut " << cut;
  }
}

TEST(DistWire, TornPayloadThrows) {
  const auto frame = encoded(dist::Op::kPush, bytes_of({1, 2, 3, 4}));
  dist::FrameHeader header;
  std::vector<std::byte> got;
  for (std::size_t cut = dist::kHeaderBytes; cut < frame.size(); ++cut) {
    MemSource src({frame.begin(), frame.begin() + static_cast<std::ptrdiff_t>(cut)}, 1);
    EXPECT_THROW(dist::read_frame(src, header, got), dist::WireError) << "cut " << cut;
  }
}

TEST(DistWire, ChecksumMismatchThrows) {
  auto frame = encoded(dist::Op::kPush, bytes_of({10, 20, 30}));
  frame[dist::kHeaderBytes + 1] ^= std::byte{0x40};  // corrupt one payload byte
  MemSource src(std::move(frame));
  dist::FrameHeader header;
  std::vector<std::byte> got;
  EXPECT_THROW(dist::read_frame(src, header, got), dist::WireError);
}

TEST(DistWire, Xxh64MatchesReferenceValues) {
  // Seed-0 XXH64 reference values. The 39-byte string runs the 32-byte
  // stripe loop, then one 4-byte word and three tail bytes.
  const auto hash = [](std::string_view text) {
    return dist::xxh64(std::as_bytes(std::span(text.data(), text.size())));
  };
  EXPECT_EQ(hash(""), 0xEF46DB3751D8E999ull);
  EXPECT_EQ(hash("abc"), 0x44BC2CF5AD770999ull);
  EXPECT_EQ(hash("Nobody inspects the spammish repetition"), 0xFBCEA83C8A378BF1ull);
}

TEST(DistWire, MalformedHeadersThrow) {
  dist::FrameHeader header;
  std::vector<std::byte> got;
  const auto base = encoded(dist::Op::kHello, {});
  struct Case {
    const char* name;
    std::size_t offset;
    unsigned value;
  };
  const Case cases[] = {
      {"bad magic", 0, 0x5A},       {"unknown version", 4, 1},
      {"unknown op", 6, 0x7F},      {"op zero", 6, 0},
      {"nonzero shard", 8, 1},      {"nonzero shard_version", 12, 1},
      {"nonzero reserved", 36, 1},
  };
  for (const Case& c : cases) {
    auto frame = base;
    frame[c.offset] = static_cast<std::byte>(c.value);
    MemSource src(std::move(frame));
    EXPECT_THROW(dist::read_frame(src, header, got), dist::WireError) << c.name;
  }
}

TEST(DistWire, OversizedPayloadRejectedFromHeaderAlone) {
  // Header declares 1 MiB; only the header is present. With max_payload
  // 64 KiB the frame must be rejected before any payload read/allocation
  // -- a truncated-stream WireError instead would mean it tried to read.
  std::vector<std::byte> frame = encoded(dist::Op::kPush, {});
  frame[20] = std::byte{0};
  frame[22] = std::byte{0x10};  // payload_len = 0x100000
  MemSource src(std::move(frame));
  dist::FrameHeader header;
  std::vector<std::byte> got;
  try {
    dist::read_frame(src, header, got, 64u << 10);
    FAIL() << "oversized payload accepted";
  } catch (const dist::WireError& e) {
    EXPECT_NE(std::string(e.what()).find("payload"), std::string::npos) << e.what();
  }
}

TEST(DistWire, FuzzedStreamsNeverEscapeWireError) {
  std::mt19937 rng(20260808);
  dist::FrameHeader header;
  std::vector<std::byte> got;
  const auto valid = encoded(dist::Op::kPush, bytes_of({1, 2, 3, 4, 5, 6, 7, 8}));
  for (int iter = 0; iter < 2000; ++iter) {
    std::vector<std::byte> stream;
    if (iter % 2 == 0) {
      // Pure noise of random length.
      const std::size_t len = rng() % 96;
      for (std::size_t i = 0; i < len; ++i) stream.push_back(static_cast<std::byte>(rng() & 0xFF));
    } else {
      // A valid frame with 1-3 mutated bytes -- the adversary that almost
      // speaks the protocol.
      stream = valid;
      const int flips = 1 + static_cast<int>(rng() % 3);
      for (int f = 0; f < flips; ++f) {
        stream[rng() % stream.size()] ^= static_cast<std::byte>(1u << (rng() % 8));
      }
    }
    MemSource src(std::move(stream), 1 + rng() % 7);
    try {
      while (dist::read_frame(src, header, got)) {
      }
    } catch (const dist::WireError&) {
      // The only permitted escape.
    }
  }
}

// ---------------------------------------------------------------------------
// Payload primitives: bit-exact doubles are what the one-worker socket
// trajectory's EXPECT_EQ identity rests on.
// ---------------------------------------------------------------------------

TEST(DistWire, DoublesRoundTripBitExactly) {
  const double values[] = {0.0,
                           -0.0,
                           1.0,
                           -1.3e-300,
                           5e-324,  // smallest denormal
                           std::numeric_limits<double>::max(),
                           std::numeric_limits<double>::infinity(),
                           -std::numeric_limits<double>::infinity(),
                           std::numeric_limits<double>::quiet_NaN(),
                           0.1 + 0.2};
  std::vector<std::byte> buf;
  dist::PayloadWriter out(buf);
  for (double v : values) out.f64(v);
  out.f64_span(values);
  dist::PayloadReader in(buf);
  for (double v : values) {
    EXPECT_EQ(std::bit_cast<std::uint64_t>(in.f64()), std::bit_cast<std::uint64_t>(v));
  }
  double span_back[std::size(values)];
  in.f64_span(span_back);
  for (std::size_t i = 0; i < std::size(values); ++i) {
    EXPECT_EQ(std::bit_cast<std::uint64_t>(span_back[i]), std::bit_cast<std::uint64_t>(values[i]));
  }
  in.expect_end();
}

TEST(DistWire, IntegerAndStringPrimitivesRoundTrip) {
  std::vector<std::byte> buf;
  dist::PayloadWriter out(buf);
  out.u8(0xFE);
  out.u16(0xBEEF);
  out.u32(0xDEADBEEF);
  out.u64(0x0123456789ABCDEFull);
  out.i64(-42);
  out.i64(std::numeric_limits<std::int64_t>::min());
  const std::int64_t versions[] = {0, 1, -1, 1LL << 40};
  out.i64_span(versions);
  out.str("pull before hello");
  dist::PayloadReader in(buf);
  EXPECT_EQ(in.u8(), 0xFE);
  EXPECT_EQ(in.u16(), 0xBEEF);
  EXPECT_EQ(in.u32(), 0xDEADBEEFu);
  EXPECT_EQ(in.u64(), 0x0123456789ABCDEFull);
  EXPECT_EQ(in.i64(), -42);
  EXPECT_EQ(in.i64(), std::numeric_limits<std::int64_t>::min());
  std::int64_t back[std::size(versions)];
  in.i64_span(back);
  for (std::size_t i = 0; i < std::size(versions); ++i) EXPECT_EQ(back[i], versions[i]);
  EXPECT_EQ(in.str(), "pull before hello");
  EXPECT_EQ(in.remaining(), 0u);
  in.expect_end();
}

TEST(DistWire, ValueSpansEncodeAsLittleEndianBitPatterns) {
  // Value spans are copied in bulk on little-endian hosts; the bytes must
  // stay what the byte-by-byte encoding writes: each value's IEEE-754 or
  // two's-complement bits, least significant byte first. The doubles
  // include the smallest subnormal and a quiet NaN carrying a payload.
  const double subnormal = std::bit_cast<double>(std::uint64_t{1});
  const double nan = std::bit_cast<double>(std::uint64_t{0x7FF80000DEADBEEF});
  const double doubles[] = {1.0, -0.0, subnormal, nan};
  const std::int64_t ints[] = {std::numeric_limits<std::int64_t>::min(), -1};
  std::vector<std::byte> f64_bytes;
  dist::PayloadWriter(f64_bytes).f64_span(doubles);
  std::vector<std::byte> i64_bytes;
  dist::PayloadWriter(i64_bytes).i64_span(ints);
  ASSERT_EQ(f64_bytes.size(), 32u);
  ASSERT_EQ(i64_bytes.size(), 16u);
  const auto slot = [](const std::vector<std::byte>& bytes, std::size_t i) {
    const auto first = bytes.begin() + static_cast<std::ptrdiff_t>(8 * i);
    return std::vector<std::byte>(first, first + 8);
  };
  EXPECT_EQ(slot(f64_bytes, 0), bytes_of({0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0xF0, 0x3F}));
  EXPECT_EQ(slot(f64_bytes, 1), bytes_of({0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x80}));
  EXPECT_EQ(slot(f64_bytes, 2), bytes_of({0x01, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00}));
  EXPECT_EQ(slot(f64_bytes, 3), bytes_of({0xEF, 0xBE, 0xAD, 0xDE, 0x00, 0x00, 0xF8, 0x7F}));
  EXPECT_EQ(slot(i64_bytes, 0), bytes_of({0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x80}));
  EXPECT_EQ(slot(i64_bytes, 1), bytes_of({0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF}));

  double f64_back[std::size(doubles)];
  dist::PayloadReader f64_in(f64_bytes);
  f64_in.f64_span(f64_back);
  f64_in.expect_end();
  for (std::size_t i = 0; i < std::size(doubles); ++i) {
    EXPECT_EQ(std::bit_cast<std::uint64_t>(f64_back[i]), std::bit_cast<std::uint64_t>(doubles[i]));
  }
  std::int64_t i64_back[std::size(ints)];
  dist::PayloadReader i64_in(i64_bytes);
  i64_in.i64_span(i64_back);
  i64_in.expect_end();
  for (std::size_t i = 0; i < std::size(ints); ++i) EXPECT_EQ(i64_back[i], ints[i]);
}

TEST(DistWire, ReaderUnderrunAndTrailingGarbageThrow) {
  std::vector<std::byte> buf;
  dist::PayloadWriter out(buf);
  out.u32(7);
  dist::PayloadReader short_read(buf);
  EXPECT_THROW(short_read.u64(), dist::WireError);  // 4 bytes can't make a u64
  dist::PayloadReader trailing(buf);
  trailing.u16();
  EXPECT_THROW(trailing.expect_end(), dist::WireError);
  // A string whose declared length exceeds the payload is an underrun too.
  std::vector<std::byte> lie;
  dist::PayloadWriter out2(lie);
  out2.u32(1000);  // str header claiming 1000 bytes, none present
  dist::PayloadReader in2(lie);
  EXPECT_THROW(in2.str(), dist::WireError);
}

TEST(DistWire, WriteFrameMatchesEncodeFrame) {
  const auto payload = bytes_of({5, 4, 3});
  MemSink sink;
  std::vector<std::byte> scratch;
  dist::write_frame(sink, dist::Op::kPushReply, payload, scratch);
  EXPECT_EQ(sink.bytes, encoded(dist::Op::kPushReply, payload));
}
