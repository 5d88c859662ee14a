#include "dist/wire.hpp"

#include <bit>
#include <cstring>

namespace yf::dist {

namespace {

// "YFWP" as individual bytes; written/compared bytewise so the magic is
// the same octet sequence on any host.
constexpr std::uint8_t kMagic[4] = {0x59, 0x46, 0x57, 0x50};

void put_le(std::vector<std::byte>& out, std::uint64_t v, int bytes) {
  for (int i = 0; i < bytes; ++i) {
    out.push_back(static_cast<std::byte>((v >> (8 * i)) & 0xff));
  }
}

std::uint64_t get_le(std::span<const std::byte> in, std::size_t offset, int bytes) {
  std::uint64_t v = 0;
  for (int i = 0; i < bytes; ++i) {
    v |= static_cast<std::uint64_t>(std::to_integer<std::uint8_t>(in[offset + static_cast<std::size_t>(i)]))
         << (8 * i);
  }
  return v;
}

// Value spans (f64/i64 arrays, the bulk of every pull and push): on a
// little-endian host the in-memory bytes already are the wire bytes, so
// one memcpy replaces the per-byte shifts; other hosts keep the loop.

template <typename T>
void put_span(std::vector<std::byte>& out, std::span<const T> v) {
  static_assert(sizeof(T) == 8);
  if constexpr (std::endian::native == std::endian::little) {
    const std::size_t at = out.size();
    out.resize(at + v.size_bytes());
    if (!v.empty()) std::memcpy(out.data() + at, v.data(), v.size_bytes());
  } else {
    out.reserve(out.size() + v.size_bytes());
    for (const T x : v) put_le(out, std::bit_cast<std::uint64_t>(x), 8);
  }
}

template <typename T>
void get_span(std::span<const std::byte> in, std::span<T> dst) {
  static_assert(sizeof(T) == 8);
  if constexpr (std::endian::native == std::endian::little) {
    if (!dst.empty()) std::memcpy(dst.data(), in.data(), dst.size_bytes());
  } else {
    for (std::size_t i = 0; i < dst.size(); ++i) dst[i] = std::bit_cast<T>(get_le(in, i * 8, 8));
  }
}

// XXH64 (seed 0), the frame and checkpoint checksum.

constexpr std::uint64_t kXxPrime1 = 0x9E3779B185EBCA87ull;
constexpr std::uint64_t kXxPrime2 = 0xC2B2AE3D27D4EB4Full;
constexpr std::uint64_t kXxPrime3 = 0x165667B19E3779F9ull;
constexpr std::uint64_t kXxPrime4 = 0x85EBCA77C2B2AE63ull;
constexpr std::uint64_t kXxPrime5 = 0x27D4EB2F165667C5ull;

/// The `bytes`-byte little-endian word at `offset`: one memcpy on a
/// little-endian host (as in put_span), get_le's byte loop elsewhere, so
/// the checksum of a byte string does not depend on the host.
std::uint64_t load_le(std::span<const std::byte> in, std::size_t offset, int bytes) {
  if constexpr (std::endian::native == std::endian::little) {
    std::uint64_t v = 0;
    std::memcpy(&v, in.data() + offset, static_cast<std::size_t>(bytes));
    return v;
  } else {
    return get_le(in, offset, bytes);
  }
}

std::uint64_t xx_round(std::uint64_t acc, std::uint64_t input) {
  acc += input * kXxPrime2;
  return std::rotl(acc, 31) * kXxPrime1;
}

std::uint64_t xx_merge(std::uint64_t h, std::uint64_t acc) {
  h ^= xx_round(0, acc);
  return h * kXxPrime1 + kXxPrime4;
}

}  // namespace

bool op_known(std::uint16_t op) {
  return op >= static_cast<std::uint16_t>(Op::kHello) && op <= static_cast<std::uint16_t>(Op::kError);
}

const char* op_name(Op op) {
  switch (op) {
    case Op::kHello: return "hello";
    case Op::kHelloAck: return "hello_ack";
    case Op::kPull: return "pull";
    case Op::kPullReply: return "pull_reply";
    case Op::kPush: return "push";
    case Op::kPushReply: return "push_reply";
    case Op::kShutdown: return "shutdown";
    case Op::kShutdownAck: return "shutdown_ack";
    case Op::kError: return "error";
  }
  return "unknown";
}

std::uint64_t xxh64(std::span<const std::byte> data) {
  const std::size_t n = data.size();
  std::size_t i = 0;
  std::uint64_t h = kXxPrime5;
  if (n >= 32) {
    // Four independent lanes over 32-byte stripes (seed 0).
    std::uint64_t v1 = kXxPrime1 + kXxPrime2;
    std::uint64_t v2 = kXxPrime2;
    std::uint64_t v3 = 0;
    std::uint64_t v4 = 0 - kXxPrime1;
    for (; i + 32 <= n; i += 32) {
      v1 = xx_round(v1, load_le(data, i, 8));
      v2 = xx_round(v2, load_le(data, i + 8, 8));
      v3 = xx_round(v3, load_le(data, i + 16, 8));
      v4 = xx_round(v4, load_le(data, i + 24, 8));
    }
    h = std::rotl(v1, 1) + std::rotl(v2, 7) + std::rotl(v3, 12) + std::rotl(v4, 18);
    h = xx_merge(h, v1);
    h = xx_merge(h, v2);
    h = xx_merge(h, v3);
    h = xx_merge(h, v4);
  }
  h += static_cast<std::uint64_t>(n);
  for (; i + 8 <= n; i += 8) {
    h ^= xx_round(0, load_le(data, i, 8));
    h = std::rotl(h, 27) * kXxPrime1 + kXxPrime4;
  }
  if (i + 4 <= n) {
    h ^= load_le(data, i, 4) * kXxPrime1;
    h = std::rotl(h, 23) * kXxPrime2 + kXxPrime3;
    i += 4;
  }
  for (; i < n; ++i) {
    h ^= std::to_integer<std::uint64_t>(data[i]) * kXxPrime5;
    h = std::rotl(h, 11) * kXxPrime1;
  }
  // Final avalanche.
  h ^= h >> 33;
  h *= kXxPrime2;
  h ^= h >> 29;
  h *= kXxPrime3;
  h ^= h >> 32;
  return h;
}

bool read_exact(ByteSource& src, std::span<std::byte> dst, const char* what) {
  std::size_t filled = 0;
  while (filled < dst.size()) {
    const std::size_t n = src.read_some(dst.subspan(filled));
    if (n == 0) {
      if (filled == 0) return false;
      throw WireError(std::string("torn frame: stream ended inside ") + what);
    }
    filled += n;
  }
  return true;
}

void encode_frame(std::vector<std::byte>& out, Op op, std::span<const std::byte> payload) {
  out.reserve(out.size() + kHeaderBytes + payload.size());
  for (const std::uint8_t m : kMagic) out.push_back(static_cast<std::byte>(m));
  put_le(out, kWireVersion, 2);
  put_le(out, static_cast<std::uint16_t>(op), 2);
  put_le(out, 0, 4);  // shard (reserved)
  put_le(out, 0, 8);  // shard version (reserved)
  put_le(out, payload.size(), 8);
  put_le(out, xxh64(payload), 8);
  put_le(out, 0, 4);  // reserved
  out.insert(out.end(), payload.begin(), payload.end());
}

void write_frame(ByteSink& sink, Op op, std::span<const std::byte> payload,
                 std::vector<std::byte>& scratch) {
  scratch.clear();
  encode_frame(scratch, op, payload);
  sink.write_all(scratch);
}

bool read_frame(ByteSource& src, FrameHeader& header, std::vector<std::byte>& payload,
                std::size_t max_payload) {
  std::byte raw[kHeaderBytes];
  if (!read_exact(src, raw, "frame header")) return false;
  const std::span<const std::byte> h(raw, kHeaderBytes);
  for (std::size_t i = 0; i < 4; ++i) {
    if (std::to_integer<std::uint8_t>(h[i]) != kMagic[i]) {
      throw WireError("bad frame magic (desynchronized or not a YF peer)");
    }
  }
  header.version = static_cast<std::uint16_t>(get_le(h, 4, 2));
  if (header.version != kWireVersion) {
    throw WireError("unsupported wire version " + std::to_string(header.version) + " (want " +
                    std::to_string(kWireVersion) + ")");
  }
  const auto op_raw = static_cast<std::uint16_t>(get_le(h, 6, 2));
  if (!op_known(op_raw)) {
    throw WireError("unknown frame op " + std::to_string(op_raw));
  }
  header.op = static_cast<Op>(op_raw);
  header.shard = static_cast<std::uint32_t>(get_le(h, 8, 4));
  header.shard_version = get_le(h, 12, 8);
  if (header.shard != 0 || header.shard_version != 0) {
    throw WireError("nonzero shard fields (reserved)");
  }
  header.payload_len = get_le(h, 20, 8);
  header.checksum = get_le(h, 28, 8);
  if (get_le(h, 36, 4) != 0) {
    throw WireError("nonzero reserved header bytes");
  }
  // Bound BEFORE allocating: an oversized length is rejected from the
  // header alone, so a corrupt peer cannot make us reserve gigabytes.
  if (header.payload_len > max_payload) {
    throw WireError("frame payload " + std::to_string(header.payload_len) +
                    " exceeds the negotiated bound " + std::to_string(max_payload));
  }
  payload.resize(static_cast<std::size_t>(header.payload_len));
  if (!payload.empty() && !read_exact(src, payload, "frame payload")) {
    throw WireError("torn frame: stream ended inside frame payload");
  }
  const std::uint64_t sum = xxh64(payload);
  if (sum != header.checksum) {
    throw WireError("payload checksum mismatch (frame corrupted in transit)");
  }
  return true;
}

// ---------------------------------------------------------------------------
// PayloadWriter / PayloadReader
// ---------------------------------------------------------------------------

void PayloadWriter::u8(std::uint8_t v) { put_le(*out_, v, 1); }
void PayloadWriter::u16(std::uint16_t v) { put_le(*out_, v, 2); }
void PayloadWriter::u32(std::uint32_t v) { put_le(*out_, v, 4); }
void PayloadWriter::u64(std::uint64_t v) { put_le(*out_, v, 8); }
void PayloadWriter::i64(std::int64_t v) { u64(static_cast<std::uint64_t>(v)); }
void PayloadWriter::f64(double v) { u64(std::bit_cast<std::uint64_t>(v)); }

void PayloadWriter::f64_span(std::span<const double> v) { put_span(*out_, v); }
void PayloadWriter::i64_span(std::span<const std::int64_t> v) { put_span(*out_, v); }

void PayloadWriter::str(std::string_view s) {
  u32(static_cast<std::uint32_t>(s.size()));
  for (const char c : s) out_->push_back(static_cast<std::byte>(c));
}

std::span<const std::byte> PayloadReader::take(std::size_t n, const char* what) {
  if (n > data_.size() - pos_) {
    throw WireError(std::string("payload underrun reading ") + what);
  }
  const auto out = data_.subspan(pos_, n);
  pos_ += n;
  return out;
}

std::uint8_t PayloadReader::u8() { return static_cast<std::uint8_t>(get_le(take(1, "u8"), 0, 1)); }
std::uint16_t PayloadReader::u16() {
  return static_cast<std::uint16_t>(get_le(take(2, "u16"), 0, 2));
}
std::uint32_t PayloadReader::u32() {
  return static_cast<std::uint32_t>(get_le(take(4, "u32"), 0, 4));
}
std::uint64_t PayloadReader::u64() { return get_le(take(8, "u64"), 0, 8); }
std::int64_t PayloadReader::i64() { return static_cast<std::int64_t>(u64()); }
double PayloadReader::f64() { return std::bit_cast<double>(u64()); }

void PayloadReader::f64_span(std::span<double> dst) {
  get_span(take(dst.size_bytes(), "f64 span"), dst);
}

void PayloadReader::i64_span(std::span<std::int64_t> dst) {
  get_span(take(dst.size_bytes(), "i64 span"), dst);
}

std::string PayloadReader::str(std::size_t max_len) {
  const std::uint32_t len = u32();
  if (len > max_len) throw WireError("payload string exceeds bound");
  const auto bytes = take(len, "string");
  std::string s;
  s.reserve(len);
  for (const std::byte b : bytes) s.push_back(static_cast<char>(std::to_integer<std::uint8_t>(b)));
  return s;
}

void PayloadReader::expect_end() const {
  if (pos_ != data_.size()) {
    throw WireError("trailing bytes after payload (peer speaking a newer dialect?)");
  }
}

}  // namespace yf::dist
