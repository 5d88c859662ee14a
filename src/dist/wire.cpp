#include "dist/wire.hpp"

#include <bit>
#include <string>

namespace yf::dist {

namespace {

// "YFWP" as individual bytes; written/compared bytewise so the magic is
// the same octet sequence on any host.
constexpr std::uint8_t kMagic[4] = {0x59, 0x46, 0x57, 0x50};

// XXH64 (seed 0), the frame and checkpoint checksum.

constexpr std::uint64_t kXxPrime1 = 0x9E3779B185EBCA87ull;
constexpr std::uint64_t kXxPrime2 = 0xC2B2AE3D27D4EB4Full;
constexpr std::uint64_t kXxPrime3 = 0x165667B19E3779F9ull;
constexpr std::uint64_t kXxPrime4 = 0x85EBCA77C2B2AE63ull;
constexpr std::uint64_t kXxPrime5 = 0x27D4EB2F165667C5ull;

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
  const std::byte* p = data.data();
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
      v1 = xx_round(v1, core::get_le(p + i, 8));
      v2 = xx_round(v2, core::get_le(p + i + 8, 8));
      v3 = xx_round(v3, core::get_le(p + i + 16, 8));
      v4 = xx_round(v4, core::get_le(p + i + 24, 8));
    }
    h = std::rotl(v1, 1) + std::rotl(v2, 7) + std::rotl(v3, 12) + std::rotl(v4, 18);
    h = xx_merge(h, v1);
    h = xx_merge(h, v2);
    h = xx_merge(h, v3);
    h = xx_merge(h, v4);
  }
  h += static_cast<std::uint64_t>(n);
  for (; i + 8 <= n; i += 8) {
    h ^= xx_round(0, core::get_le(p + i, 8));
    h = std::rotl(h, 27) * kXxPrime1 + kXxPrime4;
  }
  if (i + 4 <= n) {
    h ^= core::get_le(p + i, 4) * kXxPrime1;
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
  PayloadWriter w(out);
  for (const std::uint8_t m : kMagic) w.u8(m);
  w.u16(kWireVersion);
  w.u16(static_cast<std::uint16_t>(op));
  w.u32(0);  // shard (reserved)
  w.u64(0);  // shard version (reserved)
  w.u64(payload.size());
  w.u64(xxh64(payload));
  w.u32(0);  // reserved
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
  PayloadReader h(raw);
  for (const std::uint8_t m : kMagic) {
    if (h.u8() != m) throw WireError("bad frame magic (desynchronized or not a YF peer)");
  }
  header.version = h.u16();
  if (header.version != kWireVersion) {
    throw WireError("unsupported wire version " + std::to_string(header.version) + " (want " +
                    std::to_string(kWireVersion) + ")");
  }
  const std::uint16_t op_raw = h.u16();
  if (!op_known(op_raw)) {
    throw WireError("unknown frame op " + std::to_string(op_raw));
  }
  header.op = static_cast<Op>(op_raw);
  header.shard = h.u32();
  header.shard_version = h.u64();
  if (header.shard != 0 || header.shard_version != 0) {
    throw WireError("nonzero shard fields (reserved)");
  }
  header.payload_len = h.u64();
  header.checksum = h.u64();
  if (h.u32() != 0) {
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

}  // namespace yf::dist
