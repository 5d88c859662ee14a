// Wire protocol for the distributed parameter server (DESIGN.md §12).
//
// Every message on a master/worker connection is one length-prefixed
// binary frame: a fixed 40-byte header followed by `payload_len` payload
// bytes. The header is versioned and self-describing --
//
//   offset size field
//   0      4    magic          "YFWP" (0x59 0x46 0x57 0x50 on the wire)
//   4      2    version        protocol version, currently 2
//   6      2    op             Op enum below
//   8      4    shard          shard id (must be 0, reserved for
//   12     8    shard version   per-shard ops; receivers reject nonzero)
//   20     8    payload_len    payload bytes following the header
//   28     8    checksum       XXH64 (seed 0) over the payload bytes
//   36     4    reserved       must be 0
//
// Version 1 was the same layout with an FNV-1a 64 checksum; version 2
// peers reject it.
//
// The header and every payload encode through the one byte codec
// (core/state.hpp), the same one checkpoints use: little-endian fields,
// doubles as their IEEE-754 bit pattern, so a value round-trips EXACTLY --
// the one-worker socket trajectory is specified to be bit-identical to
// the in-process engine, which a textual or lossy encoding could not
// deliver.
//
// The framing layer is blocking-I/O over two single-method interfaces
// (ByteSource/ByteSink) and owns all partial-read handling: read_frame()
// loops a short-read source until the header / payload is complete, and
// distinguishes clean EOF at a frame boundary (returns false) from a torn
// frame mid-header or mid-payload (throws WireError). Malformed input --
// bad magic, unknown version or op, nonzero reserved fields, oversized
// payload, checksum mismatch -- throws WireError before any of it is
// interpreted; the fuzz loop in tests/dist_wire_test.cpp pins that no
// byte stream crashes the codec. Sockets implement the same interfaces
// (dist/socket.hpp), so the codec tests run over in-memory streams with
// no network at all.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <stdexcept>
#include <vector>

#include "core/state.hpp"

namespace yf::dist {

/// Malformed or torn wire data. Connection-fatal: after a WireError the
/// stream position is unspecified and the connection must be closed.
class WireError : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

inline constexpr std::uint16_t kWireVersion = 2;
inline constexpr std::size_t kHeaderBytes = 40;
/// Default payload-size bound: a frame carries at most one full arena of
/// doubles plus per-shard bookkeeping; 64 MiB covers ~8M parameters.
inline constexpr std::size_t kDefaultMaxPayload = 64u << 20;

/// Frame operations. Requests (worker -> master) are odd, their replies
/// even; kError may replace any reply.
enum class Op : std::uint16_t {
  kHello = 1,        ///< worker -> master: u64 worker id (0 = assign me one)
  kHelloAck = 2,     ///< master -> worker: u64 arena size, u64 shard count,
                     ///< u64 worker id, u64 last applied push seq
  kPull = 3,         ///< worker -> master: request parameters (empty)
  kPullReply = 4,    ///< master -> worker: u64 K, K x i64 versions, N x f64 values
  kPush = 5,         ///< worker -> master: u64 push seq (0 = unsequenced),
                     ///< u64 K, K x i64 versions, N x f64 grads
  kPushReply = 6,    ///< master -> worker: ApplyStats::encode (async/param_server.hpp)
  kShutdown = 7,     ///< worker -> master: no more requests (empty)
  kShutdownAck = 8,  ///< master -> worker: drained, closing (empty)
  kError = 9,        ///< either direction: utf-8 message; connection-fatal
};

/// True when `op` is one of the enumerators above (the codec rejects
/// anything else before the payload is read).
bool op_known(std::uint16_t op);
const char* op_name(Op op);

struct FrameHeader {
  std::uint16_t version = kWireVersion;
  Op op = Op::kError;
  std::uint32_t shard = 0;         ///< always 0 (reserved, validated)
  std::uint64_t shard_version = 0; ///< always 0 (reserved, validated)
  std::uint64_t payload_len = 0;
  std::uint64_t checksum = 0;      ///< XXH64 of the payload bytes
};

/// XXH64 with seed 0 over `data` -- the frame and checkpoint checksum.
/// Words are read little-endian, so the value depends only on the bytes.
/// Not cryptographic; it catches torn writes and framing bugs, not
/// adversaries.
std::uint64_t xxh64(std::span<const std::byte> data);

// ---------------------------------------------------------------------------
// Blocking byte-stream interfaces. The framing layer is written against
// these; TcpStream (dist/socket.hpp) and the in-memory test streams both
// implement them.
// ---------------------------------------------------------------------------

class ByteSink {
 public:
  virtual ~ByteSink() = default;
  /// Write ALL of `data` (looping over partial writes) or throw.
  virtual void write_all(std::span<const std::byte> data) = 0;
};

class ByteSource {
 public:
  virtual ~ByteSource() = default;
  /// Blocking read of AT LEAST one byte into `dst`; returns the number
  /// read (possibly fewer than dst.size() -- a short read), or 0 at end
  /// of stream. The framing layer loops until a frame is complete.
  virtual std::size_t read_some(std::span<std::byte> dst) = 0;
};

/// Loop read_some until `dst` is full. Returns false if the stream ended
/// before the FIRST byte (clean EOF); throws WireError if it ends midway.
bool read_exact(ByteSource& src, std::span<std::byte> dst, const char* what);

// ---------------------------------------------------------------------------
// Frame encode/decode.
// ---------------------------------------------------------------------------

/// Serialize header + payload into `out` (appended; caller owns reuse).
/// The header's payload_len/checksum are computed from `payload`.
void encode_frame(std::vector<std::byte>& out, Op op, std::span<const std::byte> payload);

/// Encode and write one frame.
void write_frame(ByteSink& sink, Op op, std::span<const std::byte> payload,
                 std::vector<std::byte>& scratch);

/// Read one frame. Returns false on clean EOF at a frame boundary;
/// `payload` is resized to the frame's payload (capacity retained across
/// calls). Throws WireError on any malformed or torn input. Payloads
/// larger than `max_payload` are rejected from the header alone, before
/// any allocation.
bool read_frame(ByteSource& src, FrameHeader& header, std::vector<std::byte>& payload,
                std::size_t max_payload = kDefaultMaxPayload);

/// Payload encoding: the core byte codec (core/state.hpp), whose reads
/// throw WireError here.
using PayloadWriter = core::ByteWriter;
using PayloadReader = core::ByteReader<WireError>;

}  // namespace yf::dist
