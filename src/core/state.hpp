// Bit-exact state serialization for checkpoint/restore (DESIGN.md §14).
//
// StateWriter/StateReader are the checkpoint twins of the wire payload
// codec (dist/wire.hpp): explicit little-endian primitives written byte
// by byte, doubles as their IEEE-754 bit pattern through uint64, and
// bounds-checked reads that throw StateError instead of running off the
// end of a torn file. They live in core -- not dist -- because the
// optimizer, tuner, and parameter-server layers serialize themselves and
// must not depend on the transport. Checksums, headers, and atomic file
// placement are the caller's job (dist/checkpoint.hpp); this layer is
// only the byte encoding, so a state round-trip is EXACTLY the identity
// on every field -- the restored-trajectory bit-identity pin rests on it.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <stdexcept>
#include <vector>

namespace yf::core {

/// Malformed or truncated state bytes. Checkpoint-fatal: the caller
/// discards the candidate file and falls back to an older one.
class StateError : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

class StateWriter {
 public:
  /// Appends to `out`; the caller clears/reuses the buffer between
  /// snapshots (the steady-state checkpoint path is allocation-bounded).
  explicit StateWriter(std::vector<std::byte>& out) : out_(&out) {}

  void u8(std::uint8_t v);
  void u32(std::uint32_t v);
  void u64(std::uint64_t v);
  void i64(std::int64_t v);  ///< two's-complement through u64
  void f64(double v);        ///< exact: IEEE-754 bit pattern
  void f64_span(std::span<const double> v);

 private:
  std::vector<std::byte>* out_;
};

class StateReader {
 public:
  explicit StateReader(std::span<const std::byte> data) : data_(data) {}

  std::uint8_t u8();
  std::uint32_t u32();
  std::uint64_t u64();
  std::int64_t i64();
  double f64();
  void f64_span(std::span<double> dst);

  std::size_t remaining() const { return data_.size() - pos_; }
  /// Throws StateError if bytes remain -- a snapshot must be consumed
  /// completely so layout drift is caught at load, not as silent skew.
  void expect_end() const;

 private:
  std::span<const std::byte> take(std::size_t n, const char* what);

  std::span<const std::byte> data_;
  std::size_t pos_ = 0;
};

}  // namespace yf::core
