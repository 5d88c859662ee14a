// The one little-endian byte codec (DESIGN.md §12, §14): wire frames and
// payloads (dist/wire.hpp) and checkpoint state (dist/checkpoint.hpp)
// both encode through it.
//
// Every multi-byte field is little-endian, so the bytes are the same on
// any host; doubles travel as their IEEE-754 bit pattern through uint64,
// so a value round-trips EXACTLY -- the one-worker socket trajectory pin
// and the restored-checkpoint bit-identity pin both rest on that. On a
// little-endian host a value span is one memcpy: its in-memory bytes
// already are the encoded bytes. Reads are bounds-checked and throw the
// reader's `Error` type instead of running off the end, so each caller
// keeps its own failure class: StateReader throws StateError (a torn
// checkpoint: skip this file), PayloadReader throws dist::WireError (a
// torn frame: drop this connection). The codec lives in core -- not dist
// -- because the optimizer, tuner and parameter-server layers serialize
// themselves and must not depend on the transport. Checksums, headers
// and file placement are the callers' job.
#pragma once

#include <bit>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <span>
#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

namespace yf::core {

/// Malformed or truncated state bytes. Checkpoint-fatal: the caller
/// discards the candidate file and falls back to an older one.
class StateError : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

/// The `bytes`-byte (<= 8) little-endian word at `p`: one memcpy on a
/// little-endian host, a byte loop elsewhere.
inline std::uint64_t get_le(const std::byte* p, std::size_t bytes) {
  std::uint64_t v = 0;
  if constexpr (std::endian::native == std::endian::little) {
    std::memcpy(&v, p, bytes);
  } else {
    for (std::size_t i = 0; i < bytes; ++i) v |= std::to_integer<std::uint64_t>(p[i]) << (8 * i);
  }
  return v;
}

class ByteWriter {
 public:
  /// Appends to `out`; the caller clears/reuses the buffer between frames
  /// or snapshots, so a warm steady state allocates nothing.
  explicit ByteWriter(std::vector<std::byte>& out) : out_(&out) {}

  void u8(std::uint8_t v);
  void u16(std::uint16_t v);
  void u32(std::uint32_t v);
  void u64(std::uint64_t v);
  void i64(std::int64_t v) { u64(static_cast<std::uint64_t>(v)); }  ///< two's complement
  void f64(double v) { u64(std::bit_cast<std::uint64_t>(v)); }      ///< IEEE-754 bits
  void f64_span(std::span<const double> v);
  void i64_span(std::span<const std::int64_t> v);
  void str(std::string_view s);  ///< u32 length + bytes

 private:
  std::vector<std::byte>* out_;
};

template <class Error>
class ByteReader {
 public:
  explicit ByteReader(std::span<const std::byte> data) : data_(data) {}

  std::uint8_t u8() { return static_cast<std::uint8_t>(word(1, "u8")); }
  std::uint16_t u16() { return static_cast<std::uint16_t>(word(2, "u16")); }
  std::uint32_t u32() { return static_cast<std::uint32_t>(word(4, "u32")); }
  std::uint64_t u64() { return word(8, "u64"); }
  std::int64_t i64() { return static_cast<std::int64_t>(u64()); }
  double f64() { return std::bit_cast<double>(u64()); }
  void f64_span(std::span<double> dst) { copy_span(dst, "f64 span"); }
  void i64_span(std::span<std::int64_t> dst) { copy_span(dst, "i64 span"); }
  std::string str(std::size_t max_len = 1u << 16) {
    const std::uint32_t len = u32();
    if (len > max_len) throw Error("encoded string exceeds its bound");
    const auto bytes = take(len, "string");
    return std::string(reinterpret_cast<const char*>(bytes.data()), bytes.size());
  }

  std::size_t remaining() const { return data_.size() - pos_; }
  /// Throws Error if bytes remain: a record must be consumed completely,
  /// so layout drift between writer and reader shows at once rather than
  /// as silent skew.
  void expect_end() const {
    if (pos_ != data_.size()) throw Error("trailing bytes after the last field read");
  }

 private:
  std::span<const std::byte> take(std::size_t n, const char* what) {
    if (n > data_.size() - pos_) throw Error(std::string("bytes end while reading ") + what);
    const auto out = data_.subspan(pos_, n);
    pos_ += n;
    return out;
  }
  std::uint64_t word(std::size_t n, const char* what) { return get_le(take(n, what).data(), n); }
  template <class T>
  void copy_span(std::span<T> dst, const char* what) {
    const auto in = take(dst.size_bytes(), what);
    if constexpr (std::endian::native == std::endian::little) {
      if (!dst.empty()) std::memcpy(dst.data(), in.data(), dst.size_bytes());
    } else {
      for (std::size_t i = 0; i < dst.size(); ++i) dst[i] = std::bit_cast<T>(get_le(&in[i * 8], 8));
    }
  }

  std::span<const std::byte> data_;
  std::size_t pos_ = 0;
};

/// The checkpoint names of the codec (the wire's are dist::PayloadWriter
/// and dist::PayloadReader).
using StateWriter = ByteWriter;
using StateReader = ByteReader<StateError>;

}  // namespace yf::core
