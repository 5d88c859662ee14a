#include "core/state.hpp"

namespace yf::core {

namespace {

void put_le(std::vector<std::byte>& out, std::uint64_t v, int bytes) {
  for (int i = 0; i < bytes; ++i) {
    out.push_back(static_cast<std::byte>((v >> (8 * i)) & 0xff));
  }
}

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

}  // namespace

void ByteWriter::u8(std::uint8_t v) { put_le(*out_, v, 1); }
void ByteWriter::u16(std::uint16_t v) { put_le(*out_, v, 2); }
void ByteWriter::u32(std::uint32_t v) { put_le(*out_, v, 4); }
void ByteWriter::u64(std::uint64_t v) { put_le(*out_, v, 8); }
void ByteWriter::f64_span(std::span<const double> v) { put_span(*out_, v); }
void ByteWriter::i64_span(std::span<const std::int64_t> v) { put_span(*out_, v); }

void ByteWriter::str(std::string_view s) {
  u32(static_cast<std::uint32_t>(s.size()));
  for (const char c : s) out_->push_back(static_cast<std::byte>(c));
}

}  // namespace yf::core
