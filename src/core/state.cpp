#include "core/state.hpp"

#include <bit>
#include <string>

namespace yf::core {

namespace {

void put_le(std::vector<std::byte>& out, std::uint64_t v, int bytes) {
  for (int i = 0; i < bytes; ++i) {
    out.push_back(static_cast<std::byte>((v >> (8 * i)) & 0xff));
  }
}

std::uint64_t get_le(std::span<const std::byte> in, std::size_t offset, int bytes) {
  std::uint64_t v = 0;
  for (int i = 0; i < bytes; ++i) {
    v |= std::to_integer<std::uint64_t>(in[offset + static_cast<std::size_t>(i)]) << (8 * i);
  }
  return v;
}

}  // namespace

void StateWriter::u8(std::uint8_t v) { put_le(*out_, v, 1); }
void StateWriter::u32(std::uint32_t v) { put_le(*out_, v, 4); }
void StateWriter::u64(std::uint64_t v) { put_le(*out_, v, 8); }
void StateWriter::i64(std::int64_t v) { u64(static_cast<std::uint64_t>(v)); }
void StateWriter::f64(double v) { u64(std::bit_cast<std::uint64_t>(v)); }

void StateWriter::f64_span(std::span<const double> v) {
  out_->reserve(out_->size() + v.size() * 8);
  for (const double d : v) f64(d);
}

std::span<const std::byte> StateReader::take(std::size_t n, const char* what) {
  if (n > data_.size() - pos_) {
    throw StateError(std::string("state underrun reading ") + what);
  }
  const auto out = data_.subspan(pos_, n);
  pos_ += n;
  return out;
}

std::uint8_t StateReader::u8() { return static_cast<std::uint8_t>(get_le(take(1, "u8"), 0, 1)); }
std::uint32_t StateReader::u32() {
  return static_cast<std::uint32_t>(get_le(take(4, "u32"), 0, 4));
}
std::uint64_t StateReader::u64() { return get_le(take(8, "u64"), 0, 8); }
std::int64_t StateReader::i64() { return static_cast<std::int64_t>(u64()); }
double StateReader::f64() { return std::bit_cast<double>(u64()); }

void StateReader::f64_span(std::span<double> dst) {
  const auto bytes = take(dst.size() * 8, "f64 span");
  for (std::size_t i = 0; i < dst.size(); ++i) {
    dst[i] = std::bit_cast<double>(get_le(bytes, i * 8, 8));
  }
}

void StateReader::expect_end() const {
  if (pos_ != data_.size()) {
    throw StateError("trailing bytes after state (layout drift between writer and reader?)");
  }
}

}  // namespace yf::core
