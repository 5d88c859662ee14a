#include "tensor/tensor.hpp"

#include <numeric>
#include <sstream>
#include <stdexcept>

#include "core/kernels.hpp"

namespace yf::tensor {

std::int64_t numel(const Shape& shape) {
  std::int64_t n = 1;
  for (auto d : shape) {
    if (d < 0) throw std::invalid_argument("negative extent in shape " + to_string(shape));
    n *= d;
  }
  return n;
}

std::string to_string(const Shape& shape) {
  std::ostringstream os;
  os << '[';
  for (std::size_t i = 0; i < shape.size(); ++i) {
    if (i) os << ", ";
    os << shape[i];
  }
  os << ']';
  return os.str();
}

Tensor::Tensor() : Tensor(Shape{0}) {}

Tensor::Tensor(Shape shape)
    : shape_(std::move(shape)),
      size_(numel(shape_)),
      storage_(std::make_shared<std::vector<double>>(static_cast<std::size_t>(size_), 0.0)) {}

Tensor::Tensor(Shape shape, std::vector<double> data)
    : shape_(std::move(shape)),
      size_(numel(shape_)),
      storage_(std::make_shared<std::vector<double>>(std::move(data))) {
  if (static_cast<std::int64_t>(storage_->size()) != size_) {
    throw std::invalid_argument("Tensor: data size " + std::to_string(storage_->size()) +
                                " does not match shape " + to_string(shape_));
  }
}

Tensor Tensor::scalar(double value) { return Tensor(Shape{1}, {value}); }

Tensor Tensor::zeros(Shape shape) { return Tensor(std::move(shape)); }

Tensor Tensor::ones(Shape shape) { return full(std::move(shape), 1.0); }

Tensor Tensor::full(Shape shape, double value) {
  Tensor t(std::move(shape));
  t.fill(value);
  return t;
}

Tensor Tensor::arange(std::int64_t n) {
  Tensor t(Shape{n});
  for (std::int64_t i = 0; i < n; ++i) (*t.storage_)[static_cast<std::size_t>(i)] = static_cast<double>(i);
  return t;
}

Tensor Tensor::view_of(const Tensor& base, std::int64_t offset, Shape shape) {
  const auto n = numel(shape);
  const auto storage_size = static_cast<std::int64_t>(base.storage_->size());
  if (offset < 0 || base.offset_ + offset + n > storage_size) {
    throw std::invalid_argument("Tensor::view_of: window [" + std::to_string(offset) + ", " +
                                std::to_string(offset + n) + ") from base offset " +
                                std::to_string(base.offset_) + " exceeds shared storage of size " +
                                std::to_string(storage_size));
  }
  Tensor t = base;  // shares storage_
  t.shape_ = std::move(shape);
  t.size_ = n;
  t.offset_ = base.offset_ + offset;
  return t;
}

Tensor Tensor::clone() const {
  const auto s = data();
  return Tensor(shape_, std::vector<double>(s.begin(), s.end()));
}

std::int64_t Tensor::dim_negative_or_throw(std::int64_t i) const {
  const auto nd = ndim();
  if (i < 0) i += nd;
  if (i < 0 || i >= nd) {
    throw std::out_of_range("Tensor::dim: axis " + std::to_string(i) + " out of range for " +
                            to_string(shape_));
  }
  return shape_[static_cast<std::size_t>(i)];
}

std::int64_t Tensor::flat_index(std::initializer_list<std::int64_t> idx) const {
  if (static_cast<std::int64_t>(idx.size()) != ndim()) {
    throw std::invalid_argument("Tensor::at: expected " + std::to_string(ndim()) +
                                " indices, got " + std::to_string(idx.size()));
  }
  std::int64_t flat = 0;
  std::size_t axis = 0;
  for (auto i : idx) {
    const auto extent = shape_[axis];
    if (i < 0 || i >= extent) {
      throw std::out_of_range("Tensor::at: index " + std::to_string(i) + " out of range [0, " +
                              std::to_string(extent) + ") on axis " + std::to_string(axis));
    }
    flat = flat * extent + i;
    ++axis;
  }
  return flat;
}

double& Tensor::at(std::initializer_list<std::int64_t> idx) {
  return (*storage_)[static_cast<std::size_t>(offset_ + flat_index(idx))];
}

double Tensor::at(std::initializer_list<std::int64_t> idx) const {
  return (*storage_)[static_cast<std::size_t>(offset_ + flat_index(idx))];
}

Tensor Tensor::reshape(Shape new_shape) const {
  if (numel(new_shape) != size_) {
    throw std::invalid_argument("Tensor::reshape: cannot reshape " + to_string(shape_) + " to " +
                                to_string(new_shape));
  }
  Tensor t = *this;  // shares storage_
  t.shape_ = std::move(new_shape);
  return t;
}

double Tensor::item() const {
  if (size_ != 1) {
    throw std::invalid_argument("Tensor::item: tensor has " + std::to_string(size_) +
                                " elements, expected 1");
  }
  return (*storage_)[static_cast<std::size_t>(offset_)];
}

void Tensor::fill(double value) { core::fill(data(), value); }

Tensor& Tensor::add_(const Tensor& other, double scale) {
  check_same_shape(*this, other, "add_");
  core::axpy(data(), other.data(), scale);
  return *this;
}

Tensor& Tensor::mul_(double s) {
  core::scale(data(), s);
  return *this;
}

Tensor& Tensor::zero_() {
  core::fill(data(), 0.0);
  return *this;
}

void check_same_shape(const Tensor& a, const Tensor& b, const char* op) {
  if (a.shape() != b.shape()) {
    throw std::invalid_argument(std::string(op) + ": shape mismatch " + to_string(a.shape()) +
                                " vs " + to_string(b.shape()));
  }
}

}  // namespace yf::tensor
