// yf::tensor -- minimal dense tensor used by the whole library.
//
// Design notes (cf. DESIGN.md §3):
//  * Row-major, contiguous, double precision. The paper's tuner is pure
//    scalar bookkeeping over gradients; double keeps the math exact enough
//    for finite-difference gradient checks.
//  * Storage is shared (`std::shared_ptr<std::vector<double>>`), so
//    `reshape` is O(1) and copies are explicit via `clone()`.
//  * The only view machinery is a contiguous offset window (`view_of`),
//    which is what lets core::ParamArena flatten every parameter into one
//    buffer while each parameter keeps an O(1)-reshape handle onto its
//    slice (DESIGN.md §4). Strided/sliced views still copy.
#pragma once

#include <cstdint>
#include <initializer_list>
#include <memory>
#include <span>
#include <string>
#include <vector>

namespace yf::tensor {

/// Shape of a tensor: extent along each axis.
using Shape = std::vector<std::int64_t>;

/// Number of elements implied by a shape (product of extents; 1 for rank-0).
std::int64_t numel(const Shape& shape);

/// Human-readable "[2, 3, 4]" form, for error messages and logging.
std::string to_string(const Shape& shape);

/// Dense row-major tensor of doubles with shared storage.
class Tensor {
 public:
  /// Empty tensor: rank 1, zero elements.
  Tensor();

  /// Zero-initialized tensor of the given shape.
  explicit Tensor(Shape shape);

  /// Tensor wrapping the given flat data; `data.size()` must equal
  /// `numel(shape)`.
  Tensor(Shape shape, std::vector<double> data);

  /// Rank-0-like convenience: a 1-element tensor holding `value`.
  static Tensor scalar(double value);

  static Tensor zeros(Shape shape);
  static Tensor ones(Shape shape);
  static Tensor full(Shape shape, double value);

  /// [0, 1, ..., n-1] as a rank-1 tensor.
  static Tensor arange(std::int64_t n);

  /// Contiguous window into `base`'s *shared storage*, starting `offset`
  /// elements after `base`'s own start. Writes through either handle are
  /// visible in both. Note the bound is the storage, not `base`'s extent:
  /// a view of an arena slot may legitimately widen back out to the whole
  /// arena buffer (see core::ParamArena adoption).
  static Tensor view_of(const Tensor& base, std::int64_t offset, Shape shape);

  /// Deep copy (fresh storage).
  Tensor clone() const;

  const Shape& shape() const { return shape_; }
  std::int64_t ndim() const { return static_cast<std::int64_t>(shape_.size()); }
  std::int64_t size() const { return size_; }
  /// Extent along axis `i` (supports negative axes Python-style).
  std::int64_t dim(std::int64_t i) const {
    if (i >= 0 && i < ndim()) return shape_[static_cast<std::size_t>(i)];
    return dim_negative_or_throw(i);
  }

  std::span<double> data() {
    return {storage_->data() + offset_, static_cast<std::size_t>(size_)};
  }
  std::span<const double> data() const {
    return {storage_->data() + offset_, static_cast<std::size_t>(size_)};
  }

  /// Flat element access.
  double& operator[](std::int64_t i) {
    return (*storage_)[static_cast<std::size_t>(offset_ + i)];
  }
  double operator[](std::int64_t i) const {
    return (*storage_)[static_cast<std::size_t>(offset_ + i)];
  }

  /// Multi-index access; the index list length must equal ndim().
  double& at(std::initializer_list<std::int64_t> idx);
  double at(std::initializer_list<std::int64_t> idx) const;

  /// O(1) reshape sharing storage; total element count must be preserved.
  Tensor reshape(Shape new_shape) const;

  /// True when the two tensors share the same underlying storage (a view
  /// and its base buffer share storage even at different offsets).
  bool shares_storage_with(const Tensor& other) const {
    return storage_ == other.storage_;
  }

  /// Offset of this tensor's first element within the shared storage
  /// (non-zero only for view_of results).
  std::int64_t storage_offset() const { return offset_; }

  /// Value of a 1-element tensor; throws otherwise.
  double item() const;

  /// Set every element to `value`.
  void fill(double value);

  // -- In-place arithmetic used on hot paths (optimizer updates). ----------
  Tensor& add_(const Tensor& other, double scale = 1.0);  ///< this += scale*other
  Tensor& mul_(double s);                                 ///< this *= s
  Tensor& zero_();                                        ///< this = 0

 private:
  /// dim() off its in-range path: negative axes, and the out-of-range throw.
  std::int64_t dim_negative_or_throw(std::int64_t i) const;
  std::int64_t flat_index(std::initializer_list<std::int64_t> idx) const;

  Shape shape_;
  std::int64_t size_ = 0;
  std::int64_t offset_ = 0;  ///< first element within storage_ (views only)
  std::shared_ptr<std::vector<double>> storage_;
};

/// Throws std::invalid_argument unless the shapes match exactly.
void check_same_shape(const Tensor& a, const Tensor& b, const char* op);

}  // namespace yf::tensor
