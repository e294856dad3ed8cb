// ncnas::tensor — minimal dense float32 tensor used throughout the library.
//
// Tensors are value types backed by std::vector<float>, row-major, rank <= 4.
// They intentionally stay small and boring: everything the NAS needs is
// 2-D matrices (batch x features) and 3-D feature maps (batch x length x
// channels) for the 1-D convolutional NT3 search space.
#pragma once

#include <cassert>
#include <cstddef>
#include <cstdint>
#include <initializer_list>
#include <numeric>
#include <span>
#include <stdexcept>
#include <string>
#include <vector>

namespace ncnas::tensor {

/// Shape of a tensor. Kept as a plain vector so printing/debugging is trivial.
using Shape = std::vector<std::size_t>;

/// Total number of elements described by a shape (empty shape -> 0 elements).
[[nodiscard]] std::size_t numel(const Shape& shape);

/// Human-readable "[a, b, c]" rendering, used in error messages.
[[nodiscard]] std::string to_string(const Shape& shape);

/// Dense row-major float tensor.
class Tensor {
 public:
  Tensor() = default;

  /// Allocates a zero-initialized tensor of the given shape.
  explicit Tensor(Shape shape);

  /// Allocates and fills with `value`.
  Tensor(Shape shape, float value);

  /// Adopts the provided flat data; `data.size()` must equal `numel(shape)`.
  Tensor(Shape shape, std::vector<float> data);

  /// Convenience factories -------------------------------------------------
  [[nodiscard]] static Tensor zeros(Shape shape) { return Tensor(std::move(shape)); }
  [[nodiscard]] static Tensor full(Shape shape, float value) {
    return Tensor(std::move(shape), value);
  }
  /// 1-D tensor from an initializer list, handy in tests.
  [[nodiscard]] static Tensor of(std::initializer_list<float> values);
  /// 2-D tensor from nested initializer lists.
  [[nodiscard]] static Tensor of2d(std::initializer_list<std::initializer_list<float>> rows);

  /// Structure -------------------------------------------------------------
  [[nodiscard]] const Shape& shape() const noexcept { return shape_; }
  [[nodiscard]] std::size_t rank() const noexcept { return shape_.size(); }
  [[nodiscard]] std::size_t size() const noexcept { return data_.size(); }
  [[nodiscard]] bool empty() const noexcept { return data_.empty(); }
  /// Dimension `i`; asserts in debug builds.
  [[nodiscard]] std::size_t dim(std::size_t i) const {
    assert(i < shape_.size());
    return shape_[i];
  }

  /// Returns a tensor sharing no storage with this one but viewing the same
  /// data reinterpreted under `new_shape` (element count must match).
  [[nodiscard]] Tensor reshaped(Shape new_shape) const;

  /// Element access ----------------------------------------------------------
  [[nodiscard]] float* data() noexcept { return data_.data(); }
  [[nodiscard]] const float* data() const noexcept { return data_.data(); }
  [[nodiscard]] std::span<float> flat() noexcept { return data_; }
  [[nodiscard]] std::span<const float> flat() const noexcept { return data_; }

  [[nodiscard]] float& operator[](std::size_t i) {
    assert(i < data_.size());
    return data_[i];
  }
  [[nodiscard]] float operator[](std::size_t i) const {
    assert(i < data_.size());
    return data_[i];
  }
  /// 2-D accessors (row, col).
  [[nodiscard]] float& operator()(std::size_t r, std::size_t c) {
    assert(rank() == 2 && r < shape_[0] && c < shape_[1]);
    return data_[r * shape_[1] + c];
  }
  [[nodiscard]] float operator()(std::size_t r, std::size_t c) const {
    assert(rank() == 2 && r < shape_[0] && c < shape_[1]);
    return data_[r * shape_[1] + c];
  }
  /// 3-D accessors (batch, position, channel).
  [[nodiscard]] float& operator()(std::size_t b, std::size_t p, std::size_t ch) {
    assert(rank() == 3);
    return data_[(b * shape_[1] + p) * shape_[2] + ch];
  }
  [[nodiscard]] float operator()(std::size_t b, std::size_t p, std::size_t ch) const {
    assert(rank() == 3);
    return data_[(b * shape_[1] + p) * shape_[2] + ch];
  }

  /// Mutation helpers --------------------------------------------------------
  void fill(float value);
  void zero() { fill(0.0f); }

  /// Reshapes this tensor in place to `shape`, reusing the existing buffer
  /// capacity whenever it suffices (no heap traffic in that case — this is
  /// how layer scratch tensors stay allocation-free across steps). Contents
  /// after reset are unspecified; callers must overwrite every element.
  /// The braced form (`reset({m, n})`) builds no Shape vector either.
  void reset(const Shape& shape) { reset(shape.data(), shape.size()); }
  void reset(std::initializer_list<std::size_t> shape) { reset(shape.begin(), shape.size()); }

  /// Throws std::invalid_argument unless `shape() == expected`. Compares in
  /// place: only the error path builds a Shape.
  void require_shape(const Shape& expected, const char* what) const {
    require_shape(expected.data(), expected.size(), what);
  }
  void require_shape(std::initializer_list<std::size_t> expected, const char* what) const {
    require_shape(expected.begin(), expected.size(), what);
  }

 private:
  void reset(const std::size_t* dims, std::size_t rank);
  void require_shape(const std::size_t* dims, std::size_t rank, const char* what) const;

  Shape shape_;
  std::vector<float> data_;
};

/// True when both tensors have identical shape and bitwise-equal contents.
[[nodiscard]] bool operator==(const Tensor& a, const Tensor& b);

/// Max |a_i - b_i|; tensors must be same shape.
[[nodiscard]] float max_abs_diff(const Tensor& a, const Tensor& b);

}  // namespace ncnas::tensor
