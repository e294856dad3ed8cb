#include "ncnas/tensor/tensor.hpp"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <sstream>

#include "ncnas/obs/profiler.hpp"

namespace ncnas::tensor {

std::size_t numel(const Shape& shape) {
  if (shape.empty()) return 0;
  std::size_t n = 1;
  for (std::size_t d : shape) n *= d;
  return n;
}

std::string to_string(const Shape& shape) {
  std::ostringstream os;
  os << '[';
  for (std::size_t i = 0; i < shape.size(); ++i) {
    if (i != 0) os << ", ";
    os << shape[i];
  }
  os << ']';
  return os.str();
}

// The two value-initializing constructors are the hot-path buffer
// allocations (every op output goes through them); adopting constructors
// reuse a caller-built buffer and are deliberately not counted.
Tensor::Tensor(Shape shape) : shape_(std::move(shape)), data_(numel(shape_), 0.0f) {
  if (!data_.empty()) obs::profile_alloc(data_.size() * sizeof(float));
}

Tensor::Tensor(Shape shape, float value) : shape_(std::move(shape)), data_(numel(shape_), value) {
  if (!data_.empty()) obs::profile_alloc(data_.size() * sizeof(float));
}

Tensor::Tensor(Shape shape, std::vector<float> data)
    : shape_(std::move(shape)), data_(std::move(data)) {
  if (data_.size() != numel(shape_)) {
    throw std::invalid_argument("Tensor: data size " + std::to_string(data_.size()) +
                                " does not match shape " + to_string(shape_));
  }
}

Tensor Tensor::of(std::initializer_list<float> values) {
  return Tensor({values.size()}, std::vector<float>(values));
}

Tensor Tensor::of2d(std::initializer_list<std::initializer_list<float>> rows) {
  const std::size_t r = rows.size();
  const std::size_t c = r == 0 ? 0 : rows.begin()->size();
  std::vector<float> data;
  data.reserve(r * c);
  for (const auto& row : rows) {
    if (row.size() != c) throw std::invalid_argument("Tensor::of2d: ragged rows");
    data.insert(data.end(), row.begin(), row.end());
  }
  return Tensor({r, c}, std::move(data));
}

Tensor Tensor::reshaped(Shape new_shape) const {
  if (numel(new_shape) != data_.size()) {
    throw std::invalid_argument("Tensor::reshaped: cannot view " + to_string(shape_) + " as " +
                                to_string(new_shape));
  }
  return Tensor(std::move(new_shape), data_);
}

void Tensor::fill(float value) { std::ranges::fill(data_, value); }

void Tensor::reset(const std::size_t* dims, std::size_t rank) {
  std::size_t n = rank == 0 ? 0 : 1;
  for (std::size_t i = 0; i < rank; ++i) n *= dims[i];
  if (n > data_.capacity()) {
    // Growing: drop the old elements first so resize doesn't copy them into
    // the new buffer, and count the fresh allocation like the constructors.
    data_.clear();
    data_.resize(n);
    if (n != 0) obs::profile_alloc(n * sizeof(float));
  } else {
    data_.resize(n);
  }
  if (dims != shape_.data()) shape_.assign(dims, dims + rank);
}

void Tensor::require_shape(const std::size_t* dims, std::size_t rank, const char* what) const {
  if (!std::equal(shape_.begin(), shape_.end(), dims, dims + rank)) {
    throw std::invalid_argument(std::string(what) + ": expected shape " +
                                to_string(Shape(dims, dims + rank)) + ", got " +
                                to_string(shape_));
  }
}

bool operator==(const Tensor& a, const Tensor& b) {
  // Bytes, not float ==: equal NaNs compare equal, and -0 differs from +0.
  return a.shape() == b.shape() &&
         (a.size() == 0 || std::memcmp(a.data(), b.data(), a.size() * sizeof(float)) == 0);
}

float max_abs_diff(const Tensor& a, const Tensor& b) {
  if (a.shape() != b.shape()) {
    throw std::invalid_argument("max_abs_diff: shape mismatch " + to_string(a.shape()) + " vs " +
                                to_string(b.shape()));
  }
  float m = 0.0f;
  for (std::size_t i = 0; i < a.size(); ++i) m = std::max(m, std::fabs(a[i] - b[i]));
  return m;
}

}  // namespace ncnas::tensor
