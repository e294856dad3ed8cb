// Finite-difference gradient checking helpers shared by the nn tests.
#pragma once

#include <algorithm>
#include <cmath>
#include <functional>

#include "ncnas/nn/layer.hpp"
#include "ncnas/tensor/ops.hpp"

namespace ncnas::testing {

/// Scalar probe loss: L = sum_i w_i * y_i with fixed pseudo-random weights,
/// which exercises every output element with distinct sensitivities.
inline float probe_loss(const tensor::Tensor& y) {
  float loss = 0.0f;
  for (std::size_t i = 0; i < y.size(); ++i) {
    loss += y[i] * (0.1f + 0.01f * static_cast<float>(i % 17));
  }
  return loss;
}

/// dL/dy for probe_loss.
inline tensor::Tensor probe_grad(const tensor::Tensor& y) {
  tensor::Tensor g(y.shape());
  for (std::size_t i = 0; i < g.size(); ++i) {
    g[i] = 0.1f + 0.01f * static_cast<float>(i % 17);
  }
  return g;
}

/// Central-difference derivative of `loss_fn` w.r.t. one scalar slot.
inline float numeric_derivative(float& slot, const std::function<float()>& loss_fn,
                                float eps = 1e-3f) {
  const float saved = slot;
  slot = saved + eps;
  const float up = loss_fn();
  slot = saved - eps;
  const float down = loss_fn();
  slot = saved;
  return (up - down) / (2.0f * eps);
}

/// Relative error tolerant of tiny denominators.
inline float rel_err(float a, float b) {
  return std::fabs(a - b) / std::max({std::fabs(a), std::fabs(b), 1e-3f});
}

}  // namespace ncnas::testing
