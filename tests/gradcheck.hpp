// Finite-difference gradient checking helpers shared by the nn tests.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <functional>
#include <optional>
#include <ostream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "ncnas/nn/layer.hpp"
#include "ncnas/tensor/kernel_config.hpp"
#include "ncnas/tensor/ops.hpp"

namespace ncnas::testing {

/// One kernel tier a parameterized suite runs under: the reference kernels
/// only (blocked == 0), or the blocked kernels (blocked == 1).
struct KernelMode {
  std::size_t blocked;
};

/// gtest prints a parameter into every discovered test name; without this it
/// would print the object's raw bytes.
inline void PrintTo(const KernelMode& mode, std::ostream* os) {
  *os << (mode.blocked == 0 ? "ref" : "blocked");
}

/// Parameterized fixture that re-runs a suite under each kernel mode. In the
/// blocked modes dispatch thresholds are zeroed and blocks shrunk so even the
/// tiny problems gradchecks use genuinely exercise the blocked paths
/// (including edge panels) instead of falling back to the reference.
class KernelModeTest : public ::testing::TestWithParam<KernelMode> {
 protected:
  void SetUp() override {
    tensor::KernelConfig cfg;
    cfg.block_rows = 8;
    cfg.block_cols = 32;
    cfg.min_blocked_flops = GetParam().blocked == 0 ? SIZE_MAX : 0;
    guard_.emplace(cfg);
  }
  void TearDown() override { guard_.reset(); }

 private:
  std::optional<tensor::KernelConfigGuard> guard_;
};

/// The modes every kernel-mode suite runs under: reference, and blocked.
inline std::vector<KernelMode> kernel_mode_params() { return {{.blocked = 0}, {.blocked = 1}}; }

/// Stable, unique test-name suffix per mode.
inline std::string kernel_mode_name(const ::testing::TestParamInfo<KernelMode>& info) {
  return info.param.blocked == 0 ? "ref" : "blocked_serial";
}

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
