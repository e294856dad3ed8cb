// Finite-difference gradient checking helpers shared by the nn tests.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <functional>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "ncnas/nn/layer.hpp"
#include "ncnas/tensor/kernel_config.hpp"
#include "ncnas/tensor/ops.hpp"

namespace ncnas::testing {

/// One kernel-tier configuration a parameterized suite runs under: the
/// reference kernels only (threads == 0), or the blocked kernels on that many
/// kernel threads.
struct KernelMode {
  std::size_t threads;
  /// Unused. gtest prints a parameter's raw bytes into every discovered test
  /// name, so this keeps the 16-byte layout those names were registered with.
  std::int32_t reserved = 1;
};

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
    cfg.min_parallel_elems = 0;
    if (GetParam().threads == 0) {
      cfg.min_blocked_flops = SIZE_MAX;
    } else {
      cfg.threads = GetParam().threads;
      cfg.min_blocked_flops = 0;
    }
    guard_.emplace(cfg);
  }
  void TearDown() override { guard_.reset(); }

 private:
  std::optional<tensor::KernelConfigGuard> guard_;
};

/// The modes every kernel-mode suite runs under: reference, and blocked
/// serially and on the hardware's worth of pool threads.
inline std::vector<KernelMode> kernel_mode_params() {
  const std::size_t hw = std::max<std::size_t>(2, std::thread::hardware_concurrency());
  return {{.threads = 0}, {.threads = 1}, {.threads = hw}};
}

/// Stable, unique test-name suffix per mode (the hardware entry can never
/// collide with the serial entries because it is clamped to >= 2).
inline std::string kernel_mode_name(const ::testing::TestParamInfo<KernelMode>& info) {
  const KernelMode& m = info.param;
  if (m.threads == 0) return "ref";
  if (m.threads == 1) return "blocked_serial";
  return "blocked_t" + std::to_string(m.threads);
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
