// Parameterized gradient checks across every activation function, both fused
// into Dense and standalone — the property that keeps every search-space
// option trainable.
#include <gtest/gtest.h>

#include "gradcheck.hpp"
#include "layer_harness.hpp"
#include "ncnas/nn/layers.hpp"

namespace ncnas::nn {
namespace {

using tensor::Rng;
using tensor::Tensor;
using testing::LayerHarness;
using testing::numeric_derivative;
using testing::probe_grad;
using testing::probe_loss;
using testing::rel_err;

class ActivationProperty : public ::testing::TestWithParam<Act> {};

Tensor smooth_input(std::size_t rows, std::size_t cols, Rng& rng) {
  Tensor x({rows, cols});
  // Keep values away from the relu kink for clean finite differences.
  for (float& v : x.flat()) {
    const float z = static_cast<float>(rng.normal());
    v = z + (z >= 0 ? 0.4f : -0.4f);
  }
  return x;
}

TEST_P(ActivationProperty, StandaloneBackwardMatchesFiniteDifferences) {
  Rng rng(31);
  Activation layer(GetParam());
  Tensor x = smooth_input(3, 4, rng);
  ForwardCtx ctx{};
  LayerHarness h(layer);
  const auto loss_fn = [&] {
    const Tensor* in[] = {&x};
    return probe_loss(h.forward(in, ctx));
  };
  const Tensor* in[] = {&x};
  const Tensor y = h.forward(in, ctx);
  const auto dx = h.backward(probe_grad(y));
  ASSERT_EQ(dx.size(), 1u);
  // float32 central differences on coupled outputs (softmax) carry a little
  // extra rounding error; 4e-2 still catches any sign/scale defect.
  for (std::size_t i = 0; i < x.size(); ++i) {
    EXPECT_LT(rel_err(dx[0][i], numeric_derivative(x[i], loss_fn)), 4e-2f) << "slot " << i;
  }
}

TEST_P(ActivationProperty, FusedDenseBackwardMatchesFiniteDifferences) {
  Rng rng(37);
  Dense layer(4, GetParam(), rng);
  Tensor x = smooth_input(2, 3, rng);
  ForwardCtx ctx{};
  LayerHarness h(layer);
  const auto loss_fn = [&] {
    const Tensor* in[] = {&x};
    return probe_loss(h.forward(in, ctx));
  };
  const Tensor* in[] = {&x};
  const Tensor y = h.forward(in, ctx);
  for (const ParamPtr& p : layer.parameters()) p->zero_grad();
  (void)h.backward(probe_grad(y));
  for (const ParamPtr& p : layer.parameters()) {
    for (std::size_t i = 0; i < p->size(); ++i) {
      EXPECT_LT(rel_err(p->grad[i], numeric_derivative(p->value[i], loss_fn)), 3e-2f)
          << p->name << " slot " << i;
    }
  }
}

TEST_P(ActivationProperty, OutputRangeRespected) {
  Rng rng(41);
  Tensor x = smooth_input(4, 5, rng);
  const Tensor y = apply_act(GetParam(), x);
  for (float v : y.flat()) {
    ASSERT_TRUE(std::isfinite(v));
    switch (GetParam()) {
      case Act::kRelu: EXPECT_GE(v, 0.0f); break;
      case Act::kTanh:
        EXPECT_GE(v, -1.0f);
        EXPECT_LE(v, 1.0f);
        break;
      case Act::kSigmoid:
      case Act::kSoftmax:
        EXPECT_GE(v, 0.0f);
        EXPECT_LE(v, 1.0f);
        break;
      case Act::kLinear: break;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(AllActivations, ActivationProperty,
                         ::testing::Values(Act::kLinear, Act::kRelu, Act::kTanh,
                                           Act::kSigmoid, Act::kSoftmax),
                         [](const ::testing::TestParamInfo<Act>& info) {
                           return act_name(info.param);
                         });

}  // namespace
}  // namespace ncnas::nn
