// Finite-difference checks of every layer's backward pass — the backbone
// guarantee that rewards produced by the evaluator are real gradients' work.
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

// Every check runs once per kernel mode (reference / blocked serial /
// blocked parallel), so gradients are verified under the kernels production
// actually uses — not just the serial oracles.
using GradCheck = ncnas::testing::KernelModeTest;

Tensor random_tensor(tensor::Shape shape, Rng& rng, float scale = 1.0f) {
  Tensor t(std::move(shape));
  for (float& v : t.flat()) v = scale * static_cast<float>(rng.normal());
  return t;
}

/// Checks dL/dx and dL/dtheta of a single-input layer against finite
/// differences on a fresh forward pass per probe.
void check_layer(Layer& layer, Tensor x, float tol = 2e-2f) {
  ForwardCtx ctx{.training = false, .rng = nullptr};
  LayerHarness h(layer);
  const auto loss_fn = [&] {
    const Tensor* in[] = {&x};
    return probe_loss(h.forward(in, ctx));
  };

  const Tensor* in[] = {&x};
  const Tensor y = h.forward(in, ctx);
  for (const ParamPtr& p : layer.parameters()) p->zero_grad();
  const std::vector<Tensor> dx = h.backward(probe_grad(y));
  ASSERT_EQ(dx.size(), 1u);

  // Input gradients (a sample of slots to keep the test fast).
  for (std::size_t i = 0; i < x.size(); i += std::max<std::size_t>(1, x.size() / 13)) {
    const float num = numeric_derivative(x[i], loss_fn);
    EXPECT_LT(rel_err(dx[0][i], num), tol) << "input slot " << i;
  }
  // Parameter gradients.
  for (const ParamPtr& p : layer.parameters()) {
    for (std::size_t i = 0; i < p->size(); i += std::max<std::size_t>(1, p->size() / 13)) {
      const float num = numeric_derivative(p->value[i], loss_fn);
      EXPECT_LT(rel_err(p->grad[i], num), tol) << p->name << " slot " << i;
    }
  }
}

TEST_P(GradCheck, DenseLinear) {
  Rng rng(1);
  Dense layer(5, Act::kLinear, rng);
  check_layer(layer, random_tensor({3, 4}, rng));
}

TEST_P(GradCheck, DenseTanh) {
  Rng rng(2);
  Dense layer(6, Act::kTanh, rng);
  check_layer(layer, random_tensor({2, 3}, rng));
}

TEST_P(GradCheck, DenseSigmoid) {
  Rng rng(3);
  Dense layer(4, Act::kSigmoid, rng);
  check_layer(layer, random_tensor({2, 5}, rng));
}

TEST_P(GradCheck, DenseRelu) {
  Rng rng(4);
  Dense layer(8, Act::kRelu, rng);
  // Offset inputs away from the relu kink so finite differences are clean.
  Tensor x = random_tensor({3, 4}, rng);
  for (float& v : x.flat()) v += (v >= 0 ? 0.5f : -0.5f);
  check_layer(layer, std::move(x));
}

TEST_P(GradCheck, DenseSoftmax) {
  Rng rng(5);
  Dense layer(5, Act::kSoftmax, rng);
  // Softmax couples every output; float32 central differences carry a bit
  // more rounding error than the elementwise activations.
  check_layer(layer, random_tensor({2, 3}, rng), /*tol=*/4e-2f);
}

TEST_P(GradCheck, StandaloneActivationTanh) {
  Rng rng(6);
  Activation layer(Act::kTanh);
  check_layer(layer, random_tensor({4, 6}, rng));
}

TEST_P(GradCheck, Conv1D) {
  Rng rng(7);
  Conv1D layer(3, 4, rng);
  check_layer(layer, random_tensor({2, 9, 2}, rng));
}

TEST_P(GradCheck, MaxPool1D) {
  Rng rng(8);
  MaxPool1D layer(3);
  check_layer(layer, random_tensor({2, 10, 2}, rng));
}

TEST_P(GradCheck, FlattenAndReshape) {
  Rng rng(9);
  Flatten flat;
  check_layer(flat, random_tensor({2, 4, 3}, rng));
  Reshape1D lift;
  check_layer(lift, random_tensor({3, 5}, rng));
}

TEST_P(GradCheck, MultiInputConcat) {
  Rng rng(10);
  Concat layer;
  Tensor a = random_tensor({2, 3}, rng);
  Tensor b = random_tensor({2, 4}, rng);
  ForwardCtx ctx{};
  LayerHarness h(layer);
  const auto loss_fn = [&] {
    const Tensor* in[] = {&a, &b};
    return probe_loss(h.forward(in, ctx));
  };
  const Tensor* in[] = {&a, &b};
  const Tensor y = h.forward(in, ctx);
  const std::vector<Tensor> dx = h.backward(probe_grad(y));
  ASSERT_EQ(dx.size(), 2u);
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_LT(rel_err(dx[0][i], numeric_derivative(a[i], loss_fn)), 2e-2f);
  }
  for (std::size_t i = 0; i < b.size(); ++i) {
    EXPECT_LT(rel_err(dx[1][i], numeric_derivative(b[i], loss_fn)), 2e-2f);
  }
}

TEST_P(GradCheck, MultiInputAddWithPadding) {
  Rng rng(11);
  Add layer;
  Tensor a = random_tensor({2, 5}, rng);
  Tensor b = random_tensor({2, 3}, rng);  // narrower: zero-padded
  ForwardCtx ctx{};
  LayerHarness h(layer);
  const auto loss_fn = [&] {
    const Tensor* in[] = {&a, &b};
    return probe_loss(h.forward(in, ctx));
  };
  const Tensor* in[] = {&a, &b};
  const Tensor y = h.forward(in, ctx);
  ASSERT_EQ(y.dim(1), 5u);
  const std::vector<Tensor> dx = h.backward(probe_grad(y));
  ASSERT_EQ(dx.size(), 2u);
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_LT(rel_err(dx[0][i], numeric_derivative(a[i], loss_fn)), 2e-2f);
  }
  for (std::size_t i = 0; i < b.size(); ++i) {
    EXPECT_LT(rel_err(dx[1][i], numeric_derivative(b[i], loss_fn)), 2e-2f);
  }
}

TEST_P(GradCheck, SharedDenseAccumulatesBothBranches) {
  // A mirrored Dense must receive gradient contributions from both uses.
  Rng rng(12);
  Dense donor(4, Act::kLinear, rng);
  const FeatShape in[] = {FeatShape{3}};
  (void)donor.bind(in);
  const LayerPtr mirror = clone_shared(donor);
  Tensor x1 = random_tensor({2, 3}, rng);
  Tensor x2 = random_tensor({2, 3}, rng);
  ForwardCtx ctx{};
  LayerHarness hd(donor);
  LayerHarness hm(*mirror);
  const auto loss_fn = [&] {
    const Tensor* in1[] = {&x1};
    const Tensor* in2[] = {&x2};
    return probe_loss(hd.forward(in1, ctx)) + probe_loss(hm.forward(in2, ctx));
  };
  const Tensor* in1[] = {&x1};
  const Tensor* in2[] = {&x2};
  const Tensor y1 = hd.forward(in1, ctx);
  const Tensor y2 = hm.forward(in2, ctx);
  ASSERT_EQ(donor.parameters()[0].get(), mirror->parameters()[0].get());
  for (const ParamPtr& p : donor.parameters()) p->zero_grad();
  (void)hd.backward(probe_grad(y1));
  (void)hm.backward(probe_grad(y2));
  const ParamPtr w = donor.parameters()[0];
  for (std::size_t i = 0; i < w->size(); i += 3) {
    const float num = numeric_derivative(w->value[i], loss_fn);
    EXPECT_LT(rel_err(w->grad[i], num), 2e-2f) << "shared w slot " << i;
  }
}

INSTANTIATE_TEST_SUITE_P(KernelModes, GradCheck,
                         ::testing::ValuesIn(ncnas::testing::kernel_mode_params()),
                         ncnas::testing::kernel_mode_name);

}  // namespace
}  // namespace ncnas::nn
