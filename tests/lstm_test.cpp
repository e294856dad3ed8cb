#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "gradcheck.hpp"
#include "ncnas/nn/lstm.hpp"
#include "ncnas/tensor/ops.hpp"

namespace ncnas::nn {
namespace {

using tensor::Rng;
using tensor::Tensor;
using testing::numeric_derivative;
using testing::probe_grad;
using testing::probe_loss;
using testing::rel_err;

// Parameterized over kernel modes so the controller's LSTM math is checked
// under the production (blocked/parallel) kernels, not just the oracles.
using Lstm = ncnas::testing::KernelModeTest;

Tensor random_tensor(tensor::Shape shape, Rng& rng) {
  Tensor t(std::move(shape));
  for (float& v : t.flat()) v = 0.5f * static_cast<float>(rng.normal());
  return t;
}

/// Copies step inputs xs[t] ([batch, in] each) into the workspace.
void feed(LstmWorkspace& ws, const std::vector<Tensor>& xs) {
  for (std::size_t t = 0; t < xs.size(); ++t) std::copy_n(xs[t].data(), xs[t].size(), ws.input(t));
}

/// Step t's output as a [batch, hidden] tensor.
Tensor output(const LstmWorkspace& ws, std::size_t t) {
  const float* h = ws.output(t);
  return {{ws.batch, ws.hidden_dim}, std::vector<float>(h, h + ws.batch * ws.hidden_dim)};
}

TEST_P(Lstm, ShapesAndInitialState) {
  Rng rng(1);
  LstmCell cell(3, 5, rng);
  EXPECT_EQ(cell.input_dim(), 3u);
  EXPECT_EQ(cell.hidden_dim(), 5u);
  LstmWorkspace ws;
  cell.begin(ws, 2, 4);
  EXPECT_EQ(ws.batch, 2u);
  EXPECT_EQ(ws.steps, 4u);
  EXPECT_EQ(ws.input_dim, 3u);
  EXPECT_EQ(ws.hidden_dim, 5u);
  ASSERT_GE(ws.h.size(), 5u * 2 * 5);
  ASSERT_GE(ws.c.size(), 5u * 2 * 5);
  // The initial state h[0], c[0] is zero for every row.
  for (std::size_t i = 0; i < 2 * 5; ++i) {
    EXPECT_EQ(ws.h[i], 0.0f);
    EXPECT_EQ(ws.c[i], 0.0f);
  }
}

// Training runs the whole sequence with forward(); sampling decodes one step
// at a time with forward_step() and takes no gradient. Both must record the
// same bits.
TEST_P(Lstm, StepAndNogradAgree) {
  Rng rng(2);
  LstmCell cell(3, 4, rng);
  std::vector<Tensor> xs;
  for (int t = 0; t < 5; ++t) xs.push_back(random_tensor({2, 3}, rng));
  LstmWorkspace whole, stepped;
  cell.begin(whole, 2, xs.size());
  feed(whole, xs);
  cell.forward(whole);
  cell.begin(stepped, 2, xs.size());
  for (std::size_t t = 0; t < xs.size(); ++t) {
    std::copy_n(xs[t].data(), xs[t].size(), stepped.input(t));
    cell.forward_step(stepped, t);
  }
  const std::size_t n = (xs.size() + 1) * 2 * 4;
  EXPECT_TRUE(std::equal(whole.h.begin(), whole.h.begin() + n, stepped.h.begin()));
  EXPECT_TRUE(std::equal(whole.c.begin(), whole.c.begin() + n, stepped.c.begin()));
  // Steps must run in order.
  cell.begin(stepped, 2, xs.size());
  EXPECT_THROW(cell.forward_step(stepped, 1), std::logic_error);
}

TEST_P(Lstm, HiddenStateBounded) {
  // h = o * tanh(c) is bounded by (-1, 1).
  Rng rng(3);
  LstmCell cell(2, 6, rng);
  LstmWorkspace ws;
  cell.begin(ws, 1, 20);
  for (std::size_t t = 0; t < 20; ++t) {
    const Tensor x = random_tensor({1, 2}, rng);
    std::copy_n(x.data(), x.size(), ws.input(t));
    cell.forward_step(ws, t);
    for (std::size_t j = 0; j < 6; ++j) {
      EXPECT_GT(ws.output(t)[j], -1.0f);
      EXPECT_LT(ws.output(t)[j], 1.0f);
    }
  }
}

TEST_P(Lstm, BpttGradcheckThreeSteps) {
  Rng rng(4);
  LstmCell cell(2, 3, rng);
  std::vector<Tensor> xs;
  for (int t = 0; t < 3; ++t) xs.push_back(random_tensor({2, 2}, rng));

  // Loss: probe over the final hidden state.
  const auto loss_fn = [&] {
    LstmWorkspace eval;
    cell.begin(eval, 2, xs.size());
    feed(eval, xs);
    cell.forward(eval);
    return probe_loss(output(eval, xs.size() - 1));
  };

  LstmWorkspace ws;
  cell.begin(ws, 2, xs.size());
  feed(ws, xs);
  cell.forward(ws);
  for (const ParamPtr& p : cell.parameters()) p->zero_grad();
  const Tensor dh_last = probe_grad(output(ws, xs.size() - 1));
  cell.backward(ws, [&](std::size_t t, float* dh) {
    if (t + 1 != xs.size()) return;
    for (std::size_t i = 0; i < dh_last.size(); ++i) dh[i] += dh_last[i];
  });

  // Parameter gradients vs finite differences.
  for (const ParamPtr& p : cell.parameters()) {
    for (std::size_t i = 0; i < p->size(); i += std::max<std::size_t>(1, p->size() / 11)) {
      const float num = numeric_derivative(p->value[i], loss_fn);
      EXPECT_LT(rel_err(p->grad[i], num), 3e-2f) << p->name << " slot " << i;
    }
  }
  // Input gradients at each time step.
  for (std::size_t t = 0; t < 3; ++t) {
    for (std::size_t i = 0; i < xs[t].size(); ++i) {
      const float num = numeric_derivative(xs[t][i], loss_fn);
      EXPECT_LT(rel_err(ws.input_grad(t)[i], num), 3e-2f) << "x[" << t << "] slot " << i;
    }
  }
}

// backward() needs every step of the sequence recorded by a forward pass.
TEST_P(Lstm, BackwardWithoutCacheThrows) {
  Rng rng(5);
  LstmCell cell(2, 3, rng);
  LstmWorkspace ws;
  const auto no_head = [](std::size_t, float*) {};
  EXPECT_THROW(cell.backward(ws, no_head), std::logic_error);
  cell.begin(ws, 1, 2);
  EXPECT_THROW(cell.backward(ws, no_head), std::logic_error);
  std::fill_n(ws.input(0), 2, 0.5f);
  cell.forward_step(ws, 0);
  EXPECT_THROW(cell.backward(ws, no_head), std::logic_error);
}

TEST_P(Lstm, ForgetGateBiasInitializedToOne) {
  Rng rng(6);
  LstmCell cell(2, 4, rng);
  const ParamPtr b = cell.parameters()[2];
  for (std::size_t j = 4; j < 8; ++j) EXPECT_FLOAT_EQ(b->value[j], 1.0f);
  EXPECT_FLOAT_EQ(b->value[0], 0.0f);
}

INSTANTIATE_TEST_SUITE_P(KernelModes, Lstm,
                         ::testing::ValuesIn(ncnas::testing::kernel_mode_params()),
                         ncnas::testing::kernel_mode_name);

}  // namespace
}  // namespace ncnas::nn
