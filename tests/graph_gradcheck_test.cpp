// Whole-graph gradient check: an end-to-end multi-branch model (shared
// weights, concat, add, dropout-off, conv path) differentiated through
// Graph::backward must agree with finite differences on the training loss —
// the strongest single guarantee that searched architectures train correctly.
#include <gtest/gtest.h>

#include "gradcheck.hpp"
#include "ncnas/nn/graph.hpp"
#include "ncnas/nn/layers.hpp"
#include "ncnas/nn/loss.hpp"

namespace ncnas::nn {
namespace {

using tensor::Rng;
using tensor::Tensor;
using testing::numeric_derivative;
using testing::rel_err;

/// Branchy model: two inputs, a shared dense encoder on both, a conv path on
/// input 1, concat + add combiners, tanh head.
struct Model {
  Graph g;
  Tensor xa{tensor::Shape{2, 6}};
  Tensor xb{tensor::Shape{2, 6}};
  Tensor target{tensor::Shape{2, 3}};

  explicit Model(std::uint64_t seed) {
    Rng rng(seed);
    for (float& v : xa.flat()) v = 0.5f * static_cast<float>(rng.normal());
    for (float& v : xb.flat()) v = 0.5f * static_cast<float>(rng.normal());
    for (float& v : target.flat()) v = static_cast<float>(rng.normal());

    const std::size_t a = g.add_input("a", {6});
    const std::size_t b = g.add_input("b", {6});
    auto donor = std::make_unique<Dense>(4, Act::kTanh, rng);
    const Dense* donor_ptr = donor.get();
    const std::size_t ea = g.add(std::move(donor), {a});
    const std::size_t eb = g.add(clone_shared(*donor_ptr), {b});

    const std::size_t lifted = g.add(std::make_unique<Reshape1D>(), {a});
    const std::size_t conv = g.add(std::make_unique<Conv1D>(2, 3, rng), {lifted});
    const std::size_t pooled = g.add(std::make_unique<MaxPool1D>(2), {conv});
    const std::size_t flat = g.add(std::make_unique<Flatten>(), {pooled});

    const std::size_t added = g.add(std::make_unique<Add>(), {ea, eb});
    const std::size_t cat = g.add(std::make_unique<Concat>(), {added, flat});
    g.set_output(g.add(std::make_unique<Dense>(3, Act::kTanh, rng), {cat}));
  }

  float loss() {
    ForwardCtx ctx{};
    const Tensor pred = g.forward(std::vector<Tensor>{xa, xb}, ctx);
    return mse_loss(pred, target).loss;
  }
};

TEST(GraphGradCheck, EndToEndParametersMatchFiniteDifferences) {
  Model m(3);
  m.g.zero_grad();
  ForwardCtx ctx{};
  const Tensor pred = m.g.forward(std::vector<Tensor>{m.xa, m.xb}, ctx);
  const LossValue lv = mse_loss(pred, m.target);
  m.g.backward(lv.grad);

  const auto loss_fn = [&m] { return m.loss(); };
  std::size_t checked = 0;
  for (const ParamPtr& p : m.g.parameters()) {
    for (std::size_t i = 0; i < p->size(); i += std::max<std::size_t>(1, p->size() / 7)) {
      const float num = numeric_derivative(p->value[i], loss_fn);
      EXPECT_LT(rel_err(p->grad[i], num), 4e-2f) << p->name << " slot " << i;
      ++checked;
    }
  }
  EXPECT_GT(checked, 20u);  // the sweep actually covered the model
}

TEST(GraphGradCheck, SharedEncoderGetsBothBranchGradients) {
  Model m(5);
  m.g.zero_grad();
  ForwardCtx ctx{};
  const Tensor pred = m.g.forward(std::vector<Tensor>{m.xa, m.xb}, ctx);
  m.g.backward(mse_loss(pred, m.target).grad);
  // The shared dense is parameter index 0 (first added); zeroing ONE branch's
  // input must change its gradient — i.e., both branches contribute.
  const ParamPtr shared = m.g.parameters().front();
  const Tensor grad_full = shared->grad;
  m.g.zero_grad();
  Tensor xb_saved = m.xb;
  m.xb.zero();
  const Tensor pred2 = m.g.forward(std::vector<Tensor>{m.xa, m.xb}, ctx);
  m.g.backward(mse_loss(pred2, m.target).grad);
  m.xb = xb_saved;
  EXPECT_GT(tensor::max_abs_diff(grad_full, shared->grad), 1e-6f);
}

}  // namespace
}  // namespace ncnas::nn
