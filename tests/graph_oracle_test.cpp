// The planned, copy-free graph executor against the copying executor it
// replaced (graph_oracle.hpp): forward outputs, every parameter gradient and
// every layer's input gradients must match bit for bit, across random
// architectures from all five search spaces, batch sizes (batch 256 runs
// the layers' gemms on the blocked tier, batches 7 and 1 mostly on the
// reference one), and training and eval mode. A run of steps on one graph
// pair also covers slot reuse as the batch size shrinks and grows.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <functional>

#include "graph_oracle.hpp"
#include "layer_harness.hpp"
#include "ncnas/data/dataset.hpp"
#include "ncnas/exec/evaluator.hpp"
#include "ncnas/space/builder.hpp"
#include "ncnas/space/spaces.hpp"

namespace ncnas {
namespace {

using tensor::Rng;
using tensor::Tensor;

Tensor random_tensor(tensor::Shape shape, Rng& rng) {
  Tensor t(std::move(shape));
  for (float& v : t.flat()) v = static_cast<float>(rng.normal());
  return t;
}

/// Same shape and the same bytes (NaN included, unlike operator==).
bool same_bits(const Tensor& a, const Tensor& b) {
  return a.shape() == b.shape() &&
         std::memcmp(a.data(), b.data(), a.size() * sizeof(float)) == 0;
}

/// A mean-over-rows loss gradient that depends on the prediction, so a
/// wrong forward shows up in the gradients too.
Tensor loss_grad(const Tensor& y) {
  Tensor g(y.shape());
  const float scale = 1.0f / static_cast<float>(y.dim(0));
  for (std::size_t i = 0; i < g.size(); ++i) {
    g[i] = scale * (0.5f * y[i] - (0.1f + 0.01f * static_cast<float>(i % 17)));
  }
  return g;
}

/// One forward + backward + plain gradient step on both graphs, checking
/// that they agree bit for bit. Dropout masks come from equal rng streams.
void expect_same_step(nn::Graph& g, oracle::Graph& o, std::span<const Tensor> x, bool training,
                      std::uint64_t seed, const std::string& what) {
  Rng rg(seed);
  Rng ro(seed);
  nn::ForwardCtx cg{.training = training, .rng = &rg};
  nn::ForwardCtx co{.training = training, .rng = &ro};
  g.zero_grad();
  o.zero_grad();
  const Tensor& yg = g.forward(x, cg);
  const Tensor yo = o.forward(x, co);
  ASSERT_TRUE(same_bits(yg, yo)) << what << ": forward output";
  const Tensor grad = loss_grad(yo);
  g.backward(grad);
  o.backward(grad);
  const std::vector<nn::ParamPtr>& pg = g.parameters();
  const std::vector<nn::ParamPtr> po = o.parameters();
  ASSERT_EQ(pg.size(), po.size()) << what;
  for (std::size_t k = 0; k < pg.size(); ++k) {
    ASSERT_TRUE(same_bits(pg[k]->grad, po[k]->grad)) << what << ": gradient of parameter " << k;
  }
  // Move the weights so later steps see new values in every slot.
  for (std::size_t k = 0; k < pg.size(); ++k) {
    tensor::axpy(-0.01f, pg[k]->grad, pg[k]->value);
    tensor::axpy(-0.01f, po[k]->grad, po[k]->value);
  }
}

/// Runs the batch/mode sequence on a twin pair.
void expect_twins_agree(nn::Graph& g, std::span<const std::size_t> dims, Rng& rng,
                        const std::string& what) {
  std::vector<Tensor> probe;
  for (std::size_t d : dims) probe.push_back(random_tensor({2, d}, rng));
  nn::ForwardCtx ctx{};
  (void)g.forward(probe, ctx);
  oracle::Graph o = oracle::mirror_graph(g, probe);
  for (std::size_t batch : {256, 7, 1}) {
    std::vector<Tensor> x;
    for (std::size_t d : dims) x.push_back(random_tensor({batch, d}, rng));
    for (bool training : {true, false}) {
      const std::string step =
          what + " [batch " + std::to_string(batch) + (training ? ", train]" : ", eval]");
      expect_same_step(g, o, x, training, rng.next_u64(), step);
      if (::testing::Test::HasFatalFailure()) return;
    }
  }
}

/// What the sampled architectures exercised, so the sweep cannot silently
/// stop covering the cases the executor plans around. (Built models have no
/// dead branches; the hand-built graph below covers those.)
struct Coverage {
  std::size_t shared = 0;     // layers reusing an earlier layer's parameters
  std::size_t fan_out = 0;    // nodes feeding several consumers
  std::size_t combiners = 0;  // Concat / Add nodes
  std::size_t dropout = 0;

  void add(const nn::Graph& g) {
    const std::size_t n = g.node_count();
    std::vector<std::size_t> consumers(n, 0);
    std::vector<const nn::Parameter*> seen;
    for (std::size_t i = 0; i < n; ++i) {
      for (std::size_t src : g.node_inputs(i)) ++consumers[src];
    }
    for (std::size_t i = 0; i < n; ++i) {
      const nn::Layer& l = g.layer(i);
      const std::vector<nn::ParamPtr> ps = l.parameters();
      if (!ps.empty()) {
        if (std::ranges::find(seen, ps.front().get()) != seen.end()) ++shared;
        seen.push_back(ps.front().get());
      }
      if (consumers[i] > 1) ++fan_out;
      if (l.kind() == "concat" || l.kind() == "add") ++combiners;
      if (l.kind() == "dropout") ++dropout;
    }
  }
};

data::Dataset tiny_dataset_for(const std::string& space_name) {
  if (space_name.starts_with("combo")) {
    data::ComboDims dims;
    dims.train = 16;
    dims.valid = 8;
    dims.expression = 8;
    dims.descriptors = 10;
    return data::make_combo(3, dims);
  }
  if (space_name.starts_with("uno")) {
    data::UnoDims dims;
    dims.train = 16;
    dims.valid = 8;
    dims.rnaseq = 8;
    dims.descriptors = 10;
    dims.fingerprints = 6;
    return data::make_uno(3, dims);
  }
  data::Nt3Dims dims;
  dims.train = 16;
  dims.valid = 8;
  dims.length = 64;
  dims.motif = 6;
  return data::make_nt3(3, dims);
}

TEST(GraphOracle, RandomArchitecturesFromEverySpaceMatchBitForBit) {
  Coverage cover;
  std::uint64_t arch_seed = 101;
  for (const char* name : {"combo-small", "combo-large", "uno-small", "uno-large", "nt3-small"}) {
    const space::SearchSpace sp = space::space_by_name(name);
    const data::Dataset ds = tiny_dataset_for(name);
    std::vector<std::size_t> dims;
    for (std::size_t i = 0; i < ds.input_count(); ++i) dims.push_back(ds.input_dim(i));
    const space::TaskHead head = exec::head_for(ds);
    Rng arch_rng(arch_seed++);
    for (int trial = 0; trial < 4; ++trial) {
      const space::ArchEncoding arch = sp.random_arch(arch_rng);
      Rng init(trial + 1);
      nn::Graph g = space::build_model(sp, arch, dims, head, init);
      Rng rng(1000 + trial);
      expect_twins_agree(g, dims, rng, std::string(name) + " " + sp.describe(arch));
      if (HasFatalFailure()) return;
      cover.add(g);  // after a forward: lazy weights exist
    }
  }
  EXPECT_GT(cover.shared, 0u);
  EXPECT_GT(cover.fan_out, 0u);
  EXPECT_GT(cover.combiners, 0u);
  EXPECT_GT(cover.dropout, 0u);
}

// Hand-built graphs pin the cases random sampling may miss: dead branches
// with parameters, alias chains, an input feeding one combiner twice, mixed
// widths into Add, and a pass-through as the output node.
TEST(GraphOracle, HandBuiltEdgeCasesMatchBitForBit) {
  Rng init(5);
  nn::Graph g;
  const std::size_t a = g.add_input("a", {6});
  const std::size_t b = g.add_input("b", {6});
  auto donor = std::make_unique<nn::Dense>(5, nn::Act::kRelu, init);
  const nn::Dense& donor_ref = *donor;
  const std::size_t d1 = g.add(std::move(donor), {a});
  const std::size_t d2 = g.add(nn::clone_shared(donor_ref), {b});
  const std::size_t i1 = g.add(std::make_unique<nn::Identity>(), {d1});
  const std::size_t i2 = g.add(std::make_unique<nn::Identity>(), {i1});
  const std::size_t dr = g.add(std::make_unique<nn::Dropout>(0.3f), {d2});
  const std::size_t cat = g.add(std::make_unique<nn::Concat>(), {i2, dr, i1, d1});
  (void)g.add(std::make_unique<nn::Dense>(3, nn::Act::kTanh, init), {d1});  // dead
  const std::size_t sum = g.add(std::make_unique<nn::Add>(), {d1, cat});
  const std::size_t act = g.add(std::make_unique<nn::Activation>(nn::Act::kSigmoid), {sum});
  const std::size_t twice = g.add(std::make_unique<nn::Concat>(), {d2, d2});
  const std::size_t in_drop = g.add(std::make_unique<nn::Dropout>(0.5f), {a});
  const std::size_t head =
      g.add(std::make_unique<nn::Concat>(), {act, twice, in_drop});
  const std::size_t out = g.add(std::make_unique<nn::Dense>(4, nn::Act::kSoftmax, init), {head});
  const std::size_t pass = g.add(std::make_unique<nn::Identity>(), {out});
  (void)g.add(std::make_unique<nn::Identity>(), {pass});  // dead, after the output
  g.set_output(pass);
  Rng rng(6);
  const std::size_t dims[] = {6, 6};
  expect_twins_agree(g, dims, rng, "dense graph");
}

TEST(GraphOracle, ConvolutionalChainMatchesBitForBit) {
  Rng init(7);
  nn::Graph g;
  const std::size_t x = g.add_input("x", {24});
  const std::size_t seq = g.add(std::make_unique<nn::Reshape1D>(), {x});
  const std::size_t c1 = g.add(std::make_unique<nn::Conv1D>(4, 3, init), {seq});
  const std::size_t pool = g.add(std::make_unique<nn::MaxPool1D>(2), {c1});
  const std::size_t c2 = g.add(std::make_unique<nn::Conv1D>(3, 2, init), {pool});
  const std::size_t act = g.add(std::make_unique<nn::Activation>(nn::Act::kRelu), {c2});
  const std::size_t flat = g.add(std::make_unique<nn::Flatten>(), {act});
  const std::size_t flat_pool = g.add(std::make_unique<nn::Flatten>(), {pool});
  const std::size_t cat = g.add(std::make_unique<nn::Concat>(), {flat, flat_pool});
  const std::size_t drop = g.add(std::make_unique<nn::Dropout>(0.2f), {cat});
  (void)g.add(std::make_unique<nn::Dense>(1, nn::Act::kLinear, init), {drop});
  Rng rng(8);
  const std::size_t dims[] = {24};
  expect_twins_agree(g, dims, rng, "conv graph");
}

// Single layers through the harness: the input gradients the graph routes
// into its slots must equal the oracle layers' returned gradients.
TEST(GraphOracle, EveryLayerKindMatchesIncludingInputGradients) {
  struct Case {
    std::string name;
    std::function<nn::LayerPtr(Rng&)> make;
    std::function<oracle::LayerPtr(Rng&)> make_oracle;
    std::vector<tensor::Shape> in;
  };
  using nn::Act;
  const std::vector<Case> cases = {
      {"dense", [](Rng& r) { return std::make_unique<nn::Dense>(5, Act::kTanh, r); },
       [](Rng& r) { return std::make_unique<oracle::Dense>(5, Act::kTanh, r); }, {{7, 4}}},
      {"dense-softmax", [](Rng& r) { return std::make_unique<nn::Dense>(3, Act::kSoftmax, r); },
       [](Rng& r) { return std::make_unique<oracle::Dense>(3, Act::kSoftmax, r); }, {{7, 4}}},
      {"activation", [](Rng&) { return std::make_unique<nn::Activation>(Act::kSigmoid); },
       [](Rng&) { return std::make_unique<oracle::Activation>(Act::kSigmoid); }, {{7, 4}}},
      {"dropout", [](Rng&) { return std::make_unique<nn::Dropout>(0.4f); },
       [](Rng&) { return std::make_unique<oracle::Dropout>(0.4f); }, {{7, 4}}},
      {"identity", [](Rng&) { return std::make_unique<nn::Identity>(); },
       [](Rng&) { return std::make_unique<oracle::Identity>(); }, {{7, 4}}},
      {"conv1d", [](Rng& r) { return std::make_unique<nn::Conv1D>(3, 4, r); },
       [](Rng& r) { return std::make_unique<oracle::Conv1D>(3, 4, r); }, {{5, 11, 2}}},
      {"maxpool1d", [](Rng&) { return std::make_unique<nn::MaxPool1D>(3); },
       [](Rng&) { return std::make_unique<oracle::MaxPool1D>(3); }, {{5, 11, 2}}},
      {"flatten", [](Rng&) { return std::make_unique<nn::Flatten>(); },
       [](Rng&) { return std::make_unique<oracle::Flatten>(); }, {{5, 11, 2}}},
      {"reshape1d", [](Rng&) { return std::make_unique<nn::Reshape1D>(); },
       [](Rng&) { return std::make_unique<oracle::Reshape1D>(); }, {{5, 9}}},
      {"concat", [](Rng&) { return std::make_unique<nn::Concat>(); },
       [](Rng&) { return std::make_unique<oracle::Concat>(); }, {{5, 3}, {5, 4}, {5, 3}}},
      {"add", [](Rng&) { return std::make_unique<nn::Add>(); },
       [](Rng&) { return std::make_unique<oracle::Add>(); }, {{5, 3}, {5, 6}, {5, 2}}},
  };
  for (const Case& c : cases) {
    for (bool training : {true, false}) {
      Rng init(11);
      Rng init_oracle(11);
      const nn::LayerPtr layer = c.make(init);
      const oracle::LayerPtr twin = c.make_oracle(init_oracle);
      Rng rng(12);
      std::vector<Tensor> xs;
      for (const tensor::Shape& s : c.in) xs.push_back(random_tensor(s, rng));
      std::vector<const Tensor*> in;
      for (const Tensor& x : xs) in.push_back(&x);
      Rng mask(13);
      Rng mask_oracle(13);
      nn::ForwardCtx ctx{.training = training, .rng = &mask};
      nn::ForwardCtx ctx_oracle{.training = training, .rng = &mask_oracle};
      testing::LayerHarness h(*layer);
      const Tensor& y = h.forward(in, ctx);
      const Tensor yo = twin->forward(in, ctx_oracle);
      const std::string what = c.name + (training ? " train" : " eval");
      ASSERT_TRUE(same_bits(y, yo)) << what;
      const Tensor grad = loss_grad(y);
      const std::vector<Tensor> dx = h.backward(grad);
      const std::vector<Tensor> dxo = twin->backward(grad);
      ASSERT_EQ(dx.size(), dxo.size()) << what;
      for (std::size_t j = 0; j < dx.size(); ++j) {
        EXPECT_TRUE(same_bits(dx[j], dxo[j])) << what << ": gradient of input " << j;
      }
      const std::vector<nn::ParamPtr> ps = layer->parameters();
      const std::vector<nn::ParamPtr> pso = twin->parameters();
      ASSERT_EQ(ps.size(), pso.size()) << what;
      for (std::size_t k = 0; k < ps.size(); ++k) {
        EXPECT_TRUE(same_bits(ps[k]->value, pso[k]->value)) << what << ": parameter " << k;
        EXPECT_TRUE(same_bits(ps[k]->grad, pso[k]->grad)) << what << ": gradient of parameter " << k;
      }
    }
  }
}

}  // namespace
}  // namespace ncnas
