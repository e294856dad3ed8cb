#include <gtest/gtest.h>

#include <cstdint>

#include "ncnas/data/baselines.hpp"
#include "ncnas/data/dataset.hpp"
#include "ncnas/exec/evaluator.hpp"
#include "ncnas/nn/trainer.hpp"
#include "ncnas/space/builder.hpp"
#include "ncnas/space/spaces.hpp"

namespace ncnas::space {
namespace {

using tensor::Rng;
using tensor::Tensor;

data::Dataset tiny_combo() {
  data::ComboDims dims;
  dims.train = 64;
  dims.valid = 32;
  dims.expression = 8;
  dims.descriptors = 12;
  return data::make_combo(3, dims);
}

std::vector<std::size_t> dims_of(const data::Dataset& ds) {
  std::vector<std::size_t> dims;
  for (std::size_t i = 0; i < ds.input_count(); ++i) dims.push_back(ds.input_dim(i));
  return dims;
}

TEST(Builder, ComboAllIdentityStillProducesScalarOutput) {
  const SearchSpace s = combo_small_space();
  const data::Dataset ds = tiny_combo();
  ArchEncoding arch(s.num_decisions(), 0);  // all Identity / Connect-null
  Rng rng(1);
  nn::Graph g = build_model(s, arch, dims_of(ds), TaskHead::regression(), rng);
  EXPECT_EQ(g.output_shape(), nn::FeatShape({1}));
  nn::ForwardCtx ctx{};
  std::vector<Tensor> probe;
  for (const auto& x : ds.x_train) probe.push_back(nn::slice_rows(x, 0, 4));
  const Tensor y = g.forward(probe, ctx);
  EXPECT_EQ(y.shape(), tensor::Shape({4, 1}));
}

TEST(Builder, EveryComboConnectOptionBuilds) {
  const SearchSpace s = combo_small_space();
  const data::Dataset ds = tiny_combo();
  const auto dims = dims_of(ds);
  // Decision 9 is C1/B1's connect node (after C0's 6 and C1/B0's 3 MLPs).
  std::size_t connect_idx = SIZE_MAX;
  for (std::size_t d = 0; d < s.num_decisions(); ++d) {
    if (s.decisions()[d].name == "connect") connect_idx = d;
  }
  ASSERT_NE(connect_idx, SIZE_MAX);
  for (std::uint16_t opt = 0; opt < 9; ++opt) {
    ArchEncoding arch(s.num_decisions(), 1);  // Dense(16, relu) everywhere
    arch[connect_idx] = opt;
    Rng rng(1);
    nn::Graph g = build_model(s, arch, dims, TaskHead::regression(), rng);
    nn::ForwardCtx ctx{};
    std::vector<Tensor> probe;
    for (const auto& x : ds.x_train) probe.push_back(nn::slice_rows(x, 0, 2));
    EXPECT_NO_THROW((void)g.forward(probe, ctx)) << "connect option " << opt;
  }
}

TEST(Builder, MirrorNodesShareDrugSubmodelWeights) {
  const SearchSpace s = combo_small_space();
  const data::Dataset ds = tiny_combo();
  ArchEncoding arch(s.num_decisions(), 9);  // Dense(96, relu) everywhere
  for (std::size_t d = 0; d < s.num_decisions(); ++d) {
    if (s.decisions()[d].name == "connect") arch[d] = 0;  // connect: null
  }
  Rng rng(1);
  nn::Graph g = build_model(s, arch, dims_of(ds), TaskHead::regression(), rng);
  nn::ForwardCtx ctx{};
  std::vector<Tensor> probe;
  for (const auto& x : ds.x_train) probe.push_back(nn::slice_rows(x, 0, 2));
  (void)g.forward(probe, ctx);

  // With sharing, the drug1 stack's weights serve drug2 as well. Parameter
  // accounting: cell submodel (8->96, 96->96, 96->96) + drug submodel
  // (12->96, 96->96, 96->96) + C1 stack (288->96, 96->96, 96->96)
  // + C2 stack (288->96...? no: C1 out = concat(B0 96, B1 null-pass 288)).
  // Rather than hand-derive the whole graph, check the key invariant:
  // building the same arch with mirrors disabled would add exactly the drug
  // submodel once more.
  const std::size_t with_sharing = g.param_count();
  const std::size_t drug_submodel = (12 * 96 + 96) + 2 * (96 * 96 + 96);
  // Compare against an arch-equivalent graph built by pretending drug2 is
  // independent: simulate by adding drug_submodel.
  EXPECT_GT(with_sharing, drug_submodel);  // sanity
  // Feed identical drug1/drug2 inputs: shared encoders must produce outputs
  // symmetric under drug swap.
  std::vector<Tensor> symm = probe;
  symm[2] = symm[1];
  const Tensor y1 = g.forward(symm, ctx);
  std::swap(symm[1], symm[2]);
  const Tensor y2 = g.forward(symm, ctx);
  EXPECT_LT(tensor::max_abs_diff(y1, y2), 1e-5f);
}

TEST(Builder, UnoResidualAddNodesBuild) {
  const SearchSpace s = uno_small_space();
  data::UnoDims dims;
  dims.train = 64;
  dims.valid = 16;
  dims.rnaseq = 8;
  dims.descriptors = 10;
  dims.fingerprints = 6;
  const data::Dataset ds = data::make_uno(3, dims);
  tensor::Rng arch_rng(5);
  for (int trial = 0; trial < 20; ++trial) {
    const ArchEncoding arch = s.random_arch(arch_rng);
    Rng rng(1);
    nn::Graph g = build_model(s, arch, dims_of(ds), TaskHead::regression(), rng);
    nn::ForwardCtx ctx{};
    std::vector<Tensor> probe;
    for (const auto& x : ds.x_train) probe.push_back(nn::slice_rows(x, 0, 2));
    const Tensor y = g.forward(probe, ctx);
    EXPECT_EQ(y.shape(), tensor::Shape({2, 1})) << "trial " << trial;
  }
}

TEST(Builder, Nt3RandomArchitecturesBuildAndClassify) {
  const SearchSpace s = nt3_small_space();
  data::Nt3Dims dims;
  dims.train = 32;
  dims.valid = 16;
  dims.length = 64;
  dims.motif = 6;
  const data::Dataset ds = data::make_nt3(3, dims);
  tensor::Rng arch_rng(7);
  for (int trial = 0; trial < 30; ++trial) {
    const ArchEncoding arch = s.random_arch(arch_rng);
    Rng rng(1);
    nn::Graph g = build_model(s, arch, dims_of(ds), TaskHead::classification(2), rng);
    nn::ForwardCtx ctx{};
    std::vector<Tensor> probe{nn::slice_rows(ds.x_train[0], 0, 3)};
    const Tensor y = g.forward(probe, ctx);
    ASSERT_EQ(y.shape(), tensor::Shape({3, 2})) << "trial " << trial;
    for (std::size_t r = 0; r < 3; ++r) {
      EXPECT_NEAR(y(r, 0) + y(r, 1), 1.0f, 1e-5f);  // softmax head
    }
  }
}

TEST(Builder, OversizedConvDegradesToIdentity) {
  // Aggressive pooling can shrink the sequence below the next kernel; the
  // builder must degrade that conv to identity instead of failing.
  const SearchSpace s = nt3_small_space();
  data::Nt3Dims dims;
  dims.train = 16;
  dims.valid = 8;
  dims.length = 20;  // tiny: pool(6) twice -> length 3 < kernel 6
  dims.motif = 4;
  const data::Dataset ds = data::make_nt3(3, dims);
  ArchEncoding arch = {4, 1, 4, 4, 1, 4, 1, 1, 1, 1, 1, 1};  // conv6/pool6 twice
  Rng rng(1);
  nn::Graph g = build_model(s, arch, dims_of(ds), TaskHead::classification(2), rng);
  nn::ForwardCtx ctx{};
  std::vector<Tensor> probe{nn::slice_rows(ds.x_train[0], 0, 2)};
  EXPECT_NO_THROW((void)g.forward(probe, ctx));
}

TEST(Builder, NullConnectContributesNothing) {
  // Combo C1 with a Null connect: the cell output is just the MLP block, so
  // the model with connect=null must have FEWER parameters than the same
  // model with an input splice (which widens the next concat).
  const SearchSpace s = combo_small_space();
  const data::Dataset ds = tiny_combo();
  const auto dims = dims_of(ds);
  std::size_t connect_idx = SIZE_MAX;
  for (std::size_t d = 0; d < s.num_decisions(); ++d) {
    if (s.decisions()[d].name == "connect") connect_idx = d;
  }
  ASSERT_NE(connect_idx, SIZE_MAX);
  const auto params_for = [&](std::uint16_t connect_opt) {
    ArchEncoding arch(s.num_decisions(), 1);  // Dense(16, relu) everywhere
    arch[connect_idx] = connect_opt;
    Rng rng(1);
    nn::Graph g = build_model(s, arch, dims, TaskHead::regression(), rng);
    nn::ForwardCtx ctx{};
    std::vector<Tensor> probe;
    for (const auto& x : ds.x_train) probe.push_back(nn::slice_rows(x, 0, 1));
    (void)g.forward(probe, ctx);
    return g.param_count();
  };
  const std::size_t with_null = params_for(0);       // Null
  const std::size_t with_all_inputs = params_for(5); // all three inputs
  EXPECT_LT(with_null, with_all_inputs);
}

TEST(Builder, RejectsWrongInputCount) {
  const SearchSpace s = combo_small_space();
  ArchEncoding arch(s.num_decisions(), 0);
  Rng rng(1);
  const std::vector<std::size_t> dims{8, 12};  // needs 3
  EXPECT_THROW((void)build_model(s, arch, dims, TaskHead::regression(), rng),
               std::invalid_argument);
}

TEST(Builder, RejectsInvalidEncoding) {
  const SearchSpace s = combo_small_space();
  ArchEncoding arch(s.num_decisions(), 0);
  arch[0] = 99;
  Rng rng(1);
  const std::vector<std::size_t> dims{8, 12, 12};
  EXPECT_THROW((void)build_model(s, arch, dims, TaskHead::regression(), rng),
               std::invalid_argument);
}

TEST(Builder, BuiltComboModelTrains) {
  const SearchSpace s = combo_small_space();
  const data::Dataset ds = tiny_combo();
  ArchEncoding arch(s.num_decisions(), 1);  // Dense(16, relu) everywhere
  arch.back() = 5;                          // connect: all inputs
  Rng rng(1);
  nn::Graph g = build_model(s, arch, dims_of(ds), TaskHead::regression(), rng);
  nn::TrainOptions opts;
  opts.epochs = 8;
  opts.batch_size = 16;
  Rng train_rng(2);
  const auto res = nn::fit(g, ds.x_train, ds.y_train, opts, train_rng);
  EXPECT_LT(res.epoch_losses.back(), res.epoch_losses.front());
}

/// FNV-1a over every parameter's bytes, in parameters() order.
std::uint64_t weight_hash(const nn::Graph& g) {
  std::uint64_t h = 14695981039346656037ULL;
  for (const nn::ParamPtr& p : g.parameters()) {
    const auto* bytes = reinterpret_cast<const unsigned char*>(p->value.data());
    for (std::size_t i = 0; i < p->size() * sizeof(float); ++i) {
      h ^= bytes[i];
      h *= 1099511628211ULL;
    }
  }
  return h;
}

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

// Every weight byte and the parameter order of a freshly built model, as
// they stood when weights were still created by the first forward pass (the
// constants were recorded then, after a one-row forward). Building the model
// must draw exactly those weights, without running it.
TEST(Builder, WeightsPinnedForEverySpace) {
  struct Pin {
    const char* space;
    std::size_t params;
    std::uint64_t hash;
  };
  const Pin pins[] = {
      {"combo-small", 32201, 0xd654b683e60a05ccULL},
      {"combo-large", 124819, 0x986fa36eae6dff5fULL},
      {"uno-small", 22642, 0xe4dd3072ad319565ULL},
      {"uno-large", 71538, 0xa1306dd9c9faafabULL},
      {"nt3-small", 814, 0x6998e023960c8dd5ULL},
  };
  ASSERT_EQ(std::size(pins), space_names().size());
  for (const Pin& pin : pins) {
    const SearchSpace sp = space_by_name(pin.space);
    Rng arch_rng(17);
    const ArchEncoding arch = sp.random_arch(arch_rng);
    const nn::Graph g = exec::build_for(sp, tiny_dataset_for(pin.space), arch, 7);
    EXPECT_EQ(g.param_count(), pin.params) << pin.space;
    EXPECT_EQ(weight_hash(g), pin.hash) << pin.space;
  }
  // The hand-built Combo baseline mirrors its drug submodel too.
  Rng rng(7);
  const nn::Graph baseline = data::baseline_for(tiny_dataset_for("combo"), rng);
  EXPECT_EQ(baseline.param_count(), 85633u);
  EXPECT_EQ(weight_hash(baseline), 0x3b2e882e77ed21d2ULL);
}

}  // namespace
}  // namespace ncnas::space
