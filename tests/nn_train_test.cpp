#include <gtest/gtest.h>

#include "ncnas/nn/graph.hpp"
#include "ncnas/nn/layers.hpp"
#include "ncnas/nn/trainer.hpp"

namespace ncnas::nn {
namespace {

using tensor::Rng;
using tensor::Tensor;

/// y = X w* + b* with small noise.
struct LinearProblem {
  Tensor x_train, y_train, x_valid, y_valid;
};

LinearProblem make_linear(std::size_t rows, std::size_t dims, std::uint64_t seed) {
  Rng rng(seed);
  std::vector<float> w(dims);
  for (float& v : w) v = static_cast<float>(rng.normal());
  const auto gen = [&](std::size_t n) {
    Tensor x({n, dims}), y({n, 1});
    for (std::size_t i = 0; i < n; ++i) {
      float acc = 0.3f;
      for (std::size_t j = 0; j < dims; ++j) {
        x(i, j) = static_cast<float>(rng.normal());
        acc += x(i, j) * w[j];
      }
      y(i, 0) = acc + 0.01f * static_cast<float>(rng.normal());
    }
    return std::pair{std::move(x), std::move(y)};
  };
  auto [xt, yt] = gen(rows);
  auto [xv, yv] = gen(rows / 4);
  return {std::move(xt), std::move(yt), std::move(xv), std::move(yv)};
}

Graph linear_model(std::size_t dims, Rng& rng) {
  Graph g;
  const std::size_t in = g.add_input("x", {dims});
  g.set_output(g.add(std::make_unique<Dense>(1, Act::kLinear, rng), {in}));
  return g;
}

TEST(Trainer, LearnsLinearRegression) {
  const LinearProblem prob = make_linear(512, 6, 21);
  Rng rng(1);
  Graph model = linear_model(6, rng);
  TrainOptions opts;
  opts.epochs = 30;
  opts.batch_size = 32;
  // Adam's per-step movement is bounded by the learning rate; give the test
  // enough travel to recover |w*| ~ 1 coefficients.
  opts.learning_rate = 0.02f;
  Rng train_rng(2);
  const TrainResult res =
      fit(model, std::vector<Tensor>{prob.x_train}, prob.y_train, opts, train_rng);
  EXPECT_FALSE(res.stopped_early);
  EXPECT_EQ(res.epoch_losses.size(), 30u);
  EXPECT_LT(res.epoch_losses.back(), res.epoch_losses.front());
  const float r2 =
      evaluate(model, std::vector<Tensor>{prob.x_valid}, prob.y_valid, Metric::kR2);
  EXPECT_GT(r2, 0.95f);
}

TEST(Trainer, LearnsSeparableClassification) {
  Rng rng(5);
  constexpr std::size_t kN = 400;
  Tensor x({kN, 2}), y({kN, 1});
  for (std::size_t i = 0; i < kN; ++i) {
    const float cls = static_cast<float>(i % 2);
    x(i, 0) = static_cast<float>(rng.normal()) + (cls > 0 ? 2.5f : -2.5f);
    x(i, 1) = static_cast<float>(rng.normal());
    y(i, 0) = cls;
  }
  Graph g;
  const std::size_t in = g.add_input("x", {2});
  g.set_output(g.add(std::make_unique<Dense>(2, Act::kSoftmax, rng), {in}));
  TrainOptions opts;
  opts.epochs = 20;
  opts.batch_size = 16;
  opts.loss = LossKind::kCrossEntropy;
  Rng train_rng(6);
  (void)fit(g, std::vector<Tensor>{x}, y, opts, train_rng);
  const float acc = evaluate(g, std::vector<Tensor>{x}, y, Metric::kAccuracy);
  EXPECT_GT(acc, 0.95f);
}

TEST(Trainer, SubsetFractionUsesFewerRows) {
  const LinearProblem prob = make_linear(1000, 4, 9);
  Rng rng(1);
  Graph model = linear_model(4, rng);
  TrainOptions opts;
  opts.epochs = 1;
  opts.batch_size = 50;
  opts.subset_fraction = 0.1;
  Rng train_rng(2);
  const TrainResult res =
      fit(model, std::vector<Tensor>{prob.x_train}, prob.y_train, opts, train_rng);
  EXPECT_EQ(res.batches_run, 2u);  // 100 rows / 50 per batch
}

TEST(Trainer, ShouldStopAbortsTraining) {
  const LinearProblem prob = make_linear(256, 4, 10);
  Rng rng(1);
  Graph model = linear_model(4, rng);
  TrainOptions opts;
  opts.epochs = 50;
  opts.batch_size = 32;
  int budget = 3;
  opts.should_stop = [&budget] { return budget-- <= 0; };
  Rng train_rng(2);
  const TrainResult res =
      fit(model, std::vector<Tensor>{prob.x_train}, prob.y_train, opts, train_rng);
  EXPECT_TRUE(res.stopped_early);
  EXPECT_EQ(res.batches_run, 3u);
}

TEST(Trainer, DeterministicGivenSeeds) {
  const LinearProblem prob = make_linear(128, 3, 11);
  TrainOptions opts;
  opts.epochs = 3;
  opts.batch_size = 16;
  const auto run = [&] {
    Rng rng(1);
    Graph model = linear_model(3, rng);
    Rng train_rng(2);
    (void)fit(model, std::vector<Tensor>{prob.x_train}, prob.y_train, opts, train_rng);
    return evaluate(model, std::vector<Tensor>{prob.x_valid}, prob.y_valid, Metric::kR2);
  };
  EXPECT_FLOAT_EQ(run(), run());
}

TEST(Trainer, RejectsMismatchedInputs) {
  Rng rng(1);
  Graph model = linear_model(3, rng);
  Tensor x({10, 3}), y({12, 1});
  TrainOptions opts;
  Rng train_rng(2);
  EXPECT_THROW((void)fit(model, std::vector<Tensor>{x}, y, opts, train_rng),
               std::invalid_argument);
}

// Deterministic synthetic gradients, varied per step so moments evolve.
void fill_grads(const std::vector<ParamPtr>& params, int step) {
  for (std::size_t p = 0; p < params.size(); ++p) {
    float* g = params[p]->grad.data();
    for (std::size_t i = 0; i < params[p]->size(); ++i) {
      g[i] = 0.01f * static_cast<float>((step + 1) * (p + 1)) +
             0.001f * static_cast<float>(i);
    }
  }
}

TEST(Adam, ExportImportThenStepContinuesBitIdentically) {
  // Two distinct parameters sharing a name (every Dense layer calls its
  // kernel "dense.w") plus one genuinely shared (mirrored) parameter that
  // appears twice in the list: the name-keyed moment map must keep the
  // duplicates apart and the shared pointer unified.
  const auto make_params = [] {
    auto w1 = std::make_shared<Parameter>("dense.w", tensor::Tensor({2, 3}, 0.5f));
    auto w2 = std::make_shared<Parameter>("dense.w", tensor::Tensor({3, 1}, -0.25f));
    auto shared = std::make_shared<Parameter>("embed.w", tensor::Tensor({4}, 1.0f));
    return std::vector<ParamPtr>{w1, w2, shared, shared};
  };

  std::vector<ParamPtr> live = make_params();
  Adam adam(0.01f);
  for (int step = 0; step < 5; ++step) {
    fill_grads(live, step);
    adam.step(live);
  }

  const Adam::State st = adam.export_state();
  EXPECT_EQ(st.step_count, 5);
  ASSERT_EQ(st.entries.size(), 3u);  // dense.w, dense.w#2, embed.w — not 4
  EXPECT_EQ(st.entries[0].key, "dense.w");
  EXPECT_EQ(st.entries[1].key, "dense.w#2");
  EXPECT_EQ(st.entries[2].key, "embed.w");

  // A second optimizer in a fresh process: parameters rebuilt at the same
  // values the live ones hold right now, moments imported by key.
  std::vector<ParamPtr> restored = make_params();
  for (std::size_t p = 0; p < live.size(); ++p) {
    restored[p]->value = live[p]->value;
  }
  Adam adam2(0.01f);
  adam2.import_state(st, restored);  // keys pre-assigned in step() order

  for (int step = 5; step < 10; ++step) {
    fill_grads(live, step);
    adam.step(live);
    fill_grads(restored, step);
    adam2.step(restored);
  }
  for (std::size_t p = 0; p < live.size(); ++p) {
    SCOPED_TRACE("param " + std::to_string(p));
    const float* a = live[p]->value.data();
    const float* b = restored[p]->value.data();
    for (std::size_t i = 0; i < live[p]->size(); ++i) EXPECT_EQ(a[i], b[i]);
  }
}

TEST(Adam, ImportedStateSerializesBackCanonically) {
  std::vector<ParamPtr> params = {
      std::make_shared<Parameter>("b", tensor::Tensor({2}, 1.0f)),
      std::make_shared<Parameter>("a", tensor::Tensor({2}, 2.0f)),
  };
  Adam adam;
  fill_grads(params, 0);
  adam.step(params);
  const Adam::State st = adam.export_state();
  // Canonical form: sorted by key regardless of first-seen order.
  ASSERT_EQ(st.entries.size(), 2u);
  EXPECT_EQ(st.entries[0].key, "a");
  EXPECT_EQ(st.entries[1].key, "b");

  // Moments that would attach to a parameter of another size, or a step
  // count no optimizer reaches, are rejected at import, not at the next step.
  const std::vector<ParamPtr> resized = {
      std::make_shared<Parameter>("b", tensor::Tensor({3}, 1.0f))};
  EXPECT_THROW(Adam().import_state(st, resized), std::invalid_argument);
  Adam::State negative = st;
  negative.step_count = -1;
  EXPECT_THROW(Adam().import_state(negative, params), std::invalid_argument);

  Adam other;
  other.import_state(st, params);
  const Adam::State again = other.export_state();
  EXPECT_EQ(again.step_count, st.step_count);
  ASSERT_EQ(again.entries.size(), st.entries.size());
  for (std::size_t i = 0; i < st.entries.size(); ++i) {
    EXPECT_EQ(again.entries[i].key, st.entries[i].key);
    EXPECT_EQ(again.entries[i].m, st.entries[i].m);
    EXPECT_EQ(again.entries[i].v, st.entries[i].v);
  }
}

TEST(SliceGather, RowExtraction) {
  const Tensor t = Tensor::of2d({{1, 2}, {3, 4}, {5, 6}});
  const Tensor s = slice_rows(t, 1, 3);
  EXPECT_EQ(s.shape(), tensor::Shape({2, 2}));
  EXPECT_FLOAT_EQ(s(0, 0), 3.0f);
  const std::size_t rows[] = {2, 0};
  const Tensor gathered = gather_rows(t, rows);
  EXPECT_FLOAT_EQ(gathered(0, 1), 6.0f);
  EXPECT_FLOAT_EQ(gathered(1, 0), 1.0f);
  EXPECT_THROW((void)slice_rows(t, 2, 1), std::invalid_argument);
}

}  // namespace
}  // namespace ncnas::nn
