#include <gtest/gtest.h>

#include "layer_harness.hpp"
#include "ncnas/nn/layers.hpp"
#include "ncnas/nn/loss.hpp"
#include "ncnas/nn/metrics.hpp"

namespace ncnas::nn {
namespace {

using tensor::Rng;
using tensor::Tensor;
using testing::LayerHarness;

ForwardCtx eval_ctx() { return {.training = false, .rng = nullptr}; }

TEST(Activations, ApplyActValues) {
  const Tensor z = Tensor::of({-1.0f, 0.0f, 2.0f});
  const Tensor relu = apply_act(Act::kRelu, z);
  EXPECT_FLOAT_EQ(relu[0], 0.0f);
  EXPECT_FLOAT_EQ(relu[2], 2.0f);
  const Tensor th = apply_act(Act::kTanh, z);
  EXPECT_NEAR(th[0], std::tanh(-1.0f), 1e-6f);
  const Tensor sig = apply_act(Act::kSigmoid, z);
  EXPECT_NEAR(sig[1], 0.5f, 1e-6f);
}

TEST(Activations, SoftmaxRowsSumToOne) {
  const Tensor z = Tensor::of2d({{1, 2, 3}, {-5, 0, 5}});
  const Tensor y = apply_act(Act::kSoftmax, z);
  for (std::size_t r = 0; r < 2; ++r) {
    float s = 0.0f;
    for (std::size_t c = 0; c < 3; ++c) s += y(r, c);
    EXPECT_NEAR(s, 1.0f, 1e-5f);
  }
  EXPECT_GT(y(0, 2), y(0, 0));
}

TEST(Dense, OutputShapeAndLazyInit) {
  // Weights exist from bind() on, before any forward.
  Rng rng(1);
  Dense d(7, Act::kLinear, rng);
  EXPECT_TRUE(d.parameters().empty());  // not bound yet
  Tensor x({2, 4});
  const Tensor* inputs[] = {&x};
  ForwardCtx ctx = eval_ctx();
  Tensor out;
  EXPECT_THROW((void)d.forward(inputs, out, ctx), std::logic_error);
  const FeatShape in[] = {FeatShape{4}};
  EXPECT_EQ(d.bind(in), FeatShape({7}));
  ASSERT_EQ(d.parameters().size(), 2u);
  EXPECT_EQ(d.parameters()[0]->value.shape(), tensor::Shape({4, 7}));
  EXPECT_EQ(d.parameters()[1]->value.shape(), tensor::Shape({7}));
  const Tensor y = LayerHarness(d).forward(inputs, ctx);
  EXPECT_EQ(y.shape(), tensor::Shape({2, 7}));
}

TEST(Dense, RejectsWidthChangeAfterInit) {
  Rng rng(1);
  Dense d(3, Act::kLinear, rng);
  const FeatShape four[] = {FeatShape{4}};
  (void)d.bind(four);
  const ParamPtr w = d.parameters()[0];
  const FeatShape five[] = {FeatShape{5}};
  EXPECT_THROW((void)d.bind(five), std::invalid_argument);
  EXPECT_EQ(d.bind(four), FeatShape({3}));  // the same width binds again
  EXPECT_EQ(d.parameters()[0], w);
  const FeatShape rank2[] = {FeatShape{4, 1}};
  EXPECT_THROW((void)d.bind(rank2), std::invalid_argument);
}

TEST(Dense, ZeroUnitsRejected) {
  Rng rng(1);
  EXPECT_THROW(Dense(0, Act::kLinear, rng), std::invalid_argument);
}

TEST(Dropout, EvalModeIsIdentity) {
  Dropout d(0.5f);
  Tensor x = Tensor::of2d({{1, 2}, {3, 4}});
  const Tensor* in[] = {&x};
  ForwardCtx ctx = eval_ctx();
  EXPECT_TRUE(LayerHarness(d).forward(in, ctx) == x);
}

TEST(Dropout, TrainingDropsAndRescales) {
  Dropout d(0.5f);
  Tensor x = Tensor::full({1, 10000}, 1.0f);
  const Tensor* in[] = {&x};
  Rng rng(3);
  ForwardCtx ctx{.training = true, .rng = &rng};
  const Tensor y = LayerHarness(d).forward(in, ctx);
  std::size_t zeros = 0;
  double mean = 0.0;
  for (std::size_t i = 0; i < y.size(); ++i) {
    if (y[i] == 0.0f) {
      ++zeros;
    } else {
      EXPECT_NEAR(y[i], 2.0f, 1e-5f);  // inverted dropout rescale
    }
    mean += y[i];
  }
  EXPECT_NEAR(static_cast<double>(zeros) / y.size(), 0.5, 0.03);
  EXPECT_NEAR(mean / y.size(), 1.0, 0.05);  // expectation preserved
}

TEST(Dropout, TrainingWithoutRngThrows) {
  Dropout d(0.3f);
  Tensor x({1, 4});
  const Tensor* in[] = {&x};
  ForwardCtx ctx{.training = true, .rng = nullptr};
  EXPECT_THROW((void)LayerHarness(d).forward(in, ctx), std::invalid_argument);
}

TEST(Dropout, InvalidRateRejected) {
  EXPECT_THROW(Dropout(-0.1f), std::invalid_argument);
  EXPECT_THROW(Dropout(1.0f), std::invalid_argument);
}

TEST(Conv1D, ValidPaddingShapes) {
  Rng rng(5);
  Conv1D conv(4, 3, rng);
  const FeatShape too_short[] = {FeatShape{2, 2}};
  EXPECT_THROW((void)conv.bind(too_short), std::invalid_argument);
  const FeatShape in[] = {FeatShape{10, 2}};
  EXPECT_EQ(conv.bind(in), FeatShape({8, 4}));
  EXPECT_EQ(conv.parameters()[0]->value.shape(), tensor::Shape({3 * 2, 4}));
}

TEST(Conv1D, DetectsKnownPattern) {
  // A conv with hand-set weights acts as a sliding dot product.
  Rng rng(6);
  Conv1D conv(1, 2, rng);
  Tensor x({1, 4, 1});
  x(0, 0, 0) = 1;
  x(0, 1, 0) = 2;
  x(0, 2, 0) = 3;
  x(0, 3, 0) = 4;
  const Tensor* in[] = {&x};
  ForwardCtx ctx = eval_ctx();
  const FeatShape shape[] = {FeatShape{4, 1}};
  (void)conv.bind(shape);
  auto params = conv.parameters();
  params[0]->value[0] = 1.0f;  // w[offset 0]
  params[0]->value[1] = -1.0f; // w[offset 1]
  params[1]->value[0] = 0.0f;
  const Tensor y = LayerHarness(conv).forward(in, ctx);
  EXPECT_EQ(y.shape(), tensor::Shape({1, 3, 1}));
  EXPECT_FLOAT_EQ(y(0, 0, 0), 1.0f - 2.0f);
  EXPECT_FLOAT_EQ(y(0, 2, 0), 3.0f - 4.0f);
}

TEST(Conv1D, ForwardRejectsUnboundLayerAndOtherChannelCount) {
  // The weights are sized at bind; a forward fed another channel count must
  // throw rather than read (and, in backward, write) past them.
  Rng rng(6);
  Conv1D conv(2, 3, rng);
  Tensor x({1, 6, 3});
  const Tensor* in[] = {&x};
  Tensor out;
  ForwardCtx ctx = eval_ctx();
  EXPECT_THROW((void)conv.forward(in, out, ctx), std::logic_error);
  const FeatShape shape[] = {FeatShape{6, 2}};
  (void)conv.bind(shape);
  EXPECT_THROW((void)conv.forward(in, out, ctx), std::invalid_argument);
  Tensor ok({1, 6, 2});
  const Tensor* ok_in[] = {&ok};
  EXPECT_EQ(conv.forward(ok_in, out, ctx).shape(), tensor::Shape({1, 4, 2}));
}

TEST(MaxPool1D, KerasWindowSemantics) {
  MaxPool1D pool(2);
  Tensor x({1, 5, 1});
  for (std::size_t i = 0; i < 5; ++i) x(0, i, 0) = static_cast<float>(i);
  const Tensor* in[] = {&x};
  ForwardCtx ctx = eval_ctx();
  const Tensor y = LayerHarness(pool).forward(in, ctx);
  // floor(5/2) = 2 windows; the trailing element is dropped.
  EXPECT_EQ(y.shape(), tensor::Shape({1, 2, 1}));
  EXPECT_FLOAT_EQ(y(0, 0, 0), 1.0f);
  EXPECT_FLOAT_EQ(y(0, 1, 0), 3.0f);
}

TEST(MaxPool1D, OversizedWindowIsGlobalPooling) {
  MaxPool1D pool(10);
  Tensor x({1, 4, 1});
  x(0, 2, 0) = 9.0f;
  const Tensor* in[] = {&x};
  ForwardCtx ctx = eval_ctx();
  const Tensor y = LayerHarness(pool).forward(in, ctx);
  EXPECT_EQ(y.shape(), tensor::Shape({1, 1, 1}));
  EXPECT_FLOAT_EQ(y(0, 0, 0), 9.0f);
}

TEST(ConcatAndAdd, ShapeRules) {
  Concat cat;
  const FeatShape two[] = {FeatShape{3}, FeatShape{4}};
  EXPECT_EQ(cat.bind(two), FeatShape({7}));
  Add add;
  EXPECT_EQ(add.bind(two), FeatShape({4}));  // widest wins
  const FeatShape bad[] = {FeatShape{3, 2}};
  EXPECT_THROW((void)cat.bind(bad), std::invalid_argument);
}

TEST(CloneShared, SharesDenseParameters) {
  Rng rng(7);
  Dense donor(3, Act::kRelu, rng);
  Tensor x({1, 2});
  const Tensor* in[] = {&x};
  ForwardCtx ctx = eval_ctx();
  (void)LayerHarness(donor).forward(in, ctx);
  const LayerPtr mirror = clone_shared(donor);
  const Tensor y1 = LayerHarness(donor).forward(in, ctx);
  const Tensor y2 = LayerHarness(*mirror).forward(in, ctx);
  EXPECT_TRUE(y1 == y2);
  EXPECT_EQ(donor.parameters()[0].get(), mirror->parameters()[0].get());
}

TEST(CloneShared, SharesBeforeLazyInitToo) {
  // A mirror copies its donor's weights, so the donor must be bound first.
  Rng rng(8);
  Dense dense(3, Act::kLinear, rng);
  EXPECT_THROW((void)clone_shared(dense), std::logic_error);
  Conv1D conv(2, 3, rng);
  EXPECT_THROW((void)clone_shared(conv), std::logic_error);
  const FeatShape in[] = {FeatShape{2}};
  (void)dense.bind(in);
  const LayerPtr mirror = clone_shared(dense);
  EXPECT_EQ(dense.parameters()[0].get(), mirror->parameters()[0].get());
  const FeatShape wider[] = {FeatShape{3}};
  EXPECT_THROW((void)mirror->bind(wider), std::invalid_argument);
}

TEST(CloneShared, UnsupportedKindThrows) {
  Concat cat;
  EXPECT_THROW((void)clone_shared(cat), std::invalid_argument);
}

TEST(Loss, MseValueAndGradient) {
  const Tensor pred = Tensor::of2d({{1.0f}, {3.0f}});
  const Tensor target = Tensor::of2d({{0.0f}, {1.0f}});
  const LossValue lv = mse_loss(pred, target);
  EXPECT_NEAR(lv.loss, (1.0f + 4.0f) / 2.0f, 1e-6f);
  EXPECT_NEAR(lv.grad(0, 0), 2.0f / 2.0f * 1.0f, 1e-6f);
}

TEST(Loss, CrossEntropyPrefersCorrectClass) {
  const Tensor good = Tensor::of2d({{0.9f, 0.1f}});
  const Tensor bad = Tensor::of2d({{0.1f, 0.9f}});
  EXPECT_LT(cross_entropy_loss(good, {0}).loss, cross_entropy_loss(bad, {0}).loss);
}

TEST(Metrics, R2PerfectAndMeanPredictor) {
  const Tensor y = Tensor::of({1, 2, 3, 4});
  EXPECT_FLOAT_EQ(r2_score(y, y), 1.0f);
  const Tensor mean_pred = Tensor::full({4}, 2.5f);
  EXPECT_NEAR(r2_score(mean_pred, y), 0.0f, 1e-6f);
}

TEST(Metrics, AccuracyCountsArgmaxMatches) {
  const Tensor pred = Tensor::of2d({{0.9f, 0.1f}, {0.2f, 0.8f}, {0.6f, 0.4f}});
  const Tensor target = Tensor::of2d({{0.0f}, {1.0f}, {1.0f}});
  EXPECT_NEAR(accuracy_score(pred, target), 2.0f / 3.0f, 1e-6f);
}

}  // namespace
}  // namespace ncnas::nn
