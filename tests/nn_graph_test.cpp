#include <gtest/gtest.h>

#include "ncnas/nn/graph.hpp"
#include "ncnas/nn/layers.hpp"

namespace ncnas::nn {
namespace {

using tensor::Rng;
using tensor::Tensor;

TEST(Graph, SingleChainForward) {
  Rng rng(1);
  Graph g;
  const std::size_t in = g.add_input("x", {3});
  const std::size_t d = g.add(std::make_unique<Dense>(2, Act::kLinear, rng), {in});
  g.set_output(d);
  Tensor x({4, 3});
  ForwardCtx ctx{};
  const Tensor y = g.forward(std::vector<Tensor>{x}, ctx);
  EXPECT_EQ(y.shape(), tensor::Shape({4, 2}));
  EXPECT_EQ(g.output_shape(), FeatShape({2}));
}

TEST(Graph, MultiInputConcatModel) {
  Rng rng(2);
  Graph g;
  const std::size_t a = g.add_input("a", {2});
  const std::size_t b = g.add_input("b", {3});
  const std::size_t cat = g.add(std::make_unique<Concat>(), {a, b});
  g.set_output(cat);
  Tensor xa = Tensor::of2d({{1, 2}});
  Tensor xb = Tensor::of2d({{3, 4, 5}});
  ForwardCtx ctx{};
  const Tensor y = g.forward(std::vector<Tensor>{xa, xb}, ctx);
  EXPECT_EQ(y.shape(), tensor::Shape({1, 5}));
  EXPECT_FLOAT_EQ(y(0, 4), 5.0f);
}

TEST(Graph, ForwardValidatesInputCountAndShape) {
  Rng rng(3);
  Graph g;
  (void)g.add_input("x", {3});
  ForwardCtx ctx{};
  EXPECT_THROW((void)g.forward(std::vector<Tensor>{}, ctx), std::invalid_argument);
  Tensor wrong({2, 4});
  EXPECT_THROW((void)g.forward(std::vector<Tensor>{wrong}, ctx), std::invalid_argument);
}

TEST(Graph, TopologicalOrderEnforced) {
  Rng rng(4);
  Graph g;
  const std::size_t in = g.add_input("x", {2});
  EXPECT_THROW((void)g.add(std::make_unique<Identity>(), {in + 5}), std::invalid_argument);
}

TEST(Graph, FanOutAccumulatesGradients) {
  // x -> dense -> {identity, identity} -> add; the dense's grad must be the
  // sum of both branch gradients (numeric check via training one step).
  Rng rng(5);
  Graph g;
  const std::size_t in = g.add_input("x", {2});
  const std::size_t d = g.add(std::make_unique<Dense>(2, Act::kLinear, rng), {in});
  const std::size_t i1 = g.add(std::make_unique<Identity>(), {d});
  const std::size_t i2 = g.add(std::make_unique<Identity>(), {d});
  const std::size_t sum = g.add(std::make_unique<Add>(), {i1, i2});
  g.set_output(sum);
  Tensor x = Tensor::of2d({{1, 1}});
  ForwardCtx ctx{};
  (void)g.forward(std::vector<Tensor>{x}, ctx);
  g.zero_grad();
  Tensor grad_out = Tensor::full({1, 2}, 1.0f);
  g.backward(grad_out);
  // dL/d(dense out) = 2 (two identity consumers of the same tensor).
  // dW[i][j] = x_i * 2 = 2.
  const auto params = g.parameters();
  ASSERT_FALSE(params.empty());
  for (std::size_t i = 0; i < params[0]->size(); ++i) {
    EXPECT_FLOAT_EQ(params[0]->grad[i], 2.0f);
  }
}

TEST(Graph, DeadBranchesAreSkippedInBackward) {
  Rng rng(6);
  Graph g;
  const std::size_t in = g.add_input("x", {2});
  const std::size_t live = g.add(std::make_unique<Dense>(2, Act::kLinear, rng), {in});
  const std::size_t dead = g.add(std::make_unique<Dense>(2, Act::kLinear, rng), {in});
  g.set_output(live);
  Tensor x = Tensor::of2d({{1, 2}});
  ForwardCtx ctx{};
  (void)g.forward(std::vector<Tensor>{x}, ctx);
  g.zero_grad();
  g.backward(Tensor::full({1, 2}, 1.0f));
  const Layer& dead_layer = g.layer(dead);
  for (const ParamPtr& p : dead_layer.parameters()) {
    for (std::size_t i = 0; i < p->size(); ++i) EXPECT_FLOAT_EQ(p->grad[i], 0.0f);
  }
}

TEST(Graph, SharedParametersCountedOnce) {
  Rng rng(7);
  Graph g;
  const std::size_t a = g.add_input("a", {3});
  const std::size_t b = g.add_input("b", {3});
  auto donor = std::make_unique<Dense>(4, Act::kLinear, rng);
  const Dense* donor_ptr = donor.get();
  const std::size_t d1 = g.add(std::move(donor), {a});
  const std::size_t d2 = g.add(clone_shared(*donor_ptr), {b});
  const std::size_t cat = g.add(std::make_unique<Concat>(), {d1, d2});
  g.set_output(cat);
  Tensor xa({2, 3}), xb({2, 3});
  ForwardCtx ctx{};
  (void)g.forward(std::vector<Tensor>{xa, xb}, ctx);
  // 3*4 weights + 4 biases, shared across both branches => counted once.
  EXPECT_EQ(g.param_count(), 3u * 4u + 4u);
}

// Shape errors surface when the node is added, not at the first forward, and
// a rejected node leaves no trace: no node, no shape, no parameter.
TEST(Graph, AddRejectsShapeErrorsAndLeavesGraphUnchanged) {
  Rng rng(7);
  Graph g;
  const std::size_t map = g.add_input("map", {5, 2});
  const std::size_t vec = g.add_input("vec", {4});
  const std::size_t narrow = g.add_input("narrow", {2});
  auto donor = std::make_unique<Dense>(3, Act::kLinear, rng);
  const Dense& donor_ref = *donor;
  const std::size_t d = g.add(std::move(donor), {vec});
  EXPECT_EQ(g.shape(d), FeatShape({3}));
  EXPECT_EQ(g.param_count(), 4u * 3u + 3u);  // before any forward
  const std::size_t nodes = g.node_count();

  EXPECT_THROW((void)g.add(std::make_unique<Dense>(3, Act::kLinear, rng), {map}),
               std::invalid_argument);
  EXPECT_EQ(g.node_count(), nodes);
  EXPECT_THROW((void)g.add(clone_shared(donor_ref), {narrow}), std::invalid_argument);
  EXPECT_EQ(g.node_count(), nodes);
  EXPECT_EQ(g.param_count(), 4u * 3u + 3u);
  EXPECT_EQ(g.output_id(), d);

  // The graph is still whole: it runs with the nodes it kept.
  Tensor xm({2, 5, 2}), xv({2, 4}), xn({2, 2});
  ForwardCtx ctx{};
  EXPECT_EQ(g.forward(std::vector<Tensor>{xm, xv, xn}, ctx).shape(), tensor::Shape({2, 3}));
}

TEST(Graph, SummaryMentionsEveryNode) {
  Rng rng(8);
  Graph g;
  const std::size_t in = g.add_input("x", {2});
  (void)g.add(std::make_unique<Dense>(3, Act::kRelu, rng), {in});
  const std::string s = g.summary();
  EXPECT_NE(s.find("input 'x'"), std::string::npos);
  EXPECT_NE(s.find("dense(3, relu)"), std::string::npos);
  EXPECT_NE(s.find("[output]"), std::string::npos);
}

// backward() reads the pointers the last forward() left in the layers and
// the plan; with no forward since the graph was built or changed there are
// none, and it must say so rather than read them.
TEST(Graph, BackwardWithoutForwardThrows) {
  Rng rng(9);
  Graph g;
  const std::size_t in = g.add_input("x", {3});
  const std::size_t d = g.add(std::make_unique<Dense>(2, Act::kTanh, rng), {in});
  g.set_output(d);
  const Tensor grad = Tensor::full({4, 2}, 1.0f);
  EXPECT_THROW(g.backward(grad), std::logic_error);

  ForwardCtx ctx{};
  (void)g.forward(std::vector<Tensor>{Tensor({4, 3})}, ctx);
  g.backward(grad);
  EXPECT_THROW(g.backward(Tensor::full({4, 3}, 1.0f)), std::invalid_argument);  // wrong shape

  // Growing the graph may move every slot: the plan is invalid until the
  // next forward.
  const std::size_t d2 = g.add(std::make_unique<Dense>(2, Act::kLinear, rng), {d});
  EXPECT_THROW(g.backward(grad), std::logic_error);
  (void)g.forward(std::vector<Tensor>{Tensor({4, 3})}, ctx);
  g.backward(grad);
  g.set_output(d2);
  EXPECT_THROW(g.backward(grad), std::logic_error);

  // A forward that throws part-way leaves no plan behind either.
  EXPECT_THROW((void)g.forward(std::vector<Tensor>{Tensor({4, 5})}, ctx), std::invalid_argument);
  EXPECT_THROW(g.backward(grad), std::logic_error);
}

TEST(Graph, SetOutputValidatesId) {
  Graph g;
  (void)g.add_input("x", {1});
  EXPECT_THROW(g.set_output(99), std::invalid_argument);
}

}  // namespace
}  // namespace ncnas::nn
