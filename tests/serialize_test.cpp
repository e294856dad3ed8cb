#include <gtest/gtest.h>

#include <filesystem>

#include "ncnas/data/dataset.hpp"
#include "ncnas/nn/layers.hpp"
#include "ncnas/nn/serialize.hpp"
#include "ncnas/nn/trainer.hpp"
#include "ncnas/space/builder.hpp"
#include "ncnas/space/spaces.hpp"

namespace ncnas::nn {
namespace {

using tensor::Rng;
using tensor::Tensor;

struct TempFile {
  std::filesystem::path path;
  TempFile() {
    path = std::filesystem::temp_directory_path() /
           ("ncnas_w_" + std::to_string(::getpid()) + ".txt");
  }
  ~TempFile() { std::filesystem::remove(path); }
};

Graph small_model(Rng& rng) {
  Graph g;
  const std::size_t in = g.add_input("x", {3});
  const std::size_t d1 = g.add(std::make_unique<Dense>(4, Act::kRelu, rng), {in});
  g.set_output(g.add(std::make_unique<Dense>(2, Act::kLinear, rng), {d1}));
  return g;
}

TEST(Serialize, RoundTripPreservesPredictions) {
  TempFile file;
  Rng rng_a(1);
  Graph a = small_model(rng_a);
  save_weights(a, file.path.string());

  Rng rng_b(999);  // different init; must be overwritten by load
  Graph b = small_model(rng_b);
  load_weights(b, file.path.string());

  Tensor x = Tensor::of2d({{0.5f, -1.0f, 2.0f}});
  ForwardCtx ctx{};
  const Tensor ya = a.forward(std::vector<Tensor>{x}, ctx);
  const Tensor yb = b.forward(std::vector<Tensor>{x}, ctx);
  EXPECT_LT(tensor::max_abs_diff(ya, yb), 1e-6f);
}

TEST(Serialize, RejectsParameterCountMismatch) {
  TempFile file;
  Rng rng(1);
  Graph a = small_model(rng);
  save_weights(a, file.path.string());

  Graph shallower;  // one Dense where the file has two
  const std::size_t in = shallower.add_input("x", {3});
  shallower.set_output(shallower.add(std::make_unique<Dense>(2, Act::kLinear, rng), {in}));
  EXPECT_THROW(load_weights(shallower, file.path.string()), std::invalid_argument);
}

TEST(Serialize, RejectsShapeMismatch) {
  TempFile file;
  Rng rng(1);
  Graph a = small_model(rng);
  save_weights(a, file.path.string());

  Graph wider;
  const std::size_t in = wider.add_input("x", {3});
  const std::size_t d1 = wider.add(std::make_unique<Dense>(5, Act::kRelu, rng), {in});
  wider.set_output(wider.add(std::make_unique<Dense>(2, Act::kLinear, rng), {d1}));
  EXPECT_THROW(load_weights(wider, file.path.string()), std::invalid_argument);
}

TEST(Serialize, MissingFileThrows) {
  Rng rng(1);
  Graph g = small_model(rng);
  EXPECT_THROW(load_weights(g, "/nonexistent/w.txt"), std::runtime_error);
}

TEST(Serialize, SearchedArchitectureSurvivesRoundTrip) {
  // End-to-end: build a NAS architecture, train briefly, save, reload into a
  // freshly built copy, verify identical validation metric.
  const space::SearchSpace sp = space::nt3_small_space();
  data::Nt3Dims dims;
  dims.train = 48;
  dims.valid = 24;
  dims.length = 64;
  dims.motif = 6;
  const data::Dataset ds = data::make_nt3(3, dims);
  tensor::Rng arch_rng(5);
  const space::ArchEncoding arch = sp.random_arch(arch_rng);
  const std::vector<std::size_t> input_dims{ds.input_dim(0)};

  Rng build_rng(7);
  Graph trained =
      space::build_model(sp, arch, input_dims, space::TaskHead::classification(2), build_rng);
  TrainOptions opts;
  opts.epochs = 2;
  opts.batch_size = 8;
  opts.loss = ds.loss;
  Rng train_rng(9);
  (void)fit(trained, ds.x_train, ds.y_train, opts, train_rng);
  const float acc = evaluate(trained, ds.x_valid, ds.y_valid, ds.metric);

  TempFile file;
  save_weights(trained, file.path.string());

  Rng rebuild_rng(1234);
  Graph restored =
      space::build_model(sp, arch, input_dims, space::TaskHead::classification(2), rebuild_rng);
  load_weights(restored, file.path.string());
  EXPECT_FLOAT_EQ(evaluate(restored, ds.x_valid, ds.y_valid, ds.metric), acc);
}

}  // namespace
}  // namespace ncnas::nn
