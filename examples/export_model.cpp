// export_model — ship a discovered architecture: search briefly on Uno, post-
// train the best candidate, save its weights plus a human-readable model
// card, then reload into a freshly built graph and verify the metric.
//
//   ./examples/export_model [output_prefix]
#include <fstream>
#include <iostream>

#include "ncnas/analytics/posttrain.hpp"
#include "ncnas/analytics/report.hpp"
#include "ncnas/exec/presets.hpp"
#include "ncnas/nas/driver.hpp"
#include "ncnas/nn/serialize.hpp"
#include "ncnas/nn/trainer.hpp"
#include "ncnas/space/builder.hpp"
#include "ncnas/space/spaces.hpp"

int main(int argc, char** argv) {
  using namespace ncnas;
  const std::string prefix = argc > 1 ? argv[1] : "uno_best";

  const data::Dataset ds = data::make_uno(1);
  const space::SearchSpace sp = space::uno_small_space();

  nas::SearchConfig cfg;
  cfg.strategy = nas::SearchStrategy::kA3C;
  cfg.cluster = {.num_agents = 4, .workers_per_agent = 4};
  cfg.wall_time_seconds = 45.0 * 60.0;
  cfg.fidelity = exec::default_fidelity("uno");
  cfg.cost = exec::default_cost("uno");
  cfg.seed = 3;

  tensor::ThreadPool pool;
  const nas::SearchResult res = nas::SearchDriver(sp, ds, cfg, &pool).run();
  const auto top = res.top_k(1);
  if (top.empty()) {
    std::cerr << "search produced no candidates\n";
    return 1;
  }

  // Post-train fully, measure, save.
  constexpr std::uint64_t kBuildSeed = 7;
  std::vector<std::size_t> dims;
  for (std::size_t i = 0; i < ds.input_count(); ++i) dims.push_back(ds.input_dim(i));
  tensor::Rng build_rng(kBuildSeed);
  nn::Graph model =
      space::build_model(sp, top[0].arch, dims, space::TaskHead::regression(), build_rng);
  nn::TrainOptions train;
  train.epochs = 20;
  train.batch_size = ds.batch_size;
  tensor::Rng train_rng(kBuildSeed + 1);
  (void)nn::fit(model, ds.x_train, ds.y_train, train, train_rng);
  const float r2 = nn::evaluate(model, ds.x_valid, ds.y_valid, ds.metric);

  const std::string weights_path = prefix + ".weights";
  nn::save_weights(model, weights_path);
  {
    std::ofstream card(prefix + ".card");
    card << "benchmark: uno\nspace: " << sp.name() << "\nencoding: "
         << space::arch_key(top[0].arch) << "\nbuild_seed: " << kBuildSeed
         << "\nvalidation_R2: " << r2 << "\nparams: " << model.param_count() << "\n\n"
         << sp.describe(top[0].arch) << "\nlayers:\n" << model.summary();
  }
  std::cout << "saved " << weights_path << " and " << prefix << ".card (R2 "
            << analytics::fmt(r2) << ", " << model.param_count() << " params)\n";

  // Reload into a fresh graph and verify bit-identical behaviour.
  tensor::Rng fresh_rng(12345);
  nn::Graph restored =
      space::build_model(sp, top[0].arch, dims, space::TaskHead::regression(), fresh_rng);
  nn::load_weights(restored, weights_path);
  const float r2_restored = nn::evaluate(restored, ds.x_valid, ds.y_valid, ds.metric);
  std::cout << "reloaded model validation R2: " << analytics::fmt(r2_restored)
            << (r2_restored == r2 ? "  (exact match)" : "  (MISMATCH!)") << "\n";
  return r2_restored == r2 ? 0 : 1;
}
