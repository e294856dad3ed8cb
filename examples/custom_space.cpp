// custom_space — how a domain expert defines their OWN search space with the
// paper's formalism: multiple input layers, VariableNodes with custom menus,
// a ConstantNode injecting domain knowledge, and a MirrorNode sharing weights
// between two symmetric inputs — then searches it.
//
// Scenario: a two-assay screening problem. Two replicate assay panels (same
// measurement modality, so they should share an encoder) plus a scalar
// covariate that domain knowledge says must always be concatenated in.
#include <iostream>

#include "ncnas/analytics/report.hpp"
#include "ncnas/data/dataset.hpp"
#include "ncnas/exec/presets.hpp"
#include "ncnas/nas/driver.hpp"
#include "ncnas/nn/trainer.hpp"
#include "ncnas/space/builder.hpp"
#include "ncnas/space/search_space.hpp"

using namespace ncnas;

namespace {

/// A three-input synthetic task shaped like the scenario above. Reuses the
/// Combo generator and relabels: assay panels = the two drug-descriptor
/// views, covariate = the first expression feature.
data::Dataset make_two_assay_task() {
  data::ComboDims dims;
  dims.train = 1024;
  dims.valid = 256;
  dims.expression = 1;   // scalar covariate
  dims.descriptors = 48; // assay panel width
  data::Dataset ds = data::make_combo(3, dims);
  ds.name = "two-assay";
  ds.input_names = {"covariate", "assay.panel.a", "assay.panel.b"};
  return ds;
}

space::SearchSpace make_two_assay_space() {
  using namespace ncnas::space;
  // A compact custom menu: the expert only trusts relu and moderate widths.
  const std::vector<Op> encoder_menu{
      IdentityOp{}, DenseOp{16, nn::Act::kRelu}, DenseOp{32, nn::Act::kRelu},
      DenseOp{64, nn::Act::kRelu}, DropoutOp{0.1f}};

  Structure s;
  s.name = "two-assay";
  s.input_names = {"covariate", "assay.panel.a", "assay.panel.b"};

  // C0: encode panel A with two searched layers; panel B mirrors them
  // (shared weights); the covariate passes through a ConstantNode so it is
  // guaranteed to reach the head unchanged.
  Cell c0{"C0", {}};
  Block panel_a{"panel-a", SkipRef::to_input(1), {}};
  panel_a.nodes.emplace_back(VariableNode{"enc0", encoder_menu});
  panel_a.nodes.emplace_back(VariableNode{"enc1", encoder_menu});
  c0.blocks.push_back(std::move(panel_a));
  Block panel_b{"panel-b", SkipRef::to_input(2), {}};
  panel_b.nodes.emplace_back(MirrorNode{"enc0'", 0, 0, 0});
  panel_b.nodes.emplace_back(MirrorNode{"enc1'", 0, 0, 1});
  c0.blocks.push_back(std::move(panel_b));
  Block covariate{"covariate", SkipRef::to_input(0), {}};
  covariate.nodes.emplace_back(ConstantNode{"pass", IdentityOp{}});
  c0.blocks.push_back(std::move(covariate));
  s.cells.push_back(std::move(c0));

  // C1: a searched head with an optional skip back to the raw inputs.
  Cell c1{"C1", {}};
  Block head{"head", SkipRef::to_cell(0), {}};
  head.nodes.emplace_back(VariableNode{"head0", encoder_menu});
  head.nodes.emplace_back(VariableNode{
      "skip", {ConnectOp{{}, "null"}, ConnectOp{{SkipRef::to_input(1), SkipRef::to_input(2)},
                                                "raw panels"}}});
  head.nodes.emplace_back(VariableNode{"head1", encoder_menu});
  c1.blocks.push_back(std::move(head));
  s.cells.push_back(std::move(c1));
  s.output_cells = {1};
  return space::SearchSpace(std::move(s));
}

}  // namespace

int main() {
  const data::Dataset ds = make_two_assay_task();
  const space::SearchSpace sp = make_two_assay_space();
  std::cout << "custom space '" << sp.name() << "': " << sp.num_decisions()
            << " decisions, |S| = " << sp.size() << "\n";
  std::cout << "decisions:";
  for (const auto& d : sp.decisions()) std::cout << ' ' << d.name << '(' << d.arity << ')';
  std::cout << "\n\n";

  nas::SearchConfig cfg;
  cfg.strategy = nas::SearchStrategy::kA3C;
  cfg.cluster = {.num_agents = 4, .workers_per_agent = 3};
  cfg.wall_time_seconds = 45.0 * 60.0;
  cfg.fidelity = {.epochs = 1, .subset_fraction = 0.5, .learning_rate = 0.02f, .batch_size = 8};
  cfg.cost = exec::default_cost("combo");
  cfg.seed = 13;

  tensor::ThreadPool pool;
  const nas::SearchResult res = nas::SearchDriver(sp, ds, cfg, &pool).run();
  std::cout << "search: " << res.evals.size() << " evaluations, best R2 so far = ";
  float best = -1.0f;
  for (const auto& e : res.evals) best = std::max(best, e.reward);
  std::cout << analytics::fmt(best) << "\n\n";

  const auto top = res.top_k(1);
  if (!top.empty()) {
    std::cout << "best architecture:\n" << sp.describe(top[0].arch);
    // Weight sharing in action: the mirrored encoder adds zero parameters.
    tensor::Rng rng(1);
    std::vector<std::size_t> dims{ds.input_dim(0), ds.input_dim(1), ds.input_dim(2)};
    const nn::Graph g =
        space::build_model(sp, top[0].arch, dims, space::TaskHead::regression(), rng);
    std::cout << "\ntrainable parameters (panel B shares panel A's encoder): "
              << g.param_count() << "\n";
  }
  return 0;
}
