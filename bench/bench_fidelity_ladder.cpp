// bench_fidelity_ladder — multi-fidelity throughput proof: successive halving
// with weight-inheritance warm starts vs the flat full-fidelity evaluator.
//
//   bench_fidelity_ladder [--json PATH] [--archs N] [--no-gate]
//
// One candidate pool sampled from the small Combo space is evaluated twice:
//
//   flat     every candidate trains the full `top` epochs from scratch
//   ladder   geometric 3-rung ladder (epochs top/eta², top/eta, top;
//            eta = 4), warm starts paying only the delta epochs per rung
//
// Both paths are fully deterministic (seeded sampling, seeded training, a
// jittered-but-keyed cost model), so every simulated-time and reward number
// in the JSON reproduces bit-for-bit and perf_diff against the checked-in
// BENCH_fidelity.json compares them exactly. The one host-timed record,
// fidelity_wall_speedup (the flat path's wall seconds over the ladder's, on
// the same pool), varies run to run like any wall-clock number.
//
// Gates (disable with --no-gate):
//   throughput  the ladder must evaluate >= 5x more architectures per unit
//               of *simulated* train time (the cost model's seconds — the
//               resource the paper's scheduler meters) than the flat path
//   quality     the ladder's final top-k mean reward (k = top-rung
//               survivors) must be equal or better than the flat top-k
//
// Each record carries its `value` and that value's `unit`, which perf_diff
// compares as higher-is-better. Records are ordered deterministically so
// reruns diff cleanly.
#include <algorithm>
#include <chrono>
#include <cstdint>
#include <fstream>
#include <iomanip>
#include <iostream>
#include <sstream>
#include <string>
#include <vector>

#include "ncnas/exec/evaluator.hpp"
#include "ncnas/exec/fidelity_ladder.hpp"
#include "ncnas/space/spaces.hpp"
#include "ncnas/tensor/rng.hpp"
#include "ncnas/tensor/thread_pool.hpp"

namespace {

using ncnas::exec::CostModel;
using ncnas::exec::FidelityConfig;

constexpr std::uint64_t kSeed = 2026;

/// Mean of the k largest rewards — the "did the search surface good
/// architectures" signal both paths are scored on.
float top_k_mean(std::vector<float> rewards, std::size_t k) {
  k = std::min(k, rewards.size());
  if (k == 0) return 0.0f;
  std::partial_sort(rewards.begin(), rewards.begin() + static_cast<std::ptrdiff_t>(k),
                    rewards.end(), std::greater<float>());
  double sum = 0.0;
  for (std::size_t i = 0; i < k; ++i) sum += rewards[i];
  return static_cast<float>(sum / static_cast<double>(k));
}

struct Record {
  std::string op;
  std::size_t size = 0;
  std::string config;
  double value = 0.0;
  const char* unit = "";
};

double now_seconds() {
  return std::chrono::duration<double>(std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

}  // namespace

int main(int argc, char** argv) {
  std::string json_path = "BENCH_fidelity.json";
  std::size_t n_archs = 48;
  bool gate = true;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--json" && i + 1 < argc) {
      json_path = argv[++i];
    } else if (arg == "--archs" && i + 1 < argc) {
      n_archs = static_cast<std::size_t>(std::stoul(argv[++i]));
    } else if (arg == "--no-gate") {
      gate = false;
    } else {
      std::cerr << "usage: bench_fidelity_ladder [--json PATH] [--archs N] [--no-gate]\n";
      return 2;
    }
  }

  // Small Combo space on a dimensionally reduced Combo dataset: real
  // trainings, milliseconds each, rewards informative enough to rank.
  const ncnas::space::SearchSpace space = ncnas::space::combo_small_space();
  ncnas::data::ComboDims dims;
  dims.train = 256;
  dims.valid = 96;
  dims.expression = 32;
  dims.descriptors = 48;
  dims.latent = 8;
  const ncnas::data::Dataset ds = ncnas::data::make_combo(7, dims);

  FidelityConfig top;
  top.epochs = 12;
  // Startup is small relative to an epoch here, as on the paper's cluster
  // where training dominates job launch; the timeout never fires so both
  // paths pay for every candidate in full.
  CostModel cost;
  cost.startup_seconds = 1.0;
  cost.seconds_per_megaunit = 1.0;
  cost.timeout_seconds = 1e9;

  // Geometric epochs ladder with sharper low-rung optimization: the cost
  // model meters samples x epochs, so smaller batches (more optimizer steps
  // per epoch) buy ranking fidelity at the cheap rungs for free — simulated
  // cost is identical, only the rank correlation with the top rung improves.
  ncnas::exec::LadderConfig ladder_cfg = ncnas::exec::make_geometric_ladder(top, 3, 4);
  ladder_cfg.rungs[0].batch_size = 8;
  ladder_cfg.rungs[0].learning_rate = 0.002f;
  ladder_cfg.rungs[1].batch_size = 16;

  ncnas::tensor::Rng rng(kSeed);
  std::vector<ncnas::space::ArchEncoding> archs;
  archs.reserve(n_archs);
  for (std::size_t i = 0; i < n_archs; ++i) archs.push_back(space.random_arch(rng));

  ncnas::tensor::ThreadPool pool;

  // ---- flat: everyone trains `top.epochs` from scratch ---------------------
  const ncnas::exec::TrainingEvaluator flat(space, ds, top, cost);
  std::vector<float> flat_rewards(n_archs);
  std::vector<double> flat_secs(n_archs);
  const double flat_t0 = now_seconds();
  {
    std::vector<ncnas::exec::EvalResult> results(n_archs);
    ncnas::tensor::parallel_for(pool, n_archs, [&](std::size_t i) {
      results[i] = flat.evaluate(archs[i], kSeed + 1);
    });
    for (std::size_t i = 0; i < n_archs; ++i) {
      flat_rewards[i] = results[i].reward;
      flat_secs[i] = results[i].sim_duration;
    }
  }

  const double flat_wall_s = now_seconds() - flat_t0;

  // ---- ladder: successive halving with warm starts -------------------------
  const ncnas::exec::FidelityLadder ladder(space, ds, ladder_cfg, cost);
  std::vector<ncnas::exec::LadderRungStats> rung_stats;
  const double ladder_t0 = now_seconds();
  const std::vector<ncnas::exec::LadderOutcome> outcomes =
      ladder.evaluate_batch(archs, kSeed + 1, &rung_stats, &pool);
  const double ladder_wall_s = now_seconds() - ladder_t0;

  double flat_total_s = 0.0;
  for (const double s : flat_secs) flat_total_s += s;
  double ladder_total_s = 0.0;
  std::vector<float> ladder_rewards(n_archs);
  for (std::size_t i = 0; i < n_archs; ++i) {
    // sim_duration accumulates across every rung the candidate climbed, so
    // summing the outcomes is the exact simulated cost of the whole ladder.
    ladder_total_s += outcomes[i].result.sim_duration;
    ladder_rewards[i] = outcomes[i].result.reward;
  }

  const double flat_throughput = static_cast<double>(n_archs) / (flat_total_s / 1e3);
  const double ladder_throughput = static_cast<double>(n_archs) / (ladder_total_s / 1e3);
  const double speedup = flat_total_s / ladder_total_s;

  const std::size_t k = rung_stats.empty() ? 1 : rung_stats.back().candidates;
  const float flat_topk = top_k_mean(flat_rewards, k);
  const float ladder_topk = top_k_mean(ladder_rewards, k);

  std::cout << "candidates: " << n_archs << "   ladder: " << ladder_cfg.fingerprint() << "\n";
  std::cout << "rung  candidates  survivors  trainings  warm\n";
  for (const ncnas::exec::LadderRungStats& rs : rung_stats) {
    std::cout << std::left << std::setw(6) << rs.rung << std::setw(12) << rs.candidates
              << std::setw(11) << rs.survivors << std::setw(11) << rs.trainings << rs.warm_starts
              << "\n";
  }
  std::cout << std::fixed << std::setprecision(3);
  std::cout << "flat   : " << flat_total_s << " sim s  (" << flat_throughput << " archs/ks)  top-"
            << k << " mean reward " << flat_topk << "\n";
  std::cout << "ladder : " << ladder_total_s << " sim s  (" << ladder_throughput
            << " archs/ks)  top-" << k << " mean reward " << ladder_topk << "\n";
  std::cout << "archs per unit simulated train time: " << speedup << "x the flat evaluator\n";
  std::cout << "wall: flat " << flat_wall_s << " s, ladder " << ladder_wall_s << " s ("
            << flat_wall_s / ladder_wall_s << "x)\n";

  std::vector<Record> records;
  records.push_back({"fidelity_eval", n_archs, "flat", flat_throughput, "archs/sim_ks"});
  records.push_back({"fidelity_eval", n_archs, "ladder", ladder_throughput, "archs/sim_ks"});
  records.push_back({"fidelity_speedup", n_archs, "ladder_vs_flat", speedup, "ratio"});
  records.push_back(
      {"fidelity_wall_speedup", n_archs, "ladder_vs_flat", flat_wall_s / ladder_wall_s, "ratio"});
  records.push_back(
      {"fidelity_topk_reward", k, "flat", static_cast<double>(flat_topk), "reward"});
  records.push_back(
      {"fidelity_topk_reward", k, "ladder", static_cast<double>(ladder_topk), "reward"});

  std::stable_sort(records.begin(), records.end(), [](const Record& a, const Record& b) {
    if (a.op != b.op) return a.op < b.op;
    if (a.size != b.size) return a.size < b.size;
    return a.config < b.config;
  });

  std::ostringstream json;
  json << "{\n  \"schema_version\": 1,\n  \"records\": [\n";
  for (std::size_t i = 0; i < records.size(); ++i) {
    const Record& r = records[i];
    json << "    {\"op\": \"" << r.op << "\", \"size\": " << r.size << ", \"config\": \""
         << r.config << "\", \"value\": " << std::fixed << std::setprecision(3) << r.value
         << ", \"unit\": \"" << r.unit << "\"}";
    json << (i + 1 < records.size() ? ",\n" : "\n");
  }
  json << "  ]\n}\n";
  std::ofstream out(json_path);
  out << json.str();
  if (!out) {
    std::cerr << "failed to write " << json_path << "\n";
    return 2;
  }
  std::cout << "wrote " << json_path << "\n";

  if (gate) {
    if (speedup < 5.0) {
      std::cerr << "FAIL: ladder throughput advantage " << speedup << "x < 5x\n";
      return 1;
    }
    if (ladder_topk < flat_topk) {
      std::cerr << "FAIL: ladder top-" << k << " reward " << ladder_topk
                << " below flat " << flat_topk << "\n";
      return 1;
    }
    std::cout << "PASS: >=5x throughput at equal-or-better top-" << k << " reward\n";
  }
  return 0;
}
