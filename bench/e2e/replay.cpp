#include "replay.hpp"

#include <algorithm>
#include <bit>
#include <filesystem>
#include <map>
#include <numeric>
#include <optional>
#include <sstream>
#include <stdexcept>

#include "alloc_count.hpp"
#include "ncnas/ckpt/checkpoint.hpp"
#include "ncnas/exec/fidelity_ladder.hpp"
#include "ncnas/nn/trainer.hpp"
#include "ncnas/serve/server.hpp"
#include "ncnas/tensor/ops.hpp"

namespace bench {

namespace nas = ncnas::nas;
namespace nn = ncnas::nn;
namespace exec = ncnas::exec;
namespace tensor = ncnas::tensor;
using nas::EvalRecord;
using nas::SearchConfig;
using nas::SearchResult;

namespace {

// Replay caps. Call caps keep the samples comparable from run to run; the
// time cap bounds a replay whose calls are slow (it only ends a section after
// kMinSamples calls).
constexpr std::size_t kMaxCycles = 512;
constexpr std::size_t kMaxEvals = 128;
constexpr std::size_t kMaxLadderBatches = 64;
constexpr std::size_t kGraphArchs = 32;
constexpr int kWarmupSteps = 2;
constexpr int kTimedSteps = 4;
constexpr std::size_t kCkptSamples = 100;
constexpr std::size_t kObsRepeats = 10;
constexpr double kSectionSeconds = 4.0;
constexpr std::size_t kMinSamples = 16;
constexpr double kKernelFlopsPerShape = 4e6;

bool section_over(Clock::time_point t0, std::size_t samples) {
  return samples >= kMinSamples && seconds_since(t0) > kSectionSeconds;
}

/// Linear interpolation between closest ranks.
double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
}

double mean(const std::vector<double>& v) {
  return v.empty() ? 0.0 : std::accumulate(v.begin(), v.end(), 0.0) / static_cast<double>(v.size());
}

bool same_bits(float a, float b) {
  return std::bit_cast<std::uint32_t>(a) == std::bit_cast<std::uint32_t>(b);
}

class Sink {
 public:
  explicit Sink(std::vector<Metric>& out) : out_(&out) {}

  void add(std::string name, double value, std::string unit, std::size_t n = 0) {
    out_->push_back({std::move(name), value, std::move(unit), n});
  }

  /// `<base>.p50`: the median of `seconds` times `scale`, with the sample
  /// count. No replay guarantees the hundred samples a p90 needs on every
  /// workload, so none is reported.
  void p50(const std::string& base, const std::vector<double>& seconds, double scale,
           const std::string& unit) {
    add(base + ".p50", quantile(seconds, 0.5) * scale, unit, seconds.size());
  }

 private:
  std::vector<Metric>* out_;
};

/// One agent cycle recovered from a result: an agent's batch, its records in
/// completion order, and the time the batch closed.
struct Cycle {
  std::size_t agent = 0;
  double done = 0.0;
  std::vector<const EvalRecord*> records;
};

std::size_t batch_size(const SearchConfig& cfg) {
  return cfg.batch_per_agent != 0 ? cfg.batch_per_agent : cfg.cluster.workers_per_agent;
}

// The driver sorts records by completion time. An agent's batches never
// overlap in time, so its records, in order, are its batches back to back;
// a batch cut by the deadline is dropped.
std::vector<Cycle> recorded_cycles(const SearchConfig& cfg, const SearchResult& r) {
  const std::size_t m = batch_size(cfg);
  std::vector<std::vector<const EvalRecord*>> per_agent(cfg.cluster.num_agents);
  for (const EvalRecord& rec : r.evals) {
    if (rec.agent < per_agent.size()) per_agent[rec.agent].push_back(&rec);
  }
  std::vector<Cycle> cycles;
  for (std::size_t a = 0; a < per_agent.size(); ++a) {
    for (std::size_t i = 0; i + m <= per_agent[a].size(); i += m) {
      Cycle c{a, 0.0, {per_agent[a].begin() + static_cast<std::ptrdiff_t>(i),
                       per_agent[a].begin() + static_cast<std::ptrdiff_t>(i + m)}};
      for (const EvalRecord* rec : c.records) c.done = std::max(c.done, rec->time);
      cycles.push_back(std::move(c));
    }
  }
  std::stable_sort(cycles.begin(), cycles.end(),
                   [](const Cycle& x, const Cycle& y) { return x.done < y.done; });
  return cycles;
}

/// The driver's per-agent weight-initialization seed.
std::uint64_t eval_seed(const SearchConfig& cfg, std::size_t agent) {
  return tensor::Rng(cfg.seed).split(5000 + agent).next_u64();
}

bool is_rl(const SearchConfig& cfg) {
  return cfg.strategy == nas::SearchStrategy::kA3C || cfg.strategy == nas::SearchStrategy::kA2C;
}

exec::FidelityConfig flat_fidelity(const SearchConfig& cfg) {
  return cfg.ladder.enabled() ? cfg.ladder.rungs.front() : cfg.fidelity;
}

std::size_t train_batch(const SearchConfig& cfg, const ncnas::data::Dataset& ds) {
  const exec::FidelityConfig f = flat_fidelity(cfg);
  const auto rows = static_cast<std::size_t>(
      std::max(1.0, f.subset_fraction * static_cast<double>(ds.train_rows())));
  return std::min(f.batch_size != 0 ? f.batch_size : ds.batch_size, rows);
}

std::vector<tensor::Tensor> leading_rows(const std::vector<tensor::Tensor>& xs, std::size_t n) {
  std::vector<tensor::Tensor> out;
  out.reserve(xs.size());
  for (const tensor::Tensor& x : xs) out.push_back(nn::slice_rows(x, 0, n));
  return out;
}

// ---- rl + ps ---------------------------------------------------------------
// Re-runs the controller/PS protocol of the first tenant (an RL search in
// every workload) in the driver's order: ppo_update, submit, then the next
// pull and M samples. Samples must reproduce the recorded architectures;
// their recorded rewards feed PPO. Returns the replayed cycles with records
// in batch position order, which completion order does not preserve.
std::vector<Cycle> replay_rl_ps(const Workload& w, const RunOutcome& run, Spans& spans,
                                Sink& out, std::vector<std::string>& failures) {
  const SearchConfig& cfg = w.tenants.front().config;
  const SearchResult& result = run.results.front();
  if (!is_rl(cfg)) throw std::logic_error("the first tenant is not an RL search");
  const std::size_t agents = cfg.cluster.num_agents;
  const std::size_t m = batch_size(cfg);
  const bool sync = cfg.strategy == nas::SearchStrategy::kA2C;

  const std::vector<std::size_t> arities = w.space.arities();
  ncnas::rl::Controller init(arities, cfg.seed);
  nas::ParameterServer ps(init.get_flat(),
                          sync ? nas::ParameterServer::Mode::kSync
                               : nas::ParameterServer::Mode::kAsync,
                          agents, cfg.async_window);
  std::vector<ncnas::rl::Controller> ctl;
  std::vector<tensor::Rng> rng;
  std::vector<std::vector<float>> theta(agents);
  std::vector<std::vector<ncnas::rl::Rollout>> rollouts(agents);
  tensor::Rng seeder(cfg.seed);
  for (std::size_t a = 0; a < agents; ++a) {
    ctl.emplace_back(arities, cfg.seed + 17 * a);
    rng.push_back(seeder.split(1000 + a));
  }

  std::vector<double> sample_s, ppo_s, pull_s, submit_s, ppo_allocs;
  const auto start_cycle = [&](std::size_t a) {
    pull_s.push_back(timed(&spans, "ps.pull", [&] { theta[a] = ps.pull(a); }));
    ctl[a].set_flat(theta[a]);
    rollouts[a].clear();
    for (std::size_t i = 0; i < m; ++i) {
      sample_s.push_back(
          timed(&spans, "rl.sample", [&] { rollouts[a].push_back(ctl[a].sample(rng[a])); }));
    }
  };

  std::vector<Cycle> ordered;
  const Clock::time_point t0 = Clock::now();
  for (std::size_t a = 0; a < agents; ++a) start_cycle(a);
  const std::vector<Cycle> cycles = recorded_cycles(cfg, result);
  for (std::size_t c = 0; c < cycles.size() && c < kMaxCycles; ++c) {
    const Cycle& cy = cycles[c];
    const std::size_t a = cy.agent;
    // Match each sampled arch to a recorded one: rewards in rollout order.
    Cycle& oc = ordered.emplace_back(Cycle{a, cy.done, {}});
    std::vector<float> rewards;
    std::vector<bool> used(cy.records.size(), false);
    for (const ncnas::rl::Rollout& ro : rollouts[a]) {
      std::size_t j = 0;
      while (j < cy.records.size() && (used[j] || cy.records[j]->arch != ro.actions)) ++j;
      if (j == cy.records.size()) {
        failures.push_back("rl replay: sampled architecture not in the recorded batch");
        ordered.pop_back();
        return ordered;
      }
      used[j] = true;
      oc.records.push_back(cy.records[j]);
      rewards.push_back(cy.records[j]->reward);
    }
    ppo_s.push_back(timed(&spans, "rl.ppo_update", [&] {
      const AllocScope count;
      (void)ctl[a].ppo_update(rollouts[a], rewards, cfg.ppo);
      ppo_allocs.push_back(static_cast<double>(count.totals().calls));
    }));
    std::vector<float> delta = ctl[a].get_flat();
    for (std::size_t i = 0; i < delta.size(); ++i) delta[i] -= theta[a][i];
    bool released = false;
    submit_s.push_back(timed(&spans, "ps.submit", [&] { released = ps.submit(a, delta); }));
    if (!sync) {
      start_cycle(a);
    } else if (released) {
      for (std::size_t b = 0; b < agents; ++b) start_cycle(b);
    }
    if (section_over(t0, ppo_s.size())) break;
  }

  const auto updates = static_cast<double>(result.ppo_updates);
  out.p50("rl.sample_us", sample_s, 1e6, "us");
  out.p50("rl.ppo_update_ms", ppo_s, 1e3, "ms");
  out.add("rl.busy_s", (mean(sample_s) * static_cast<double>(m) + mean(ppo_s)) * updates, "s");
  out.add("rl.ppo_allocs", quantile(ppo_allocs, 0.5), "count");
  out.p50("ps.pull_us", pull_s, 1e6, "us");
  out.p50("ps.submit_us", submit_s, 1e6, "us");
  out.add("ps.busy_s", (mean(pull_s) + mean(submit_s)) * updates, "s");
  out.add("ps.bytes_per_exchange", 2.0 * static_cast<double>(ps.dim() * sizeof(float)), "bytes");
  return ordered;
}

// ---- eval --------------------------------------------------------------------
// build + probe, fit and evaluate, exactly as TrainingEvaluator::evaluate runs
// them, on the first real records; the replayed reward must match the
// recorded one bit for bit. Ladder records are replayed at rung 0 when they
// stopped there.
void replay_eval(const Workload& w, const RunOutcome& run, Spans& spans, Sink& out,
                 std::vector<std::string>& failures) {
  std::vector<double> build_s, train_s, validate_s;
  std::size_t timeouts = 0, real = 0;
  for (std::size_t t = 0; t < run.results.size(); ++t) {
    for (const EvalRecord& rec : run.results[t].evals) {
      timeouts += (!rec.cache_hit && rec.timed_out) ? 1 : 0;
    }
    real += real_trainings(run.results[t]);
  }

  const ncnas::data::Dataset& ds = w.dataset;
  const Clock::time_point t0 = Clock::now();
  for (std::size_t t = 0; t < run.results.size() && build_s.size() < kMaxEvals; ++t) {
    const SearchConfig& cfg = w.tenants[t].config;
    const exec::FidelityConfig fid = flat_fidelity(cfg);
    const exec::TrainingEvaluator ev(w.space, ds, fid, cfg.cost);
    for (const EvalRecord& rec : run.results[t].evals) {
      if (build_s.size() >= kMaxEvals || section_over(t0, build_s.size())) break;
      if (rec.cache_hit || rec.timed_out || rec.rung != 0) continue;
      const std::uint64_t seed = eval_seed(cfg, rec.agent);
      std::optional<nn::Graph> model;
      build_s.push_back(timed(&spans, "eval.build", [&] {
        model.emplace(ev.build(rec.arch, seed));
        nn::ForwardCtx ctx{.training = false, .rng = nullptr};
        (void)model->forward(leading_rows(ds.x_train, 1), ctx);
      }));
      train_s.push_back(timed(&spans, "eval.train", [&] {
        tensor::Rng train_rng = tensor::Rng(seed).split(1);
        nn::TrainOptions opts;
        opts.epochs = fid.epochs;
        opts.batch_size = fid.batch_size != 0 ? fid.batch_size : ds.batch_size;
        opts.learning_rate = fid.learning_rate;
        opts.loss = ds.loss;
        opts.subset_fraction = fid.subset_fraction;
        (void)nn::fit(*model, ds.x_train, ds.y_train, opts, train_rng);
      }));
      float metric = 0.0f;
      validate_s.push_back(timed(&spans, "eval.validate", [&] {
        metric = nn::evaluate(*model, ds.x_valid, ds.y_valid, ds.metric);
      }));
      if (!same_bits(std::max(metric, ev.reward_floor()), rec.reward)) {
        failures.push_back("eval replay: reward differs from the recorded reward");
        return;
      }
    }
  }
  if (build_s.empty()) failures.push_back("eval replay: no real evaluation to replay");

  out.p50("eval.build_ms", build_s, 1e3, "ms");
  out.p50("eval.train_ms", train_s, 1e3, "ms");
  out.p50("eval.validate_ms", validate_s, 1e3, "ms");
  out.add("eval.busy_s",
          (mean(build_s) + mean(train_s) + mean(validate_s)) * static_cast<double>(real), "s");
  out.add("eval.timeouts", static_cast<double>(timeouts), "count");
}

// ---- ladder ------------------------------------------------------------------
// evaluate_batch on the real evaluations of the first tenant's batches, in
// batch order (promotion breaks reward ties by position). Workloads without
// a ladder use the combo-ladder shape on their own fidelity; on combo-ladder
// the replayed rewards must match the recorded ones.
void replay_ladder(const Workload& w, const std::vector<Cycle>& batches,
                   tensor::ThreadPool& pool, Spans& spans, Sink& out,
                   std::vector<std::string>& failures) {
  const SearchConfig& cfg = w.tenants.front().config;
  const bool recorded = cfg.ladder.enabled();
  const exec::LadderConfig lcfg =
      recorded ? cfg.ladder
               : exec::make_geometric_ladder(
                     {.epochs = 4, .subset_fraction = cfg.fidelity.subset_fraction}, 3, 2);
  const exec::FidelityLadder ladder(w.space, w.dataset, lcfg, cfg.cost);

  std::vector<double> batch_s;
  std::size_t candidates = 0, trainings = 0, warm = 0;
  const Clock::time_point t0 = Clock::now();
  for (const Cycle& cy : batches) {
    if (batch_s.size() >= kMaxLadderBatches || section_over(t0, batch_s.size())) break;
    std::vector<const EvalRecord*> misses;
    for (const EvalRecord* rec : cy.records) {
      if (!rec->cache_hit) misses.push_back(rec);
    }
    if (misses.empty()) continue;
    std::vector<ncnas::space::ArchEncoding> archs;
    for (const EvalRecord* rec : misses) archs.push_back(rec->arch);
    std::vector<exec::LadderRungStats> stats;
    std::vector<exec::LadderOutcome> outcomes;
    batch_s.push_back(timed(&spans, "ladder.evaluate_batch", [&] {
      outcomes = ladder.evaluate_batch(archs, eval_seed(cfg, cy.agent), &stats, &pool);
    }));
    candidates += archs.size();
    for (const exec::LadderOutcome& o : outcomes) trainings += o.trainings;
    for (const exec::LadderRungStats& s : stats) warm += s.warm_starts;
    for (std::size_t i = 0; recorded && i < misses.size(); ++i) {
      if (!same_bits(outcomes[i].result.reward, misses[i]->reward)) {
        failures.push_back("ladder replay: reward " + std::to_string(outcomes[i].result.reward) +
                           " differs from the recorded " + std::to_string(misses[i]->reward) +
                           " (agent " + std::to_string(cy.agent) + ", batch " +
                           std::to_string(batch_s.size() - 1) + ")");
        return;
      }
    }
  }
  if (batch_s.empty()) failures.push_back("ladder replay: no batch to replay");

  out.p50("ladder.batch_ms", batch_s, 1e3, "ms");
  out.add("ladder.trainings_per_record",
          candidates == 0 ? 0.0 : static_cast<double>(trainings) / static_cast<double>(candidates),
          "ratio");
  out.add("ladder.warm_start_ratio",
          trainings == 0 ? 0.0 : static_cast<double>(warm) / static_cast<double>(trainings),
          "ratio");
}

// ---- graph + kernel ----------------------------------------------------------
struct GemmShape {
  int variant = 0;  ///< 0 gemm, 1 gemm_nt, 2 gemm_tn
  std::size_t m = 0, k = 0, n = 0;
  auto operator<=>(const GemmShape&) const = default;
};

// forward/backward of the first real architectures at the training batch
// size, after warm-up steps; also collects each dense layer's gemm shapes.
void replay_graph(const Workload& w, const RunOutcome& run, Spans& spans, Sink& out,
                  std::map<GemmShape, std::size_t>& shapes, std::size_t& archs) {
  std::vector<double> fwd_s, bwd_s;
  double allocs = 0.0, bytes = 0.0;
  std::vector<std::string> seen;
  archs = 0;
  const ncnas::data::Dataset& ds = w.dataset;
  for (std::size_t t = 0; t < run.results.size() && archs < kGraphArchs; ++t) {
    const SearchConfig& cfg = w.tenants[t].config;
    const exec::TrainingEvaluator ev(w.space, ds, flat_fidelity(cfg), cfg.cost);
    const std::size_t b = train_batch(cfg, ds);
    const std::vector<tensor::Tensor> x = leading_rows(ds.x_train, b);
    const tensor::Tensor y = nn::slice_rows(ds.y_train, 0, b);
    for (const EvalRecord& rec : run.results[t].evals) {
      if (archs >= kGraphArchs) break;
      const std::string key = ncnas::space::arch_key(rec.arch);
      if (rec.cache_hit || rec.timed_out || std::ranges::find(seen, key) != seen.end()) continue;
      seen.push_back(key);
      ++archs;
      const std::uint64_t seed = eval_seed(cfg, rec.agent);
      nn::Graph model = ev.build(rec.arch, seed);
      tensor::Rng rng = tensor::Rng(seed).split(1);
      nn::ForwardCtx ctx{.training = true, .rng = &rng};
      for (int step = 0; step < kWarmupSteps + kTimedSteps; ++step) {
        model.zero_grad();
        tensor::Tensor pred;
        // The scopes open inside the spans, so the spans' own bookkeeping
        // is never counted.
        AllocTotals fa, ba;
        const double f = timed(&spans, "graph.forward", [&] {
          const AllocScope count;
          pred = model.forward(x, ctx);
          fa = count.totals();
        });
        const nn::LossValue loss = nn::compute_loss(ds.loss, pred, y);
        const double g = timed(&spans, "graph.backward", [&] {
          const AllocScope count;
          model.backward(loss.grad);
          ba = count.totals();
        });
        if (step >= kWarmupSteps) {
          fwd_s.push_back(f);
          bwd_s.push_back(g);
          allocs += static_cast<double>(fa.calls + ba.calls);
          bytes += static_cast<double>(fa.bytes + ba.bytes);
        }
      }
      for (std::size_t node = 0; node < model.node_count(); ++node) {
        const nn::Layer& layer = model.layer(node);
        if (layer.kind() != "dense") continue;
        for (const nn::ParamPtr& p : layer.parameters()) {
          if (p->value.rank() != 2) continue;
          const std::size_t in = p->value.dim(0), units = p->value.dim(1);
          ++shapes[{0, b, in, units}];  // y = x W
          ++shapes[{1, b, units, in}];  // dx = dy W^T
          ++shapes[{2, in, b, units}];  // dW = x^T dy
        }
      }
    }
  }
  const auto steps = static_cast<double>(std::max<std::size_t>(fwd_s.size(), 1));
  out.p50("graph.forward_us", fwd_s, 1e6, "us");
  out.p50("graph.backward_us", bwd_s, 1e6, "us");
  out.add("graph.step_allocs", allocs / steps, "count");
  out.add("graph.step_alloc_mb", bytes / steps / (1024.0 * 1024.0), "MiB");
}

// Times each distinct dense-layer gemm shape and weights it by how often the
// replayed models use it.
void replay_kernels(const std::map<GemmShape, std::size_t>& shapes, std::size_t archs,
                    Spans& spans, Sink& out) {
  static const char* const kNames[] = {"kernel.gemm", "kernel.gemm_nt", "kernel.gemm_tn"};
  double flops[3] = {0, 0, 0}, secs[3] = {0, 0, 0};
  double total = 0.0, blocked = 0.0;
  tensor::Rng rng(1);
  for (const auto& [s, count] : shapes) {
    // Operand shapes per variant: gemm A(m,k) B(k,n); gemm_nt A(m,k) B(n,k);
    // gemm_tn A(k,m) B(k,n).
    tensor::Tensor a(s.variant == 2 ? tensor::Shape{s.k, s.m} : tensor::Shape{s.m, s.k});
    tensor::Tensor bm(s.variant == 1 ? tensor::Shape{s.n, s.k} : tensor::Shape{s.k, s.n});
    tensor::Tensor c({s.m, s.n});
    for (float& v : a.flat()) v = static_cast<float>(rng.uniform(-1.0, 1.0));
    for (float& v : bm.flat()) v = static_cast<float>(rng.uniform(-1.0, 1.0));
    const double f = 2.0 * static_cast<double>(s.m * s.k * s.n);
    const auto reps = static_cast<std::size_t>(std::clamp(kKernelFlopsPerShape / f, 3.0, 5000.0));
    const double sec = timed(&spans, kNames[s.variant], [&] {
      for (std::size_t r = 0; r < reps; ++r) {
        if (s.variant == 0) tensor::gemm(a, bm, c);
        if (s.variant == 1) tensor::gemm_nt(a, bm, c);
        if (s.variant == 2) tensor::gemm_tn(a, bm, c);
      }
    });
    const auto weight = static_cast<double>(count);
    flops[s.variant] += weight * f;
    secs[s.variant] += weight * sec / static_cast<double>(reps);
    total += weight * f;
    if (tensor::planned_gemm_path(s.m, s.k, s.n) != tensor::GemmPath::kReference) {
      blocked += weight * f;
    }
  }
  for (int v = 0; v < 3; ++v) {
    out.add(std::string(kNames[v]) + "_gflops", secs[v] > 0.0 ? flops[v] / secs[v] / 1e9 : 0.0,
            "GFLOP/s");
  }
  out.add("kernel.blocked_flop_share", total > 0.0 ? blocked / total : 0.0, "ratio");
  out.add("kernel.mflop_per_step", archs == 0 ? 0.0 : total / static_cast<double>(archs) / 1e6,
          "MFLOP");
}

// ---- serve, ckpt, obs ----------------------------------------------------------
struct ServeRecord {
  std::vector<double> round_s;
  std::vector<std::vector<ncnas::obs::JournalEvent>> journals;
  std::size_t preemptions = 0;
  double shared_hit_ratio = 0.0;
};

// serve-3tenant's own traced run is the serve record. A driver workload is
// run again as the only tenant of a SearchServer.
ServeRecord serve_record(const Workload& w, const RunOutcome& run, const std::string& state_dir,
                         tensor::ThreadPool& pool, Spans& spans) {
  ServeRecord rec;
  if (w.serve) {
    rec.round_s = run.round_s;
    rec.journals = run.journals;
    rec.preemptions = run.preemptions;
    std::size_t evals = 0, shared = 0;
    for (const SearchResult& r : run.results) {
      evals += r.evals.size();
      for (const EvalRecord& e : r.evals) shared += e.shared_hit ? 1 : 0;
    }
    rec.shared_hit_ratio =
        evals == 0 ? 0.0 : static_cast<double>(shared) / static_cast<double>(evals);
    return rec;
  }
  std::filesystem::remove_all(state_dir);
  ncnas::serve::ServeConfig cfg;
  cfg.total_slots = w.tenants.front().config.cluster.total_workers();
  cfg.quantum_seconds = 120.0;
  cfg.max_tenants = 1;
  cfg.state_dir = state_dir;
  cfg.pool = &pool;
  ncnas::serve::SearchServer server(cfg);
  ncnas::serve::TenantSpec spec;
  spec.name = w.tenants.front().name;
  spec.space = &w.space;
  spec.dataset = &w.dataset;
  spec.config = w.tenants.front().config;
  spec.use_shared_cache = false;
  const std::uint32_t id = server.submit(std::move(spec));
  bool more = true;
  while (more) rec.round_s.push_back(timed(&spans, "serve.step", [&] { more = server.step(); }));
  rec.journals.push_back(server.journal(id));
  rec.preemptions = server.session(id).preemptions();
  return rec;
}

void replay_ckpt(const std::string& state_dir, const ServeRecord& sr, Spans& spans, Sink& out,
                 std::vector<std::string>& failures) {
  std::vector<std::string> paths;
  double max_mb = 0.0;
  for (const auto& entry : std::filesystem::directory_iterator(state_dir)) {
    if (!entry.is_directory()) continue;
    for (std::string& p : ncnas::ckpt::list_checkpoints(entry.path().string())) {
      max_mb = std::max(max_mb, static_cast<double>(std::filesystem::file_size(p)) / 1048576.0);
      paths.push_back(std::move(p));
    }
  }
  std::sort(paths.begin(), paths.end());
  std::vector<double> read_s, write_s;
  double replayed_bytes = 0.0;
  const std::string scratch = (std::filesystem::path(state_dir) / "replay-write.ckpt").string();
  while (!paths.empty() && read_s.size() < kCkptSamples) {
    for (const std::string& p : paths) {
      ncnas::ckpt::Snapshot snap;
      read_s.push_back(
          timed(&spans, "ckpt.read_snapshot", [&] { snap = ncnas::ckpt::read_snapshot(p); }));
      write_s.push_back(timed(&spans, "ckpt.write_snapshot", [&] {
        ncnas::ckpt::write_snapshot(scratch, snap.header, snap.payload);
      }));
      replayed_bytes += static_cast<double>(snap.payload.size());
    }
  }
  if (paths.empty()) failures.push_back("ckpt replay: no snapshot left in the state dir");
  // Only the newest snapshots stay on disk, and a snapshot grows with the
  // search, so busy time is the replay's seconds per byte times the bytes
  // the journals say were written, with one resume read per snapshot.
  std::size_t written = 0;
  double written_bytes = 0.0;
  for (const auto& journal : sr.journals) {
    for (const ncnas::obs::JournalEvent& e : journal) {
      if (e.type != ncnas::obs::JournalEventType::kCheckpointWritten) continue;
      ++written;
      written_bytes += e.field("bytes");
    }
  }
  const double replayed_s = std::accumulate(read_s.begin(), read_s.end(), 0.0) +
                            std::accumulate(write_s.begin(), write_s.end(), 0.0);
  out.p50("ckpt.write_ms", write_s, 1e3, "ms");
  out.p50("ckpt.read_ms", read_s, 1e3, "ms");
  out.add("ckpt.snapshot_mb.max", max_mb, "MiB");
  out.add("ckpt.snapshots", static_cast<double>(written), "count");
  out.add("ckpt.busy_s", replayed_bytes > 0.0 ? replayed_s / replayed_bytes * written_bytes : 0.0,
          "s");
}

void replay_obs(const ServeRecord& sr, Spans& spans, Sink& out,
                std::vector<std::string>& failures) {
  std::vector<double> summarize_s, export_s, import_s;
  std::size_t events = 0;
  for (const auto& journal : sr.journals) {
    events += journal.size();
    for (std::size_t r = 0; r < kObsRepeats; ++r) {
      summarize_s.push_back(timed(&spans, "obs.summarize_journal",
                                  [&] { (void)ncnas::obs::summarize_journal(journal); }));
      std::ostringstream os;
      export_s.push_back(timed(&spans, "obs.export_jsonl",
                               [&] { ncnas::obs::Journal::export_jsonl(journal, os); }));
      std::istringstream is(os.str());
      std::vector<ncnas::obs::JournalEvent> back;
      import_s.push_back(
          timed(&spans, "obs.import_jsonl", [&] { back = ncnas::obs::Journal::import_jsonl(is); }));
      if (back.size() != journal.size()) {
        failures.push_back("obs replay: journal did not survive export and import");
        return;
      }
    }
  }
  out.add("obs.summarize_ms", quantile(summarize_s, 0.5) * 1e3, "ms", summarize_s.size());
  out.add("obs.export_ms", quantile(export_s, 0.5) * 1e3, "ms", export_s.size());
  out.add("obs.import_ms", quantile(import_s, 0.5) * 1e3, "ms", import_s.size());
  out.add("obs.journal_events", static_cast<double>(events), "count");
}

}  // namespace

std::vector<Metric> replay_layers(const Workload& w, const RunOutcome& traced,
                                  const std::string& state_dir, Spans& spans,
                                  std::vector<std::string>& failures) {
  std::vector<Metric> metrics;
  Sink out(metrics);

  std::size_t evals = 0, real = 0, hits = 0, updates = 0;
  for (const SearchResult& r : traced.results) {
    evals += r.evals.size();
    real += real_trainings(r);
    hits += cache_hit_records(r);
    updates += r.ppo_updates;
  }
  out.add("nas.run_s", traced.wall_s, "s");
  out.add("nas.evals", static_cast<double>(evals), "count");
  out.add("nas.real_evals", static_cast<double>(real), "count");
  out.add("nas.cache_hit_ratio",
          evals == 0 ? 0.0 : static_cast<double>(hits) / static_cast<double>(evals), "ratio");
  out.add("nas.ppo_updates", static_cast<double>(updates), "count");
  out.add("nas.top10_reward", top10_reward(traced.results), "reward");

  tensor::ThreadPool pool(pool_threads());
  const auto section = [&](const char* name, const auto& fn) {
    const std::size_t id = spans.open(name);
    fn();
    spans.close(id);
  };
  std::vector<Cycle> batches;
  section("replay.rl", [&] { batches = replay_rl_ps(w, traced, spans, out, failures); });
  section("replay.eval", [&] { replay_eval(w, traced, spans, out, failures); });
  section("replay.ladder", [&] { replay_ladder(w, batches, pool, spans, out, failures); });
  std::map<GemmShape, std::size_t> shapes;
  std::size_t archs = 0;
  section("replay.graph", [&] { replay_graph(w, traced, spans, out, shapes, archs); });
  section("replay.kernel", [&] { replay_kernels(shapes, archs, spans, out); });

  ServeRecord sr;
  const std::string serve_dir = w.serve ? state_dir : state_dir + "/replay";
  section("replay.serve", [&] { sr = serve_record(w, traced, serve_dir, pool, spans); });
  out.p50("serve.round_ms", sr.round_s, 1e3, "ms");
  out.add("serve.rounds", static_cast<double>(sr.round_s.size()), "count");
  out.add("serve.preemptions", static_cast<double>(sr.preemptions), "count");
  out.add("serve.shared_hit_ratio", sr.shared_hit_ratio, "ratio");
  section("replay.ckpt", [&] { replay_ckpt(serve_dir, sr, spans, out, failures); });
  section("replay.obs", [&] { replay_obs(sr, spans, out, failures); });
  return metrics;
}

}  // namespace bench
