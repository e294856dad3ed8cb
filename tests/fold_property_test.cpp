// Seeded property test for the driver's event fold: every count a search
// reports is the fold of the events it emits, whatever the search looks like.
//
// Each draw picks a strategy (A3C, A2C, RDM or EVO), a cluster of 1-4
// agents with 1-4 workers each, a fault plan (none, or one with failures,
// crashes, lost results and PS drops), the fidelity
// ladder on or off, a shared evaluation cache on or off, a mid-run
// snapshot and resume or none, and a list of pause points. It then
// requires:
//   - the records and every SearchResult counter are identical with null
//     telemetry and with a journal-on Telemetry;
//   - cache_hits, shared_cache_hits and timeouts equal counts over the
//     returned records;
//   - reconcile(result, summarize_journal(journal)) is empty (for a resumed
//     run, over the merged journal lineage);
//   - a resumed run's counters equal the uninterrupted run's, except
//     resumes;
//   - a run advanced through the pause points, then run to its end, has
//     the uninterrupted run's records, counters (resumes included) and
//     journal (host training times aside).
// The Pooled cases run their searches on a thread pool, so under TSan they
// show that no pool worker touches the fold.
//
// --seed=N / --runs=N / FAILING SEED replay as in fuzz_seed.hpp.

#include <algorithm>
#include <cstdint>
#include <filesystem>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "fuzz_seed.hpp"
#include "kill_after.hpp"
#include "ncnas/ckpt/checkpoint.hpp"
#include "ncnas/exec/fault.hpp"
#include "ncnas/exec/shared_cache.hpp"
#include "ncnas/nas/driver.hpp"
#include "ncnas/obs/telemetry.hpp"
#include "ncnas/space/search_space.hpp"
#include "ncnas/tensor/rng.hpp"
#include "ncnas/tensor/thread_pool.hpp"
#include "pending_training.hpp"

namespace {

using namespace ncnas;
using nas::SearchResult;
using nas::SearchStrategy;

std::uint64_t g_seed = 0xF01DULL;

struct Draw {
  SearchStrategy strategy = SearchStrategy::kA3C;
  nas::ClusterConfig cluster;
  std::optional<std::uint64_t> fault_seed;  ///< engaged: run under a fault plan
  bool ladder = false;
  bool shared_cache = false;
  std::size_t kill_after = 0;  ///< > 0: interrupt after that many snapshots, then resume
  /// SearchDriver::advance targets, in call order: unsorted, so some lie
  /// behind the search's clock, and some past its deadline.
  std::vector<double> pauses;

  [[nodiscard]] std::string name() const {
    return std::string(nas::strategy_name(strategy)) + "+" +
           std::to_string(cluster.num_agents) + "x" + std::to_string(cluster.workers_per_agent) +
           (fault_seed ? "+faults" : "") +
           (ladder ? "+ladder" : "") + (shared_cache ? "+shared" : "") +
           (kill_after > 0 ? "+resume" + std::to_string(kill_after) : "") + "+pauses" +
           std::to_string(pauses.size());
  }
};

constexpr double kWallTime = 1800.0;

Draw draw(tensor::Rng& rng, std::optional<SearchStrategy> strategy = std::nullopt) {
  static constexpr SearchStrategy kStrategies[] = {SearchStrategy::kA3C, SearchStrategy::kA2C,
                                                   SearchStrategy::kRandom,
                                                   SearchStrategy::kEvolution};
  Draw d;
  d.strategy = strategy ? *strategy : kStrategies[rng.uniform_int(4)];
  d.cluster = {.num_agents = 1 + rng.uniform_int(4), .workers_per_agent = 1 + rng.uniform_int(4)};
  if (rng.uniform_int(2) == 1) d.fault_seed = rng.next_u64();
  d.ladder = rng.uniform_int(2) == 1;
  d.shared_cache = rng.uniform_int(2) == 1;
  d.kill_after = rng.uniform_int(2) == 1 ? 1 + rng.uniform_int(2) : 0;
  d.pauses.resize(1 + rng.uniform_int(4));
  for (double& until : d.pauses) until = rng.uniform(0.0, kWallTime * 1.1);
  return d;
}

/// Three decisions, 18 architectures: agents repeat each other's samples
/// within a few cycles, so agent-cache and shared-cache hits occur, and the
/// widest candidates outlast the timeout.
space::SearchSpace small_space() {
  using namespace ncnas::space;
  Structure s;
  s.name = "fold-18";
  s.input_names = {"x"};
  Cell cell{"C0", {}};
  Block block{"B0", SkipRef::to_input(0), {}};
  block.nodes.emplace_back(VariableNode{
      "width",
      {DenseOp{8, nn::Act::kRelu}, DenseOp{16, nn::Act::kRelu}, DenseOp{32, nn::Act::kRelu}}});
  block.nodes.emplace_back(VariableNode{
      "mid", {IdentityOp{}, DenseOp{16, nn::Act::kTanh}, DenseOp{32, nn::Act::kRelu}}});
  block.nodes.emplace_back(VariableNode{"tail", {IdentityOp{}, DenseOp{8, nn::Act::kTanh}}});
  cell.blocks.push_back(std::move(block));
  s.cells.push_back(std::move(cell));
  s.output_cells = {0};
  return SearchSpace(std::move(s));
}

data::Dataset tiny_nt3() {
  return data::make_nt3(5, {.train = 32, .valid = 16, .length = 64, .motif = 6});
}

exec::FaultPlan fault_plan(std::uint64_t seed, const nas::ClusterConfig& cluster) {
  exec::FaultPlan plan;
  plan.seed = seed;
  plan.eval_failure_prob = 0.2;
  plan.lost_result_prob = 0.1;
  plan.slowdown_prob = 0.15;
  plan.slowdown_multiple = 3.0;
  plan.ps_drop_prob = 0.2;
  plan.ps_delay_prob = 0.15;
  plan.ps_delay_seconds = 15.0;
  plan.max_retries = 1;
  plan.barrier_timeout_seconds = 60.0;
  // The last agent loses worker 0, and every other plan all of its workers,
  // one each 150 s, so the agent dies; a lone agent keeps its last worker.
  const std::size_t agent = cluster.num_agents - 1;
  const std::size_t spare = cluster.num_agents == 1 ? 1 : 0;
  const std::size_t lost =
      std::min<std::size_t>(seed % 2 == 1 ? cluster.workers_per_agent : 1,
                            cluster.workers_per_agent - spare);
  for (std::size_t w = 0; w < lost; ++w) {
    plan.worker_crashes.push_back(
        {.agent = agent, .worker = w, .time = 150.0 * static_cast<double>(w + 1)});
  }
  return plan;
}

/// One search of the draw, with everything its config points at.
struct Scenario {
  std::optional<exec::FaultInjector> faults;
  nas::SearchConfig cfg;

  explicit Scenario(const Draw& d) {
    cfg.strategy = d.strategy;
    cfg.cluster = d.cluster;
    cfg.wall_time_seconds = kWallTime;
    cfg.fidelity = {.epochs = 1, .subset_fraction = 1.0};
    cfg.cost = {.startup_seconds = 20.0, .seconds_per_megaunit = 100.0, .timeout_seconds = 30.0};
    cfg.seed = 5;
    if (d.fault_seed) {
      faults.emplace(fault_plan(*d.fault_seed, d.cluster));
      cfg.faults = &*faults;
    }
    if (d.ladder) {
      cfg.ladder.eta = 2;
      cfg.ladder.rungs = {{.epochs = 1, .subset_fraction = 0.5},
                          {.epochs = 2, .subset_fraction = 1.0}};
    }
  }
};

std::string scratch_dir(const std::string& name) {
  const std::string dir = ::testing::TempDir() + "ncnas_fold_" + name;
  std::filesystem::remove_all(dir);
  return dir;
}

std::vector<obs::JournalEvent> journal_of(const obs::Telemetry& t) {
  std::stringstream ss;
  t.export_journal_jsonl(ss);
  return obs::Journal::import_jsonl(ss);
}

/// A run of the draw: the result, and the journal lineage when telemetry was on.
struct Outcome {
  SearchResult result;
  std::vector<obs::JournalEvent> journal;
};

enum class Mode {
  kWhole,    ///< SearchDriver::run()
  kPaused,   ///< advance() through draw.pauses, then run()
  kResumed,  ///< killed after draw.kill_after snapshots, resumed from the last
};

/// Runs the draw once. `journal` turns a journal-on Telemetry on. Every run
/// gets a fresh shared cache, so runs do not feed each other; a killed run
/// and its resume share one, like the process lineage of a tenant.
Outcome run(const Draw& d, bool journal, Mode mode, tensor::ThreadPool* pool,
            const std::string& dir) {
  Scenario sc(d);
  const space::SearchSpace s = small_space();
  const data::Dataset ds = tiny_nt3();
  exec::SharedEvalCache shared;
  if (d.shared_cache) sc.cfg.shared_cache = &shared;
  ckpt::CheckpointConfig ckpt_cfg;
  ckpt_cfg.directory = scratch_dir(dir);
  // Short enough that every drawn cluster reaches kill_after's snapshots:
  // four one-worker A3C agents with a shared cache converge before 180 s.
  ckpt_cfg.interval_seconds = 30.0;
  if (d.kill_after > 0) sc.cfg.checkpoint = &ckpt_cfg;

  Outcome out;
  obs::Telemetry tel;
  if (journal) {
    tel.enable_journal();
    sc.cfg.telemetry = &tel;
  }
  if (mode != Mode::kResumed) {
    nas::SearchDriver driver(s, ds, sc.cfg, pool);
    if (mode == Mode::kPaused) {
      for (const double until : d.pauses) {
        if (driver.advance(until)) break;
      }
    }
    out.result = driver.run();
    if (journal) out.journal = journal_of(tel);
    return out;
  }
  const std::string snapshot = ncnas::testing::kill_after(s, ds, sc.cfg, d.kill_after, pool);
  if (snapshot.empty()) return out;
  obs::Telemetry resumed_tel;
  if (journal) {
    resumed_tel.enable_journal();
    sc.cfg.telemetry = &resumed_tel;
  }
  out.result = nas::resume_search(snapshot, s, ds, sc.cfg, pool);
  if (journal) out.journal = obs::merge_resumed_journal(journal_of(tel), journal_of(resumed_tel));
  return out;
}

void expect_same_records(const SearchResult& a, const SearchResult& b) {
  ASSERT_EQ(a.evals.size(), b.evals.size());
  for (std::size_t i = 0; i < a.evals.size(); ++i) {
    SCOPED_TRACE("record " + std::to_string(i));
    const nas::EvalRecord& x = a.evals[i];
    const nas::EvalRecord& y = b.evals[i];
    EXPECT_EQ(x.time, y.time);
    EXPECT_EQ(x.reward, y.reward);
    EXPECT_EQ(x.params, y.params);
    EXPECT_EQ(x.sim_duration, y.sim_duration);
    EXPECT_EQ(x.cache_hit, y.cache_hit);
    EXPECT_EQ(x.shared_hit, y.shared_hit);
    EXPECT_EQ(x.timed_out, y.timed_out);
    EXPECT_EQ(x.failed, y.failed);
    EXPECT_EQ(x.agent, y.agent);
    EXPECT_EQ(x.attempts, y.attempts);
    EXPECT_EQ(x.rung, y.rung);
    EXPECT_EQ(x.arch, y.arch);
  }
  EXPECT_EQ(a.end_time, b.end_time);
  EXPECT_EQ(a.converged_early, b.converged_early);
}

/// Every SearchResult counter but `resumes`.
void expect_same_counters_but_resumes(const SearchResult& a, const SearchResult& b) {
  EXPECT_EQ(a.cache_hits, b.cache_hits);
  EXPECT_EQ(a.shared_cache_hits, b.shared_cache_hits);
  EXPECT_EQ(a.timeouts, b.timeouts);
  EXPECT_EQ(a.unique_archs, b.unique_archs);
  EXPECT_EQ(a.ppo_updates, b.ppo_updates);
  EXPECT_EQ(a.retries, b.retries);
  EXPECT_EQ(a.exhausted, b.exhausted);
  EXPECT_EQ(a.lost_results, b.lost_results);
  EXPECT_EQ(a.crashed_workers, b.crashed_workers);
  EXPECT_EQ(a.dead_agents, b.dead_agents);
  EXPECT_EQ(a.checkpoints_written, b.checkpoints_written);
  EXPECT_EQ(a.ladder_trainings, b.ladder_trainings);
  EXPECT_EQ(a.ladder_promotions, b.ladder_promotions);
  EXPECT_EQ(a.ladder_warm_starts, b.ladder_warm_starts);
  EXPECT_EQ(a.ladder_rung_hits, b.ladder_rung_hits);
}

/// The independent check: the three record-level counters, counted over the
/// returned records.
void expect_counted_over_records(const SearchResult& r) {
  std::size_t hits = 0;
  std::size_t shared = 0;
  std::size_t timeouts = 0;
  for (const nas::EvalRecord& e : r.evals) {
    hits += e.cache_hit ? 1 : 0;
    shared += e.shared_hit ? 1 : 0;
    timeouts += e.timed_out ? 1 : 0;
  }
  EXPECT_EQ(r.cache_hits, hits);
  EXPECT_EQ(r.shared_cache_hits, shared);
  EXPECT_EQ(r.timeouts, timeouts);
}

void check_draw(const Draw& d, tensor::ThreadPool* pool, const std::string& tag) {
  SCOPED_TRACE(tag + " " + d.name() + " (replay with --seed=" + std::to_string(g_seed) + ")");
  const bool resume = d.kill_after > 0;
  const Mode mode = resume ? Mode::kResumed : Mode::kWhole;
  const Outcome plain = run(d, /*journal=*/false, mode, pool, tag + "_plain");
  const Outcome observed = run(d, /*journal=*/true, mode, pool, tag + "_observed");
  ASSERT_FALSE(plain.result.evals.empty());

  pending::expect_same_search(plain.result, observed.result);
  expect_counted_over_records(plain.result);
  expect_counted_over_records(observed.result);
  EXPECT_EQ(nas::reconcile(observed.result, obs::summarize_journal(observed.journal)),
            std::vector<std::string>{});

  const Outcome whole =
      resume ? run(d, /*journal=*/true, Mode::kWhole, pool, tag + "_whole") : observed;
  if (resume) {
    expect_same_records(whole.result, plain.result);
    expect_same_counters_but_resumes(whole.result, plain.result);
    EXPECT_EQ(whole.result.resumes, 0u);
    EXPECT_EQ(plain.result.resumes, 1u);
  }

  const Outcome paused = run(d, /*journal=*/true, Mode::kPaused, pool, tag + "_paused");
  pending::expect_same_search(whole.result, paused.result);
  pending::expect_same_journal(whole.journal, paused.journal);
}

/// A few draws per tier-1 run; --runs=N rotates the seed for more.
constexpr int kDraws = 8;
constexpr int kPooledDraws = 3;

TEST(FoldProperty, DrawnSearchesCountEachFactOnce) {
  tensor::Rng rng(g_seed);
  for (int i = 0; i < kDraws; ++i) check_draw(draw(rng), nullptr, "draw" + std::to_string(i));
}

void check_pooled(SearchStrategy strategy, std::uint64_t salt) {
  tensor::ThreadPool pool(2);
  tensor::Rng rng(g_seed ^ salt);
  for (int i = 0; i < kPooledDraws; ++i) {
    check_draw(draw(rng, strategy), &pool,
               std::string("pooled_") + nas::strategy_name(strategy) + std::to_string(i));
  }
}

TEST(FoldProperty, PooledA3CSearchesCountEachFactOnce) {
  check_pooled(SearchStrategy::kA3C, 0xA3C);
}

TEST(FoldProperty, PooledA2CSearchesCountEachFactOnce) {
  check_pooled(SearchStrategy::kA2C, 0xA2C);
}

}  // namespace

int main(int argc, char** argv) {
  return ncnas::testing::fuzz_main(argc, argv, "fold_property_test", &g_seed);
}
