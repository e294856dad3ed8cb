#include "ncnas/nas/driver.hpp"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <deque>
#include <functional>
#include <future>
#include <limits>
#include <map>
#include <memory>
#include <optional>
#include <queue>
#include <stdexcept>
#include <unordered_set>

#include "ncnas/ckpt/snapshot.hpp"
#include "ncnas/exec/utilization.hpp"
#include "ncnas/obs/profiler.hpp"
#include "ncnas/nas/result_io.hpp"

namespace ncnas::nas {

const char* strategy_name(SearchStrategy s) {
  switch (s) {
    case SearchStrategy::kA3C: return "A3C";
    case SearchStrategy::kA2C: return "A2C";
    case SearchStrategy::kRandom: return "RDM";
    case SearchStrategy::kEvolution: return "EVO";
  }
  return "?";
}

std::vector<std::pair<double, float>> SearchResult::best_so_far() const {
  std::vector<std::pair<double, float>> out;
  out.reserve(evals.size());
  float best = -std::numeric_limits<float>::infinity();
  for (const EvalRecord& e : evals) {
    best = std::max(best, e.reward);
    out.emplace_back(e.time, best);
  }
  return out;
}

std::vector<EvalRecord> SearchResult::top_k(std::size_t k) const {
  std::map<std::string, EvalRecord> best_by_arch;
  for (const EvalRecord& e : evals) {
    if (e.timed_out || e.failed) continue;  // floored rewards are not measurements
    const std::string key = space::arch_key(e.arch);
    const auto it = best_by_arch.find(key);
    if (it == best_by_arch.end() || e.reward > it->second.reward) {
      best_by_arch.insert_or_assign(key, e);
    }
  }
  std::vector<EvalRecord> out;
  out.reserve(best_by_arch.size());
  for (auto& [key, rec] : best_by_arch) out.push_back(rec);
  std::ranges::sort(out, [](const EvalRecord& a, const EvalRecord& b) {
    return a.reward > b.reward;
  });
  if (out.size() > k) out.resize(k);
  return out;
}

std::vector<std::string> reconcile(const SearchResult& result, const obs::RunSummary& sum) {
  std::vector<std::string> out;
  const auto check = [&out](const char* what, std::size_t journal, std::size_t recorded) {
    if (journal == recorded) return;
    out.push_back("journal has " + std::to_string(journal) + " " + what + ", result has " +
                  std::to_string(recorded));
  };
  check("evals", sum.evals, result.evals.size());
  if (!result.evals.empty()) {
    float best = -std::numeric_limits<float>::infinity();
    for (const EvalRecord& e : result.evals) best = std::max(best, e.reward);
    if (sum.best_reward != best) {
      out.push_back("journal best reward " + std::to_string(sum.best_reward) +
                    ", result best reward " + std::to_string(best));
    }
  }
  check("cache hits", sum.cache_hits, result.cache_hits);
  check("shared cache hits", sum.shared_cache_hits, result.shared_cache_hits);
  check("timeouts", sum.timeouts, result.timeouts);
  check("ppo updates", sum.ppo_updates, result.ppo_updates);
  check("retries", sum.retries, result.retries);
  check("retry-exhausted evals", sum.exhausted, result.exhausted);
  check("lost results", sum.lost_results, result.lost_results);
  check("crashed workers", sum.crashed_workers, result.crashed_workers);
  check("dead agents", sum.dead_agents, result.dead_agents);
  check("checkpoints", sum.checkpoints, result.checkpoints_written);
  check("resumes", sum.resumes, result.resumes);
  check("ladder trainings", sum.ladder_trainings, result.ladder_trainings);
  check("ladder promotions", sum.ladder_promotions, result.ladder_promotions);
  check("ladder warm starts", sum.ladder_warm_starts, result.ladder_warm_starts);
  check("ladder rung hits", sum.ladder_rung_hits, result.ladder_rung_hits);
  return out;
}

namespace {

/// What an agent's PPO update hands its batch's harvest: the stats it
/// journals and, with telemetry, the update's host wall time (0 without).
struct UpdateOutcome {
  rl::PpoStats stats;
  double wall_ms = 0.0;
};

/// Between dispatch and harvest an RL batch's PPO update may be running on
/// a pool worker: it reads the agent's controller, rollouts and records and
/// writes the controller. The driver therefore never touches those members
/// of an agent while its `update` is pending; the harvest joins the update
/// before it reads any of them.
struct AgentState {
  std::size_t id = 0;
  std::optional<rl::Controller> controller;
  // Evolution strategy: aging population (FIFO of scored architectures).
  std::deque<std::pair<space::ArchEncoding, float>> population;
  tensor::Rng rng{0};
  std::uint64_t eval_seed = 0;
  std::unique_ptr<exec::CachedEvaluator> cache;
  std::vector<float> theta_pull;

  // Current in-flight batch.
  std::vector<rl::Rollout> rollouts;
  std::vector<space::ArchEncoding> archs;
  std::vector<EvalRecord> records;
  /// The batch's PPO update, pending until its harvest (see BatchUpdate).
  /// Empty outside an RL batch and for an agent that died dispatching it.
  std::shared_future<UpdateOutcome> update;

  std::size_t cached_streak = 0;
  bool stopped = false;

  // Fault-injection state (only moved off its defaults when a plan is active).
  std::vector<double> crash_at;      ///< per-worker planned death time (+inf = never)
  bool dead = false;                 ///< every worker lost; no further cycles
  std::uint64_t exchange_seq = 0;    ///< PS exchange counter for fault verdicts
};

struct Completion {
  double time;
  std::size_t seq;    // tiebreak: submission order
  std::size_t agent;
  bool operator>(const Completion& o) const {
    return time != o.time ? time > o.time : seq > o.seq;
  }
};

/// Pre-resolved registry instruments so the hot loop never touches the
/// registry maps. Only constructed when SearchConfig::telemetry is set. The
/// search facts themselves go through SearchRun::emit, which folds them and
/// forwards them to Telemetry::emit, whose fold renders the ncnas_*_total
/// counters that have an event behind them.
struct Instruments {
  obs::Counter* cycles;
  obs::Gauge* streak_min;
  obs::Histogram* cycle_latency;
  /// Observed at each harvested update, so its count is ncnas_ppo_updates_total.
  /// Null unless the search runs a controller.
  obs::Histogram* ppo_wall_ms = nullptr;
  obs::Exporter* exporter;  ///< null unless Telemetry::enable_exporter() was called

  Instruments(obs::Telemetry& t, bool controller) {
    obs::MetricsRegistry& m = t.metrics();
    cycles = &m.counter("ncnas_agent_cycles_total");
    streak_min = &m.gauge("ncnas_convergence_streak_min");
    cycle_latency = &m.histogram("ncnas_cycle_latency_seconds", obs::exp_buckets(4.0, 2.0, 14));
    if (controller) {
      ppo_wall_ms = &m.histogram("ncnas_ppo_update_wall_ms", obs::exp_buckets(0.25, 2.0, 16));
    }
    exporter = t.exporter();
  }
};

/// A handle that is already resolved: for rewards known at dispatch (the
/// ladder trains synchronously) and for updates a snapshot restores.
template <class T>
std::shared_future<T> resolved(T value) {
  std::promise<T> done;
  done.set_value(std::move(value));
  return done.get_future().share();
}

/// The reward a record ends with: its training's, unless it failed and
/// keeps its floor. Waits for the training. The batch's PPO update and its
/// harvest (join) both read rewards here, so they cannot disagree.
float final_reward(const EvalRecord& rec) {
  return rec.training.valid() && !rec.failed ? rec.training.get().reward : rec.reward;
}

/// Waits for the record's training and takes its final reward. Returns the
/// training's host wall time (0 without one).
double join(EvalRecord& rec) {
  if (!rec.training.valid()) return 0.0;
  rec.reward = final_reward(rec);
  return rec.training.get().train_wall_ms;
}

/// One RL batch's PPO update, started as soon as the batch's rewards exist.
/// It holds one share per fresh training of the batch, given up by that
/// training's completion hook, and one for the driver, given up once the
/// batch's records are final. Whoever gives up the last share starts the
/// update: usually the pool worker that finishes the batch's last training,
/// right after it; the driver when it comes last (ladder batches, batches
/// of cache hits, runs without a pool). The harvest joins outcome().
class BatchUpdate {
 public:
  BatchUpdate(std::size_t shares, std::function<UpdateOutcome()> update)
      : shares_(shares), task_(std::move(update)), outcome_(task_.get_future().share()) {}

  [[nodiscard]] std::shared_future<UpdateOutcome> outcome() const { return outcome_; }
  /// Gives up one share; true when it was the last, and the caller must run().
  [[nodiscard]] bool release() { return shares_.fetch_sub(1) == 1; }
  /// Runs the update; what it throws surfaces at the harvest's join.
  void run() { task_(); }

 private:
  std::atomic<std::size_t> shares_;
  std::packaged_task<UpdateOutcome()> task_;
  std::shared_future<UpdateOutcome> outcome_;
};

/// The record's journal facts, stamped with its own completion time so a
/// replay applies the same deadline the returned records get. A record that
/// owns a training reports its host wall time here, where it is known.
std::vector<obs::JournalEvent> record_events(const EvalRecord& rec, double train_wall_ms) {
  const auto aid = static_cast<std::uint32_t>(rec.agent);
  std::vector<obs::JournalEvent> out;
  if (rec.cache_hit) {
    std::vector<obs::JournalField> fields{{"reward", rec.reward},
                                          {"timed_out", rec.timed_out ? 1.0 : 0.0}};
    // Only shared hits carry the marker, so pre-existing journals (and
    // their replays) are byte-for-byte unchanged.
    if (rec.shared_hit) fields.push_back({"shared", 1.0});
    out.push_back({obs::JournalEventType::kEvalCached, rec.time, aid, 0, std::move(fields)});
  } else {
    std::vector<obs::JournalField> fields{{"reward", rec.reward},
                                          {"duration_s", rec.sim_duration},
                                          {"timed_out", rec.timed_out ? 1.0 : 0.0},
                                          {"params", static_cast<double>(rec.params)},
                                          {"train_wall_ms", train_wall_ms}};
    if (rec.failed) {
      fields.push_back({"failed", 1.0});
      fields.push_back({"attempts", static_cast<double>(rec.attempts)});
    }
    // Only ladder runs reach a non-zero rung, so flat journals (and their
    // replays) are byte-for-byte unchanged.
    if (rec.rung != 0) fields.push_back({"rung", static_cast<double>(rec.rung)});
    out.push_back({obs::JournalEventType::kEvalFinished, rec.time, aid, 0, std::move(fields)});
  }
  if (rec.timed_out) {
    out.push_back({obs::JournalEventType::kEvalTimeout, rec.time, aid, 0,
                   {{"duration_s", rec.sim_duration}}});
  }
  return out;
}

}  // namespace
}  // namespace ncnas::nas

// ---- snapshot field lists ---------------------------------------------------
// Each struct's wire layout, named once; ckpt::ByteWriter and ckpt::ByteReader
// both run these lists, so the writer and the reader cannot drift apart.
namespace ncnas::ckpt {

NCNAS_SNAPSHOT_FIELDS(nas::Completion, c, c.time, c.seq, c.agent);
NCNAS_SNAPSHOT_FIELDS(nas::EvalRecord, e, e.time, e.reward, e.params, e.sim_duration, e.cache_hit,
                      e.shared_hit, e.timed_out, e.failed, e.agent, e.attempts, e.rung, e.arch);
NCNAS_SNAPSHOT_FIELDS(exec::EvalResult, r, r.reward, r.sim_duration, r.params, r.timed_out,
                      r.cache_hit, r.shared_hit, r.train_wall_ms, r.rung);
NCNAS_SNAPSHOT_FIELDS(exec::CachedEvaluator::State, c, c.entries, c.hits, c.misses);
NCNAS_SNAPSHOT_FIELDS(exec::UtilizationMonitor::State, m, m.intervals, m.losses, m.busy_seconds);
NCNAS_SNAPSHOT_FIELDS(nas::ParameterServer::State, s, s.params, s.pending, s.submitted, s.active,
                      s.active_count, s.pending_count, s.last_arrival, s.recent, s.recent_next,
                      s.updates_applied, s.pulled_version, s.arrival_time);
NCNAS_SNAPSHOT_FIELDS(tensor::RngState, r, r.s[0], r.s[1], r.s[2], r.s[3], r.has_cached_normal,
                      r.cached_normal);
NCNAS_SNAPSHOT_FIELDS(nn::Adam::MomentEntry, e, e.key, e.shape, e.m, e.v);
NCNAS_SNAPSHOT_FIELDS(rl::Controller::State, c, c.flat, c.adam.step_count, c.adam.entries);
NCNAS_SNAPSHOT_FIELDS(rl::Rollout, r, r.actions, r.log_probs, r.values);
NCNAS_SNAPSHOT_FIELDS(rl::PpoStats, p, p.policy_loss, p.value_loss, p.entropy, p.approx_kl);
NCNAS_SNAPSHOT_FIELDS(nas::UpdateOutcome, u, u.stats, u.wall_ms);

}  // namespace ncnas::ckpt

namespace ncnas::nas {
namespace {

// ---- snapshot helpers for the fields that are not plain values -------------

/// Config-derived values the payload repeats (the strategy/cluster prelude,
/// which optional members exist): written as given, required to match on read.
template <class IO, class... Ts>
void expect(IO& io, const char* what, const Ts&... want) {
  if constexpr (IO::kReads) {
    bool same = true;
    const auto read_one = [&](const auto& w) {
      std::remove_cvref_t<decltype(w)> got{};
      io(got);
      same = same && got == w;
    };
    (read_one(want), ...);
    if (!same) throw ckpt::SnapshotError(std::string("snapshot: ") + what + " mismatch");
  } else {
    io(want...);
  }
}

/// A plain field with a validity rule, checked as soon as it is read.
template <class IO, class T, class Valid>
void checked(IO& io, T& field, Valid valid, const char* what) {
  io(field);
  if constexpr (IO::kReads) {
    if (!valid(field)) throw ckpt::SnapshotError(std::string("snapshot: invalid ") + what);
  }
}

/// A member whose wire form is the struct its export/import pair exchanges.
/// The import's own consistency checks surface as SnapshotError, the one
/// error resume_search documents.
template <class IO, class Obj, class T, class State>
void through(IO& io, Obj& obj, State (T::*exported)() const, void (T::*import)(const State&)) {
  if constexpr (IO::kReads) {
    State state;
    io(state);
    try {
      (obj.*import)(state);
    } catch (const std::invalid_argument& e) {
      throw ckpt::SnapshotError(std::string("snapshot: ") + e.what());
    }
  } else {
    io((obj.*exported)());
  }
}

/// A pending update travels as its outcome, joined before the write, behind
/// a presence flag; restore resolves it again, so the resumed harvest
/// journals the same stats.
template <class IO, class Update>
void update_outcome(IO& io, Update& update) {
  bool present = update.valid();
  io(present);
  if constexpr (IO::kReads) {
    update = {};
    if (present) {
      UpdateOutcome outcome;
      io(outcome);
      update = resolved(outcome);
    }
  } else if (present) {
    io(update.get());
  }
}

/// The completion heap travels in pop order: pushing it back in that order
/// rebuilds a heap with the identical (time, seq) pop sequence, which is all
/// the event loop observes.
template <class IO, class Queue>
void heap(IO& io, Queue& queue, std::size_t agents) {
  std::vector<Completion> order;
  if constexpr (IO::kReads) {
    io(order);
    for (const Completion& c : order) {
      if (c.agent >= agents || !(c.time >= 0.0 && std::isfinite(c.time))) {
        throw ckpt::SnapshotError("snapshot: pending completion out of range");
      }
      queue.push(c);
    }
  } else {
    for (Queue copy = queue; !copy.empty(); copy.pop()) order.push_back(copy.top());
    io(order);
  }
}

/// Shared between SearchDriver and resume_search: validates the cluster and
/// resolves the batch default, so both paths run the exact same config.
SearchConfig normalized(SearchConfig config) {
  if (config.cluster.num_agents == 0 || config.cluster.workers_per_agent == 0) {
    throw std::invalid_argument("SearchDriver: agents and workers must be positive");
  }
  if (config.batch_per_agent == 0) {
    config.batch_per_agent = config.cluster.workers_per_agent;
  }
  config.ladder.validate();  // throws on a malformed (enabled) ladder
  return config;
}

}  // namespace

/// The whole search as a resumable object: all of its state is a member, so
/// the event loop can stop between two completions and go on later in the
/// same process (advance), or serialize the state at that point and let a
/// later process reload it and continue the exact event sequence.
/// Construction rebuilds the pure, config-derived parts (evaluator, PS
/// skeleton, agent seeding); bootstrap() starts a fresh run, restore()
/// overwrites the mutable state from a snapshot payload instead.
class SearchRun {
 public:
  SearchRun(const space::SearchSpace& space, const data::Dataset& dataset,
            SearchConfig config /* pre-normalized */, tensor::ThreadPool* pool);

  /// Waits for every update and training still in flight, so none outlives
  /// the agents, evaluator and data it reads, also when the run unwinds.
  ~SearchRun();

  void bootstrap();
  void restore(const ckpt::SnapshotHeader& header, ckpt::ByteReader& in);
  /// SearchDriver::advance: false when paused at the first completion at or
  /// after `until`, true when the event loop is done.
  bool advance(double until);
  /// Closes a run whose advance() returned true: joins what is still in
  /// flight and assembles the result. Once per run.
  SearchResult finish();
  [[nodiscard]] double virtual_time() const noexcept { return last_completion_; }
  [[nodiscard]] const obs::RunSummary& summary() const noexcept { return fold_; }

 private:
  bool process_completion(const Completion& done);  // true = converged, stop
  /// Folds one search fact into fold_ and forwards it to the telemetry when
  /// one is set. `folded` marks an event whose fact fold_ already counted.
  void emit(obs::JournalEventType type, double t, std::uint32_t agent,
            std::vector<obs::JournalField> payload, bool folded = false);
  void emit_record(const EvalRecord& rec, double train_wall_ms);
  /// Joins every pending update, then the training of every in-flight
  /// record (see join()).
  void join_in_flight();
  bool dispatch(AgentState& agent, std::vector<double>& worker_free, const exec::EvalResult& r,
                EvalRecord& rec, double t, double& batch_done, std::size_t budget_units);
  void start_cycle(AgentState& agent, double t);
  void a2c_begin_round(double resume);
  void a2c_release_stuck(double now);
  void init_checkpointing(double from_t);
  void maybe_checkpoint(double t);
  void publish_progress(double t, bool finished);
  /// The snapshot payload in wire order. maybe_checkpoint runs it with a
  /// ByteWriter over `const SearchRun`, restore with a ByteReader.
  template <class IO, class Self>
  static void fields(IO& io, Self& s);

  const space::SearchSpace* space_;
  const data::Dataset* dataset_;
  SearchConfig config_;
  tensor::ThreadPool* pool_;
  std::size_t N_;
  std::size_t W_;
  std::size_t M_;
  bool rl_enabled_;
  bool evolution_;
  // The fault plan is consulted only when non-null AND non-empty, so an
  // injector built from an empty plan is indistinguishable from no injector:
  // bit-identical results, identical config fingerprint.
  const exec::FaultInjector* fx_;
  exec::TrainingEvaluator evaluator_;
  // Successive-halving fidelity ladder; disengaged (nullopt) unless
  // SearchConfig::ladder enables it. When present it replaces evaluator_ on
  // the miss path and supplies the agent/shared cache contexts.
  std::optional<exec::FidelityLadder> ladder_;
  // Cross-tenant shared cache (null = classic single-search behaviour) and
  // this search's evaluation-context key, resolved once — every shared
  // lookup/insert/erase uses the same (context, arch) address.
  exec::SharedEvalCache* shared_;
  std::string shared_ctx_;
  float floor_reward_;
  exec::UtilizationMonitor monitor_;
  // Both null/empty without telemetry; emit() still folds every event.
  obs::Telemetry* tel_;
  std::optional<Instruments> inst_;
  std::optional<ParameterServer> ps_;
  std::vector<AgentState> agents_;

  // The run's event fold: the one count of every search fact the driver
  // emits. SearchResult's counters and /progress are read from it. Only the
  // driver thread emits, so it needs no lock.
  obs::RunSummary fold_;
  SearchResult result_;
  std::priority_queue<Completion, std::vector<Completion>, std::greater<>> queue_;
  std::size_t seq_ = 0;
  /// The budget meter max_evaluations reads: rung trainings on a ladder run,
  /// and attempts past the deadline. Not a count /progress reports.
  std::size_t real_evals_ = 0;
  bool budget_exhausted_ = false;
  double a2c_round_time_ = 0.0;
  // Number of agents of the current A2C round still to harvest; when it hits
  // zero with the barrier stuck (drops / deaths) the round is force-released.
  std::size_t a2c_outstanding_ = 0;
  double last_completion_ = 0.0;

  // Checkpointing (all inert when SearchConfig::checkpoint is null).
  std::optional<ckpt::CheckpointWriter> writer_;
  double next_due_ = std::numeric_limits<double>::infinity();
  /// Virtual time of the next exporter publication: the first completion at
  /// or past it publishes. Not part of the snapshot: a resumed run publishes
  /// at its first completion, like any fresh exporter.
  double next_publish_ = 0.0;
  /// Journal events that existed before this process (snapshot watermark);
  /// journal_base_ + journal->size() is the run-cumulative event count.
  std::uint64_t journal_base_ = 0;
  std::string fingerprint_;
};

SearchRun::SearchRun(const space::SearchSpace& space, const data::Dataset& dataset,
                     SearchConfig config, tensor::ThreadPool* pool)
    : space_(&space),
      dataset_(&dataset),
      config_(std::move(config)),
      pool_(pool),
      N_(config_.cluster.num_agents),
      W_(config_.cluster.workers_per_agent),
      M_(config_.batch_per_agent),
      rl_enabled_(config_.strategy == SearchStrategy::kA3C ||
                  config_.strategy == SearchStrategy::kA2C),
      evolution_(config_.strategy == SearchStrategy::kEvolution),
      fx_((config_.faults != nullptr && config_.faults->enabled()) ? config_.faults : nullptr),
      evaluator_(space, dataset, config_.fidelity, config_.cost),
      ladder_(config_.ladder.enabled()
                  ? std::make_optional<exec::FidelityLadder>(space, dataset, config_.ladder,
                                                             config_.cost)
                  : std::nullopt),
      shared_(config_.shared_cache),
      shared_ctx_(shared_ != nullptr
                      ? (ladder_ ? ladder_->context_key() : evaluator_.context_key())
                      : std::string()),
      floor_reward_(evaluator_.reward_floor()),
      monitor_(config_.cluster.total_workers()),
      tel_(config_.telemetry) {
  if (shared_ != nullptr && ladder_) {
    // Every rung consults (and feeds) the process-wide store under its own
    // rung context, so promotions can be seeded by another tenant's rungs.
    ladder_->set_shared_cache(shared_, config_.tenant_id);
  }
  if (config_.telemetry != nullptr) {
    inst_.emplace(*config_.telemetry, rl_enabled_);
    evaluator_.set_telemetry(config_.telemetry);
    if (ladder_) ladder_->set_telemetry(config_.telemetry);
  }

  // All agents start from the same policy parameters, held by the PS.
  if (rl_enabled_) {
    rl::Controller init(space_->arities(), config_.seed);
    ps_.emplace(init.get_flat(),
                config_.strategy == SearchStrategy::kA2C ? ParameterServer::Mode::kSync
                                                         : ParameterServer::Mode::kAsync,
                N_, config_.async_window);
    ps_->set_telemetry(config_.telemetry);
    if (fx_ != nullptr) ps_->set_absent_timeout(fx_->plan().barrier_timeout_seconds);
  }

  // With a ladder the agent caches key on its ladder-level context, which
  // is disjoint from every flat key and every rung key.
  const std::string cache_ctx = ladder_ ? ladder_->context_key() : evaluator_.context_key();
  tensor::Rng seeder(config_.seed);
  agents_.resize(N_);
  for (std::size_t i = 0; i < N_; ++i) {
    agents_[i].id = i;
    agents_[i].rng = seeder.split(1000 + i);
    agents_[i].eval_seed = seeder.split(5000 + i).next_u64();
    agents_[i].crash_at.assign(W_, std::numeric_limits<double>::infinity());
    agents_[i].cache = std::make_unique<exec::CachedEvaluator>(cache_ctx);
    agents_[i].cache->set_telemetry(config_.telemetry);
    if (rl_enabled_) {
      agents_[i].controller.emplace(space_->arities(), config_.seed + 17 * i);
    }
  }
}

SearchRun::~SearchRun() {
  for (const AgentState& agent : agents_) {
    if (agent.update.valid()) agent.update.wait();
    for (const EvalRecord& rec : agent.records) {
      if (rec.training.valid()) rec.training.wait();
    }
  }
}

void SearchRun::join_in_flight() {
  for (AgentState& agent : agents_) {
    // The update reads the records, so it is joined before join() writes
    // them; it has waited for each of their trainings.
    if (agent.update.valid()) agent.update.wait();
    for (EvalRecord& rec : agent.records) (void)join(rec);
  }
}

void SearchRun::bootstrap() {
  emit(obs::JournalEventType::kRunStarted, 0.0, obs::kNoAgent,
       {{"agents", static_cast<double>(N_)},
        {"workers", static_cast<double>(W_)},
        {"batch", static_cast<double>(M_)},
        {"wall_time_s", config_.wall_time_seconds},
        {"strategy", static_cast<double>(config_.strategy)},
        {"seed", static_cast<double>(config_.seed)}});

  // Register the plan's worker crashes up front: the planned death times are
  // known (a crash schedule, like a maintenance window), the capacity loss
  // leaves the utilization denominator from the crash on, and the journal
  // records each at t=0 with the crash time in the payload so the watchdog's
  // event clock never runs ahead of the search.
  if (fx_ != nullptr) {
    for (AgentState& agent : agents_) {
      for (std::size_t w = 0; w < W_; ++w) {
        const double when = fx_->crash_time(agent.id, w);
        if (when >= config_.wall_time_seconds) continue;  // never felt by this run
        agent.crash_at[w] = when;
        monitor_.add_capacity_loss(when);
        emit(obs::JournalEventType::kWorkerCrashed, 0.0, static_cast<std::uint32_t>(agent.id),
             {{"worker", static_cast<double>(w)}, {"at", when}});
      }
    }
  }

  init_checkpointing(0.0);

  // ---- bootstrap: every agent starts at t = 0 ----
  if (config_.strategy == SearchStrategy::kA2C) {
    a2c_begin_round(0.0);
  } else {
    for (AgentState& agent : agents_) start_cycle(agent, 0.0);
  }
}

// ---- event loop over batch completions ----
// The scope closes when advance() returns, before finish() takes the
// telemetry snapshot — a still-open scope would show up with zero calls in
// the profile.
bool SearchRun::advance(double until) {
  NCNAS_PROF_SCOPE("driver/run");
  while (!result_.converged_early && !queue_.empty()) {
    const Completion done = queue_.top();
    queue_.pop();
    if (process_completion(done)) break;
    // The gap between two completions is the one point where no batch is
    // half-harvested: the members above, with the in-flight trainings
    // joined, are the complete search state, which is what makes this the
    // snapshot point, and the pause point.
    maybe_checkpoint(done.time);
    // Same safe point feeds the live exporter, at its cadence on the
    // virtual clock. Publication only *reads* search state, so the
    // exporter-off and exporter-on event sequences are identical.
    if (inst_ && inst_->exporter != nullptr && done.time >= next_publish_) {
      publish_progress(done.time, /*finished=*/false);
      const double cadence = inst_->exporter->config().cadence_seconds;
      if (cadence > 0.0) next_publish_ = ckpt::next_checkpoint_time(done.time, cadence);
    }
    if (done.time >= until) return false;
  }
  return true;
}

SearchResult SearchRun::finish() {
  // Batches still queued when the run stops are never harvested, but their
  // trainings and updates ran: join them before the telemetry snapshot
  // below counts them. An update that is never harvested is neither
  // journaled nor timed, so ncnas_ppo_update_wall_ms counts exactly the
  // updates ncnas_ppo_updates_total counts.
  join_in_flight();

  if (result_.end_time == 0.0) {
    result_.end_time = std::min(config_.wall_time_seconds, std::max(last_completion_, 1.0));
  }

  // Order the record stream by completion time and drop post-deadline tails.
  std::ranges::stable_sort(result_.evals, [](const EvalRecord& a, const EvalRecord& b) {
    return a.time < b.time;
  });
  std::erase_if(result_.evals, [&](const EvalRecord& e) {
    return e.time > config_.wall_time_seconds;
  });

  // Every counter is read from the fold. Its eval counts apply the same
  // deadline as the erase above, so they equal counts over the records.
  result_.cache_hits = fold_.cache_hits;
  result_.shared_cache_hits = fold_.shared_cache_hits;
  result_.timeouts = fold_.timeouts;
  result_.ppo_updates = fold_.ppo_updates;
  result_.retries = fold_.retries;
  result_.exhausted = fold_.exhausted;
  result_.lost_results = fold_.lost_results;
  result_.crashed_workers = fold_.crashed_workers;
  result_.dead_agents = fold_.dead_agents;
  result_.checkpoints_written = fold_.checkpoints;
  result_.resumes = fold_.resumes;
  result_.ladder_trainings = fold_.ladder_trainings;
  result_.ladder_promotions = fold_.ladder_promotions;
  result_.ladder_warm_starts = fold_.ladder_warm_starts;
  result_.ladder_rung_hits = fold_.ladder_rung_hits;
  std::unordered_set<std::string> unique;
  for (const EvalRecord& e : result_.evals) unique.insert(space::arch_key(e.arch));
  result_.unique_archs = unique.size();

  result_.utilization = monitor_.series(result_.end_time, result_.utilization_bucket);

  emit(obs::JournalEventType::kRunFinished, result_.end_time, obs::kNoAgent,
       {{"end_time_s", result_.end_time},
        {"evals", static_cast<double>(result_.evals.size())},
        {"best_reward", result_.evals.empty() ? 0.0 : static_cast<double>(fold_.best_reward)},
        {"cache_hits", static_cast<double>(result_.cache_hits)},
        {"timeouts", static_cast<double>(result_.timeouts)},
        {"ppo_updates", static_cast<double>(result_.ppo_updates)},
        {"converged", result_.converged_early ? 1.0 : 0.0},
        {"wall_time_s", config_.wall_time_seconds}});

  // Final unconditional publication, after run_finished hits the journal:
  // scrape-at-end totals reconcile with summarize_journal, and /healthz
  // flips to "run finished".
  if (inst_ && inst_->exporter != nullptr) {
    publish_progress(result_.end_time, /*finished=*/true);
  }

  if (tel_ != nullptr) {
    result_.telemetry_enabled = true;
    result_.telemetry = std::make_shared<const obs::TelemetrySnapshot>(tel_->snapshot());
  }
  return std::move(result_);
}

// The /progress view: the fold's counts, plus what only the event loop
// knows. Strictly read-only over search state — no RNG draws, no cache
// touches, no reordering — which is what keeps exporter-on runs
// bit-identical to exporter-off runs.
void SearchRun::publish_progress(double t, bool finished) {
  obs::ProgressSnapshot p = obs::progress_from(fold_);
  p.strategy = strategy_name(config_.strategy);
  p.batches_in_flight = queue_.size();
  // The fold has a row for each agent that has emitted; list every agent.
  // (A record restored from a forged snapshot may name an agent past N_.)
  std::vector<obs::AgentProgress> agents(N_);
  for (obs::AgentProgress& row : p.agents) {
    if (row.id < N_) agents[row.id] = std::move(row);
  }
  for (std::size_t i = 0; i < N_; ++i) {
    agents[i].id = static_cast<std::uint32_t>(i);
    agents[i].status = agents_[i].dead      ? "dead"
                       : agents_[i].stopped ? "converged"
                       : finished           ? "stopped"
                                            : "running";
    agents[i].cached_streak = agents_[i].cached_streak;
  }
  p.agents = std::move(agents);
  for (const EvalRecord& e : result_.top_k(obs::kProgressTopK)) {
    p.top.push_back({space::arch_key(e.arch), e.reward, e.params,
                     static_cast<std::uint32_t>(e.agent)});
  }
  inst_->exporter->publish(t, std::move(p));
}

// ---- dispatch: one real task, with retries and backoff under a plan -----
// Walks the retry loop on the virtual clock: each attempt picks the
// earliest-start live worker, asks the injector (if any) for this attempt's
// verdict, and on failure re-dispatches after capped exponential backoff
// until success or the retry budget is spent (the record is then floored).
// Without a fault plan every worker lives forever and the first attempt
// succeeds: the earliest-free worker runs the task. Returns false when no
// live worker remains — the caller marks the agent dead. The real training
// behind the record was submitted once up front; faults only replay its
// virtual-time cost.
bool SearchRun::dispatch(AgentState& agent, std::vector<double>& worker_free,
                         const exec::EvalResult& r, EvalRecord& rec, double t,
                         double& batch_done, std::size_t budget_units) {
  // Only a fault plan reads the key: its verdicts are keyed on the arch.
  const std::string key = fx_ != nullptr ? space::arch_key(rec.arch) : std::string();
  const auto aid = static_cast<std::uint32_t>(agent.id);
  const auto floor_record = [&](double at, std::size_t attempts) {
    rec.time = at;
    rec.reward = floor_reward_;
    rec.failed = true;
    rec.attempts = attempts;
    batch_done = std::max(batch_done, at);
    // The cache was primed with the real result before dispatch; a task
    // that never delivered must not leave that result behind (a later
    // regeneration re-evaluates instead of replaying a non-measurement).
    // The shared cache mirrors the erase: failed evals never poison it for
    // other tenants either.
    if (config_.use_cache) agent.cache->erase(rec.arch);
    if (shared_ != nullptr) shared_->erase(shared_ctx_, key);
    emit(obs::JournalEventType::kEvalExhausted, at, aid,
         {{"attempts", static_cast<double>(attempts)},
          {"reward", static_cast<double>(floor_reward_)}});
  };

  std::size_t attempt = 0;
  double ready = t;
  for (;;) {
    // Earliest-start live worker; a worker is usable only when the task
    // can begin before its planned crash. With no crashes this reduces to
    // the fault-free earliest-free choice.
    std::size_t slot = W_;
    double start = std::numeric_limits<double>::infinity();
    for (std::size_t w = 0; w < W_; ++w) {
      const double s = std::max(worker_free[w], ready);
      if (s >= agent.crash_at[w]) continue;
      if (s < start) {
        start = s;
        slot = w;
      }
    }
    if (slot == W_) {
      floor_record(ready, attempt);
      return false;  // agent has no live worker left
    }

    const exec::FaultInjector::TaskFault tf =
        fx_ != nullptr ? fx_->task_fault(agent.id, key, attempt) : exec::FaultInjector::TaskFault{};
    const double dur = r.sim_duration * tf.slowdown;
    const double end = start + dur;
    const double crash = agent.crash_at[slot];

    double fail_time = 0.0;
    bool emit_failed = true;  // lost results carry their own event type
    double fail_reason = 0.0;  // 0 injected failure, 1 worker crash
    if (end > crash) {
      // The worker dies mid-task and takes the task down with it.
      if (crash > start) monitor_.add_busy_interval(start, crash);
      worker_free[slot] = crash;
      fail_time = crash;
      fail_reason = 1.0;
    } else if (tf.fail) {
      fail_time = start + dur * tf.fail_frac;
      monitor_.add_busy_interval(start, fail_time);
      worker_free[slot] = fail_time;
    } else if (tf.lost) {
      // The task ran to completion; the result vanished in flight, so the
      // full duration is paid and the attempt still counts as failed.
      monitor_.add_busy_interval(start, end);
      worker_free[slot] = end;
      fail_time = end;
      emit_failed = false;
      emit(obs::JournalEventType::kResultLost, end, aid,
           {{"attempt", static_cast<double>(attempt)},
            {"worker", static_cast<double>(slot)},
            {"duration_s", dur}});
    } else {
      // Success (possibly slowed — the watchdog sees the stretched span).
      worker_free[slot] = end;
      monitor_.add_busy_interval(start, end);
      rec.time = end;
      rec.attempts = attempt + 1;
      batch_done = std::max(batch_done, end);
      real_evals_ += budget_units;
      std::vector<obs::JournalField> payload{{"duration_s", dur},
                                             {"worker", static_cast<double>(slot)}};
      // A fault-free journal has no attempts to number.
      if (fx_ != nullptr) payload.push_back({"attempt", static_cast<double>(attempt)});
      emit(obs::JournalEventType::kEvalDispatched, start, aid, std::move(payload));
      return true;
    }

    if (emit_failed) {
      emit(obs::JournalEventType::kEvalFailed, fail_time, aid,
           {{"attempt", static_cast<double>(attempt)},
            {"worker", static_cast<double>(slot)},
            {"reason", fail_reason}});
    }
    // Only a plan's verdicts fail an attempt, so fx_ is set from here on.
    ++attempt;
    if (attempt > fx_->plan().max_retries) {
      floor_record(fail_time, attempt);
      real_evals_ += budget_units;  // the failed attempts occupied real worker time
      return true;
    }
    const double backoff = fx_->backoff(attempt);
    ready = fail_time + backoff;
    emit(obs::JournalEventType::kEvalRetried, ready, aid,
         {{"attempt", static_cast<double>(attempt)}, {"backoff_s", backoff}});
  }
}

// ---- one agent cycle: sample M, evaluate, occupy workers, schedule ----
void SearchRun::start_cycle(AgentState& agent, double t) {
  NCNAS_PROF_SCOPE("driver/cycle");
  if (agent.dead) {  // lost every worker; nothing left to run a batch on
    agent.stopped = true;
    return;
  }
  if (t >= config_.wall_time_seconds || budget_exhausted_) {
    agent.stopped = true;
    return;
  }
  if (rl_enabled_) {
    agent.theta_pull = ps_->pull(agent.id);
    agent.controller->set_flat(agent.theta_pull);
  }
  agent.rollouts.clear();
  agent.archs.clear();
  agent.records.clear();
  for (std::size_t m = 0; m < M_; ++m) {
    if (rl_enabled_) {
      agent.rollouts.push_back(agent.controller->sample(agent.rng));
      agent.archs.push_back(agent.rollouts.back().actions);
    } else if (evolution_ && agent.population.size() >= config_.evolution.population) {
      // Tournament selection over the aging window, then a single-gene
      // mutation (regularized-evolution child generation).
      const auto& pop = agent.population;
      std::size_t best_idx = agent.rng.uniform_int(pop.size());
      for (std::size_t round = 1; round < config_.evolution.tournament; ++round) {
        const std::size_t idx = agent.rng.uniform_int(pop.size());
        if (pop[idx].second > pop[best_idx].second) best_idx = idx;
      }
      space::ArchEncoding child = pop[best_idx].first;
      const std::size_t gene = agent.rng.uniform_int(child.size());
      const std::size_t arity = space_->decisions()[gene].arity;
      if (arity > 1) {
        std::uint16_t v = child[gene];
        while (v == child[gene]) {
          v = static_cast<std::uint16_t>(agent.rng.uniform_int(arity));
        }
        child[gene] = v;
      }
      agent.archs.push_back(std::move(child));
    } else {
      agent.archs.push_back(space_->random_arch(agent.rng));
    }
  }

  // Resolve against the agent's cache, then the process-wide shared cache;
  // farm unique misses out for real. Shared lookups run serially on the
  // driver's event loop (never from pool threads), and a shared hit also
  // primes the agent cache (flags cleared) so later regenerations stay
  // agent-local and are not double-counted as shared.
  std::vector<std::optional<exec::EvalResult>> results(M_);
  std::vector<std::size_t> miss_index;           // batch position per unique miss
  std::unordered_set<std::string> miss_keys;
  for (std::size_t m = 0; m < M_; ++m) {
    if (config_.use_cache) results[m] = agent.cache->lookup(agent.archs[m]);
    if (!results[m] && shared_ != nullptr) {
      results[m] = shared_->lookup(shared_ctx_, space::arch_key(agent.archs[m]),
                                   config_.tenant_id);
      if (results[m] && config_.use_cache) {
        exec::EvalResult primed = *results[m];
        primed.cache_hit = false;
        primed.shared_hit = false;
        agent.cache->insert(agent.archs[m], primed);
      }
    }
    if (!results[m] && miss_keys.insert(space::arch_key(agent.archs[m])).second) {
      miss_index.push_back(m);
    }
  }
  // An RL batch's PPO update starts once its rewards exist (BatchUpdate):
  // each flat training gives up its share through its completion hook.
  std::shared_ptr<BatchUpdate> update;
  std::function<void()> on_trained;
  if (rl_enabled_) {
    update = std::make_shared<BatchUpdate>(
        1 + (ladder_ ? 0 : miss_index.size()), [this, &agent, timed = inst_.has_value()] {
          std::vector<float> rewards;
          rewards.reserve(agent.records.size());
          for (const EvalRecord& rec : agent.records) rewards.push_back(final_reward(rec));
          std::optional<obs::Stopwatch> timer;
          if (timed) timer.emplace();
          UpdateOutcome out;
          out.stats = agent.controller->ppo_update(agent.rollouts, rewards, config_.ppo);
          if (timer) out.wall_ms = timer->elapsed_ms();
          return out;
        });
    on_trained = [update] {
      if (update->release()) update->run();
    };
  }
  // Fresh results carry a handle to their training; the records and cache
  // entries made from them share it, and the reward is joined at harvest.
  std::vector<exec::EvalResult> fresh(miss_index.size());
  // Budget units per batch position: 1 per flat training; with a ladder,
  // the number of rung trainings the candidate consumed (its rung-weighted
  // cost — what max_evaluations and serve eval-budget quotas meter).
  std::vector<std::size_t> budget_units(M_, 1);
  if (ladder_) {
    std::vector<space::ArchEncoding> miss_archs;
    miss_archs.reserve(miss_index.size());
    for (const std::size_t m : miss_index) miss_archs.push_back(agent.archs[m]);
    std::vector<exec::LadderRungStats> rung_stats;
    std::vector<exec::LadderOutcome> outcomes =
        ladder_->evaluate_batch(miss_archs, agent.eval_seed, &rung_stats, pool_);
    // The ladder trains synchronously: which candidates a rung promotes
    // depends on rewards, so its results are final here.
    for (std::size_t i = 0; i < outcomes.size(); ++i) {
      fresh[i] = outcomes[i].result;
      fresh[i].training = resolved(exec::TrainOutcome{fresh[i].reward, fresh[i].train_wall_ms});
      budget_units[miss_index[i]] = outcomes[i].trainings;
    }
    // One ladder_rung event per populated rung, emitted at batch dispatch
    // time (no deadline filter, like the fault counters).
    for (const exec::LadderRungStats& rs : rung_stats) {
      emit(obs::JournalEventType::kLadderRung, t, static_cast<std::uint32_t>(agent.id),
           {{"rung", static_cast<double>(rs.rung)},
            {"candidates", static_cast<double>(rs.candidates)},
            {"survivors", static_cast<double>(rs.survivors)},
            {"trainings", static_cast<double>(rs.trainings)},
            {"warm_starts", static_cast<double>(rs.warm_starts)},
            {"rung_hits", static_cast<double>(rs.rung_hits)},
            {"timeouts", static_cast<double>(rs.timeouts)}});
    }
  } else {
    for (std::size_t i = 0; i < miss_index.size(); ++i) {
      fresh[i] = evaluator_.submit(agent.archs[miss_index[i]], agent.eval_seed, pool_, on_trained);
    }
  }
  for (std::size_t i = 0; i < miss_index.size(); ++i) {
    agent.cache->insert(agent.archs[miss_index[i]], fresh[i]);
    if (shared_ != nullptr) {
      shared_->insert(shared_ctx_, space::arch_key(agent.archs[miss_index[i]]),
                      config_.tenant_id, fresh[i]);
    }
    results[miss_index[i]] = fresh[i];  // first occurrence stays a real task
  }
  // Within-batch duplicates of a fresh miss read the cache result.
  for (std::size_t m = 0; m < M_; ++m) {
    if (!results[m]) results[m] = agent.cache->lookup(agent.archs[m]);
  }

  // Worker occupancy: non-cached tasks dispatch onto the agent's W
  // dedicated nodes (earliest-free first); cached results cost nothing.
  std::vector<double> worker_free(W_, t);
  double batch_done = t;
  for (std::size_t m = 0; m < M_; ++m) {
    const exec::EvalResult& r = *results[m];
    EvalRecord rec;
    rec.reward = r.reward;
    rec.params = r.params;
    rec.sim_duration = r.sim_duration;
    rec.cache_hit = r.cache_hit;
    rec.shared_hit = r.shared_hit;
    rec.timed_out = r.timed_out;
    rec.rung = r.rung;
    rec.agent = agent.id;
    rec.arch = agent.archs[m];
    rec.training = r.training;
    if (r.cache_hit) {
      rec.time = t;
    } else if (!dispatch(agent, worker_free, r, rec, t, batch_done, budget_units[m]) &&
               !agent.dead) {
      // First task that found no live worker: the agent's pool is gone.
      // Remaining tasks of this batch floor the same way; the batch still
      // completes (and is harvested) so PPO reward vectors stay aligned.
      agent.dead = true;
      agent.stopped = true;
      emit(obs::JournalEventType::kAgentDead, t, static_cast<std::uint32_t>(agent.id),
           {{"workers", static_cast<double>(W_)}});
    }
    agent.records.push_back(std::move(rec));
  }
  // The records are final: floored, failed and timed-out rewards, cache
  // hits, and whether the agent died, which leaves its batch no update.
  if (update && !agent.dead) {
    std::shared_future<UpdateOutcome> outcome = update->outcome();
    if (update->release()) {
      // No training of the batch is left to start the update.
      if (pool_ != nullptr) {
        (void)pool_->submit([update] { update->run(); });
      } else {
        update->run();
      }
    }
    agent.update = std::move(outcome);
  }
  if (config_.max_evaluations != 0 && real_evals_ >= config_.max_evaluations) {
    budget_exhausted_ = true;
  }
  const double scheduled = std::max(batch_done, t + 1e-3);
  if (inst_) {
    inst_->cycles->inc();
    inst_->cycle_latency->observe(scheduled - t);
  }
  queue_.push({scheduled, seq_++, agent.id});
}

// ---- A2C round bookkeeping --------------------------------------------
// Starts (or restarts) a synchronized round and counts how many agents
// actually queued a batch — including one that died mid-dispatch, whose
// floored batch still completes and is harvested. Wall/budget-stopped and
// already-dead agents queue nothing.
void SearchRun::a2c_begin_round(double resume) {
  a2c_round_time_ = 0.0;
  a2c_outstanding_ = 0;
  for (AgentState& a : agents_) {
    const bool was_dead = a.dead;
    start_cycle(a, resume);
    if (!was_dead && (!a.stopped || a.dead)) ++a2c_outstanding_;
  }
}

// When every agent of the round has been harvested but the barrier still
// holds (dropped exchanges, dead agents), release whatever arrived after
// the plan's absent-agent timeout and start the next round. If nothing
// arrived at all the round restarts without a parameter update.
void SearchRun::a2c_release_stuck(double now) {
  if (fx_ == nullptr || a2c_outstanding_ != 0) return;
  const double release_t =
      std::max(a2c_round_time_, now) + fx_->plan().barrier_timeout_seconds;
  (void)ps_->try_release(release_t);
  a2c_begin_round(release_t + config_.agent_overhead_seconds);
}

void SearchRun::emit(obs::JournalEventType type, double t, std::uint32_t agent,
                     std::vector<obs::JournalField> payload, bool folded) {
  obs::JournalEvent e{type, t, agent, 0, std::move(payload)};
  if (!folded) fold_.apply(e);
  if (tel_ != nullptr) tel_->emit(e.type, e.t, e.agent, std::move(e.payload));
}

void SearchRun::emit_record(const EvalRecord& rec, double train_wall_ms) {
  for (obs::JournalEvent& e : record_events(rec, train_wall_ms)) {
    emit(e.type, e.t, e.agent, std::move(e.payload));
  }
}

bool SearchRun::process_completion(const Completion& done) {
  NCNAS_PROF_SCOPE("driver/harvest");
  AgentState& agent = agents_[done.agent];
  const double t = done.time;
  last_completion_ = std::max(last_completion_, t);

  // Harvest the batch. Its update has read the records, so it is joined
  // first; its stats are journaled after them, in DES order.
  std::optional<UpdateOutcome> update;
  if (agent.update.valid()) {
    update = agent.update.get();
    agent.update = {};
  }
  bool all_cached = true;
  for (EvalRecord& rec : agent.records) {
    all_cached = all_cached && rec.cache_hit;
    if (rec.cache_hit) rec.time = t;  // resolved when the batch closes
    const double train_wall_ms = join(rec);
    rec.training = {};
    emit_record(rec, train_wall_ms);
    result_.evals.push_back(rec);
  }
  agent.cached_streak = all_cached ? agent.cached_streak + 1 : 0;
  if (agent.cached_streak == config_.convergence_streak) {
    emit(obs::JournalEventType::kAgentConverged, t, static_cast<std::uint32_t>(agent.id),
         {{"streak", static_cast<double>(agent.cached_streak)}});
  }
  if (inst_) {
    std::size_t min_streak = agents_[0].cached_streak;
    for (const AgentState& a : agents_) min_streak = std::min(min_streak, a.cached_streak);
    inst_->streak_min->set(static_cast<double>(min_streak));
  }

  if (config_.strategy == SearchStrategy::kEvolution) {
    for (const EvalRecord& rec : agent.records) {
      agent.population.emplace_back(rec.arch, rec.reward);
      if (agent.population.size() > config_.evolution.population) {
        agent.population.pop_front();  // aging: oldest individual dies
      }
    }
  }

  // Convergence: every agent keeps regenerating cached architectures.
  // Dead agents can't regenerate anything, so they are exempt — as long as
  // at least one agent survived to actually converge.
  const bool converged =
      std::ranges::all_of(agents_,
                          [&](const AgentState& a) {
                            return a.dead || a.cached_streak >= config_.convergence_streak;
                          }) &&
      std::ranges::any_of(agents_, [](const AgentState& a) { return !a.dead; });
  if (converged) {
    result_.converged_early = true;
    result_.end_time = t;
    return true;
  }

  if (!rl_enabled_) {
    start_cycle(agent, t + config_.agent_overhead_seconds);
    return false;
  }

  if (agent.dead) {
    // The dead agent's final (floored) batch was harvested above; there is
    // no controller state worth updating and nothing to submit. In A2C the
    // barrier must stop waiting for it — its removal may itself complete
    // the round the surviving agents are parked on.
    if (config_.strategy == SearchStrategy::kA2C) {
      if (a2c_outstanding_ > 0) --a2c_outstanding_;
      a2c_round_time_ = std::max(a2c_round_time_, t);
      if (ps_->deactivate(agent.id, t)) {
        a2c_begin_round(a2c_round_time_ + config_.agent_overhead_seconds);
      } else {
        a2c_release_stuck(t);
      }
    }
    return false;
  }

  // The local PPO epochs ran with the batch's update; journal them, then
  // exchange the parameter delta through the PS.
  const rl::PpoStats& stats = update.value().stats;
  if (inst_) inst_->ppo_wall_ms->observe(update->wall_ms);
  emit(obs::JournalEventType::kPpoUpdate, t, static_cast<std::uint32_t>(agent.id),
       {{"policy_loss", stats.policy_loss},
        {"value_loss", stats.value_loss},
        {"entropy", stats.entropy},
        {"approx_kl", stats.approx_kl},
        {"batch", static_cast<double>(agent.records.size())}});
  std::vector<float> delta = agent.controller->get_flat();
  for (std::size_t i = 0; i < delta.size(); ++i) delta[i] -= agent.theta_pull[i];

  // Without a plan the exchange neither drops nor delays.
  const exec::FaultInjector::ExchangeFault ef =
      fx_ != nullptr ? fx_->exchange_fault(agent.id, agent.exchange_seq++)
                     : exec::FaultInjector::ExchangeFault{};
  if (config_.strategy == SearchStrategy::kA3C) {
    double resume = t + config_.agent_overhead_seconds;
    if (ef.drop) {
      // The delta is lost in flight; the agent carries on with the stale
      // parameters it already holds.
      emit(obs::JournalEventType::kPsDropped, t, static_cast<std::uint32_t>(agent.id),
           {{"mode", 1.0}});
    } else {
      if (ef.delay_seconds > 0.0) {
        resume += ef.delay_seconds;  // the exchange round trip stretches
        emit(obs::JournalEventType::kPsDelayed, t, static_cast<std::uint32_t>(agent.id),
             {{"mode", 1.0}, {"delay_s", ef.delay_seconds}});
      }
      ps_->submit(agent.id, delta, t);
    }
    start_cycle(agent, resume);
  } else {
    a2c_round_time_ = std::max(a2c_round_time_, t);
    if (a2c_outstanding_ > 0) --a2c_outstanding_;
    bool round_complete = false;
    if (ef.drop) {
      // The delta never reaches the barrier; the agent idles while the
      // round is resolved for it (submit next round as usual).
      emit(obs::JournalEventType::kPsDropped, t, static_cast<std::uint32_t>(agent.id),
           {{"mode", 0.0}});
    } else {
      double arrival = t;
      if (ef.delay_seconds > 0.0) {
        arrival += ef.delay_seconds;
        emit(obs::JournalEventType::kPsDelayed, t, static_cast<std::uint32_t>(agent.id),
             {{"mode", 0.0}, {"delay_s", ef.delay_seconds}});
      }
      a2c_round_time_ = std::max(a2c_round_time_, arrival);
      round_complete = ps_->submit(agent.id, delta, arrival);
    }
    if (round_complete) {
      a2c_begin_round(a2c_round_time_ + config_.agent_overhead_seconds);
    } else {
      a2c_release_stuck(t);
    }
  }
  return false;
}

void SearchRun::init_checkpointing(double from_t) {
  if (config_.checkpoint == nullptr) return;
  writer_.emplace(*config_.checkpoint);
  fingerprint_ = config_fingerprint(config_, space_->name());
  next_due_ = ckpt::next_checkpoint_time(from_t, writer_->config().interval_seconds);
}

void SearchRun::maybe_checkpoint(double t) {
  if (!writer_ || t < next_due_) return;
  NCNAS_PROF_SCOPE("driver/checkpoint");
  // Count the snapshot *before* serializing, so the snapshot carries its own
  // ordinal, and journal it before the header takes the watermark: the
  // watermark then covers everything up to and including this checkpoint,
  // and a resumed run's counters reconcile with the merged journal 1:1.
  fold_.apply({obs::JournalEventType::kCheckpointWritten, t, obs::kNoAgent, 0, {}});
  // The payload holds in-flight records with their rewards and each
  // pending update's outcome, with its controller as the update left it.
  join_in_flight();
  ckpt::ByteWriter payload;
  fields(payload, *this);
  emit(obs::JournalEventType::kCheckpointWritten, t, obs::kNoAgent,
       {{"ordinal", static_cast<double>(fold_.checkpoints)},
        {"bytes", static_cast<double>(payload.size())}},
       /*folded=*/true);
  ckpt::SnapshotHeader header;
  header.fingerprint = fingerprint_;
  header.space_name = space_->name();
  header.virtual_time = t;
  header.journal_events =
      journal_base_ + (tel_ != nullptr && tel_->journal() != nullptr ? tel_->journal()->size() : 0);
  header.ordinal = fold_.checkpoints;
  writer_->write(header, payload.bytes());
  next_due_ = ckpt::next_checkpoint_time(t, writer_->config().interval_seconds);
}

template <class IO, class Self>
void SearchRun::fields(IO& io, Self& s) {
  // Prelude: enough config-derived shape to refuse a payload that cannot
  // belong to this search (the fingerprint catches this first; the prelude
  // makes the failure mode a clean error even without one).
  expect(io, "strategy/cluster shape", static_cast<std::uint32_t>(s.config_.strategy), s.N_,
         s.W_, s.M_);
  io(s.seq_, s.real_evals_, s.budget_exhausted_, s.a2c_round_time_, s.a2c_outstanding_,
     s.last_completion_);
  heap(io, s.queue_, s.N_);

  // Every decoded architecture must lie in the space: evolution mutates
  // population genes by index and PPO embeds rollout actions by value.
  const auto valid = [&s](const space::ArchEncoding& arch) { return s.space_->is_valid(arch); };
  const auto archs_valid = [&](auto arch_of) {
    return [&, arch_of](const auto& items) { return std::ranges::all_of(items, valid, arch_of); };
  };

  // Partial result (records are pre-sort, exactly as the live vector). A
  // snapshot is taken mid-run, so end_time is still unset or inside the run.
  // The counters with no record behind them travel as the fold's fields;
  // restore() re-folds the records for the rest.
  auto& r = s.result_;
  auto& f = s.fold_;
  checked(io, r.evals, archs_valid(&EvalRecord::arch), "record architecture");
  checked(io, r.end_time, [&](double t) { return t >= 0.0 && t <= s.config_.wall_time_seconds; },
          "end time");
  io(r.converged_early, r.unique_archs, f.ppo_updates, f.retries, f.exhausted, f.lost_results,
     f.crashed_workers, f.dead_agents, f.checkpoints, f.resumes, f.ladder_trainings,
     f.ladder_promotions, f.ladder_warm_starts, f.ladder_rung_hits);

  through(io, s.monitor_, &exec::UtilizationMonitor::export_state,
          &exec::UtilizationMonitor::import_state);
  expect(io, "parameter-server presence", s.ps_.has_value());
  if (s.ps_) {
    through(io, *s.ps_, &ParameterServer::export_state, &ParameterServer::import_state);
  }

  // Per-agent state. crash_at is deliberately absent: it is a pure function
  // of the fault plan and the wall-time limit, recomputed on restore.
  const std::size_t steps = s.space_->num_decisions();
  for (auto& a : s.agents_) {
    through(io, a.rng, &tensor::Rng::state, &tensor::Rng::set_state);
    io(a.eval_seed, a.cached_streak, a.stopped, a.dead, a.exchange_seq);
    checked(io, a.theta_pull,
            [&](const std::vector<float>& v) { return !s.ps_ || v.size() == s.ps_->dim(); },
            "pulled parameter length");
    expect(io, "controller presence", a.controller.has_value());
    if (a.controller) {
      through(io, *a.controller, &rl::Controller::save_state, &rl::Controller::load_state);
    }
    update_outcome(io, a.update);
    checked(io, a.population, archs_valid(&std::pair<space::ArchEncoding, float>::first),
            "population architecture");
    through(io, *a.cache, &exec::CachedEvaluator::export_state,
            &exec::CachedEvaluator::import_state);

    // The in-flight batch: its Completion sits in the heap above, and its
    // trainings were joined before the write, so the resumed process
    // harvests these records without re-training anything.
    checked(io, a.rollouts,
            [&](const std::vector<rl::Rollout>& v) {
              return std::ranges::all_of(v, [&](const rl::Rollout& ro) {
                return valid(ro.actions) && ro.log_probs.size() == steps &&
                       ro.values.size() == steps;
              });
            },
            "rollout");
    checked(io, a.archs, archs_valid(std::identity{}), "in-flight architecture");
    checked(io, a.records, archs_valid(&EvalRecord::arch), "in-flight record architecture");
  }
}

void SearchRun::restore(const ckpt::SnapshotHeader& header, ckpt::ByteReader& in) {
  fields(in, *this);
  in.require_done();

  // Each queued completion harvests a full in-flight batch of its own agent
  // (PPO pairs every record with a rollout), at most one per agent, and in
  // A2C only for an agent the barrier is still waiting on.
  std::vector<bool> queued(N_, false);
  for (auto pending = queue_; !pending.empty(); pending.pop()) {
    const std::size_t id = pending.top().agent;
    const AgentState& a = agents_[id];
    const bool not_awaited = config_.strategy == SearchStrategy::kA2C && !ps_->awaits(id);
    if (queued[id] || not_awaited || a.records.size() != M_ || a.archs.size() != M_ ||
        (rl_enabled_ && a.rollouts.size() != M_)) {
      throw ckpt::SnapshotError("snapshot: pending completion does not match agent " +
                                std::to_string(id) + "'s batch");
    }
    queued[id] = true;
  }
  // An agent has a pending update exactly when its queued batch is an RL
  // batch it survived dispatching.
  for (std::size_t id = 0; id < N_; ++id) {
    const AgentState& a = agents_[id];
    if (a.update.valid() != (queued[id] && rl_enabled_ && !a.dead)) {
      throw ckpt::SnapshotError("snapshot: agent " + std::to_string(id) +
                                "'s PPO update does not match its batch");
    }
  }

  // crash_at is recomputed, not restored: it is a pure function of the plan
  // and the wall-time limit. Crucially WITHOUT the bootstrap side effects —
  // the crash counters, capacity losses, and journal events all happened in
  // the original process and arrived here through the snapshot.
  if (fx_ != nullptr) {
    for (AgentState& agent : agents_) {
      for (std::size_t worker = 0; worker < W_; ++worker) {
        const double when = fx_->crash_time(agent.id, worker);
        if (when >= config_.wall_time_seconds) continue;
        agent.crash_at[worker] = when;
      }
    }
  }

  // run_resumed sets the fold's deadline, which the re-fold of the restored
  // records below applies. Those events were journaled by the process that
  // harvested them, so they are folded here, not emitted again.
  emit(obs::JournalEventType::kRunResumed, header.virtual_time, obs::kNoAgent,
       {{"from_t", header.virtual_time},
        {"prior_events", static_cast<double>(header.journal_events)},
        {"ordinal", static_cast<double>(header.ordinal)},
        {"wall_time_s", config_.wall_time_seconds},
        {"strategy", static_cast<double>(config_.strategy)}});
  for (const EvalRecord& rec : result_.evals) {
    for (const obs::JournalEvent& e : record_events(rec, 0.0)) fold_.apply(e);
  }
  journal_base_ = header.journal_events;
  init_checkpointing(header.virtual_time);
}

namespace {

constexpr double kNoPause = std::numeric_limits<double>::infinity();

/// The telemetry's profiler, installed as the process-wide sink around each
/// call into a run: bootstrap() already dispatches the first round of
/// evaluations, so the guard covers it, not just the event loop. The layers
/// below SearchConfig (tensor kernels, nn, exec) record through the
/// installed sink; a null profiler makes the guard a no-op and leaves every
/// scope macro at one atomic load.
obs::Profiler* profiler_of(const SearchConfig& config) {
  return config.telemetry != nullptr ? config.telemetry->profiler() : nullptr;
}

}  // namespace

SearchDriver::SearchDriver(const space::SearchSpace& space, const data::Dataset& dataset,
                           SearchConfig config, tensor::ThreadPool* pool)
    : space_(&space),
      dataset_(&dataset),
      config_(normalized(std::move(config))),
      pool_(pool) {}

SearchDriver::~SearchDriver() = default;

SearchRun& SearchDriver::live() {
  if (finished_.has_run_finished) {
    throw std::logic_error("SearchDriver: the search has ended and run() returned its result");
  }
  if (!run_) {
    run_ = std::make_unique<SearchRun>(*space_, *dataset_, config_, pool_);
    run_->bootstrap();
  }
  return *run_;
}

bool SearchDriver::advance(double until) {
  const obs::ProfilerInstallGuard guard(profiler_of(config_));
  return live().advance(until);
}

SearchResult SearchDriver::run() {
  const obs::ProfilerInstallGuard guard(profiler_of(config_));
  SearchRun& search = live();
  (void)search.advance(kNoPause);
  SearchResult result = search.finish();
  finished_ = search.summary();
  run_.reset();
  return result;
}

double SearchDriver::virtual_time() const noexcept {
  return run_ ? run_->virtual_time() : 0.0;
}

const obs::RunSummary& SearchDriver::summary() const noexcept {
  return run_ ? run_->summary() : finished_;
}

SearchResult resume_search(const std::string& snapshot_path, const space::SearchSpace& space,
                           const data::Dataset& dataset, SearchConfig config,
                           tensor::ThreadPool* pool) {
  config = normalized(std::move(config));
  ckpt::Snapshot snap = ckpt::read_snapshot(snapshot_path);
  const std::string expected = config_fingerprint(config, space.name());
  if (snap.header.fingerprint != expected) {
    throw ckpt::SnapshotError("snapshot " + snapshot_path +
                              ": config fingerprint mismatch (snapshot was taken under \"" +
                              snap.header.fingerprint + "\", resume config is \"" + expected +
                              "\")");
  }
  if (snap.header.space_name != space.name()) {
    throw ckpt::SnapshotError("snapshot " + snapshot_path + ": search space mismatch (\"" +
                              snap.header.space_name + "\" vs \"" + space.name() + "\")");
  }
  // The guard outlives the run, so trainings it joins on unwinding still
  // record into the installed profiler.
  const obs::ProfilerInstallGuard guard(profiler_of(config));
  SearchRun search(space, dataset, std::move(config), pool);
  ckpt::ByteReader reader(snap.payload);
  search.restore(snap.header, reader);
  (void)search.advance(kNoPause);
  return search.finish();
}

}  // namespace ncnas::nas
