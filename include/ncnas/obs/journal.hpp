// Journal — a durable, schema-versioned structured event log of *what the
// search did*: one typed record per run/evaluation/update/exchange event,
// stamped with the agent id and the driver's virtual clock. This is the
// in-process analogue of the paper's Balsam job database, whose per-job
// records made the Theta runs diagnosable (Figures 4–13: reward
// trajectories, utilization, straggler and timeout accounting).
//
// Layering: every search fact is emitted once, through Telemetry::emit, as
// one of these typed events. The driver (its PPO updates included),
// ParameterServer and watchdog all emit that way; the telemetry's always-on
// RunSummary fold turns the stream into the ncnas_*_total counters, and the
// journal (when enabled) records the same stream. Consumers attach either
// live (subscribe(), e.g. the HealthWatchdog) or post-hoc (export_jsonl ->
// import_jsonl -> summarize_journal, e.g. the examples/run_report tool); the
// Chrome trace is rendered from the recorded events (export_chrome_trace).
//
// The schema is versioned (kJournalSchemaVersion): every exported line
// carries "v", import_jsonl rejects lines from a newer schema, and unknown
// event types from older writers are skipped rather than fatal.
#pragma once

#include <cstdint>
#include <fstream>
#include <functional>
#include <limits>
#include <map>
#include <mutex>
#include <optional>
#include <ostream>
#include <string>
#include <string_view>
#include <vector>

#include "ncnas/obs/json.hpp"

namespace ncnas::obs {

class Counter;  // metrics.hpp; only used as an optional error sink

/// Bump when the JSONL layout or event semantics change incompatibly.
inline constexpr int kJournalSchemaVersion = 1;

/// Agent id used for run-level events (serialized as -1).
inline constexpr std::uint32_t kNoAgent = std::numeric_limits<std::uint32_t>::max();

enum class JournalEventType : std::uint8_t {
  kRunStarted,         ///< payload: agents, workers, batch, wall_time_s, strategy, seed
  kRunFinished,        ///< payload: end_time_s, evals, best_reward, cache_hits, timeouts,
                       ///<          ppo_updates, converged, wall_time_s
  kEvalDispatched,     ///< payload: duration_s, worker [, attempt under a fault plan]
  kEvalFinished,       ///< payload: reward, duration_s, timed_out, params, train_wall_ms
                       ///<          (host ms of the training the record owns)
  kEvalCached,         ///< payload: reward, timed_out [, shared=1 for shared-cache hits]
  kEvalTimeout,        ///< payload: duration_s
  kPpoUpdate,          ///< payload: policy_loss, value_loss, entropy, approx_kl, batch
  kPsExchange,         ///< payload: mode (0 sync / 1 async), wait_s, staleness
  kAgentConverged,     ///< payload: streak
  kStragglerDetected,  ///< payload: duration_s, expected_s, multiple (watchdog)
  kAgentStalled,       ///< payload: silent_s, window_s (watchdog)
  // Fault-injection and recovery events (FaultInjector + resilient driver).
  // Additions within schema v1: older readers skip unknown event names.
  kEvalFailed,         ///< payload: attempt, worker, reason (0 fault / 1 crash)
  kEvalRetried,        ///< payload: attempt, backoff_s
  kEvalExhausted,      ///< payload: attempts, reward (the floor)
  kResultLost,         ///< payload: attempt, worker, duration_s
  kWorkerCrashed,      ///< payload: worker (t = planned crash time)
  kAgentDead,          ///< payload: workers (t = detection time)
  kPsDropped,          ///< payload: mode (0 sync / 1 async)
  kPsDelayed,          ///< payload: mode, delay_s
  kBarrierTimeout,     ///< payload: absent, timeout_s (partial A2C release)
  // Checkpoint/restore events (ncnas::ckpt + resumable driver). Additions
  // within schema v1: older readers skip unknown event names.
  kCheckpointWritten,  ///< payload: ordinal, bytes (t = snapshot virtual time)
  kRunResumed,         ///< payload: from_t, prior_events, ordinal, wall_time_s, strategy
  // Multi-fidelity ladder events (exec::FidelityLadder + driver). Additions
  // within schema v1: older readers skip unknown event names.
  kLadderRung,         ///< payload: rung, candidates, survivors, trainings,
                       ///<          warm_starts, rung_hits, timeouts
};

/// Stable wire name of an event type ("eval_finished", ...).
[[nodiscard]] const char* journal_event_name(JournalEventType type);
/// Inverse of journal_event_name; nullopt for unknown names.
[[nodiscard]] std::optional<JournalEventType> journal_event_from_name(std::string_view name);

/// One numeric annotation on an event (flags are encoded as 0/1).
struct JournalField {
  std::string key;
  double value = 0.0;
};

struct JournalEvent {
  JournalEventType type = JournalEventType::kRunStarted;
  double t = 0.0;                  ///< virtual-clock timestamp, seconds
  std::uint32_t agent = kNoAgent;  ///< emitting agent; kNoAgent for run-level
  std::uint64_t seq = 0;           ///< journal-assigned emission order
  std::vector<JournalField> payload;

  [[nodiscard]] double field(std::string_view key, double fallback = 0.0) const;
  [[nodiscard]] bool has_field(std::string_view key) const;
};

/// Thread-safe append-only event log. append() takes one short mutex-guarded
/// buffer write, then notifies subscribers outside the buffer lock, so a
/// subscriber may itself append (the HealthWatchdog does) without deadlock.
/// Subscribers must be registered before events flow and must not subscribe
/// from inside a callback; callback order across concurrently appending
/// threads is unspecified, but every subscriber sees every event exactly once.
class Journal {
 public:
  using Subscriber = std::function<void(const JournalEvent&)>;

  explicit Journal(std::size_t reserve = 1024);
  Journal(const Journal&) = delete;
  Journal& operator=(const Journal&) = delete;

  void subscribe(Subscriber fn);

  void append(JournalEventType type, double t, std::uint32_t agent = kNoAgent,
              std::vector<JournalField> payload = {});

  [[nodiscard]] std::size_t size() const;
  /// Copies the retained events in emission (seq) order.
  [[nodiscard]] std::vector<JournalEvent> snapshot() const;
  void clear();

  // ---- live streaming (opt-in; the default buffered path is untouched) ----

  /// Opens `path` as a live JSONL sink: writes the schema header and every
  /// already-buffered event immediately, then one line per subsequent
  /// append(), each written as a single unbuffered line and flushed before
  /// the appender returns — `tail -f` never sees torn lines. The file is
  /// truncated first. `error_counter`
  /// (optional) is incremented on write failures; after the first failure
  /// the sink closes itself and the search carries on unobserved. Returns
  /// false (and counts one error) when the file cannot be opened.
  bool open_live_export(const std::string& path, Counter* error_counter = nullptr);
  void close_live_export();
  [[nodiscard]] bool live_export_open() const;
  /// Write failures the live sink swallowed (0 on a healthy stream).
  [[nodiscard]] std::uint64_t live_export_errors() const;

  /// One JSON object per line: a schema header line, then one line per event.
  void export_jsonl(std::ostream& os) const;
  static void export_jsonl(const std::vector<JournalEvent>& events, std::ostream& os);
  /// Parses a stream written by export_jsonl. Throws std::runtime_error on a
  /// newer schema version or malformed lines; events of unknown type (from an
  /// older reader's perspective) are skipped.
  [[nodiscard]] static std::vector<JournalEvent> import_jsonl(std::istream& is);

 private:
  void live_write_locked(const JournalEvent& e);  // requires mu_

  mutable std::mutex mu_;                      // guards events_ / next_seq_ / live sink
  mutable std::recursive_mutex notify_mu_;     // serializes subscriber dispatch
  std::vector<JournalEvent> events_;
  std::vector<Subscriber> subscribers_;
  std::uint64_t next_seq_ = 0;
  std::ofstream live_;                         // open only in live-export mode
  Counter* live_errors_sink_ = nullptr;
  std::uint64_t live_errors_ = 0;
};

// ---- replay -----------------------------------------------------------------

/// Per-agent activity derived from a journal replay.
struct AgentActivity {
  std::size_t evals = 0;        ///< finished + cached
  std::size_t cached = 0;
  std::size_t timeouts = 0;
  std::size_t ppo_updates = 0;
  double last_event_t = 0.0;
  float best_reward = -std::numeric_limits<float>::infinity();
};

/// Everything the run-report tooling derives from one journal. Eval counting
/// applies the driver's own deadline rule (events past wall_time_s are
/// dropped), so `evals` / `best_reward` match the SearchResult exactly.
struct RunSummary {
  /// Folds one event in. The deadline is whatever run_started (or, for a
  /// resumed process, run_resumed) last declared, so an in-order live stream
  /// folds to the same counts as summarize_journal over the recorded journal.
  void apply(const JournalEvent& e);

  bool has_run_started = false;
  bool has_run_finished = false;
  int strategy = -1;  ///< SearchStrategy index from run_started; -1 if absent
  std::size_t agents_declared = 0;
  std::size_t workers_per_agent = 0;
  double wall_time_s = std::numeric_limits<double>::infinity();
  double end_time_s = 0.0;
  bool converged = false;

  std::size_t evals = 0;  ///< finished + cached within the deadline
  std::size_t real_evals = 0;
  std::size_t cache_hits = 0;
  /// Subset of cache_hits whose eval_cached event carries the `shared`
  /// marker: served from the process-wide SharedEvalCache.
  std::size_t shared_cache_hits = 0;
  std::size_t timeouts = 0;
  std::size_t ppo_updates = 0;
  std::size_t ps_exchanges = 0;
  std::size_t stragglers = 0;
  std::size_t stalls = 0;
  std::vector<std::uint32_t> converged_agents;  ///< unique, first-convergence order

  // Fault and recovery accounting. These mirror the SearchResult fault
  // counters exactly (no deadline filter: a retry or crash is real even when
  // the record it fed was cut by the deadline), so a replay of a faulty run
  // reconciles with the returned result.
  std::size_t eval_failures = 0;   ///< failed dispatch attempts (fault or crash)
  std::size_t retries = 0;         ///< attempts re-dispatched after backoff
  std::size_t exhausted = 0;       ///< records floored after retry exhaustion
  std::size_t lost_results = 0;    ///< completed tasks whose result was dropped
  std::size_t crashed_workers = 0; ///< workers lost to the fault plan
  std::size_t dead_agents = 0;     ///< agents that lost every worker
  std::size_t ps_dropped = 0;      ///< PS exchanges that never arrived
  std::size_t ps_delayed = 0;      ///< PS exchanges that arrived late
  std::size_t barrier_timeouts = 0;///< partial A2C rounds forced by timeout

  // Checkpoint/restore accounting. Counted with no deadline filter (a
  // snapshot or a resume is real regardless of when it happened), mirroring
  // SearchResult::checkpoints_written / resumes.
  std::size_t checkpoints = 0;          ///< snapshots made durable
  std::size_t resumes = 0;              ///< run_resumed events seen
  std::vector<double> resume_times;     ///< virtual times the run was resumed at

  // Fidelity-ladder accounting. Counted with no deadline filter (a rung
  // training is real worker time regardless of the deadline), mirroring
  // SearchResult::ladder_* — a replayed ladder run reconciles 1:1 with the
  // returned result's counters. All zero on flat runs.
  struct LadderRungTotals {
    std::size_t candidates = 0;
    std::size_t survivors = 0;
    std::size_t trainings = 0;
    std::size_t warm_starts = 0;
    std::size_t rung_hits = 0;
    std::size_t timeouts = 0;
  };
  std::size_t ladder_rung_events = 0;   ///< ladder_rung events seen
  std::size_t ladder_trainings = 0;
  std::size_t ladder_promotions = 0;    ///< sum of per-event survivors
  std::size_t ladder_warm_starts = 0;
  std::size_t ladder_rung_hits = 0;
  std::size_t ladder_timeouts = 0;
  std::map<std::uint32_t, LadderRungTotals> ladder_rungs;  ///< keyed by rung index
  /// True when the journal recorded any injected fault or recovery action.
  [[nodiscard]] bool faulty() const {
    return eval_failures + retries + exhausted + lost_results + crashed_workers + dead_agents +
               ps_dropped + ps_delayed + barrier_timeouts >
           0;
  }

  float best_reward = -std::numeric_limits<float>::infinity();
  double best_reward_t = 0.0;
  std::vector<std::pair<double, float>> rewards;  ///< (t, reward), sorted by t (stable)
  std::map<std::uint32_t, AgentActivity> per_agent;
  std::vector<double> ps_wait_seconds;  ///< sync-exchange barrier waits
  std::vector<double> ps_staleness;     ///< async-exchange gradient staleness
  /// duration_s of each eval_finished within the deadline (the real_evals
  /// rule), in event order.
  std::vector<double> eval_sim_seconds;

  /// Eval rate of one agent in evaluations per simulated minute.
  [[nodiscard]] double agent_rate_per_min(std::uint32_t agent) const;
};

/// Replays a journal (as exported/imported) into a RunSummary: a pre-scan
/// for the deadline, then RunSummary::apply over every event.
[[nodiscard]] RunSummary summarize_journal(const std::vector<JournalEvent>& events);

/// Chrome trace format ({"traceEvents": [...]}, load via about://tracing or
/// https://ui.perfetto.dev) rendered from journal events on the virtual clock
/// (microseconds), one row per agent (`tid` = agent id, -1 for run-level
/// events): an `eval` span per eval_dispatched event, an `a2c_barrier_wait`
/// span per sync ps_exchange, and an instant for every other event, each
/// carrying the event's payload as args. No events -> an empty document.
void export_chrome_trace(const std::vector<JournalEvent>& events, std::ostream& os);

/// Stitches the journal of a resumed process onto the journal of the process
/// it replaced. `resumed` must contain a run_resumed event whose prior_events
/// payload is the snapshot's journal watermark: every `prior` event past that
/// watermark was re-done (and re-logged) after the resume, so `prior` is
/// truncated to the watermark, `resumed` is appended, and seq is reassigned
/// contiguously. Composes across chained resumes — merge pairwise in order.
/// Throws std::runtime_error when `resumed` has no run_resumed event or
/// `prior` is shorter than the watermark (the journals don't belong together).
[[nodiscard]] std::vector<JournalEvent> merge_resumed_journal(
    std::vector<JournalEvent> prior, const std::vector<JournalEvent>& resumed);

/// Reads a checkpointed run's journals (JSONL, as export_jsonl wrote them),
/// given in process order: the original process first, then each resumed
/// process, stitched pairwise with merge_resumed_journal. One path is a plain
/// import. Throws std::runtime_error naming a file it cannot open, or when
/// the journals do not belong together.
[[nodiscard]] std::vector<JournalEvent> read_journal_lineage(
    const std::vector<std::string>& paths);

/// Machine-readable form of a RunSummary: one JSON object mirroring every
/// field (per-agent activity keyed by agent id, PS latency samples included;
/// the eval_sim_seconds samples are left out, they only feed the telemetry
/// histogram), so run_report --format=json and external tooling (nas_top)
/// consume the same replay the terminal report renders.
void export_run_summary_json(const RunSummary& sum, std::ostream& os);

}  // namespace ncnas::obs
