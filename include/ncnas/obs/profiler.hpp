// Hierarchical scoped wall-clock profiler.
//
// A Profiler aggregates, per thread, a call tree of named scopes: wall time,
// call counts, self/total splits, per-scope work counters (FLOPs and bytes
// moved, fed by the tensor kernels) and allocation counters (fed by
// tensor::Tensor). snapshot() merges the per-thread trees by name into one
// ProfileSnapshot with a flat per-name view from which achieved GFLOP/s and
// arithmetic intensity fall out — the roofline inputs.
//
// Layering follows the rest of src/obs: the profiler is opt-in through
// Telemetry (enable_profiler()), and a run only records anything while a
// profiler is *installed* as the process-wide sink (the driver installs the
// telemetry's profiler for the duration of run() via ProfilerInstallGuard).
// The install indirection exists because the hot layers — tensor kernels,
// nn::Graph, nn::fit — sit below SearchConfig and cannot see a telemetry
// pointer; they consult one relaxed atomic instead. With no profiler
// installed, NCNAS_PROF_SCOPE is one atomic load and a branch: results stay
// bit-identical and config_fingerprint() never includes profiling state
// (same contract as the rest of Telemetry).
//
// Scopes are strictly nested per thread (RAII); a scope opened on a pool
// worker roots at that worker's tree, so the kernel time of a training run
// on a driver-pool worker appears under that worker's thread, not under the
// scope that submitted it. The flat view aggregates by name across all paths and threads,
// which is what the per-kernel totals are read from.
#pragma once

#include <atomic>
#include <cstdint>
#include <iosfwd>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

namespace ncnas::obs {

struct JournalEvent;  // journal.hpp; only eval_wall_gap reads events

/// One merged call-tree node. self_ms is derived at snapshot time as
/// total_ms minus the sum of the children's total_ms (clamped at zero).
struct ProfileNode {
  std::string name;
  std::uint64_t calls = 0;
  double total_ms = 0.0;
  double self_ms = 0.0;
  double flops = 0.0;
  double bytes_moved = 0.0;
  std::uint64_t alloc_count = 0;
  std::uint64_t alloc_bytes = 0;
  std::vector<ProfileNode> children;
};

/// Per-name aggregate over every path and thread of the merged tree.
struct FlatProfileEntry {
  std::string name;
  std::uint64_t calls = 0;
  double total_ms = 0.0;
  double self_ms = 0.0;
  double flops = 0.0;
  double bytes_moved = 0.0;
  std::uint64_t alloc_count = 0;
  std::uint64_t alloc_bytes = 0;

  /// Achieved GFLOP/s over self time; 0 when either side is zero.
  [[nodiscard]] double gflops() const noexcept {
    return (flops > 0.0 && self_ms > 0.0) ? flops / (self_ms * 1e6) : 0.0;
  }
  /// FLOPs per byte moved; 0 when no bytes were accounted.
  [[nodiscard]] double arithmetic_intensity() const noexcept {
    return (flops > 0.0 && bytes_moved > 0.0) ? flops / bytes_moved : 0.0;
  }
};

/// Schema version stamped into export_json / parsed by import_profile_json.
inline constexpr int kProfileSchemaVersion = 1;

struct ProfileSnapshot {
  std::vector<ProfileNode> roots;  ///< merged across threads, by name per level
  std::uint64_t threads_merged = 0;

  [[nodiscard]] bool empty() const noexcept { return roots.empty(); }
  /// Flat per-name aggregation, sorted by self_ms descending.
  [[nodiscard]] std::vector<FlatProfileEntry> flat() const;
  /// Human-readable tree + flat table + roofline columns.
  void export_text(std::ostream& os) const;
  /// JSON document: schema_version, threads_merged, and the flat records
  /// (one per line, for diffable artifacts).
  void export_json(std::ostream& os) const;
};

/// Parsed form of export_json — enough for perf_diff and run_report, which
/// only need the flat records.
struct ImportedProfile {
  int schema_version = 0;
  std::uint64_t threads_merged = 0;
  std::vector<FlatProfileEntry> flat;
};

/// Parses a document written by ProfileSnapshot::export_json. Throws
/// std::runtime_error on a malformed or wrong-schema document.
ImportedProfile import_profile_json(std::istream& is);

/// The profiler's eval wall time against the journal's. The eval/train and
/// eval/validate scopes bracket the region each eval_finished event's
/// train_wall_ms stopwatch measures, so artifacts of one run agree up to
/// scope overhead and trainings no eval_finished reports.
struct EvalWallGap {
  double profile_ms = 0.0;  ///< total_ms of eval/train + eval/validate
  double journal_ms = 0.0;  ///< sum of eval_finished train_wall_ms
  /// |profile_ms - journal_ms| / journal_ms; 1 when only the profile saw
  /// eval time, 0 when neither did.
  double rel = 0.0;
  bool saw_eval_scopes = false;  ///< false: the run was not profiled
};
[[nodiscard]] EvalWallGap eval_wall_gap(const std::vector<FlatProfileEntry>& flat,
                                        const std::vector<JournalEvent>& events);

class Profiler {
 public:
  Profiler();
  ~Profiler();
  Profiler(const Profiler&) = delete;
  Profiler& operator=(const Profiler&) = delete;

  /// Merges all per-thread trees (safe to call while scopes are running on
  /// other threads; open scopes contribute their completed calls only).
  [[nodiscard]] ProfileSnapshot snapshot() const;

  /// Drops all recorded trees. Not safe concurrently with open scopes.
  void reset();

 private:
  struct ThreadTree;

  ThreadTree* tree_for_current_thread();
  ThreadTree* begin_scope(std::string_view name);
  static void end_scope(ThreadTree* tree, std::uint64_t elapsed_ns, double flops, double bytes);
  static void add_work(ThreadTree* tree, double flops, double bytes);
  static void add_alloc(ThreadTree* tree, std::uint64_t bytes);

  const std::uint64_t epoch_;  // unique per instance; keys the TLS tree cache
  struct Registry;
  std::unique_ptr<Registry> reg_;

  friend class ProfileScope;
  friend void profile_work(double, double) noexcept;
  friend void profile_alloc(std::uint64_t) noexcept;
};

namespace detail {
extern std::atomic<Profiler*> g_profiler;
}  // namespace detail

/// The currently installed process-wide sink; null when profiling is off.
[[nodiscard]] inline Profiler* current_profiler() noexcept {
  return detail::g_profiler.load(std::memory_order_acquire);
}
[[nodiscard]] inline bool profiling_enabled() noexcept { return current_profiler() != nullptr; }

/// RAII install of a profiler as the process-wide sink, restoring the
/// previous sink on destruction. A null argument is a no-op guard (the
/// driver passes telemetry->profiler() verbatim, enabled or not). The
/// profiler must outlive the guard and any scope begun while installed.
class ProfilerInstallGuard {
 public:
  explicit ProfilerInstallGuard(Profiler* p) noexcept : active_(p != nullptr) {
    if (active_) prev_ = detail::g_profiler.exchange(p, std::memory_order_acq_rel);
  }
  ~ProfilerInstallGuard() {
    if (active_) detail::g_profiler.store(prev_, std::memory_order_release);
  }
  ProfilerInstallGuard(const ProfilerInstallGuard&) = delete;
  ProfilerInstallGuard& operator=(const ProfilerInstallGuard&) = delete;

 private:
  Profiler* prev_ = nullptr;
  bool active_;
};

/// RAII scope. With no profiler installed (or an empty name) the constructor
/// is one relaxed atomic load and the destructor a null check. The name is
/// only read during construction, so a temporary is fine.
class ProfileScope {
 public:
  explicit ProfileScope(std::string_view name) noexcept;
  ~ProfileScope();
  ProfileScope(const ProfileScope&) = delete;
  ProfileScope& operator=(const ProfileScope&) = delete;

  /// Accumulates work onto this scope, folded in at scope exit under the
  /// same lock as the timing update. No-op when the scope is disabled.
  void add_work(double flops, double bytes) noexcept {
    flops_ += flops;
    bytes_ += bytes;
  }

 private:
  void* tree_ = nullptr;  // Profiler::ThreadTree*, null when disabled
  std::uint64_t start_ns_ = 0;
  double flops_ = 0.0;
  double bytes_ = 0.0;
};

/// Attributes work to the innermost open scope of the calling thread (the
/// thread root when none is open). No-op when profiling is off.
void profile_work(double flops, double bytes) noexcept;

/// Attributes one allocation of `bytes` to the innermost open scope of the
/// calling thread. No-op when profiling is off.
void profile_alloc(std::uint64_t bytes) noexcept;

// NCNAS_PROF_SCOPE("phase") — drop-in scope statement; the double expansion
// gives each use a unique variable name per line.
#define NCNAS_PROF_CAT2(a, b) a##b
#define NCNAS_PROF_CAT(a, b) NCNAS_PROF_CAT2(a, b)
#define NCNAS_PROF_SCOPE(name) \
  ::ncnas::obs::ProfileScope NCNAS_PROF_CAT(ncnas_prof_scope_, __LINE__)(name)

}  // namespace ncnas::obs
