// The benchmark's four workloads and one timed repetition of each.
//
// A workload is a search space, a synthetic dataset and one or more tenant
// search configs, all made from the workload seed. Driver workloads run one
// SearchDriver; serve-3tenant runs three tenants on a SearchServer. Every
// repetition uses one ThreadPool of min(4, nproc) threads and the library's
// default kernel policy, with no telemetry attached.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "ncnas/data/dataset.hpp"
#include "ncnas/nas/driver.hpp"
#include "ncnas/obs/journal.hpp"
#include "ncnas/space/search_space.hpp"
#include "spans.hpp"

namespace bench {

/// The seed each workload was designed and pinned at.
inline constexpr std::uint64_t kDefaultSeed = 7;

struct TenantDef {
  std::string name;
  ncnas::nas::SearchConfig config;
  double priority = 1.0;
};

struct Workload {
  std::string name;
  bool serve = false;
  ncnas::space::SearchSpace space;
  ncnas::data::Dataset dataset;
  std::vector<TenantDef> tenants;  ///< exactly one for driver workloads
};

/// Throws std::invalid_argument for an unknown name.
[[nodiscard]] Workload make_workload(const std::string& name, std::uint64_t seed);

/// What one repetition measured and produced.
struct RunOutcome {
  double setup_s = 0.0;   ///< process start to the first run()/step() call
  double wall_s = 0.0;    ///< SearchDriver::run, or every SearchServer::step
  double cpu_s = 0.0;     ///< user+sys of the process over the run
  std::vector<double> round_s;  ///< wall time of each SearchServer::step
  std::vector<ncnas::nas::SearchResult> results;            ///< one per tenant
  std::vector<std::vector<ncnas::obs::JournalEvent>> journals;  ///< serve only
  std::size_t preemptions = 0;
};

/// Builds the driver or server for `w` and runs it to completion. `spans`,
/// when non-null, receives one span around SearchDriver::run or around each
/// SearchServer::step. `state_dir` holds serve checkpoints. With
/// `setup_only` it returns once set-up is measured, without searching.
[[nodiscard]] RunOutcome run_workload(const Workload& w, Clock::time_point process_start,
                                      const std::string& state_dir, Spans* spans,
                                      bool setup_only);

/// FNV-1a 64 over every record's time, reward bits, agent, cache_hit and
/// arch, tenant after tenant.
[[nodiscard]] std::uint64_t result_digest(const std::vector<ncnas::nas::SearchResult>& results);

/// Records served from a cache. (SearchResult::cache_hits also counts hits
/// the deadline dropped from `evals`.)
[[nodiscard]] std::size_t cache_hit_records(const ncnas::nas::SearchResult& r);

/// Records that cost a real training: not cache hits, or for a ladder run
/// the rung trainings it ran.
[[nodiscard]] std::size_t real_trainings(const ncnas::nas::SearchResult& r);

/// Internal-consistency checks on a finished repetition; returns one message
/// per failed check.
[[nodiscard]] std::vector<std::string> check_outcome(const Workload& w, const RunOutcome& out);

/// Mean reward of SearchResult::top_k(10), averaged over the tenants.
[[nodiscard]] double top10_reward(const std::vector<ncnas::nas::SearchResult>& results);

/// Peak resident set of this process, MiB.
[[nodiscard]] double peak_rss_mb();

/// Pool threads every repetition uses: min(4, nproc).
[[nodiscard]] std::size_t pool_threads();

}  // namespace bench
