#include "ncnas/nas/result_io.hpp"

#include <filesystem>
#include <fstream>
#include <iomanip>
#include <sstream>

namespace ncnas::nas {

namespace {
// v3: lazy layers own their init seed (weight values changed). The stats
// header line carries an optional trailing telemetry-enabled flag (written
// since the obs subsystem landed), optional fault counters (since the
// fault-injection harness landed), and optional checkpoint/resume counters
// (since the ckpt subsystem landed); each eval line carries optional
// trailing failed/attempts fields. The reader tolerates the absence of any
// of them, so v3 logs from before each addition still load.
constexpr const char* kMagic = "ncnas-search-log-v3";

/// Reads the two header lines; the fingerprint, or nullopt for a foreign file.
std::optional<std::string> read_header(std::istream& in) {
  std::string magic, fp;
  std::getline(in, magic);
  std::getline(in, fp);
  if (magic != kMagic) return std::nullopt;
  return fp;
}
}

void save_result(const std::string& path, const SearchResult& result,
                 const std::string& fingerprint) {
  std::ofstream out(path);
  if (!out) throw std::runtime_error("save_result: cannot open " + path);
  // Shortest-round-trip precision: the text form preserves every double and
  // float bit-exactly, so a log saved by a resumed process can be diffed
  // against the uninterrupted run's log byte-for-byte (the kill-and-resume
  // verification in CI does exactly that).
  out << std::setprecision(17);
  out << kMagic << '\n' << fingerprint << '\n';
  out << result.end_time << ' ' << result.converged_early << ' ' << result.cache_hits << ' '
      << result.timeouts << ' ' << result.unique_archs << ' ' << result.ppo_updates << ' '
      << result.utilization_bucket << ' ' << result.telemetry_enabled << ' ' << result.retries
      << ' ' << result.exhausted << ' ' << result.lost_results << ' '
      << result.crashed_workers << ' ' << result.dead_agents << ' '
      << result.checkpoints_written << ' ' << result.resumes << ' '
      << result.shared_cache_hits << ' ' << result.ladder_trainings << ' '
      << result.ladder_promotions << ' ' << result.ladder_warm_starts << ' '
      << result.ladder_rung_hits << '\n';
  out << result.utilization.size();
  for (double u : result.utilization) out << ' ' << u;
  out << '\n' << result.evals.size() << '\n';
  for (const EvalRecord& e : result.evals) {
    out << e.time << ' ' << e.reward << ' ' << e.params << ' ' << e.sim_duration << ' '
        << e.cache_hit << ' ' << e.timed_out << ' ' << e.agent;
    out << ' ' << e.arch.size();
    for (std::uint16_t a : e.arch) out << ' ' << a;
    out << ' ' << e.failed << ' ' << e.attempts << ' ' << e.shared_hit << ' ' << e.rung << '\n';
  }
  if (!out) throw std::runtime_error("save_result: write failed for " + path);
}

std::optional<std::string> read_fingerprint(const std::string& path) {
  std::ifstream in(path);
  if (!in) return std::nullopt;
  return read_header(in);
}

std::optional<SearchResult> load_result(const std::string& path,
                                        const std::string& fingerprint) {
  std::ifstream in(path);
  if (!in || read_header(in) != fingerprint) return std::nullopt;

  SearchResult res;
  std::size_t util_count = 0, eval_count = 0;
  {
    // The stats line is parsed as a whole line so the optional trailing
    // telemetry flag can't be confused with the utilization count below.
    std::string stats_line;
    std::getline(in, stats_line);
    std::istringstream stats(stats_line);
    stats >> res.end_time >> res.converged_early >> res.cache_hits >> res.timeouts >>
        res.unique_archs >> res.ppo_updates >> res.utilization_bucket;
    if (!stats) return std::nullopt;
    if (!(stats >> res.telemetry_enabled)) res.telemetry_enabled = false;
    // Optional fault counters (absent in pre-fault logs; the fields
    // zero-initialize, and once one read fails the rest stay at zero),
    // then optional checkpoint/resume counters (absent in pre-ckpt logs).
    stats >> res.retries >> res.exhausted >> res.lost_results >> res.crashed_workers >>
        res.dead_agents >> res.checkpoints_written >> res.resumes;
    // Optional shared-cache hit counter (absent in pre-serve logs), then
    // optional fidelity-ladder counters (absent in pre-ladder logs).
    stats >> res.shared_cache_hits;
    stats >> res.ladder_trainings >> res.ladder_promotions >> res.ladder_warm_starts >>
        res.ladder_rung_hits;
  }
  // Counts are trusted only as far as the values behind them parse: every
  // container grows one parsed value at a time, so a corrupt count ends in
  // nullopt at the first missing value instead of sizing anything up front.
  in >> util_count;
  double u = 0.0;
  for (std::size_t i = 0; i < util_count && in >> u; ++i) res.utilization.push_back(u);
  in >> eval_count;
  {
    std::string rest;
    std::getline(in, rest);  // consume the remainder of the count line
  }
  if (!in) return std::nullopt;
  // Eval records are parsed line-wise so the optional trailing failed /
  // attempts fields of fault-era logs can't bleed into the next record.
  for (std::size_t i = 0; i < eval_count; ++i) {
    std::string line;
    if (!std::getline(in, line)) return std::nullopt;
    std::istringstream es(line);
    EvalRecord& e = res.evals.emplace_back();
    std::size_t arch_len = 0;
    es >> e.time >> e.reward >> e.params >> e.sim_duration >> e.cache_hit >> e.timed_out >>
        e.agent >> arch_len;
    unsigned v = 0;
    for (std::size_t k = 0; k < arch_len && es >> v; ++k) {
      e.arch.push_back(static_cast<std::uint16_t>(v));
    }
    if (!es) return std::nullopt;  // truncated / corrupt record
    unsigned failed = 0;
    if (es >> failed) {
      e.failed = failed != 0;
      if (!(es >> e.attempts)) e.attempts = 1;
      unsigned shared = 0;
      if (es >> shared) e.shared_hit = shared != 0;  // optional (post-serve logs)
      unsigned rung = 0;
      if (es >> rung) e.rung = rung;  // optional (post-ladder logs)
    }
  }
  return res;
}

SearchResult run_or_load(const std::string& dir, const std::string& tag,
                         const std::string& fingerprint,
                         const std::function<SearchResult()>& run) {
  std::filesystem::create_directories(dir);
  const std::string path = dir + "/" + tag + ".log";
  if (auto cached = load_result(path, fingerprint)) return std::move(*cached);
  SearchResult res = run();
  save_result(path, res, fingerprint);
  return res;
}

std::string config_fingerprint(const SearchConfig& cfg, const std::string& space_name) {
  std::ostringstream os;
  os << space_name << '|' << strategy_name(cfg.strategy) << '|' << cfg.cluster.num_agents << 'x'
     << cfg.cluster.workers_per_agent << '|' << cfg.wall_time_seconds << '|'
     << cfg.fidelity.epochs << ',' << cfg.fidelity.subset_fraction << ','
     << cfg.fidelity.learning_rate << ',' << cfg.fidelity.batch_size << ','
     << cfg.fidelity.valid_fraction << '|' << cfg.cost.startup_seconds << ','
     << cfg.cost.seconds_per_megaunit << ',' << cfg.cost.jitter_frac << ','
     << cfg.cost.timeout_seconds << '|' << cfg.seed << '|' << cfg.batch_per_agent << '|'
     << cfg.agent_overhead_seconds << '|' << cfg.convergence_streak << '|'
     << cfg.max_evaluations << '|' << cfg.async_window << '|' << cfg.use_cache;
  if (cfg.strategy == SearchStrategy::kEvolution) {
    // Appended only for EVO so fingerprints of existing RL/RDM logs stay
    // stable across this addition.
    os << "|evo:" << cfg.evolution.population << ',' << cfg.evolution.tournament;
  }
  if (cfg.faults != nullptr && cfg.faults->enabled()) {
    // Appended only when the plan actually injects something: a null or
    // empty plan leaves the fingerprint — like the results — untouched, and
    // logs from different fault plans never alias.
    os << "|faults:" << cfg.faults->plan().fingerprint();
  }
  if (cfg.shared_cache != nullptr) {
    // A shared cache is result-affecting (hits skip training and worker
    // occupancy), so its presence marks the fingerprint; like the fault
    // marker, a null pointer leaves existing fingerprints untouched. The
    // tenant id is accounting only and deliberately absent.
    os << "|shared_cache:on";
  }
  if (cfg.ladder.enabled()) {
    // An enabled ladder replaces the flat fidelity schedule, so it marks the
    // fingerprint; the default (no rungs) leaves existing fingerprints — and
    // results — untouched.
    os << "|ladder:" << cfg.ladder.fingerprint();
  }
  return os.str();
}

}  // namespace ncnas::nas
