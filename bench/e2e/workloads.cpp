#include "workloads.hpp"

#include <sys/resource.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <filesystem>
#include <stdexcept>
#include <thread>

#include "ncnas/exec/fidelity_ladder.hpp"
#include "ncnas/serve/server.hpp"
#include "ncnas/space/spaces.hpp"

namespace bench {

namespace nas = ncnas::nas;

namespace {

// One cost model for every workload: 20 s start-up, 1 s per million
// parameter-samples, the paper's 10-minute timeout.
const ncnas::exec::CostModel kCost{
    .startup_seconds = 20.0, .seconds_per_megaunit = 1.0, .timeout_seconds = 600.0};

nas::SearchConfig base_config(nas::SearchStrategy strategy, std::size_t agents,
                              std::size_t workers, double minutes, std::uint64_t seed) {
  nas::SearchConfig c;
  c.strategy = strategy;
  c.cluster = {.num_agents = agents, .workers_per_agent = workers};
  c.wall_time_seconds = minutes * 60.0;
  c.cost = kCost;
  c.seed = seed;
  return c;
}

ncnas::data::Dataset combo_data() {
  return ncnas::data::make_combo(1, {.train = 512, .valid = 128});
}

ncnas::data::Dataset nt3_data() {
  return ncnas::data::make_nt3(5, {.train = 64, .valid = 32, .length = 64, .motif = 6});
}

double seconds_of(const timeval& tv) {
  return static_cast<double>(tv.tv_sec) + static_cast<double>(tv.tv_usec) * 1e-6;
}

double process_cpu_s() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return seconds_of(ru.ru_utime) + seconds_of(ru.ru_stime);
}

}  // namespace

Workload make_workload(const std::string& name, std::uint64_t seed) {
  using S = nas::SearchStrategy;
  if (name == "combo-a2c") {
    nas::SearchConfig c = base_config(S::kA2C, 4, 4, 9, seed);
    c.fidelity = {.epochs = 1, .subset_fraction = 0.5};
    return {name, false, ncnas::space::combo_small_space(), combo_data(), {{"combo", c}}};
  }
  if (name == "nt3-a3c") {
    nas::SearchConfig c = base_config(S::kA3C, 16, 1, 15, seed);
    c.fidelity = {.epochs = 1, .subset_fraction = 1.0};
    return {name, false, ncnas::space::nt3_small_space(), nt3_data(), {{"nt3", c}}};
  }
  if (name == "combo-ladder") {
    nas::SearchConfig c = base_config(S::kA3C, 4, 4, 9, seed);
    c.fidelity = {.epochs = 1, .subset_fraction = 0.5};
    c.ladder = ncnas::exec::make_geometric_ladder({.epochs = 4, .subset_fraction = 0.5}, 3, 2);
    return {name, false, ncnas::space::combo_small_space(), combo_data(), {{"ladder", c}}};
  }
  if (name == "serve-3tenant") {
    // examples/serve_nas without its two admission rejections: one 12-slot
    // gang, so every round preempts somebody; bob and carol share a seed,
    // so some of their work is served from the shared cache. Unlike the driver
    // workloads it keeps its full length: a snapshot holds the records so
    // far, so checkpoint cost grows faster than the search (2.6 % of the
    // wall at 30 minutes, 10 % at 300).
    const auto tenant = [&](std::string who, S strategy, std::uint64_t s, double priority) {
      nas::SearchConfig c = base_config(strategy, 3, 4, 300, s);
      c.fidelity = {.epochs = 1, .subset_fraction = 1.0};
      return TenantDef{std::move(who), c, priority};
    };
    return {name,
            true,
            ncnas::space::nt3_small_space(),
            nt3_data(),
            {tenant("alice", S::kA3C, seed, 2.0), tenant("bob", S::kRandom, seed + 4, 1.0),
             tenant("carol", S::kRandom, seed + 4, 1.0)}};
  }
  throw std::invalid_argument("unknown workload '" + name + "'");
}

std::size_t pool_threads() {
  return std::clamp<std::size_t>(std::thread::hardware_concurrency(), 1, 4);
}

RunOutcome run_workload(const Workload& w, Clock::time_point process_start,
                        const std::string& state_dir, Spans* spans, bool setup_only) {
  RunOutcome out;
  ncnas::tensor::ThreadPool pool(pool_threads());
  if (!w.serve) {
    nas::SearchDriver driver(w.space, w.dataset, w.tenants.front().config, &pool);
    out.setup_s = seconds_since(process_start);
    if (setup_only) return out;
    const double cpu0 = process_cpu_s();
    out.wall_s = timed(spans, "nas.run", [&] { out.results.push_back(driver.run()); });
    out.cpu_s = process_cpu_s() - cpu0;
    return out;
  }

  std::filesystem::remove_all(state_dir);
  ncnas::exec::SharedEvalCache shared;
  ncnas::serve::ServeConfig cfg;
  cfg.total_slots = w.tenants.front().config.cluster.total_workers();
  cfg.quantum_seconds = 120.0;
  cfg.max_tenants = w.tenants.size();
  cfg.state_dir = state_dir;
  cfg.shared_cache = &shared;
  cfg.pool = &pool;
  ncnas::serve::SearchServer server(cfg);
  std::vector<std::uint32_t> ids;
  for (const TenantDef& t : w.tenants) {
    ncnas::serve::TenantSpec spec;
    spec.name = t.name;
    spec.space = &w.space;
    spec.dataset = &w.dataset;
    spec.config = t.config;
    spec.priority = t.priority;
    ids.push_back(server.submit(std::move(spec)));
  }
  out.setup_s = seconds_since(process_start);
  if (setup_only) return out;
  const double cpu0 = process_cpu_s();
  bool more = true;
  while (more) {
    out.round_s.push_back(timed(spans, "serve.step", [&] { more = server.step(); }));
    out.wall_s += out.round_s.back();
  }
  out.cpu_s = process_cpu_s() - cpu0;
  for (const std::uint32_t id : ids) {
    out.results.push_back(server.result(id));
    out.journals.push_back(server.journal(id));
    out.preemptions += server.session(id).preemptions();
  }
  return out;
}

std::uint64_t result_digest(const std::vector<nas::SearchResult>& results) {
  std::uint64_t h = 0xcbf29ce484222325ull;
  const auto mix = [&h](std::uint64_t v, int bytes) {
    for (int i = 0; i < bytes; ++i) {
      h ^= (v >> (8 * i)) & 0xffu;
      h *= 0x100000001b3ull;
    }
  };
  for (const nas::SearchResult& r : results) {
    for (const nas::EvalRecord& rec : r.evals) {
      mix(std::bit_cast<std::uint64_t>(rec.time), 8);
      mix(std::bit_cast<std::uint32_t>(rec.reward), 4);
      mix(rec.agent, 8);
      mix(rec.cache_hit ? 1 : 0, 1);
      mix(rec.arch.size(), 8);
      for (const std::uint16_t a : rec.arch) mix(a, 2);
    }
  }
  return h;
}

std::size_t cache_hit_records(const nas::SearchResult& r) {
  return static_cast<std::size_t>(
      std::ranges::count_if(r.evals, [](const nas::EvalRecord& e) { return e.cache_hit; }));
}

std::size_t real_trainings(const nas::SearchResult& r) {
  if (r.ladder_trainings != 0) return r.ladder_trainings;
  return r.evals.size() - cache_hit_records(r);
}

std::vector<std::string> check_outcome(const Workload& w, const RunOutcome& out) {
  std::vector<std::string> bad;
  if (out.results.size() != w.tenants.size()) {
    bad.push_back("expected one result per tenant");
    return bad;
  }
  for (std::size_t i = 0; i < out.results.size(); ++i) {
    const nas::SearchResult& r = out.results[i];
    const std::string who = w.tenants[i].name + ": ";
    for (const nas::EvalRecord& rec : r.evals) {
      if (!std::isfinite(rec.reward)) bad.push_back(who + "non-finite reward");
      if (rec.failed) bad.push_back(who + "failed evaluation on a fault-free run");
    }
    // SearchResult's cache_hits, shared_cache_hits and timeouts also count
    // records the deadline later drops, so the checks use the records.
    const std::size_t hits = cache_hit_records(r);
    if (r.evals.empty()) bad.push_back(who + "no evaluations");
    if (r.top_k(10).empty()) bad.push_back(who + "empty top-10");
    if (w.tenants[i].config.ladder.enabled() && r.ladder_trainings < r.evals.size() - hits) {
      bad.push_back(who + "fewer rung trainings than real records");
    }
    if (w.serve) {
      const ncnas::obs::RunSummary sum = ncnas::obs::summarize_journal(out.journals[i]);
      if (sum.evals != r.evals.size() || sum.cache_hits != hits) {
        bad.push_back(who + "journal summary disagrees with the SearchResult records");
      }
    }
  }
  if (real_trainings(out.results.front()) == 0) bad.push_back("no real trainings");
  return bad;
}

double top10_reward(const std::vector<nas::SearchResult>& results) {
  double sum = 0.0;
  for (const nas::SearchResult& r : results) {
    const std::vector<nas::EvalRecord> top = r.top_k(10);
    double tenant = 0.0;
    for (const nas::EvalRecord& rec : top) tenant += rec.reward;
    sum += top.empty() ? 0.0 : tenant / static_cast<double>(top.size());
  }
  return results.empty() ? 0.0 : sum / static_cast<double>(results.size());
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // Linux reports KiB
}

}  // namespace bench
