// serve_nas — NAS-as-a-service demo: one SearchServer hosting several
// tenants over a shared evaluation-slot pool, with fair-share scheduling,
// preemption by pausing each live search, and a cross-tenant evaluation cache.
//
//   ./examples/serve_nas [--serve <port>] [--linger <s>] [--quantum <s>]
//                        [--wall <s>] [--state-dir <dir>]
//
// The scripted scenario: three tenants on the NT3 benchmark compete for a
// pool that fits exactly one gang, so every round preempts somebody.
//   alice — A3C, priority 2 (twice bob's/carol's slice share)
//   bob   — random search, priority 1
//   carol — random search with bob's exact seed: every architecture carol
//           samples was already trained by bob (or vice versa), so the
//           SharedEvalCache serves it cross-tenant without retraining
// A fourth submission (an oversized gang) and a fifth (server full) are
// rejected at admission — the backpressure path.
//
// With --serve the server telemetry exposes /metrics (OpenMetrics,
// per-tenant ncnas_tenant_* series), /progress, /healthz, and the /tenants
// JSON endpoint; --linger keeps the HTTP plane up after the run for
// external scrapers (the serve-smoke CI job curls it).
#include <chrono>
#include <filesystem>
#include <iostream>
#include <string>
#include <thread>

#include "ncnas/data/dataset.hpp"
#include "ncnas/obs/telemetry.hpp"
#include "ncnas/serve/server.hpp"
#include "ncnas/space/spaces.hpp"

namespace {

ncnas::data::Dataset tiny_nt3() {
  ncnas::data::Nt3Dims dims;
  dims.train = 64;
  dims.valid = 32;
  dims.length = 64;
  dims.motif = 6;
  return ncnas::data::make_nt3(5, dims);
}

}  // namespace

int main(int argc, char** argv) {
  using namespace ncnas;

  int serve_port = -1;
  double linger_seconds = 0.0;
  double quantum_seconds = 120.0;
  double wall_seconds = 600.0;
  std::string state_dir = "serve_state";
  const auto need = [&](const char* flag, int& i) -> std::string {
    if (i + 1 >= argc) {
      std::cerr << flag << " needs an argument\n";
      std::exit(2);
    }
    return argv[++i];
  };
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--serve") {
      serve_port = std::stoi(need("--serve", i));
    } else if (arg == "--linger") {
      linger_seconds = std::stod(need("--linger", i));
    } else if (arg == "--quantum") {
      quantum_seconds = std::stod(need("--quantum", i));
    } else if (arg == "--wall") {
      wall_seconds = std::stod(need("--wall", i));
    } else if (arg == "--state-dir") {
      state_dir = need("--state-dir", i);
    } else {
      std::cerr << "usage: serve_nas [--serve <port>] [--linger <s>] [--quantum <s>]"
                   " [--wall <s>] [--state-dir <dir>]\n";
      return 2;
    }
  }
  std::filesystem::remove_all(state_dir);

  const space::SearchSpace space = space::nt3_small_space();
  const data::Dataset dataset = tiny_nt3();

  obs::Telemetry telemetry;
  if (serve_port >= 0) {
    obs::ExporterConfig ecfg;
    ecfg.http_port = serve_port;
    telemetry.enable_exporter(std::move(ecfg));
    if (telemetry.exporter()->http_port() > 0) {
      std::cout << "server telemetry on 127.0.0.1:" << telemetry.exporter()->http_port()
                << " (/metrics /progress /healthz /tenants)\n";
    }
  }

  exec::SharedEvalCache shared;
  nas::SearchConfig base;
  base.cluster = {.num_agents = 3, .workers_per_agent = 4};
  base.wall_time_seconds = wall_seconds;
  base.fidelity = {.epochs = 1, .subset_fraction = 1.0};
  base.cost = {.startup_seconds = 20.0, .seconds_per_megaunit = 1.0, .timeout_seconds = 600.0};

  serve::ServeConfig scfg;
  scfg.total_slots = base.cluster.total_workers();  // one gang: every round preempts
  scfg.quantum_seconds = quantum_seconds;
  scfg.max_tenants = 3;
  scfg.state_dir = state_dir;
  scfg.shared_cache = &shared;
  scfg.telemetry = &telemetry;
  serve::SearchServer server(scfg);

  const auto tenant = [&](const std::string& name, nas::SearchStrategy strategy,
                          std::uint64_t seed, double priority) {
    serve::TenantSpec spec;
    spec.name = name;
    spec.space = &space;
    spec.dataset = &dataset;
    spec.config = base;
    spec.config.strategy = strategy;
    spec.config.seed = seed;
    spec.priority = priority;
    return spec;
  };

  const std::uint32_t alice = server.submit(tenant("alice", nas::SearchStrategy::kA3C, 7, 2.0));
  const std::uint32_t bob = server.submit(tenant("bob", nas::SearchStrategy::kRandom, 11, 1.0));
  // carol reuses bob's seed: identical sampling, so her evaluations resolve
  // from the shared cache — trained once, served to both tenants.
  const std::uint32_t carol =
      server.submit(tenant("carol", nas::SearchStrategy::kRandom, 11, 1.0));

  // Admission control: an oversized gang is unschedulable, and with three
  // active tenants the server is full — both submissions bounce.
  try {
    serve::TenantSpec giant = tenant("giant", nas::SearchStrategy::kRandom, 3, 1.0);
    giant.config.cluster = {.num_agents = 8, .workers_per_agent = 8};
    (void)server.submit(std::move(giant));
    std::cerr << "oversized gang was admitted — admission control broken\n";
    return 1;
  } catch (const serve::AdmissionError& e) {
    std::cout << "rejected: " << e.what() << "\n";
  }
  try {
    (void)server.submit(tenant("dave", nas::SearchStrategy::kRandom, 3, 1.0));
    std::cerr << "fourth tenant was admitted past max_tenants — backpressure broken\n";
    return 1;
  } catch (const serve::AdmissionError& e) {
    std::cout << "rejected: " << e.what() << "\n";
  }
  std::cout << "\n";

  while (server.step()) {
    std::cout << "round " << server.rounds() << " (t=" << server.virtual_time() << "s):";
    for (std::uint32_t id : {alice, bob, carol}) {
      const serve::TenantSession& s = server.session(id);
      std::cout << "  " << s.name() << "=" << serve::tenant_state_name(s.state()) << " ("
                << s.slices() << " slices, " << s.summary().evals << " evals, "
                << s.summary().shared_cache_hits << " shared hits)";
    }
    std::cout << "\n";
  }

  std::cout << "\nall tenants done after " << server.rounds() << " rounds\n";
  for (std::uint32_t id : {alice, bob, carol}) {
    const serve::TenantSession& s = server.session(id);
    const nas::SearchResult& r = server.result(id);
    std::cout << s.name() << ": " << r.evals.size() << " evals, " << r.cache_hits
              << " cached (" << r.shared_cache_hits << " shared), best ";
    const auto best = r.best_so_far();
    std::cout << (best.empty() ? 0.0f : best.back().second) << ", " << s.preemptions()
              << " preemption(s)\n";
  }
  const exec::SharedEvalCache::Stats totals = shared.totals();
  std::cout << "shared cache: " << shared.size() << " entries, " << totals.hits << " hits ("
            << totals.cross_tenant_hits << " cross-tenant), " << totals.misses
            << " misses, " << totals.inserts << " inserts\n";
  if (totals.cross_tenant_hits == 0) {
    std::cerr << "expected at least one cross-tenant shared-cache hit\n";
    return 1;
  }
  bool preempted = false;
  for (std::uint32_t id : {alice, bob, carol}) {
    preempted = preempted || server.session(id).preemptions() > 0;
  }
  if (!preempted) {
    std::cerr << "expected at least one preemption on a saturated pool\n";
    return 1;
  }

  std::cout << "\n" << server.tenants_json() << "\n";

  if (telemetry.exporter() != nullptr && linger_seconds > 0.0) {
    std::cout << "lingering " << linger_seconds << "s for live scrapes on port "
              << telemetry.exporter()->http_port() << "...\n"
              << std::flush;
    std::this_thread::sleep_for(std::chrono::duration<double>(linger_seconds));
  }
  return 0;
}
