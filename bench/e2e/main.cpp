// bench_e2e — one repetition of an end-to-end search workload, in its own
// process (a user runs one search per process).
//
//   bench_e2e --workload <name> [--seed S] [--state-dir DIR]
//             [--trace --out DIR | --setup-only]
//
// Prints one JSON object as the last line of stdout. With --trace the run
// carries spans, is followed by the per-layer replay, writes
// <out>/trace_<workload>.json and prints each layer's self time to stderr.
// With --setup-only it reports set-up time and exits without searching.
// bench/e2e/run.py runs the repetitions, checks them and reports medians.
#include <filesystem>
#include <fstream>
#include <iomanip>
#include <iostream>
#include <sstream>
#include <string>
#include <vector>

#include "ncnas/obs/journal.hpp"
#include "ncnas/tensor/kernel_config.hpp"
#include "replay.hpp"
#include "workloads.hpp"

namespace {

// Set during dynamic initialization, before main runs: the closest
// in-process stand-in for process start.
const bench::Clock::time_point g_process_start = bench::Clock::now();

void json_field(std::ostream& os, const char* key, double v) {
  os << ",\"" << key << "\":";
  ncnas::obs::write_json_number(os, v);
}

int usage() {
  std::cerr << "usage: bench_e2e --workload <name> [--seed S] [--state-dir DIR]"
               " [--trace --out DIR | --setup-only]\n";
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  std::string name;
  std::uint64_t seed = bench::kDefaultSeed;
  std::string state_dir = "bench_e2e_state";
  std::string out_dir;
  bool trace = false;
  bool setup_only = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const bool has_value = i + 1 < argc;
    if (arg == "--workload" && has_value) {
      name = argv[++i];
    } else if (arg == "--seed" && has_value) {
      try {
        seed = std::stoull(argv[++i]);
      } catch (const std::exception&) {
        return usage();
      }
    } else if (arg == "--state-dir" && has_value) {
      state_dir = argv[++i];
    } else if (arg == "--out" && has_value) {
      out_dir = argv[++i];
    } else if (arg == "--trace") {
      trace = true;
    } else if (arg == "--setup-only") {
      setup_only = true;
    } else {
      return usage();
    }
  }
  if (name.empty() || (trace && out_dir.empty()) || (trace && setup_only)) return usage();

  try {
    const bench::Workload w = bench::make_workload(name, seed);
    bench::Spans spans;
    const bench::RunOutcome run = bench::run_workload(w, g_process_start, state_dir,
                                                      trace ? &spans : nullptr, setup_only);
    if (setup_only) {
      std::filesystem::remove_all(state_dir);
      std::ostringstream os;
      os << "{\"workload\":";
      ncnas::obs::write_json_string(os, name);
      os << ",\"seed\":" << seed;
      json_field(os, "setup_s", run.setup_s);
      os << ",\"failures\":[]}";
      std::cout << os.str() << std::endl;
      return 0;
    }
    // Read before the replay, whose own allocations must not count.
    const double peak_rss_mb = bench::peak_rss_mb();
    std::vector<std::string> failures = bench::check_outcome(w, run);
    std::vector<bench::Metric> layers;
    if (trace) layers = bench::replay_layers(w, run, state_dir, spans, failures);
    std::filesystem::remove_all(state_dir);

    std::ostringstream os;
    os << "{\"workload\":";
    ncnas::obs::write_json_string(os, name);
    os << ",\"seed\":" << seed << ",\"simd_isa\":";
    ncnas::obs::write_json_string(os, ncnas::tensor::KernelConfig::simd_isa());
    os << ",\"compiler\":";
    ncnas::obs::write_json_string(os, __VERSION__);
    json_field(os, "setup_s", run.setup_s);
    std::size_t evals = 0, real = 0, hits = 0, updates = 0, rungs = 0;
    for (const ncnas::nas::SearchResult& r : run.results) {
      evals += r.evals.size();
      real += bench::real_trainings(r);
      hits += bench::cache_hit_records(r);
      updates += r.ppo_updates;
      rungs += r.ladder_trainings;
    }
    json_field(os, "search_wall_s", run.wall_s);
    json_field(os, "cpu_s", run.cpu_s);
    json_field(os, "peak_rss_mb", peak_rss_mb);
    os << ",\"evals\":" << evals << ",\"real_evals\":" << real << ",\"cache_hits\":" << hits
       << ",\"ppo_updates\":" << updates << ",\"ladder_trainings\":" << rungs
       << ",\"rounds\":" << run.round_s.size() << ",\"digest\":\"" << std::hex << std::setw(16)
       << std::setfill('0') << bench::result_digest(run.results) << std::dec << "\"";
    if (trace) {
      os << ",\"layers\":[";
      for (std::size_t i = 0; i < layers.size(); ++i) {
        os << (i == 0 ? "" : ",") << "{\"name\":";
        ncnas::obs::write_json_string(os, layers[i].name);
        json_field(os, "value", layers[i].value);
        os << ",\"unit\":";
        ncnas::obs::write_json_string(os, layers[i].unit);
        os << ",\"n\":" << layers[i].n << "}";
      }
      os << "]";

      std::filesystem::create_directories(out_dir);
      const std::filesystem::path path =
          std::filesystem::path(out_dir) / ("trace_" + name + ".json");
      std::ofstream f(path);
      spans.write_chrome_trace(f);
      if (!f) failures.push_back("could not write " + path.string());
      std::cerr << "self time by layer (" << spans.size() << " spans, " << path.string() << "):\n";
      for (const auto& [layer, s] : spans.self_seconds_by_layer()) {
        std::cerr << "  " << std::left << std::setw(10) << layer << std::right << std::fixed
                  << std::setprecision(3) << std::setw(10) << s << " s\n";
      }
    }
    os << ",\"failures\":[";
    for (std::size_t i = 0; i < failures.size(); ++i) {
      if (i != 0) os << ",";
      ncnas::obs::write_json_string(os, failures[i]);
    }
    os << "]}";
    std::cout << os.str() << std::endl;
    return failures.empty() ? 0 : 1;
  } catch (const std::exception& e) {
    std::cerr << "bench_e2e: " << e.what() << "\n";
    return 2;
  }
}
