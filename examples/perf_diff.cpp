// perf_diff — baseline-compare tool for the two perf artifacts the repo
// produces:
//
//   bench JSON    BENCH_kernels.json written by bench/bench_kernels
//                 (records keyed op/size/config, or op/MxKxN/config for a
//                 record with a "shape", higher is better; metric =
//                 speedup_vs_ref for a record whose sweep has a "ref" row at
//                 its op/size or shape, else GFLOP/s)
//   profile JSON  written by Telemetry::export_profile_json or
//                 examples/telemetry_dump (records keyed by scope name,
//                 metric = self ms, lower is better)
//
//   ./examples/perf_diff <baseline.json> <current.json> \
//       [--threshold 0.15] [--fail-on-regress] [--match SUBSTR]...
//
// The file kind is auto-detected (both inputs must be the same kind) and
// every record present on both sides is compared; relative deltas beyond the
// threshold are flagged. --match (repeatable) restricts the comparison to
// records whose key contains any given substring — e.g. `--match gemm/
// --match gemm_nt/` gates CI on just the gemm families while the rest of
// the table stays informational. The default mode is informational — it always exits
// 0 so CI can surface regressions without failing the build; --fail-on-regress
// turns flagged regressions into exit code 1. Profile self-times are only
// comparable between runs of the same workload on the same machine. A bench
// record's speedup_vs_ref divides its GFLOP/s by the reference kernel's,
// measured in the same sweep, so a host that is uniformly slower cancels out
// of it; the ratio still depends on the host's instruction set and caches,
// which absolute GFLOP/s depends on as well.
#include <algorithm>
#include <cmath>
#include <fstream>
#include <iomanip>
#include <iostream>
#include <map>
#include <set>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "ncnas/obs/json.hpp"
#include "ncnas/obs/profiler.hpp"

namespace {

enum class Kind { kUnknown, kBench, kProfile };

struct Record {
  double value = 0.0;
  bool higher_is_better = true;
};

Kind detect_kind(const std::string& content) {
  if (content.find("\"op\":") != std::string::npos) return Kind::kBench;
  if (content.find("\"self_ms\":") != std::string::npos) return Kind::kProfile;
  return Kind::kUnknown;
}

std::map<std::string, Record> load_bench(const std::string& content) {
  const ncnas::obs::JsonValue doc = ncnas::obs::parse_json(content, "bench json");
  const ncnas::obs::JsonValue* records = doc.find("records");
  if (records == nullptr || !records->is_array()) {
    throw std::runtime_error("bench json: no records array");
  }
  struct Row {
    std::string key;  // op/size or op/shape, without the config
    std::string config;
    double gflops = 0.0;
    double speedup = 0.0;
    bool has_speedup = false;
  };
  std::vector<Row> rows;
  std::set<std::string> has_ref;  // keys with a "ref" row in this sweep
  for (const ncnas::obs::JsonValue& r : records->array) {
    Row row;
    long long size = 0;
    std::string op, shape;
    const bool keyed = r.get("size", size) || r.get("shape", shape);
    if (!r.get("op", op) || !keyed || !r.get("config", row.config) ||
        !r.get("gflops", row.gflops)) {
      throw std::runtime_error("bench json: record without op, size or shape, config or gflops");
    }
    row.key = op + "/" + (shape.empty() ? std::to_string(size) : shape);
    row.has_speedup = r.get("speedup_vs_ref", row.speedup);
    if (row.config == "ref") has_ref.insert(row.key);
    rows.push_back(std::move(row));
  }
  // A record measured against a reference row of its own sweep compares its
  // speedup over that row; every other record, the reference rows included,
  // compares its GFLOP/s.
  std::map<std::string, Record> out;
  for (const Row& row : rows) {
    const bool vs_ref = row.config != "ref" && row.has_speedup && has_ref.count(row.key) != 0;
    out[row.key + "/" + row.config] = {vs_ref ? row.speedup : row.gflops,
                                       /*higher_is_better=*/true};
  }
  return out;
}

std::map<std::string, Record> load_profile(const std::string& content) {
  std::istringstream is(content);
  const ncnas::obs::ImportedProfile prof = ncnas::obs::import_profile_json(is);
  std::map<std::string, Record> out;
  for (const ncnas::obs::FlatProfileEntry& e : prof.flat) {
    out[e.name] = {e.self_ms, /*higher_is_better=*/false};
  }
  return out;
}

std::string fmt(double v) {
  std::ostringstream os;
  os << std::fixed << std::setprecision(3) << v;
  return os.str();
}

}  // namespace

int main(int argc, char** argv) {
  std::vector<std::string> paths;
  std::vector<std::string> matches;
  double threshold = 0.15;
  bool fail_on_regress = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--threshold") {
      if (i + 1 >= argc) {
        std::cerr << "--threshold needs a value\n";
        return 2;
      }
      threshold = std::stod(argv[++i]);
    } else if (arg == "--match") {
      if (i + 1 >= argc) {
        std::cerr << "--match needs a substring\n";
        return 2;
      }
      matches.push_back(argv[++i]);
    } else if (arg == "--fail-on-regress") {
      fail_on_regress = true;
    } else {
      paths.push_back(arg);
    }
  }
  if (paths.size() != 2) {
    std::cerr << "usage: perf_diff <baseline.json> <current.json> [--threshold 0.15]"
                 " [--fail-on-regress] [--match SUBSTR]...\n";
    return 2;
  }
  const auto matched = [&matches](const std::string& key) {
    if (matches.empty()) return true;
    return std::any_of(matches.begin(), matches.end(),
                       [&key](const std::string& m) { return key.find(m) != std::string::npos; });
  };

  std::string contents[2];
  for (int i = 0; i < 2; ++i) {
    std::ifstream in(paths[i]);
    if (!in) {
      std::cerr << "cannot open " << paths[i] << "\n";
      return 2;
    }
    std::ostringstream buf;
    buf << in.rdbuf();
    contents[i] = buf.str();
  }
  const Kind kind = detect_kind(contents[0]);
  if (kind == Kind::kUnknown || detect_kind(contents[1]) != kind) {
    std::cerr << "inputs must both be bench JSON or both be profile JSON\n";
    return 2;
  }

  std::map<std::string, Record> base, cur;
  try {
    base = kind == Kind::kBench ? load_bench(contents[0]) : load_profile(contents[0]);
    cur = kind == Kind::kBench ? load_bench(contents[1]) : load_profile(contents[1]);
  } catch (const std::exception& e) {
    std::cerr << e.what() << "\n";
    return 2;
  }

  const char* metric = kind == Kind::kBench ? "speedup_vs_ref (blocked rows), else GFLOP/s" : "self_ms";
  std::cout << "perf_diff (" << (kind == Kind::kBench ? "bench" : "profile") << ", metric "
            << metric << ", threshold " << fmt(100.0 * threshold) << "%)\n";
  std::cout << "  baseline: " << paths[0] << " (" << base.size() << " records)\n";
  std::cout << "  current:  " << paths[1] << " (" << cur.size() << " records)\n";
  if (!matches.empty()) {
    std::cout << "  match:   ";
    for (const std::string& m : matches) std::cout << " \"" << m << "\"";
    std::cout << "\n";
  }
  std::cout << "\n";

  std::size_t regressions = 0, improvements = 0, compared = 0, added = 0, removed = 0;
  std::cout << std::left << std::setw(34) << "record" << std::right << std::setw(12)
            << "baseline" << std::setw(12) << "current" << std::setw(10) << "delta"
            << "  verdict\n";
  for (const auto& [key, b] : base) {
    if (!matched(key)) continue;
    const auto it = cur.find(key);
    if (it == cur.end()) {
      ++removed;
      continue;
    }
    ++compared;
    const Record& c = it->second;
    const double delta = b.value != 0.0 ? (c.value - b.value) / std::abs(b.value) : 0.0;
    const bool worse = b.higher_is_better ? delta < -threshold : delta > threshold;
    const bool better = b.higher_is_better ? delta > threshold : delta < -threshold;
    regressions += worse;
    improvements += better;
    const char* verdict = worse ? "REGRESSED" : (better ? "improved" : "ok");
    std::cout << std::left << std::setw(34) << key << std::right << std::setw(12)
              << fmt(b.value) << std::setw(12) << fmt(c.value) << std::setw(9)
              << fmt(100.0 * delta) << "%  " << verdict << "\n";
  }
  for (const auto& [key, c] : cur) {
    added += matched(key) && base.find(key) == base.end();
  }

  std::cout << "\n"
            << compared << " compared: " << regressions << " regressed beyond threshold, "
            << improvements << " improved, " << compared - regressions - improvements
            << " within threshold";
  if (added + removed > 0) {
    std::cout << " (" << added << " only in current, " << removed << " only in baseline)";
  }
  std::cout << "\n";
  if (regressions > 0 && !fail_on_regress) {
    std::cout << "informational mode: regressions reported but exit code stays 0\n";
  }
  return (fail_on_regress && regressions > 0) ? 1 : 0;
}
