// nas_top — a refresh-in-place terminal dashboard for a live NAS search,
// the `top(1)` of the exporter's telemetry plane. Two data paths:
//
//   HTTP poll (default): GET /progress from a search running with
//   Telemetry::enable_exporter and an http_port, every --interval seconds.
//
//   Journal tail (--journal <file>): re-reads a (live, stream-flushed) JSONL
//   journal and replays it with summarize_journal — works on a finished run
//   too, or over a shared filesystem where no port is reachable.
//
//   ./examples/nas_top [--host H] [--port P] [--interval S] [--once]
//   ./examples/nas_top --journal live.jsonl [--interval S] [--once]
//   ./examples/nas_top --validate-metrics [file]   # OpenMetrics checker
//
// --validate-metrics reads an OpenMetrics exposition (from a file or stdin,
// e.g. piped from `curl /metrics`) through validate_openmetrics and exits
// 0/1 — the conformance gate CI's live-obs-smoke job runs against a live
// endpoint.
#include <algorithm>
#include <chrono>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "ncnas/nas/driver.hpp"
#include "ncnas/obs/exporter.hpp"
#include "ncnas/obs/journal.hpp"

namespace {

using namespace ncnas;

/// Unicode block sparkline of a series, scaled to its own min/max.
std::string sparkline(const std::vector<float>& values, std::size_t width = 48) {
  static const char* kLevels[] = {"▁", "▂", "▃", "▄",
                                  "▅", "▆", "▇", "█"};
  if (values.empty()) return "(no data)";
  const std::size_t start = values.size() > width ? values.size() - width : 0;
  float lo = values[start];
  float hi = values[start];
  for (std::size_t i = start; i < values.size(); ++i) {
    lo = std::min(lo, values[i]);
    hi = std::max(hi, values[i]);
  }
  std::string out;
  for (std::size_t i = start; i < values.size(); ++i) {
    const float span = hi - lo;
    const int level =
        span <= 0.0f ? 0
                     : std::min(7, static_cast<int>((values[i] - lo) / span * 7.999f));
    out += kLevels[level];
  }
  return out;
}

std::string fixed(double v, int digits = 2) {
  std::ostringstream os;
  os.setf(std::ios::fixed);
  os.precision(digits);
  os << v;
  return os.str();
}

void render(const obs::ProgressSnapshot& p, const std::vector<float>& reward_history,
            bool clear) {
  std::ostringstream os;
  if (clear) os << "\x1b[H\x1b[2J";  // home + clear: refresh in place
  os << "nas_top — " << p.strategy << " search  [seq " << p.seq << "]"
     << (p.finished ? (p.converged ? "  FINISHED (converged)" : "  FINISHED") : "") << '\n';
  os << "  t = " << fixed(p.virtual_time, 0) << "s / " << fixed(p.wall_time_seconds, 0)
     << "s virtual   health: "
     << (p.healthy ? "ok" : "DEGRADED (" + std::to_string(p.stragglers) + " stragglers, " +
                                std::to_string(p.stalls) + " stalls)")
     << "   exporter errors: " << p.exporter_errors << '\n';
  const double minutes = p.virtual_time > 0.0 ? p.virtual_time / 60.0 : 0.0;
  os << "  evals " << p.evals_done << " (" << p.real_evals << " real, " << p.cache_hits
     << " cached, " << p.timeouts << " timeouts)   "
     << fixed(minutes > 0.0 ? static_cast<double>(p.evals_done) / minutes : 0.0, 1)
     << " evals/min   in-flight batches " << p.batches_in_flight << "   ppo updates "
     << p.ppo_updates << '\n';
  if (p.retries + p.lost_results + p.crashed_workers + p.dead_agents + p.exhausted > 0) {
    os << "  faults: " << p.retries << " retries, " << p.exhausted << " exhausted, "
       << p.lost_results << " lost, " << p.crashed_workers << " crashed workers, "
       << p.dead_agents << " dead agents\n";
  }
  os << '\n';
  os << "  best reward " << (p.has_best ? fixed(p.best_reward, 4) : "—") << "   "
     << sparkline(reward_history) << '\n';
  if (!p.top.empty()) {
    os << "  top architectures:\n";
    for (const obs::TopArchProgress& t : p.top) {
      os << "    " << fixed(t.reward, 4) << "  agent " << t.agent << "  " << t.params
         << " params  " << t.arch << '\n';
    }
  }
  os << '\n';
  os << "  agent  status     evals  cached  timeouts  streak  best\n";
  for (const obs::AgentProgress& a : p.agents) {
    std::ostringstream row;
    row << "  " << a.id;
    std::string line = row.str();
    line.resize(7, ' ');
    std::string status = a.status;
    status.resize(9, ' ');
    os << line << status << "  " << a.evals << "      " << a.cache_hits << "       "
       << a.timeouts << "         " << a.cached_streak << "      "
       << (a.has_best ? fixed(a.best_reward, 4) : "—") << '\n';
  }
  if (!p.hot_scopes.empty()) {
    os << "\n  hot scopes (self ms):\n";
    for (const obs::HotScopeProgress& h : p.hot_scopes) {
      os << "    " << fixed(h.self_ms, 1) << "  " << h.name << "  (" << h.calls
         << " calls, total " << fixed(h.total_ms, 1) << ")\n";
    }
  }
  os << "\n  journal events " << p.journal_events << '\n';
  std::cout << os.str() << std::flush;
}

/// The journal-tail path: replay the file into the same ProgressSnapshot
/// the HTTP path serves, so both render identically.
obs::ProgressSnapshot progress_from_journal(const std::vector<obs::JournalEvent>& events) {
  const obs::RunSummary sum = obs::summarize_journal(events);
  obs::ProgressSnapshot p = obs::progress_from(sum);
  const bool known = sum.strategy >= 0 &&
                     sum.strategy <= static_cast<int>(nas::SearchStrategy::kEvolution);
  p.strategy = known ? nas::strategy_name(static_cast<nas::SearchStrategy>(sum.strategy)) : "?";
  p.journal_events = events.size();
  return p;
}

int validate_metrics(const std::string& path) {
  std::string text;
  if (path.empty() || path == "-") {
    std::ostringstream buf;
    buf << std::cin.rdbuf();
    text = buf.str();
  } else {
    std::ifstream in(path);
    if (!in) {
      std::cerr << "nas_top: cannot open '" << path << "'\n";
      return 2;
    }
    std::ostringstream buf;
    buf << in.rdbuf();
    text = buf.str();
  }
  std::string error;
  if (!obs::validate_openmetrics(text, &error)) {
    std::cerr << "nas_top: OpenMetrics validation FAILED: " << error << '\n';
    return 1;
  }
  std::cout << "nas_top: OpenMetrics exposition OK (" << text.size() << " bytes)\n";
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  std::string host = "127.0.0.1";
  int port = 9109;
  double interval = 2.0;
  bool once = false;
  bool validate = false;
  std::string journal_path;
  std::string validate_path;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto need = [&](const char* what) -> const char* {
      if (i + 1 >= argc) {
        std::cerr << what << " needs an argument\n";
        std::exit(2);
      }
      return argv[++i];
    };
    if (arg == "--host") {
      host = need("--host");
    } else if (arg == "--port") {
      port = std::stoi(need("--port"));
    } else if (arg == "--interval") {
      interval = std::stod(need("--interval"));
    } else if (arg == "--once") {
      once = true;
    } else if (arg == "--journal") {
      journal_path = need("--journal");
    } else if (arg == "--validate-metrics") {
      validate = true;
      if (i + 1 < argc && argv[i + 1][0] != '-') validate_path = argv[++i];
    } else {
      std::cerr << "usage: nas_top [--host H] [--port P] [--interval S] [--once]\n"
                << "       nas_top --journal <live.jsonl> [--interval S] [--once]\n"
                << "       nas_top --validate-metrics [file|-]\n";
      return 2;
    }
  }
  if (validate) return validate_metrics(validate_path);

  std::vector<float> reward_history;
  std::uint64_t misses = 0;
  for (;;) {
    obs::ProgressSnapshot p;
    bool have = false;
    if (!journal_path.empty()) {
      std::ifstream in(journal_path);
      if (in) {
        try {
          p = progress_from_journal(obs::Journal::import_jsonl(in));
          have = true;
        } catch (const std::exception& e) {
          std::cerr << "nas_top: journal parse failed: " << e.what() << '\n';
        }
      }
    } else {
      int status = 0;
      const std::optional<std::string> body = obs::http_get(host, port, "/progress", &status);
      if (body && status == 200) {
        try {
          p = obs::parse_progress_json(*body);
          have = true;
        } catch (const std::exception& e) {
          std::cerr << "nas_top: bad /progress payload: " << e.what() << '\n';
        }
      }
    }
    if (have) {
      misses = 0;
      if (p.has_best) reward_history.push_back(p.best_reward);
      render(p, reward_history, /*clear=*/!once);
      if (p.finished) {
        std::cout << "run finished — exiting\n";
        return 0;
      }
    } else {
      ++misses;
      std::cerr << "nas_top: no data from "
                << (journal_path.empty() ? host + ":" + std::to_string(port) : journal_path)
                << " (attempt " << misses << ")\n";
      if (misses >= 30) return 1;
    }
    if (once) return have ? 0 : 1;
    std::this_thread::sleep_for(std::chrono::duration<double>(interval));
  }
}
