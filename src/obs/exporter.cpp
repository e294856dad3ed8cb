#include "ncnas/obs/exporter.hpp"

#include <algorithm>
#include <cctype>
#include <cmath>
#include <iostream>
#include <map>
#include <set>
#include <sstream>
#include <stdexcept>

#include "ncnas/obs/json.hpp"
#include "ncnas/obs/telemetry.hpp"

namespace ncnas::obs {

namespace {

/// Profiler scopes listed in /progress, ranked by self time.
constexpr std::size_t kHotScopes = 5;

// Same round-trip-exact number formatting the journal uses, as a string.
std::string fmt_number(double v) {
  std::ostringstream os;
  write_json_number(os, v);
  return os.str();
}

// OpenMetrics label-value escaping: backslash, double-quote, line feed.
void write_label_value(std::ostream& os, std::string_view v) {
  os << '"';
  for (char c : v) {
    switch (c) {
      case '\\': os << "\\\\"; break;
      case '"': os << "\\\""; break;
      case '\n': os << "\\n"; break;
      default: os << c;
    }
  }
  os << '"';
}

// Counter families drop the `_total` suffix on the TYPE line; the sample
// keeps it. Every ncnas counter already follows the `_total` convention.
std::string counter_family(const std::string& name) {
  constexpr std::string_view kSuffix = "_total";
  if (name.size() > kSuffix.size() &&
      name.compare(name.size() - kSuffix.size(), kSuffix.size(), kSuffix) == 0) {
    return name.substr(0, name.size() - kSuffix.size());
  }
  return name;
}

// Registry names may carry an inline label set — `ncnas_tenant_evals_total
// {tenant="alice"}` (no space) — which is how the label-free MetricsRegistry
// serves multi-tenant metrics: one instrument per (family, label) pair.
// Splits the registered name into the bare metric name and the `{...}` label
// suffix (empty when unlabeled).
std::pair<std::string, std::string> split_inline_labels(const std::string& name) {
  const std::size_t brace = name.find('{');
  if (brace == std::string::npos) return {name, std::string()};
  return {name.substr(0, brace), name.substr(brace)};
}

}  // namespace

// ---- OpenMetrics rendering --------------------------------------------------

void render_openmetrics(const MetricsSnapshot& m, std::ostream& os,
                        const std::vector<std::pair<std::string, std::string>>& info_labels) {
  if (!info_labels.empty()) {
    os << "# TYPE ncnas_exporter_info gauge\n";
    os << "ncnas_exporter_info{";
    for (std::size_t i = 0; i < info_labels.size(); ++i) {
      if (i) os << ',';
      os << info_labels[i].first << '=';
      write_label_value(os, info_labels[i].second);
    }
    os << "} 1\n";
  }
  // The registry map is sorted, so all label variants of one family are
  // adjacent; still, the TYPE line is deduplicated by set (not by previous-
  // family comparison) so a pathological interleaving can never emit a
  // duplicate TYPE — the validator rejects those.
  std::set<std::string> declared;
  for (const CounterSample& c : m.counters) {
    const auto [bare, labels] = split_inline_labels(c.name);
    const std::string family = counter_family(bare);
    if (declared.insert(family).second) os << "# TYPE " << family << " counter\n";
    os << bare << labels << ' ' << c.value << '\n';
  }
  declared.clear();
  for (const GaugeSample& g : m.gauges) {
    const auto [bare, labels] = split_inline_labels(g.name);
    if (declared.insert(bare).second) os << "# TYPE " << bare << " gauge\n";
    os << bare << labels << ' ' << fmt_number(g.value) << '\n';
  }
  for (const HistogramSample& h : m.histograms) {
    os << "# TYPE " << h.name << " histogram\n";
    std::uint64_t cumulative = 0;
    for (std::size_t i = 0; i < h.bounds.size(); ++i) {
      cumulative += i < h.buckets.size() ? h.buckets[i] : 0;
      os << h.name << "_bucket{le=\"" << fmt_number(h.bounds[i]) << "\"} " << cumulative << '\n';
    }
    if (h.bounds.size() < h.buckets.size()) cumulative += h.buckets.back();
    os << h.name << "_bucket{le=\"+Inf\"} " << cumulative << '\n';
    os << h.name << "_count " << cumulative << '\n';
    os << h.name << "_sum " << fmt_number(h.sum) << '\n';
  }
  os << "# EOF\n";
}

std::string openmetrics_text(const MetricsSnapshot& m,
                             const std::vector<std::pair<std::string, std::string>>& info_labels) {
  std::ostringstream os;
  render_openmetrics(m, os, info_labels);
  return os.str();
}

// ---- OpenMetrics validation -------------------------------------------------

namespace {

struct FamilyState {
  std::string type;  // "counter" | "gauge" | "histogram" | ...
  // histogram bookkeeping
  std::vector<double> le_edges;   // in order of appearance
  std::vector<double> le_counts;  // cumulative values as written
  bool has_inf = false;
  bool has_sum = false;
  bool has_count = false;
  double inf_value = 0.0;
  double count_value = 0.0;
};

bool metric_name_ok(std::string_view name) {
  if (name.empty()) return false;
  const auto head = [](char c) {
    return std::isalpha(static_cast<unsigned char>(c)) || c == '_' || c == ':';
  };
  if (!head(name[0])) return false;
  return std::all_of(name.begin() + 1, name.end(), [&](char c) {
    return head(c) || std::isdigit(static_cast<unsigned char>(c));
  });
}

bool set_error(std::string* error, std::size_t lineno, const std::string& what) {
  if (error != nullptr) *error = "line " + std::to_string(lineno) + ": " + what;
  return false;
}

// Parses `key="value",...}` starting after '{'; returns false on malformed
// syntax (including a bad escape). Fills `labels`.
bool parse_labels(std::string_view s, std::size_t& i,
                  std::vector<std::pair<std::string, std::string>>& labels) {
  for (;;) {
    if (i < s.size() && s[i] == '}') {
      ++i;
      return true;
    }
    std::size_t eq = s.find('=', i);
    if (eq == std::string_view::npos) return false;
    std::string key(s.substr(i, eq - i));
    if (!metric_name_ok(key)) return false;
    i = eq + 1;
    if (i >= s.size() || s[i] != '"') return false;
    ++i;
    std::string value;
    bool closed = false;
    while (i < s.size()) {
      const char c = s[i++];
      if (c == '"') {
        closed = true;
        break;
      }
      if (c == '\\') {
        if (i >= s.size()) return false;
        const char esc = s[i++];
        if (esc == '\\') {
          value.push_back('\\');
        } else if (esc == '"') {
          value.push_back('"');
        } else if (esc == 'n') {
          value.push_back('\n');
        } else {
          return false;  // invalid escape sequence in a label value
        }
      } else {
        value.push_back(c);
      }
    }
    if (!closed) return false;
    labels.emplace_back(std::move(key), std::move(value));
    if (i < s.size() && s[i] == ',') {
      ++i;
      continue;
    }
    if (i < s.size() && s[i] == '}') {
      ++i;
      return true;
    }
    return false;
  }
}

bool parse_value(std::string_view text, double& out) {
  if (text == "+Inf" || text == "Inf") {
    out = std::numeric_limits<double>::infinity();
    return true;
  }
  if (text == "-Inf") {
    out = -std::numeric_limits<double>::infinity();
    return true;
  }
  try {
    std::size_t used = 0;
    out = std::stod(std::string(text), &used);
    return used == text.size();
  } catch (const std::exception&) {
    return false;
  }
}

}  // namespace

bool validate_openmetrics(std::string_view text, std::string* error) {
  if (text.empty()) return set_error(error, 0, "empty exposition");
  if (text.back() != '\n') return set_error(error, 0, "exposition does not end with a newline");
  if (text.size() < 6 || text.substr(text.size() - 6) != "# EOF\n") {
    return set_error(error, 0, "exposition does not end with '# EOF'");
  }

  std::map<std::string, FamilyState> families;
  std::size_t lineno = 0;
  bool saw_eof = false;
  std::size_t pos = 0;
  while (pos < text.size()) {
    ++lineno;
    const std::size_t nl = text.find('\n', pos);
    if (nl == std::string_view::npos) return set_error(error, lineno, "unterminated line");
    const std::string_view line = text.substr(pos, nl - pos);
    pos = nl + 1;

    if (saw_eof) return set_error(error, lineno, "content after '# EOF'");
    if (line.empty()) return set_error(error, lineno, "blank line");

    if (line[0] == '#') {
      if (line == "# EOF") {
        saw_eof = true;
        continue;
      }
      std::istringstream meta{std::string(line)};
      std::string hash;
      std::string directive;
      std::string family;
      meta >> hash >> directive >> family;
      if (directive == "TYPE") {
        std::string type;
        meta >> type;
        if (!metric_name_ok(family)) return set_error(error, lineno, "bad family name in TYPE");
        if (type.empty()) return set_error(error, lineno, "TYPE without a type");
        if (families.count(family) != 0) {
          return set_error(error, lineno, "duplicate TYPE for family '" + family + "'");
        }
        families[family].type = type;
      } else if (directive != "HELP" && directive != "UNIT") {
        return set_error(error, lineno, "unknown comment directive '" + directive + "'");
      }
      continue;
    }

    // Sample line: name[{labels}] value [timestamp]
    std::size_t i = 0;
    while (i < line.size() && line[i] != '{' && line[i] != ' ') ++i;
    const std::string name(line.substr(0, i));
    if (!metric_name_ok(name)) return set_error(error, lineno, "bad metric name '" + name + "'");
    std::vector<std::pair<std::string, std::string>> labels;
    if (i < line.size() && line[i] == '{') {
      ++i;
      if (!parse_labels(line, i, labels)) {
        return set_error(error, lineno, "malformed labels on '" + name + "'");
      }
    }
    if (i >= line.size() || line[i] != ' ') {
      return set_error(error, lineno, "sample without a value");
    }
    ++i;
    const std::size_t value_end = line.find(' ', i);  // a timestamp may follow
    const std::string_view value_text =
        line.substr(i, value_end == std::string_view::npos ? line.size() - i : value_end - i);
    double value = 0.0;
    if (!parse_value(value_text, value)) {
      return set_error(error, lineno, "unparseable value '" + std::string(value_text) + "'");
    }

    // Attribute the sample to a declared family.
    std::string family;
    std::string suffix;
    for (const auto& [fam, state] : families) {
      (void)state;
      if (name == fam || (name.size() > fam.size() && name.compare(0, fam.size(), fam) == 0 &&
                          name[fam.size()] == '_')) {
        if (fam.size() > family.size()) {
          family = fam;
          suffix = name.size() > fam.size() ? name.substr(fam.size()) : "";
        }
      }
    }
    if (family.empty()) {
      return set_error(error, lineno, "sample '" + name + "' has no TYPE declaration");
    }
    FamilyState& state = families[family];
    if (state.type == "counter") {
      if (suffix != "_total" && suffix != "_created") {
        return set_error(error, lineno,
                         "counter sample '" + name + "' must end with '_total' or '_created'");
      }
      if (value < 0.0) return set_error(error, lineno, "negative counter value");
    } else if (state.type == "gauge" || state.type == "unknown") {
      if (!suffix.empty()) {
        return set_error(error, lineno, "unexpected suffix '" + suffix + "' on " + state.type);
      }
    } else if (state.type == "histogram") {
      if ((suffix == "_bucket" || suffix == "_count") &&
          !(std::isfinite(value) && value >= 0.0 && value == std::floor(value))) {
        return set_error(error, lineno,
                         "histogram '" + family + "' count is not a non-negative integer");
      }
      if (suffix == "_bucket") {
        const auto le = std::find_if(labels.begin(), labels.end(),
                                     [](const auto& kv) { return kv.first == "le"; });
        if (le == labels.end()) {
          return set_error(error, lineno, "histogram bucket without an 'le' label");
        }
        double edge = 0.0;
        if (!parse_value(le->second, edge)) {
          return set_error(error, lineno, "unparseable 'le' edge '" + le->second + "'");
        }
        if (!state.le_edges.empty() && edge <= state.le_edges.back()) {
          return set_error(error, lineno, "histogram '" + family + "' bucket edges not ascending");
        }
        if (!state.le_counts.empty() && value < state.le_counts.back()) {
          return set_error(error, lineno,
                           "histogram '" + family + "' bucket counts not cumulative");
        }
        state.le_edges.push_back(edge);
        state.le_counts.push_back(value);
        if (std::isinf(edge) && edge > 0.0) {
          state.has_inf = true;
          state.inf_value = value;
        }
      } else if (suffix == "_count") {
        state.has_count = true;
        state.count_value = value;
      } else if (suffix == "_sum") {
        state.has_sum = true;
      } else if (suffix != "_created") {
        return set_error(error, lineno, "unexpected histogram sample '" + name + "'");
      }
    }
  }
  if (!saw_eof) return set_error(error, lineno, "missing '# EOF'");

  for (const auto& [family, state] : families) {
    if (state.type != "histogram" || state.le_edges.empty()) continue;
    if (!state.has_inf || !std::isinf(state.le_edges.back())) {
      return set_error(error, 0, "histogram '" + family + "' does not close with le=\"+Inf\"");
    }
    if (!state.has_count) {
      return set_error(error, 0, "histogram '" + family + "' has no _count sample");
    }
    if (!state.has_sum) {
      return set_error(error, 0, "histogram '" + family + "' has no _sum sample");
    }
    if (state.count_value != state.inf_value) {
      return set_error(error, 0, "histogram '" + family + "' _count disagrees with +Inf bucket");
    }
  }
  return true;
}

// ---- /progress JSON ---------------------------------------------------------

ProgressSnapshot progress_from(const RunSummary& sum) {
  ProgressSnapshot p;
  p.virtual_time = sum.end_time_s;
  p.wall_time_seconds = std::isfinite(sum.wall_time_s) ? sum.wall_time_s : 0.0;
  p.finished = sum.has_run_finished;
  p.converged = sum.converged;
  p.evals_done = sum.evals;
  p.real_evals = sum.real_evals;
  p.cache_hits = sum.cache_hits;
  p.timeouts = sum.timeouts;
  p.ppo_updates = sum.ppo_updates;
  p.has_best = sum.evals > 0;
  p.best_reward = p.has_best ? sum.best_reward : 0.0f;
  p.retries = sum.retries;
  p.exhausted = sum.exhausted;
  p.lost_results = sum.lost_results;
  p.crashed_workers = sum.crashed_workers;
  p.dead_agents = sum.dead_agents;
  p.stragglers = sum.stragglers;
  p.stalls = sum.stalls;
  p.healthy = sum.stragglers + sum.stalls == 0;
  for (const auto& [id, a] : sum.per_agent) {
    AgentProgress& ap = p.agents.emplace_back();
    ap.id = id;
    ap.status = std::ranges::find(sum.converged_agents, id) != sum.converged_agents.end()
                    ? "converged"
                    : (sum.has_run_finished ? "stopped" : "running");
    ap.evals = a.evals;
    ap.cache_hits = a.cached;
    ap.timeouts = a.timeouts;
    ap.has_best = a.evals > 0;
    ap.best_reward = ap.has_best ? a.best_reward : 0.0f;
  }
  return p;
}

std::string progress_to_json(const ProgressSnapshot& p) {
  std::ostringstream os;
  const auto key = [&os](const char* k) {
    write_json_string(os, k);
    os << ':';
  };
  const auto num = [&](const char* k, double v) {
    key(k);
    write_json_number(os, v);
    os << ',';
  };
  const auto boolean = [&](const char* k, bool v) {
    key(k);
    os << (v ? "true" : "false") << ',';
  };
  os << '{';
  num("seq", static_cast<double>(p.seq));
  num("virtual_time", p.virtual_time);
  num("wall_time_seconds", p.wall_time_seconds);
  key("strategy");
  write_json_string(os, p.strategy);
  os << ',';
  boolean("finished", p.finished);
  boolean("converged", p.converged);
  num("evals_done", static_cast<double>(p.evals_done));
  num("real_evals", static_cast<double>(p.real_evals));
  num("cache_hits", static_cast<double>(p.cache_hits));
  num("timeouts", static_cast<double>(p.timeouts));
  num("ppo_updates", static_cast<double>(p.ppo_updates));
  num("batches_in_flight", static_cast<double>(p.batches_in_flight));
  num("best_reward", p.best_reward);
  boolean("has_best", p.has_best);
  key("top");
  os << '[';
  for (std::size_t i = 0; i < p.top.size(); ++i) {
    if (i) os << ',';
    os << "{\"arch\":";
    write_json_string(os, p.top[i].arch);
    os << ",\"reward\":";
    write_json_number(os, p.top[i].reward);
    os << ",\"params\":" << p.top[i].params << ",\"agent\":" << p.top[i].agent << '}';
  }
  os << "],";
  key("agents");
  os << '[';
  for (std::size_t i = 0; i < p.agents.size(); ++i) {
    const AgentProgress& a = p.agents[i];
    if (i) os << ',';
    os << "{\"id\":" << a.id << ",\"status\":";
    write_json_string(os, a.status);
    os << ",\"evals\":" << a.evals << ",\"cache_hits\":" << a.cache_hits
       << ",\"timeouts\":" << a.timeouts << ",\"cached_streak\":" << a.cached_streak
       << ",\"best_reward\":";
    write_json_number(os, a.best_reward);
    os << ",\"has_best\":" << (a.has_best ? "true" : "false") << '}';
  }
  os << "],";
  num("retries", static_cast<double>(p.retries));
  num("exhausted", static_cast<double>(p.exhausted));
  num("lost_results", static_cast<double>(p.lost_results));
  num("crashed_workers", static_cast<double>(p.crashed_workers));
  num("dead_agents", static_cast<double>(p.dead_agents));
  boolean("healthy", p.healthy);
  num("stragglers", static_cast<double>(p.stragglers));
  num("stalls", static_cast<double>(p.stalls));
  key("hot_scopes");
  os << '[';
  for (std::size_t i = 0; i < p.hot_scopes.size(); ++i) {
    const HotScopeProgress& h = p.hot_scopes[i];
    if (i) os << ',';
    os << "{\"name\":";
    write_json_string(os, h.name);
    os << ",\"calls\":" << h.calls << ",\"total_ms\":";
    write_json_number(os, h.total_ms);
    os << ",\"self_ms\":";
    write_json_number(os, h.self_ms);
    os << '}';
  }
  os << "],";
  num("journal_events", static_cast<double>(p.journal_events));
  key("exporter_errors");
  write_json_number(os, static_cast<double>(p.exporter_errors));
  os << "}\n";
  return os.str();
}

ProgressSnapshot parse_progress_json(std::string_view json) {
  const JsonValue root = parse_json(json, "progress json");
  if (!root.is_object()) throw std::runtime_error("progress json: top level is not an object");
  static const std::vector<JsonValue> kNone;
  const auto items = [&root](const char* key) -> const std::vector<JsonValue>& {
    const JsonValue* v = root.find(key);
    return v != nullptr ? v->array : kNone;
  };
  ProgressSnapshot p;
  root.get("seq", p.seq);
  root.get("virtual_time", p.virtual_time);
  root.get("wall_time_seconds", p.wall_time_seconds);
  root.get("strategy", p.strategy);
  root.get("finished", p.finished);
  root.get("converged", p.converged);
  root.get("evals_done", p.evals_done);
  root.get("real_evals", p.real_evals);
  root.get("cache_hits", p.cache_hits);
  root.get("timeouts", p.timeouts);
  root.get("ppo_updates", p.ppo_updates);
  root.get("batches_in_flight", p.batches_in_flight);
  root.get("best_reward", p.best_reward);
  root.get("has_best", p.has_best);
  for (const JsonValue& t : items("top")) {
    TopArchProgress& out = p.top.emplace_back();
    t.get("arch", out.arch);
    t.get("reward", out.reward);
    t.get("params", out.params);
    t.get("agent", out.agent);
  }
  for (const JsonValue& a : items("agents")) {
    AgentProgress& out = p.agents.emplace_back();
    a.get("id", out.id);
    a.get("status", out.status);
    a.get("evals", out.evals);
    a.get("cache_hits", out.cache_hits);
    a.get("timeouts", out.timeouts);
    a.get("cached_streak", out.cached_streak);
    a.get("best_reward", out.best_reward);
    a.get("has_best", out.has_best);
  }
  root.get("retries", p.retries);
  root.get("exhausted", p.exhausted);
  root.get("lost_results", p.lost_results);
  root.get("crashed_workers", p.crashed_workers);
  root.get("dead_agents", p.dead_agents);
  root.get("healthy", p.healthy);
  root.get("stragglers", p.stragglers);
  root.get("stalls", p.stalls);
  for (const JsonValue& h : items("hot_scopes")) {
    HotScopeProgress& out = p.hot_scopes.emplace_back();
    h.get("name", out.name);
    h.get("calls", out.calls);
    h.get("total_ms", out.total_ms);
    h.get("self_ms", out.self_ms);
  }
  root.get("journal_events", p.journal_events);
  root.get("exporter_errors", p.exporter_errors);
  return p;
}

// ---- Exporter facade --------------------------------------------------------

Exporter::Exporter(ExporterConfig cfg, Telemetry& telemetry)
    : cfg_(std::move(cfg)),
      telemetry_(&telemetry),
      errors_(&telemetry.metrics().counter("ncnas_exporter_errors_total")) {
  if (!cfg_.live_journal_path.empty()) {
    Journal& journal = telemetry.enable_journal();
    if (!journal.open_live_export(cfg_.live_journal_path, errors_)) {
      std::cerr << "ncnas exporter: cannot open live journal '" << cfg_.live_journal_path
                << "'; live tailing disabled, search continues\n";
    }
  }
  if (cfg_.http_port >= 0) {
    {
      // Pre-publication defaults: /metrics must still be a valid (empty)
      // OpenMetrics exposition the moment the server comes up.
      const std::scoped_lock lock(payload_mu_);
      metrics_text_ = "# EOF\n";
      progress_json_ = "{}\n";
    }
    http_ = std::make_unique<HttpExporter>(
        cfg_.bind_address, cfg_.http_port,
        [this](const std::string& path) -> std::tuple<int, std::string, std::string> {
          if (path == "/metrics") {
            return {200, "application/openmetrics-text; version=1.0.0; charset=utf-8",
                    metrics_text()};
          }
          if (path == "/progress") return {200, "application/json", progress_json()};
          if (path == "/healthz") return {healthz_status(), "text/plain; charset=utf-8",
                                          healthz_body()};
          {
            const std::scoped_lock lock(payload_mu_);
            if (const auto it = custom_payloads_.find(path); it != custom_payloads_.end()) {
              return {200, it->second.first, it->second.second};
            }
          }
          return {404, "text/plain; charset=utf-8", "not found\n"};
        },
        errors_);
  }
}

Exporter::~Exporter() {
  if (http_) http_->stop();
  if (!cfg_.live_journal_path.empty() && telemetry_->journal() != nullptr) {
    telemetry_->journal()->close_live_export();
  }
}

void Exporter::publish(double vt, ProgressSnapshot progress) {
  // Publication times never rewind. The driver keeps harvesting in-flight
  // completions past the wall-time deadline (it publishes at t >
  // wall_time), but the final flush comes in at the deadline-clamped
  // end_time; clamping here keeps every consumer's timeline monotone.
  vt = std::max(vt, last_vt_);
  last_vt_ = vt;
  const MetricsSnapshot metrics = telemetry_->metrics_snapshot();
  if (const HealthWatchdog* watchdog = telemetry_->watchdog(); watchdog != nullptr) {
    const WatchdogReport report = watchdog->report();
    progress.healthy = report.healthy();
    progress.stragglers = report.stragglers.size();
    progress.stalls = report.stalls.size();
  }
  if (Profiler* profiler = telemetry_->profiler(); profiler != nullptr) {
    const std::vector<FlatProfileEntry> flat = profiler->snapshot().flat();
    for (std::size_t i = 0; i < flat.size() && i < kHotScopes; ++i) {
      progress.hot_scopes.push_back({flat[i].name, flat[i].calls, flat[i].total_ms,
                                     flat[i].self_ms});
    }
  }
  progress.seq = ++seq_;
  progress.virtual_time = vt;
  const Journal* journal = telemetry_->journal();
  progress.journal_events = journal != nullptr ? journal->size() : 0;
  progress.exporter_errors = errors_->value();

  std::vector<std::pair<std::string, std::string>> info;
  if (!progress.strategy.empty()) info.emplace_back("strategy", progress.strategy);
  std::string metrics_body = openmetrics_text(metrics, info);
  std::string progress_body = progress_to_json(progress);
  std::string health;
  int status = 200;
  if (progress.healthy) {
    health = progress.finished ? "ok: run finished\n" : "ok\n";
  } else {
    status = 503;
    health = "unhealthy: " + std::to_string(progress.stragglers) + " straggler(s), " +
             std::to_string(progress.stalls) + " stall(s)\n";
  }
  const std::scoped_lock lock(payload_mu_);
  metrics_text_ = std::move(metrics_body);
  progress_json_ = std::move(progress_body);
  healthz_body_ = std::move(health);
  healthz_status_ = status;
}

std::string Exporter::metrics_text() const {
  const std::scoped_lock lock(payload_mu_);
  return metrics_text_;
}

std::string Exporter::progress_json() const {
  const std::scoped_lock lock(payload_mu_);
  return progress_json_;
}

std::string Exporter::healthz_body() const {
  const std::scoped_lock lock(payload_mu_);
  return healthz_body_;
}

int Exporter::healthz_status() const {
  const std::scoped_lock lock(payload_mu_);
  return healthz_status_;
}

void Exporter::set_payload(const std::string& path, std::string content_type,
                           std::string body) {
  if (path == "/metrics" || path == "/progress" || path == "/healthz") return;
  const std::scoped_lock lock(payload_mu_);
  custom_payloads_[path] = {std::move(content_type), std::move(body)};
}

std::string Exporter::payload(const std::string& path) const {
  const std::scoped_lock lock(payload_mu_);
  const auto it = custom_payloads_.find(path);
  return it != custom_payloads_.end() ? it->second.second : std::string();
}

}  // namespace ncnas::obs
