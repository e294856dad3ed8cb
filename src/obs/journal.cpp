#include "ncnas/obs/journal.hpp"

#include <algorithm>
#include <cmath>
#include <istream>
#include <sstream>
#include <stdexcept>

#include "ncnas/obs/metrics.hpp"

namespace ncnas::obs {

namespace {

struct NameEntry {
  JournalEventType type;
  const char* name;
};

constexpr NameEntry kNames[] = {
    {JournalEventType::kRunStarted, "run_started"},
    {JournalEventType::kRunFinished, "run_finished"},
    {JournalEventType::kEvalDispatched, "eval_dispatched"},
    {JournalEventType::kEvalFinished, "eval_finished"},
    {JournalEventType::kEvalCached, "eval_cached"},
    {JournalEventType::kEvalTimeout, "eval_timeout"},
    {JournalEventType::kPpoUpdate, "ppo_update"},
    {JournalEventType::kPsExchange, "ps_exchange"},
    {JournalEventType::kAgentConverged, "agent_converged"},
    {JournalEventType::kStragglerDetected, "straggler_detected"},
    {JournalEventType::kAgentStalled, "agent_stalled"},
    {JournalEventType::kEvalFailed, "eval_failed"},
    {JournalEventType::kEvalRetried, "eval_retried"},
    {JournalEventType::kEvalExhausted, "eval_exhausted"},
    {JournalEventType::kResultLost, "result_lost"},
    {JournalEventType::kWorkerCrashed, "worker_crashed"},
    {JournalEventType::kAgentDead, "agent_dead"},
    {JournalEventType::kPsDropped, "ps_dropped"},
    {JournalEventType::kPsDelayed, "ps_delayed"},
    {JournalEventType::kBarrierTimeout, "barrier_timeout"},
    {JournalEventType::kCheckpointWritten, "checkpoint_written"},
    {JournalEventType::kRunResumed, "run_resumed"},
    {JournalEventType::kLadderRung, "ladder_rung"},
};

void write_event(std::ostream& os, const JournalEvent& e) {
  os << "{\"v\":" << kJournalSchemaVersion << ",\"seq\":" << e.seq << ",\"type\":\""
     << journal_event_name(e.type) << "\",\"t\":";
  write_json_number(os, e.t);
  os << ",\"agent\":";
  if (e.agent == kNoAgent) {
    os << -1;
  } else {
    os << e.agent;
  }
  os << ",\"payload\":{";
  for (std::size_t i = 0; i < e.payload.size(); ++i) {
    if (i) os << ',';
    write_json_string(os, e.payload[i].key);
    os << ':';
    write_json_number(os, e.payload[i].value);
  }
  os << "}}";
}

// Payload values come back from disk as arbitrary doubles. Every conversion
// to an integer goes through here, so a corrupt journal saturates instead of
// reaching an out-of-range (undefined) float-to-integer cast.
template <typename Int>
Int to_int(double v, double lo, double hi) {
  return static_cast<Int>(v >= lo ? std::min(v, hi) : lo);
}

std::size_t to_count(double v) { return to_int<std::size_t>(v, 0.0, 9.0e15); }

/// The run-level header fields: run_started declares them; a resumed
/// process's journal opens with run_resumed instead, which repeats the
/// deadline (and strategy) so the deadline rule still applies when the
/// prior journal is unavailable.
void read_header(RunSummary& sum, const JournalEvent& e) {
  if (e.type == JournalEventType::kRunStarted) {
    sum.has_run_started = true;
    sum.strategy = to_int<int>(e.field("strategy", -1.0), -1.0, 1e6);
    sum.agents_declared = to_count(e.field("agents"));
    sum.workers_per_agent = to_count(e.field("workers"));
    if (e.has_field("wall_time_s")) sum.wall_time_s = e.field("wall_time_s");
  } else if (e.type == JournalEventType::kRunResumed && !sum.has_run_started) {
    if (e.has_field("wall_time_s")) sum.wall_time_s = e.field("wall_time_s");
    if (sum.strategy < 0) sum.strategy = to_int<int>(e.field("strategy", -1.0), -1.0, 1e6);
  }
}

}  // namespace

const char* journal_event_name(JournalEventType type) {
  for (const NameEntry& e : kNames) {
    if (e.type == type) return e.name;
  }
  return "?";
}

std::optional<JournalEventType> journal_event_from_name(std::string_view name) {
  for (const NameEntry& e : kNames) {
    if (e.name == name) return e.type;
  }
  return std::nullopt;
}

double JournalEvent::field(std::string_view key, double fallback) const {
  for (const JournalField& f : payload) {
    if (f.key == key) return f.value;
  }
  return fallback;
}

bool JournalEvent::has_field(std::string_view key) const {
  return std::any_of(payload.begin(), payload.end(),
                     [&](const JournalField& f) { return f.key == key; });
}

Journal::Journal(std::size_t reserve) { events_.reserve(reserve); }

void Journal::subscribe(Subscriber fn) {
  const std::scoped_lock lock(notify_mu_);
  subscribers_.push_back(std::move(fn));
}

void Journal::append(JournalEventType type, double t, std::uint32_t agent,
                     std::vector<JournalField> payload) {
  JournalEvent e{type, t, agent, 0, std::move(payload)};
  {
    const std::scoped_lock lock(mu_);
    e.seq = next_seq_++;
    events_.push_back(e);
    if (live_.is_open()) live_write_locked(e);
  }
  // Dispatch outside the buffer lock; the recursive mutex lets a subscriber
  // append follow-up events (watchdog verdicts) from inside its callback.
  const std::scoped_lock lock(notify_mu_);
  for (const Subscriber& s : subscribers_) s(e);
}

std::size_t Journal::size() const {
  const std::scoped_lock lock(mu_);
  return events_.size();
}

std::vector<JournalEvent> Journal::snapshot() const {
  const std::scoped_lock lock(mu_);
  return events_;
}

std::vector<JournalEvent> Journal::snapshot_since(std::size_t start) const {
  const std::scoped_lock lock(mu_);
  if (start >= events_.size()) return {};
  return {events_.begin() + static_cast<std::ptrdiff_t>(start), events_.end()};
}

void Journal::clear() {
  const std::scoped_lock lock(mu_);
  events_.clear();
  next_seq_ = 0;
}

// ---- live streaming ---------------------------------------------------------

bool Journal::open_live_export(const std::string& path, bool append, Counter* error_counter) {
  const std::scoped_lock lock(mu_);
  if (live_.is_open()) live_.close();
  live_errors_sink_ = error_counter;
  live_.clear();
  live_.open(path, append ? (std::ios::out | std::ios::app) : std::ios::out);
  if (!live_.is_open()) {
    ++live_errors_;
    if (live_errors_sink_ != nullptr) live_errors_sink_->inc();
    return false;
  }
  // Header plus catch-up: everything already buffered goes out first so the
  // file is a complete journal, not a mid-run fragment.
  std::ostringstream head;
  head << "{\"schema\":\"ncnas.journal\",\"v\":" << kJournalSchemaVersion
       << ",\"events\":" << events_.size() << "}\n";
  for (const JournalEvent& e : events_) {
    write_event(head, e);
    head << '\n';
  }
  live_ << head.str() << std::flush;
  if (live_.fail()) {
    ++live_errors_;
    if (live_errors_sink_ != nullptr) live_errors_sink_->inc();
    live_.close();
    return false;
  }
  return true;
}

void Journal::close_live_export() {
  const std::scoped_lock lock(mu_);
  if (live_.is_open()) {
    live_.flush();
    live_.close();
  }
}

bool Journal::live_export_open() const {
  const std::scoped_lock lock(mu_);
  return live_.is_open();
}

std::uint64_t Journal::live_export_errors() const {
  const std::scoped_lock lock(mu_);
  return live_errors_;
}

void Journal::live_write_locked(const JournalEvent& e) {
  // Build the full line first, then write it in one shot and flush, so a
  // concurrent `tail -f` never observes a torn line.
  std::ostringstream line;
  write_event(line, e);
  line << '\n';
  live_ << line.str() << std::flush;
  if (live_.fail()) {
    ++live_errors_;
    if (live_errors_sink_ != nullptr) live_errors_sink_->inc();
    live_.close();  // first failure disables the sink; the search carries on
  }
}

void Journal::export_jsonl(std::ostream& os) const { export_jsonl(snapshot(), os); }

void Journal::export_jsonl(const std::vector<JournalEvent>& events, std::ostream& os) {
  os << "{\"schema\":\"ncnas.journal\",\"v\":" << kJournalSchemaVersion
     << ",\"events\":" << events.size() << "}\n";
  for (const JournalEvent& e : events) {
    write_event(os, e);
    os << '\n';
  }
}

std::vector<JournalEvent> Journal::import_jsonl(std::istream& is) {
  std::vector<JournalEvent> out;
  std::string line;
  while (std::getline(is, line)) {
    if (line.empty()) continue;
    const JsonValue parsed = parse_json(line, "journal import");
    double v = 0.0;
    if (!parsed.get("v", v)) {
      throw std::runtime_error("journal import: line without schema version");
    }
    if (v >= kJournalSchemaVersion + 1) {  // integer part is newer
      throw std::runtime_error("journal import: schema version " +
                               std::to_string(to_int<long long>(v, 0.0, 1e15)) +
                               " is newer than supported version " +
                               std::to_string(kJournalSchemaVersion));
    }
    if (parsed.find("schema") != nullptr) continue;  // header line
    std::string type_name;
    if (!parsed.get("type", type_name)) {
      throw std::runtime_error("journal import: event line without type");
    }
    const auto type = journal_event_from_name(type_name);
    if (!type) continue;  // event from a newer minor writer: skip, don't fail
    JournalEvent e;
    e.type = *type;
    parsed.get("t", e.t);
    if (double seq = 0.0; parsed.get("seq", seq)) e.seq = to_count(seq);
    if (double agent = 0.0; parsed.get("agent", agent)) {
      e.agent = agent < 0 ? kNoAgent : to_int<std::uint32_t>(agent, 0.0, kNoAgent);
    }
    if (const JsonValue* payload = parsed.find("payload"); payload != nullptr) {
      if (!payload->is_object()) {
        throw std::runtime_error("journal import: payload is not an object");
      }
      for (const auto& [key, value] : payload->object) {
        if (value.kind != JsonValue::Kind::kNumber) {
          throw std::runtime_error("journal import: payload field '" + key + "' is not a number");
        }
        e.payload.push_back({key, value.number});
      }
    }
    out.push_back(std::move(e));
  }
  return out;
}

// ---- replay -----------------------------------------------------------------

double RunSummary::agent_rate_per_min(std::uint32_t agent) const {
  const auto it = per_agent.find(agent);
  if (it == per_agent.end()) return 0.0;
  const double span = end_time_s > 0.0 ? end_time_s : it->second.last_event_t;
  if (span <= 0.0) return 0.0;
  return static_cast<double>(it->second.evals) / (span / 60.0);
}

void RunSummary::apply(const JournalEvent& e) {
  if (e.agent != kNoAgent) {
    AgentActivity& a = per_agent[e.agent];
    a.last_event_t = std::max(a.last_event_t, e.t);
  }
  switch (e.type) {
    case JournalEventType::kRunStarted:
      read_header(*this, e);
      break;
    case JournalEventType::kRunFinished:
      has_run_finished = true;
      end_time_s = e.field("end_time_s", e.t);
      converged = e.field("converged") != 0.0;
      break;
    case JournalEventType::kEvalFinished:
    case JournalEventType::kEvalCached: {
      if (e.t > wall_time_s) break;  // the driver's deadline filter
      const bool cached = e.type == JournalEventType::kEvalCached;
      const float reward = saturate<float>(e.field("reward"));
      ++evals;
      if (cached) {
        ++cache_hits;
        if (e.field("shared") != 0.0) ++shared_cache_hits;
      } else {
        ++real_evals;
        eval_sim_seconds.push_back(e.field("duration_s"));
      }
      AgentActivity& a = per_agent[e.agent];
      ++a.evals;
      if (cached) ++a.cached;
      if (e.field("timed_out") != 0.0) ++a.timeouts;
      a.best_reward = std::max(a.best_reward, reward);
      // Inserting after every equal timestamp keeps the vector exactly what
      // a stable sort of the emission order by t would give.
      const auto at = std::upper_bound(rewards.begin(), rewards.end(), e.t,
                                       [](double t, const auto& r) { return t < r.first; });
      rewards.emplace(at, e.t, reward);
      if (reward > best_reward) {
        best_reward = reward;
        best_reward_t = e.t;
      }
      break;
    }
    case JournalEventType::kEvalTimeout:
      if (e.t <= wall_time_s) ++timeouts;
      break;
    case JournalEventType::kEvalDispatched:
      break;
    case JournalEventType::kPpoUpdate:
      ++ppo_updates;
      ++per_agent[e.agent].ppo_updates;
      break;
    case JournalEventType::kPsExchange:
      ++ps_exchanges;
      if (e.field("mode") == 0.0) {
        ps_wait_seconds.push_back(e.field("wait_s"));
      } else {
        ps_staleness.push_back(e.field("staleness"));
      }
      break;
    case JournalEventType::kAgentConverged:
      if (std::find(converged_agents.begin(), converged_agents.end(), e.agent) ==
          converged_agents.end()) {
        converged_agents.push_back(e.agent);
      }
      break;
    case JournalEventType::kStragglerDetected:
      ++stragglers;
      break;
    case JournalEventType::kAgentStalled:
      ++stalls;
      break;
    // Fault and recovery events count unconditionally (no deadline filter):
    // a retry or crash is real even when the record it fed was cut by the
    // deadline, matching the SearchResult fault counters.
    case JournalEventType::kEvalFailed:
      ++eval_failures;
      break;
    case JournalEventType::kEvalRetried:
      ++retries;
      break;
    case JournalEventType::kEvalExhausted:
      ++exhausted;
      break;
    case JournalEventType::kResultLost:
      ++lost_results;
      break;
    case JournalEventType::kWorkerCrashed:
      ++crashed_workers;
      break;
    case JournalEventType::kAgentDead:
      ++dead_agents;
      break;
    case JournalEventType::kPsDropped:
      ++ps_dropped;
      break;
    case JournalEventType::kPsDelayed:
      ++ps_delayed;
      break;
    case JournalEventType::kBarrierTimeout:
      ++barrier_timeouts;
      break;
    case JournalEventType::kCheckpointWritten:
      ++checkpoints;
      break;
    case JournalEventType::kRunResumed:
      read_header(*this, e);
      ++resumes;
      resume_times.push_back(e.field("from_t", e.t));
      break;
    // Ladder events mirror the SearchResult ladder counters (no deadline
    // filter: rung trainings are real worker time whenever they ran).
    case JournalEventType::kLadderRung: {
      ++ladder_rung_events;
      const std::size_t candidates = to_count(e.field("candidates"));
      const std::size_t survivors = to_count(e.field("survivors"));
      const std::size_t trainings = to_count(e.field("trainings"));
      const std::size_t warm_starts = to_count(e.field("warm_starts"));
      const std::size_t rung_hits = to_count(e.field("rung_hits"));
      const std::size_t rung_timeouts = to_count(e.field("timeouts"));
      ladder_trainings += trainings;
      ladder_promotions += survivors;
      ladder_warm_starts += warm_starts;
      ladder_rung_hits += rung_hits;
      ladder_timeouts += rung_timeouts;
      LadderRungTotals& rt = ladder_rungs[to_int<std::uint32_t>(e.field("rung"), 0.0, 1e9)];
      rt.candidates += candidates;
      rt.survivors += survivors;
      rt.trainings += trainings;
      rt.warm_starts += warm_starts;
      rt.rung_hits += rung_hits;
      rt.timeouts += rung_timeouts;
      break;
    }
  }
}

RunSummary summarize_journal(const std::vector<JournalEvent>& events) {
  RunSummary sum;
  // Pre-scan for the deadline: eval events past the configured wall time are
  // dropped from SearchResult.evals, and the replay must match even when the
  // header event is not the first line.
  for (const JournalEvent& e : events) read_header(sum, e);
  for (const JournalEvent& e : events) sum.apply(e);
  if (sum.end_time_s == 0.0 && !sum.rewards.empty()) {
    sum.end_time_s = sum.rewards.back().first;
  }
  return sum;
}

std::vector<JournalEvent> merge_resumed_journal(std::vector<JournalEvent> prior,
                                                const std::vector<JournalEvent>& resumed) {
  const auto it = std::find_if(resumed.begin(), resumed.end(), [](const JournalEvent& e) {
    return e.type == JournalEventType::kRunResumed;
  });
  if (it == resumed.end()) {
    throw std::runtime_error("merge_resumed_journal: resumed journal has no run_resumed event");
  }
  if (it->field("prior_events", -1.0) < 0.0) {
    throw std::runtime_error("merge_resumed_journal: run_resumed carries no prior_events");
  }
  const std::size_t watermark = to_count(it->field("prior_events"));
  if (prior.size() < watermark) {
    throw std::runtime_error(
        "merge_resumed_journal: prior journal has " + std::to_string(prior.size()) +
        " events but the snapshot expected at least " + std::to_string(watermark) +
        " — these journals are not from the same run");
  }
  // Events past the watermark were emitted after the snapshot the resume
  // restarted from: that work was re-done (and re-logged) by the resumed
  // process, so keeping them would double-count it.
  prior.resize(watermark);
  prior.insert(prior.end(), resumed.begin(), resumed.end());
  for (std::size_t i = 0; i < prior.size(); ++i) prior[i].seq = i;
  return prior;
}

std::vector<JournalEvent> read_journal_lineage(const std::vector<std::string>& paths) {
  std::vector<JournalEvent> events;
  for (std::size_t j = 0; j < paths.size(); ++j) {
    std::ifstream in(paths[j]);
    if (!in) throw std::runtime_error("cannot open journal " + paths[j]);
    std::vector<JournalEvent> part = Journal::import_jsonl(in);
    // The first journal stands alone; each later one opens with a
    // run_resumed event whose watermark stitches it onto the lineage.
    events = j == 0 ? std::move(part) : merge_resumed_journal(std::move(events), part);
  }
  return events;
}

void export_run_summary_json(const RunSummary& sum, std::ostream& os) {
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
  const auto number_array = [&](const char* k, const std::vector<double>& vs) {
    key(k);
    os << '[';
    for (std::size_t i = 0; i < vs.size(); ++i) {
      if (i) os << ',';
      write_json_number(os, vs[i]);
    }
    os << "],";
  };

  os << '{';
  num("schema_version", kJournalSchemaVersion);
  boolean("has_run_started", sum.has_run_started);
  boolean("has_run_finished", sum.has_run_finished);
  num("strategy", sum.strategy);
  num("agents_declared", static_cast<double>(sum.agents_declared));
  num("workers_per_agent", static_cast<double>(sum.workers_per_agent));
  num("wall_time_s", sum.wall_time_s);
  num("end_time_s", sum.end_time_s);
  boolean("converged", sum.converged);
  num("evals", static_cast<double>(sum.evals));
  num("real_evals", static_cast<double>(sum.real_evals));
  num("cache_hits", static_cast<double>(sum.cache_hits));
  num("shared_cache_hits", static_cast<double>(sum.shared_cache_hits));
  num("timeouts", static_cast<double>(sum.timeouts));
  num("ppo_updates", static_cast<double>(sum.ppo_updates));
  num("ps_exchanges", static_cast<double>(sum.ps_exchanges));
  num("stragglers", static_cast<double>(sum.stragglers));
  num("stalls", static_cast<double>(sum.stalls));
  key("converged_agents");
  os << '[';
  for (std::size_t i = 0; i < sum.converged_agents.size(); ++i) {
    if (i) os << ',';
    os << sum.converged_agents[i];
  }
  os << "],";
  num("eval_failures", static_cast<double>(sum.eval_failures));
  num("retries", static_cast<double>(sum.retries));
  num("exhausted", static_cast<double>(sum.exhausted));
  num("lost_results", static_cast<double>(sum.lost_results));
  num("crashed_workers", static_cast<double>(sum.crashed_workers));
  num("dead_agents", static_cast<double>(sum.dead_agents));
  num("ps_dropped", static_cast<double>(sum.ps_dropped));
  num("ps_delayed", static_cast<double>(sum.ps_delayed));
  num("barrier_timeouts", static_cast<double>(sum.barrier_timeouts));
  num("checkpoints", static_cast<double>(sum.checkpoints));
  num("resumes", static_cast<double>(sum.resumes));
  number_array("resume_times", sum.resume_times);
  boolean("faulty", sum.faulty());
  num("ladder_rung_events", static_cast<double>(sum.ladder_rung_events));
  num("ladder_trainings", static_cast<double>(sum.ladder_trainings));
  num("ladder_promotions", static_cast<double>(sum.ladder_promotions));
  num("ladder_warm_starts", static_cast<double>(sum.ladder_warm_starts));
  num("ladder_rung_hits", static_cast<double>(sum.ladder_rung_hits));
  num("ladder_timeouts", static_cast<double>(sum.ladder_timeouts));
  key("ladder_rungs");
  os << '{';
  bool first_rung = true;
  for (const auto& [rung, rt] : sum.ladder_rungs) {
    if (!first_rung) os << ',';
    first_rung = false;
    write_json_string(os, std::to_string(rung));
    os << ":{\"candidates\":" << rt.candidates << ",\"survivors\":" << rt.survivors
       << ",\"trainings\":" << rt.trainings << ",\"warm_starts\":" << rt.warm_starts
       << ",\"rung_hits\":" << rt.rung_hits << ",\"timeouts\":" << rt.timeouts << '}';
  }
  os << "},";
  num("best_reward", sum.best_reward);
  num("best_reward_t", sum.best_reward_t);
  key("rewards");
  os << '[';
  for (std::size_t i = 0; i < sum.rewards.size(); ++i) {
    if (i) os << ',';
    os << "[";
    write_json_number(os, sum.rewards[i].first);
    os << ',';
    write_json_number(os, sum.rewards[i].second);
    os << ']';
  }
  os << "],";
  key("per_agent");
  os << '{';
  bool first_agent = true;
  for (const auto& [id, a] : sum.per_agent) {
    if (!first_agent) os << ',';
    first_agent = false;
    write_json_string(os, std::to_string(id));
    os << ":{";
    os << "\"evals\":" << a.evals << ",\"cached\":" << a.cached
       << ",\"timeouts\":" << a.timeouts << ",\"ppo_updates\":" << a.ppo_updates
       << ",\"last_event_t\":";
    write_json_number(os, a.last_event_t);
    os << ",\"best_reward\":";
    write_json_number(os, a.best_reward);
    os << ",\"rate_per_min\":";
    write_json_number(os, sum.agent_rate_per_min(id));
    os << '}';
  }
  os << "},";
  number_array("ps_wait_seconds", sum.ps_wait_seconds);
  key("ps_staleness");
  os << '[';
  for (std::size_t i = 0; i < sum.ps_staleness.size(); ++i) {
    if (i) os << ',';
    write_json_number(os, sum.ps_staleness[i]);
  }
  os << ']';
  os << "}\n";
}

void export_chrome_trace(const std::vector<JournalEvent>& events, std::ostream& os) {
  os << "{\"traceEvents\":[";
  bool first = true;
  for (const JournalEvent& e : events) {
    // Spans: an evaluation occupies its worker from dispatch for duration_s;
    // a sync exchange idles its agent from arrival until the barrier release
    // the event is stamped with (the A2C sawtooth).
    const char* name = journal_event_name(e.type);
    const char* cat = "journal";
    double start = e.t;
    double dur = -1.0;  // < 0: instant
    if (e.type == JournalEventType::kEvalDispatched) {
      name = "eval";
      cat = "exec";
      dur = e.field("duration_s");
    } else if (e.type == JournalEventType::kPsExchange && e.field("mode") == 0.0) {
      name = "a2c_barrier_wait";
      cat = "ps";
      dur = e.field("wait_s");
      start = e.t - dur;
    }
    os << (first ? "\n" : ",\n") << "{\"name\":\"" << name << "\",\"cat\":\"" << cat
       << "\",\"ph\":\"" << (dur >= 0.0 ? 'X' : 'i') << "\",\"ts\":";
    first = false;
    write_json_number(os, start * 1e6);
    if (dur >= 0.0) {
      os << ",\"dur\":";
      write_json_number(os, dur * 1e6);
    } else {
      os << ",\"s\":\"t\"";  // instant scope: thread
    }
    os << ",\"pid\":0,\"tid\":";
    if (e.agent == kNoAgent) {
      os << -1;
    } else {
      os << e.agent;
    }
    os << ",\"args\":{";
    for (std::size_t i = 0; i < e.payload.size(); ++i) {
      if (i) os << ',';
      write_json_string(os, e.payload[i].key);
      os << ':';
      write_json_number(os, e.payload[i].value);
    }
    os << "}}";
  }
  os << "\n],\"displayTimeUnit\":\"ms\"}\n";
}

}  // namespace ncnas::obs
