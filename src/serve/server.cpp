#include "ncnas/serve/server.hpp"

#include <algorithm>
#include <sstream>
#include <utility>

#include "ncnas/obs/telemetry.hpp"

namespace ncnas::serve {

namespace {

bool valid_tenant_name(const std::string& name) {
  if (name.empty()) return false;
  for (char c : name) {
    const bool ok = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || (c >= '0' && c <= '9') ||
                    c == '_' || c == '.' || c == ':' || c == '-';
    if (!ok) return false;
  }
  return true;
}

}  // namespace

SearchServer::SearchServer(ServeConfig config)
    : config_(std::move(config)),
      scheduler_(config_.total_slots == 0 ? 1 : config_.total_slots) {
  if (config_.total_slots == 0) {
    throw std::invalid_argument("SearchServer: total_slots must be positive");
  }
  if (config_.quantum_seconds <= 0.0) {
    throw std::invalid_argument("SearchServer: quantum_seconds must be positive");
  }
  if (config_.max_tenants == 0) {
    throw std::invalid_argument("SearchServer: max_tenants must be positive");
  }
  if (config_.state_dir.empty()) {
    throw std::invalid_argument("SearchServer: state_dir is required");
  }
}

std::size_t SearchServer::active_tenants() const noexcept {
  std::size_t n = 0;
  for (const auto& s : sessions_) {
    if (s->unfinished()) ++n;
  }
  return n;
}

std::uint32_t SearchServer::submit(TenantSpec spec) {
  const auto reject = [this](const std::string& why) -> std::uint32_t {
    ++rejections_;
    if (config_.telemetry != nullptr) {
      config_.telemetry->metrics().counter("ncnas_server_rejections_total").inc();
    }
    throw AdmissionError("SearchServer::submit: " + why);
  };

  if (!valid_tenant_name(spec.name)) {
    return reject("tenant name must be non-empty [A-Za-z0-9_.:-], got '" + spec.name + "'");
  }
  for (const auto& s : sessions_) {
    if (s->name() == spec.name) return reject("tenant name '" + spec.name + "' already hosted");
  }
  if (spec.space == nullptr || spec.dataset == nullptr) {
    return reject("tenant '" + spec.name + "' needs a search space and a dataset");
  }
  if (spec.priority <= 0.0) {
    return reject("tenant '" + spec.name + "' priority must be positive");
  }
  const std::size_t request = spec.config.cluster.total_workers();
  if (request == 0) {
    return reject("tenant '" + spec.name + "' requests an empty cluster");
  }
  if (request > config_.total_slots) {
    return reject("tenant '" + spec.name + "' gang of " + std::to_string(request) +
                  " slots can never fit the pool of " + std::to_string(config_.total_slots));
  }
  if (spec.quota.max_slots != 0 && request > spec.quota.max_slots) {
    return reject("tenant '" + spec.name + "' gang of " + std::to_string(request) +
                  " slots exceeds its own quota of " + std::to_string(spec.quota.max_slots));
  }
  if (active_tenants() >= config_.max_tenants) {
    return reject("server full (" + std::to_string(config_.max_tenants) +
                  " active tenants); retry after one finishes");
  }

  const auto id = static_cast<std::uint32_t>(sessions_.size() + 1);
  const double priority = spec.priority;
  const std::string name = spec.name;
  try {
    sessions_.push_back(std::make_unique<TenantSession>(
        id, std::move(spec), config_.quantum_seconds,
        config_.state_dir + "/tenant-" + std::to_string(id), config_.shared_cache, config_.pool));
  } catch (const std::invalid_argument& e) {
    return reject("tenant '" + name + "': " + e.what());
  }
  scheduler_.add_tenant(id, priority, request);
  refresh_observability();
  return id;
}

bool SearchServer::step() {
  if (active_tenants() == 0) return false;

  const std::vector<std::uint32_t> grants = scheduler_.next_round();
  for (std::uint32_t id : grants) {
    TenantSession& s = session_ref(id);
    s.set_state(TenantState::kRunning);
    const SliceOutcome outcome = s.run_slice();
    scheduler_.release(id);
    if (outcome != SliceOutcome::kExpired) {
      // Finished or failed: out of the competition for good.
      scheduler_.set_runnable(id, false);
    }
  }
  refresh_observability();
  return active_tenants() != 0;
}

void SearchServer::run() {
  while (step()) {
  }
}

TenantSession& SearchServer::session_ref(std::uint32_t id) {
  if (id == 0 || id > sessions_.size()) {
    throw std::out_of_range("SearchServer: unknown tenant id " + std::to_string(id));
  }
  return *sessions_[id - 1];
}

const TenantSession& SearchServer::session_ref(std::uint32_t id) const {
  if (id == 0 || id > sessions_.size()) {
    throw std::out_of_range("SearchServer: unknown tenant id " + std::to_string(id));
  }
  return *sessions_[id - 1];
}

TenantState SearchServer::state(std::uint32_t id) const { return session_ref(id).state(); }

const nas::SearchResult& SearchServer::result(std::uint32_t id) const {
  return session_ref(id).result();
}

std::vector<obs::JournalEvent> SearchServer::journal(std::uint32_t id) const {
  return session_ref(id).journal();
}

const TenantSession& SearchServer::session(std::uint32_t id) const { return session_ref(id); }

std::string SearchServer::tenants_json() const {
  std::ostringstream os;
  os << "{\"schema_version\":1,\"round\":" << rounds() << ",\"virtual_time_s\":" << virtual_time()
     << ",\"quantum_s\":" << config_.quantum_seconds << ",\"total_slots\":" << config_.total_slots
     << ",\"free_slots\":" << scheduler_.free_slots()
     << ",\"active_tenants\":" << active_tenants() << ",\"rejections\":" << rejections_
     << ",\"tenants\":[";
  for (std::size_t i = 0; i < sessions_.size(); ++i) {
    const TenantSession& s = *sessions_[i];
    const obs::RunSummary& sum = s.summary();
    if (i != 0) os << ',';
    os << "{\"id\":" << s.id() << ",\"name\":\"" << s.name() << "\",\"state\":\""
       << tenant_state_name(s.state()) << "\",\"priority\":" << s.spec().priority
       << ",\"slots\":" << s.slot_request() << ",\"slices\":" << s.slices()
       << ",\"preemptions\":" << s.preemptions() << ",\"grants\":" << scheduler_.grants(s.id())
       << ",\"evals\":" << sum.evals << ",\"cache_hits\":" << sum.cache_hits
       << ",\"shared_cache_hits\":" << sum.shared_cache_hits
       << ",\"rung_trainings\":" << sum.ladder_trainings
       << ",\"eval_budget\":" << s.spec().quota.eval_budget << ",\"best_reward\":";
    if (sum.evals > 0) {
      os << sum.best_reward;
    } else {
      os << "null";
    }
    if (s.state() == TenantState::kFailed) {
      // Error strings come from exception messages; keep the JSON valid.
      os << ",\"error\":\"";
      for (char c : s.error()) {
        if (c == '"' || c == '\\') os << '\\' << c;
        else if (c == '\n') os << "\\n";
        else if (static_cast<unsigned char>(c) >= 0x20) os << c;
      }
      os << '"';
    }
    os << '}';
  }
  os << "]}";
  return os.str();
}

void SearchServer::bump_counter(const std::string& name, const std::string& tenant,
                                std::uint64_t target) {
  const std::string full = name + "{tenant=\"" + tenant + "\"}";
  // Looked up even at target 0: submit() refreshes right after admission,
  // so every tenant series is in the exposition, at 0, from then on.
  obs::Counter& counter = config_.telemetry->metrics().counter(full);
  std::uint64_t& mark = counter_marks_[full];
  if (target > mark) {
    counter.inc(target - mark);
    mark = target;
  }
}

void SearchServer::refresh_observability() {
  if (config_.telemetry == nullptr) return;
  obs::MetricsRegistry& reg = config_.telemetry->metrics();

  reg.gauge("ncnas_server_rounds").set(static_cast<double>(rounds()));
  reg.gauge("ncnas_server_free_slots").set(static_cast<double>(scheduler_.free_slots()));
  reg.gauge("ncnas_server_active_tenants").set(static_cast<double>(active_tenants()));

  std::size_t total_evals = 0;
  std::size_t total_shared = 0;
  bool any_best = false;
  float best = 0.0f;
  for (const auto& sp : sessions_) {
    const TenantSession& s = *sp;
    const obs::RunSummary& sum = s.summary();
    bump_counter("ncnas_tenant_slices_total", s.name(), s.slices());
    bump_counter("ncnas_tenant_preemptions_total", s.name(), s.preemptions());
    bump_counter("ncnas_tenant_grants_total", s.name(), scheduler_.grants(s.id()));
    bump_counter("ncnas_tenant_evals_total", s.name(), sum.evals);
    bump_counter("ncnas_tenant_cache_hits_total", s.name(), sum.cache_hits);
    bump_counter("ncnas_tenant_shared_cache_hits_total", s.name(), sum.shared_cache_hits);
    bump_counter("ncnas_tenant_rung_trainings_total", s.name(), sum.ladder_trainings);
    reg.gauge("ncnas_tenant_state{tenant=\"" + s.name() + "\"}")
        .set(static_cast<double>(static_cast<std::uint8_t>(s.state())));
    total_evals += sum.evals;
    total_shared += sum.shared_cache_hits;
    if (sum.evals > 0 && (!any_best || sum.best_reward > best)) {
      any_best = true;
      best = sum.best_reward;
    }
  }

  if (obs::Exporter* exporter = config_.telemetry->exporter(); exporter != nullptr) {
    exporter->set_payload("/tenants", "application/json", tenants_json());
    obs::ProgressSnapshot progress;
    progress.virtual_time = virtual_time();
    progress.strategy = "serve";
    progress.finished = active_tenants() == 0 && !sessions_.empty();
    progress.evals_done = total_evals;
    progress.cache_hits = total_shared;
    progress.best_reward = best;
    progress.has_best = any_best;
    exporter->publish(virtual_time(), std::move(progress));
  }
}

}  // namespace ncnas::serve
