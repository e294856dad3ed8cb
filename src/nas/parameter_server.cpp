#include "ncnas/nas/parameter_server.hpp"

#include <algorithm>
#include <stdexcept>

#include "ncnas/obs/profiler.hpp"

namespace ncnas::nas {

ParameterServer::ParameterServer(std::vector<float> initial, Mode mode, std::size_t num_agents,
                                 std::size_t async_window)
    : mode_(mode),
      num_agents_(num_agents),
      async_window_(async_window == 0 ? 1 : async_window),
      params_(std::move(initial)),
      submitted_(num_agents, false),
      active_(num_agents, true),
      active_count_(num_agents),
      pulled_version_(num_agents, 0),
      arrival_time_(num_agents, 0.0) {
  if (num_agents == 0) throw std::invalid_argument("ParameterServer: need agents");
  if (params_.empty()) throw std::invalid_argument("ParameterServer: empty parameter vector");
  if (mode_ == Mode::kSync) pending_.resize(num_agents);
}

void ParameterServer::set_telemetry(obs::Telemetry* telemetry) {
  telemetry_ = telemetry;
  if (telemetry_ == nullptr) {
    delta_applies_ = nullptr;
    window_depth_ = nullptr;
    return;
  }
  obs::MetricsRegistry& m = telemetry_->metrics();
  delta_applies_ = &m.counter("ncnas_ps_delta_applies_total");
  window_depth_ = &m.gauge("ncnas_a3c_async_window_depth");
}

const std::vector<float>& ParameterServer::pull(std::size_t agent) {
  NCNAS_PROF_SCOPE("ps/pull");
  if (agent >= num_agents_) throw std::invalid_argument("ParameterServer: bad agent id");
  pulled_version_[agent] = updates_applied_;
  return params_;
}

void ParameterServer::apply(std::span<const float> delta, float scale) {
  if (delta.size() != params_.size()) {
    throw std::invalid_argument("ParameterServer: delta dimension mismatch");
  }
  for (std::size_t i = 0; i < params_.size(); ++i) params_[i] += scale * delta[i];
  ++updates_applied_;
  if (delta_applies_ != nullptr) delta_applies_->inc();
}

bool ParameterServer::submit(std::size_t agent, std::span<const float> delta, double now) {
  NCNAS_PROF_SCOPE("ps/submit");
  if (agent >= num_agents_) throw std::invalid_argument("ParameterServer: bad agent id");
  if (delta.size() != params_.size()) {
    throw std::invalid_argument("ParameterServer: delta dimension mismatch");
  }

  if (mode_ == Mode::kAsync) {
    // An async exchange completes at the submit itself. Staleness is counted
    // in PS updates that landed between the agent's pull and this submit; 0
    // means the agent trained on fresh parameters.
    if (telemetry_ != nullptr) {
      const auto staleness = static_cast<double>(updates_applied_ - pulled_version_[agent]);
      telemetry_->emit(obs::JournalEventType::kPsExchange, now,
                       static_cast<std::uint32_t>(agent),
                       {{"mode", 1.0}, {"staleness", staleness}});
    }
    if (async_window_ <= 1) {
      apply(delta, 1.0f);
      return true;
    }
    // Keep the newest `window` deltas; apply their mean. Old deltas in the
    // window model the paper's "average of recently received gradients".
    std::vector<float> copy(delta.begin(), delta.end());
    if (recent_.size() < async_window_) {
      recent_.push_back(std::move(copy));
    } else {
      recent_[recent_next_] = std::move(copy);
      recent_next_ = (recent_next_ + 1) % async_window_;
    }
    if (window_depth_ != nullptr) window_depth_->set(static_cast<double>(recent_.size()));
    std::vector<float> avg(params_.size(), 0.0f);
    for (const auto& d : recent_) {
      for (std::size_t i = 0; i < avg.size(); ++i) avg[i] += d[i];
    }
    const float inv = 1.0f / static_cast<float>(recent_.size());
    for (float& v : avg) v *= inv;
    apply(avg, 1.0f);
    return true;
  }

  // Sync barrier.
  if (!active_[agent]) {
    throw std::logic_error("ParameterServer: deactivated agent submitted");
  }
  if (submitted_[agent]) {
    throw std::logic_error("ParameterServer: agent submitted twice in one round");
  }
  submitted_[agent] = true;
  arrival_time_[agent] = now;
  last_arrival_ = std::max(last_arrival_, now);
  pending_[agent].assign(delta.begin(), delta.end());
  ++pending_count_;
  if (!barrier_complete()) return false;
  release_round(now);
  return true;
}

bool ParameterServer::barrier_complete() const noexcept {
  if (mode_ != Mode::kSync || pending_count_ == 0) return false;
  for (std::size_t a = 0; a < num_agents_; ++a) {
    if (active_[a] && !submitted_[a]) return false;
  }
  return true;
}

void ParameterServer::set_absent_timeout(double seconds) {
  if (seconds < 0.0) throw std::invalid_argument("ParameterServer: negative absent timeout");
  absent_timeout_ = seconds;
}

bool ParameterServer::try_release(double now) {
  if (mode_ != Mode::kSync || absent_timeout_ <= 0.0) return false;
  if (pending_count_ == 0) return false;
  if (now < last_arrival_ + absent_timeout_) return false;
  std::size_t absent = 0;
  for (std::size_t a = 0; a < num_agents_; ++a) {
    if (active_[a] && !submitted_[a]) ++absent;
  }
  if (telemetry_ != nullptr) {
    telemetry_->emit(obs::JournalEventType::kBarrierTimeout, now, obs::kNoAgent,
                     {{"absent", static_cast<double>(absent)}, {"timeout_s", absent_timeout_}});
  }
  release_round(now);
  return true;
}

bool ParameterServer::deactivate(std::size_t agent, double now) {
  if (agent >= num_agents_) throw std::invalid_argument("ParameterServer: bad agent id");
  if (mode_ != Mode::kSync || !active_[agent]) return false;
  active_[agent] = false;
  --active_count_;
  // The dead agent's removal may be exactly what completes the round: the
  // remaining live agents are all at the barrier waiting on it.
  if (!barrier_complete()) return false;
  release_round(now);
  return true;
}

ParameterServer::State ParameterServer::export_state() const {
  State out;
  out.params = params_;
  out.pending = pending_;
  out.submitted.assign(submitted_.begin(), submitted_.end());
  out.active.assign(active_.begin(), active_.end());
  out.active_count = active_count_;
  out.pending_count = pending_count_;
  out.last_arrival = last_arrival_;
  out.recent = recent_;
  out.recent_next = recent_next_;
  out.updates_applied = updates_applied_;
  out.pulled_version = pulled_version_;
  out.arrival_time = arrival_time_;
  return out;
}

void ParameterServer::import_state(const State& state) {
  if (state.params.size() != params_.size()) {
    throw std::invalid_argument("ParameterServer::import_state: parameter dim mismatch");
  }
  if (state.submitted.size() != num_agents_ || state.active.size() != num_agents_ ||
      state.pulled_version.size() != num_agents_ || state.arrival_time.size() != num_agents_) {
    throw std::invalid_argument("ParameterServer::import_state: agent count mismatch");
  }
  if (mode_ == Mode::kSync && state.pending.size() != num_agents_) {
    throw std::invalid_argument("ParameterServer::import_state: pending round mismatch");
  }
  std::size_t submitted = 0;
  std::size_t active = 0;
  for (std::size_t a = 0; a < num_agents_; ++a) {
    submitted += state.submitted[a] != 0 ? 1 : 0;
    active += state.active[a] != 0 ? 1 : 0;
    if (state.submitted[a] != 0 &&
        (mode_ != Mode::kSync || state.pending[a].size() != params_.size())) {
      throw std::invalid_argument("ParameterServer::import_state: submitted delta mismatch");
    }
  }
  if (submitted != state.pending_count || active != state.active_count) {
    throw std::invalid_argument("ParameterServer::import_state: barrier count mismatch");
  }
  const auto wrong_dim = [&](const std::vector<float>& d) { return d.size() != params_.size(); };
  if (state.recent.size() > async_window_ || state.recent_next >= async_window_ ||
      std::ranges::any_of(state.recent, wrong_dim)) {
    throw std::invalid_argument("ParameterServer::import_state: async window mismatch");
  }
  params_ = state.params;
  pending_ = state.pending;
  submitted_.assign(state.submitted.begin(), state.submitted.end());
  active_.assign(state.active.begin(), state.active.end());
  active_count_ = state.active_count;
  pending_count_ = state.pending_count;
  last_arrival_ = state.last_arrival;
  recent_ = state.recent;
  recent_next_ = state.recent_next;
  updates_applied_ = state.updates_applied;
  pulled_version_ = state.pulled_version;
  arrival_time_ = state.arrival_time;
}

void ParameterServer::release_round(double now) {
  // Round release: each submitted agent idled from its arrival until the
  // round closed — the A2C sawtooth in paper Fig. 5. On a full round this is
  // every agent; a partial (timeout / deactivation) release only covers the
  // deltas that actually arrived.
  if (telemetry_ != nullptr) {
    for (std::size_t a = 0; a < num_agents_; ++a) {
      if (!submitted_[a]) continue;
      const double wait = now - arrival_time_[a];
      // A sync exchange completes only at barrier release: one event per
      // agent of the round, stamped at the release time (the paper's A2C
      // sawtooth: wait_s is the idle gap). Submissions of a round the
      // deadline cut short are deliberately not counted.
      telemetry_->emit(obs::JournalEventType::kPsExchange, now, static_cast<std::uint32_t>(a),
                       {{"mode", 0.0}, {"wait_s", wait}});
    }
  }

  // Apply the average of the arrived deltas, reset the barrier. On a full
  // round pending_count_ == num_agents_, so the scale is bit-identical to
  // the fault-free server.
  std::vector<float> avg(params_.size(), 0.0f);
  for (std::size_t a = 0; a < num_agents_; ++a) {
    if (!submitted_[a]) continue;  // absent agents hold no delta this round
    const std::vector<float>& d = pending_[a];
    for (std::size_t i = 0; i < avg.size(); ++i) avg[i] += d[i];
  }
  const float inv = 1.0f / static_cast<float>(pending_count_);
  for (float& v : avg) v *= inv;
  apply(avg, 1.0f);
  for (auto& d : pending_) d.clear();
  submitted_.assign(num_agents_, false);
  pending_count_ = 0;
}

}  // namespace ncnas::nas
