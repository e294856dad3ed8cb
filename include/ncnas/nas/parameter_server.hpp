// ParameterServer — the coordination point of the manager/worker RL scheme
// (paper Fig. 2).
//
// Agents train local copies of the controller and submit parameter *deltas*
// (the net effect of their local PPO epochs, a gradient estimate scaled by
// the optimizer). Two protocols:
//
//   kSync (A2C): the PS holds a barrier; once all N agents of a round have
//   submitted, it applies the average delta and releases everyone. Agents
//   idle at the barrier — the cause of A2C's sawtooth utilization.
//
//   kAsync (A3C): a submission is averaged with the most recent window of
//   deltas and applied immediately; the reply carries the new parameters.
//   No agent ever waits, at the price of gradient staleness.
//
// The driver invokes the PS at deterministic virtual times, so no locking is
// needed; the PS is pure bookkeeping. When a Telemetry sink is attached the
// PS reports async-window depth (A3C) and delta-apply counts, and emits one
// ps_exchange event per completed exchange — carrying the barrier wait (A2C)
// or gradient staleness (A3C) that the telemetry renders as histograms —
// plus a barrier_timeout event per forced release; `now` on submit() carries
// the driver's virtual clock for those measurements.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "ncnas/obs/telemetry.hpp"

namespace ncnas::nas {

class ParameterServer {
 public:
  enum class Mode { kSync, kAsync };

  ParameterServer(std::vector<float> initial, Mode mode, std::size_t num_agents,
                  std::size_t async_window = 1);

  [[nodiscard]] Mode mode() const noexcept { return mode_; }
  [[nodiscard]] const std::vector<float>& params() const noexcept { return params_; }
  [[nodiscard]] std::size_t dim() const noexcept { return params_.size(); }
  [[nodiscard]] std::size_t updates_applied() const noexcept { return updates_applied_; }

  /// Attach a telemetry sink (null to detach). Pure observation.
  void set_telemetry(obs::Telemetry* telemetry);

  /// Parameter pull that remembers which version `agent` saw, so the PS can
  /// report the gradient staleness of its next submission. Identical payload
  /// to params().
  [[nodiscard]] const std::vector<float>& pull(std::size_t agent);

  /// Async: applies (the windowed average of) `delta` immediately; returns
  /// true. Sync: parks the delta; returns true only when this submission
  /// completed the barrier (the caller then releases all agents).
  /// `now` is the submitting agent's virtual time, used only for telemetry.
  bool submit(std::size_t agent, std::span<const float> delta, double now = 0.0);

  /// Sync only: true when every *active* agent of the round has submitted
  /// (and at least one delta is pending).
  [[nodiscard]] bool barrier_complete() const noexcept;
  /// Sync only: true while the round still waits on `agent` (it is active and
  /// has not submitted).
  [[nodiscard]] bool awaits(std::size_t agent) const {
    return active_[agent] && !submitted_[agent];
  }

  // ---- failure tolerance (sync mode) ---------------------------------------
  // The fault-injection layer exercises two A2C failure shapes: an agent
  // whose exchange was dropped in flight (it may return next round) and an
  // agent that died outright (it never returns). The barrier must release
  // a partial round in both cases instead of deadlocking the cluster.

  /// Seconds the barrier tolerates absent agents after the latest arrival
  /// before try_release() may force a partial round. 0 (default) waits
  /// forever — the pre-fault behavior.
  void set_absent_timeout(double seconds);
  [[nodiscard]] double absent_timeout() const noexcept { return absent_timeout_; }

  /// Sync only: releases an incomplete round — averaging only the deltas
  /// that arrived — once `now` is at least absent_timeout past the latest
  /// arrival. Returns true when it released; false when the timeout is
  /// unset, the window has not elapsed, or nothing is pending.
  bool try_release(double now);

  /// Sync only: permanently removes `agent` from barrier accounting (its
  /// worker pool died). If the round thereby completes it is released at
  /// `now` and true is returned. A deactivated agent must not submit again.
  bool deactivate(std::size_t agent, double now = 0.0);

  [[nodiscard]] std::size_t active_agents() const noexcept { return active_count_; }

  /// --- checkpoint/restore ---------------------------------------------------
  /// Full mutable server state. Mode, agent count, async window, and the
  /// absent timeout are config-derived and therefore not part of it — the
  /// resume path reconstructs the server from the same SearchConfig and then
  /// imports this. vector<bool> is avoided in the wire form on purpose.
  struct State {
    std::vector<float> params;
    std::vector<std::vector<float>> pending;
    std::vector<std::uint8_t> submitted;
    std::vector<std::uint8_t> active;
    std::size_t active_count = 0;
    std::size_t pending_count = 0;
    double last_arrival = 0.0;
    std::vector<std::vector<float>> recent;
    std::size_t recent_next = 0;
    std::size_t updates_applied = 0;
    std::vector<std::size_t> pulled_version;
    std::vector<double> arrival_time;
  };
  [[nodiscard]] State export_state() const;
  /// Throws std::invalid_argument when the state's agent count or parameter
  /// dimension does not match this server.
  void import_state(const State& state);

 private:
  void apply(std::span<const float> delta, float scale);
  void release_round(double now);

  Mode mode_;
  std::size_t num_agents_;
  std::size_t async_window_;
  std::vector<float> params_;
  // Sync barrier state.
  std::vector<std::vector<float>> pending_;
  std::vector<bool> submitted_;
  std::vector<bool> active_;
  std::size_t active_count_ = 0;
  std::size_t pending_count_ = 0;
  double absent_timeout_ = 0.0;
  double last_arrival_ = 0.0;
  // Async window state (ring buffer of recent deltas).
  std::vector<std::vector<float>> recent_;
  std::size_t recent_next_ = 0;
  std::size_t updates_applied_ = 0;
  // Telemetry bookkeeping (kept current even when detached — a handful of
  // scalar writes — so attaching mid-run still reports sane staleness).
  std::vector<std::size_t> pulled_version_;
  std::vector<double> arrival_time_;
  obs::Telemetry* telemetry_ = nullptr;
  obs::Counter* delta_applies_ = nullptr;
  obs::Gauge* window_depth_ = nullptr;
};

}  // namespace ncnas::nas
