#include "ncnas/serve/session.hpp"

#include <algorithm>
#include <stdexcept>
#include <utility>

namespace ncnas::serve {

const char* tenant_state_name(TenantState s) {
  switch (s) {
    case TenantState::kQueued: return "queued";
    case TenantState::kRunning: return "running";
    case TenantState::kPreempted: return "preempted";
    case TenantState::kFinished: return "finished";
    case TenantState::kFailed: return "failed";
  }
  return "unknown";
}

namespace {

nas::SearchConfig tenant_config(const TenantSpec& spec, std::uint32_t id,
                                exec::SharedEvalCache* shared_cache,
                                const ckpt::CheckpointConfig* checkpoint,
                                obs::Telemetry* telemetry) {
  nas::SearchConfig cfg = spec.config;
  cfg.tenant_id = id;
  cfg.shared_cache = spec.use_shared_cache ? shared_cache : nullptr;
  if (spec.quota.eval_budget != 0) {
    cfg.max_evaluations = cfg.max_evaluations == 0
                              ? spec.quota.eval_budget
                              : std::min(cfg.max_evaluations, spec.quota.eval_budget);
  }
  // The session's checkpoint and telemetry replace whatever the spec
  // carried; both are result-neutral, so the tenant's search is still the
  // search its fingerprint describes.
  cfg.checkpoint = checkpoint;
  cfg.telemetry = telemetry;
  return cfg;
}

}  // namespace

TenantSession::TenantSession(std::uint32_t id, TenantSpec spec, double quantum_seconds,
                             std::string state_dir, exec::SharedEvalCache* shared_cache,
                             tensor::ThreadPool* pool)
    : id_(id),
      spec_(std::move(spec)),
      checkpoint_{.directory = std::move(state_dir),
                  .interval_seconds = quantum_seconds,
                  .keep_last = 2},
      driver_(*spec_.space, *spec_.dataset,
              tenant_config(spec_, id, shared_cache, &checkpoint_, &telemetry_), pool) {
  telemetry_.enable_journal();
}

const nas::SearchResult& TenantSession::result() const {
  if (state_ != TenantState::kFinished) {
    throw std::logic_error("TenantSession::result: tenant '" + spec_.name + "' is " +
                           tenant_state_name(state_) + ", not finished");
  }
  return result_;
}

std::vector<obs::JournalEvent> TenantSession::journal() const {
  return telemetry_.journal()->snapshot();
}

SliceOutcome TenantSession::run_slice() {
  try {
    // The quantum boundaries are the checkpoint cadence, so every pause
    // lands where a snapshot is written.
    if (!driver_.advance(
            ckpt::next_checkpoint_time(driver_.virtual_time(), checkpoint_.interval_seconds))) {
      ++slices_;
      ++preemptions_;
      state_ = TenantState::kPreempted;
      return SliceOutcome::kExpired;
    }
    result_ = driver_.run();
    ++slices_;
    state_ = TenantState::kFinished;
    return SliceOutcome::kCompleted;
  } catch (const std::exception& err) {
    error_ = err.what();
    state_ = TenantState::kFailed;
    return SliceOutcome::kFailed;
  }
}

}  // namespace ncnas::serve
