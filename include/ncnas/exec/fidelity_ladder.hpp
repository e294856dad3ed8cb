// FidelityLadder — successive-halving multi-fidelity reward estimation
// (Hyperband-style; Elsken et al. survey §4, Cassimon et al. 2024).
//
// Reward estimation is ~all of NAS compute. Instead of training every
// candidate at the full fidelity, the ladder trains the whole batch at a
// cheap bottom rung (few epochs, small data subset), keeps only the top
// `ceil(n/eta)` by reward, and promotes the survivors to the next rung.
// Promoted candidates inherit their trained weights (warm start): rung r+1
// resumes `nn::fit` on the same `nn::Graph`, paying only the *delta* epochs
// between rungs, so the full-fidelity signal the controller learns from
// costs a fraction of a flat evaluation. Non-promoted candidates report
// their highest-rung reward — a noisier but rank-faithful signal, which is
// exactly the trade successive halving makes.
//
// Cache contract: every rung is its own evaluation context. Rung results
// are cached (per-agent and shared) under `rung_context_key(r)`, which
// appends the ladder shape and rung index to the flat eval_context_key of
// that rung's fidelity — a rung-0 reward (1 epoch) and a flat reward (same
// fidelity config outside a ladder) must never alias, nor may two rungs of
// the same ladder. See DESIGN.md ("rung keys are disjoint cache contexts").
//
// Determinism: candidates within a rung are independent (own Graph, own
// Rng streams derived from the agent seed), so intra-rung training may run
// pool-parallel and stays bit-identical across thread counts. Promotion is
// decided serially after the rung barrier: sort by (reward desc, batch
// index asc) — rank-stable under reward ties by construction.
#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "ncnas/exec/evaluator.hpp"
#include "ncnas/exec/shared_cache.hpp"
#include "ncnas/tensor/thread_pool.hpp"

namespace ncnas::exec {

/// Ladder shape. Disabled (size < 2 rungs) by default, so a
/// default-constructed config leaves every existing code path — and every
/// existing result bit — untouched.
struct LadderConfig {
  /// Rung fidelities, cheapest first. `epochs` are CUMULATIVE totals: a
  /// candidate promoted into rung r has trained rungs[r].epochs epochs in
  /// total (warm starts pay the delta vs the previous rung). Epochs must be
  /// non-decreasing; the last rung is the full-fidelity signal.
  std::vector<FidelityConfig> rungs;
  /// Promotion divisor: `ceil(alive / eta)` candidates survive each rung.
  std::size_t eta = 3;

  [[nodiscard]] bool enabled() const noexcept { return rungs.size() >= 2; }
  /// Canonical encoding for config_fingerprint / context keys.
  [[nodiscard]] std::string fingerprint() const;
  /// Throws std::invalid_argument on a malformed ladder (eta < 2, epochs
  /// decreasing, zero epochs). A disabled ladder is always valid.
  void validate() const;
};

/// Convenience constructor: a geometric ladder ending at `top` with `rungs`
/// levels, epochs divided by `eta` per step down (floored at 1).
[[nodiscard]] LadderConfig make_geometric_ladder(const FidelityConfig& top,
                                                 std::size_t rungs, std::size_t eta);

/// Per-rung accounting for one evaluate_batch call, in rung order. The
/// driver turns these into ladder_rung journal events and
/// ncnas_fidelity_* counters.
struct LadderRungStats {
  std::size_t rung = 0;
  std::size_t candidates = 0;   ///< entered this rung
  std::size_t survivors = 0;    ///< promoted to the next rung (0 at the top)
  std::size_t trainings = 0;    ///< real trainings run at this rung
  std::size_t warm_starts = 0;  ///< trainings resumed from inherited weights
  std::size_t rung_hits = 0;    ///< shared-cache hits at this rung's context
  std::size_t timeouts = 0;     ///< candidates killed by the cost model here
};

/// One candidate's ladder outcome: the final (highest-rung) result plus the
/// number of trainings it consumed — the rung-weighted budget unit.
struct LadderOutcome {
  EvalResult result;
  std::size_t trainings = 0;
};

/// Multi-fidelity evaluator. Its ladder-level context key is disjoint from
/// any flat key, so an agent cache keyed on it never mixes the two; a
/// single-candidate evaluate() is successive halving with n = 1, i.e. the
/// candidate climbs every rung via warm starts.
class FidelityLadder {
 public:
  /// `space` and `dataset` must outlive the ladder. `config` must validate.
  FidelityLadder(const space::SearchSpace& space, const data::Dataset& dataset,
                 LadderConfig config, CostModel cost);

  /// Installs a custom reward (applied at every rung); nullptr restores the
  /// plain metric.
  void set_reward_fn(RewardFn fn) { reward_fn_ = std::move(fn); }

  /// Attach a telemetry sink (null to detach): rung trainings record their
  /// wall time in the same histogram as TrainingEvaluator's.
  void set_telemetry(obs::Telemetry* telemetry);

  /// Attach the process-wide shared cache: each rung then consults (and
  /// feeds) the store under its own rung context, so one tenant's rung
  /// trainings seed another tenant's promotions. Null detaches.
  void set_shared_cache(SharedEvalCache* cache, std::uint32_t tenant) {
    shared_ = cache;
    tenant_ = tenant;
  }

  /// Evaluates a batch through the full ladder. Intra-rung trainings run on
  /// `pool` when provided (bit-identical to serial). `stats`, when non-null,
  /// receives one entry per rung that saw at least one candidate.
  [[nodiscard]] std::vector<LadderOutcome> evaluate_batch(
      std::span<const space::ArchEncoding> archs, std::uint64_t seed,
      std::vector<LadderRungStats>* stats = nullptr,
      tensor::ThreadPool* pool = nullptr) const;

  [[nodiscard]] EvalResult evaluate(const space::ArchEncoding& arch, std::uint64_t seed) const;

  /// Ladder-level context: the top rung's flat context plus the full ladder
  /// shape — never equal to any flat evaluator's key.
  [[nodiscard]] std::string context_key() const;
  /// Context for rung r's cached results (see file comment).
  [[nodiscard]] std::string rung_context_key(std::size_t rung) const;

  [[nodiscard]] const LadderConfig& config() const noexcept { return config_; }
  [[nodiscard]] std::size_t num_rungs() const noexcept { return config_.rungs.size(); }
  /// exec::reward_floor(dataset).
  [[nodiscard]] float reward_floor() const noexcept;
  [[nodiscard]] const CostModel& cost_model() const noexcept { return cost_; }

 private:
  struct Candidate;  // defined in the .cpp
  void run_rung(std::vector<Candidate>& cands, std::size_t rung, std::uint64_t seed,
                LadderRungStats& stats, tensor::ThreadPool* pool) const;

  const space::SearchSpace* space_;
  const data::Dataset* dataset_;
  LadderConfig config_;
  CostModel cost_;
  RewardFn reward_fn_;
  SharedEvalCache* shared_ = nullptr;
  std::uint32_t tenant_ = 0;
  obs::Histogram* train_wall_ms_ = nullptr;
};

}  // namespace ncnas::exec
