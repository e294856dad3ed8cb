#include "ncnas/exec/fidelity_ladder.hpp"

#include <algorithm>
#include <cstdio>
#include <limits>
#include <stdexcept>

#include "ncnas/obs/profiler.hpp"

namespace ncnas::exec {
namespace {

// Same canonical float form the context keys use (shared_cache.cpp): the
// fingerprint participates in cache namespaces and config fingerprints, so
// it must be stable across writers and platforms.
std::string canon(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

}  // namespace

std::string LadderConfig::fingerprint() const {
  std::string out = "eta";
  out += std::to_string(eta);
  for (std::size_t r = 0; r < rungs.size(); ++r) {
    const FidelityConfig& f = rungs[r];
    out += r == 0 ? ":" : ";";
    out += 'e';
    out += std::to_string(f.epochs);
    out += ",sf";
    out += canon(f.subset_fraction);
    out += ",lr";
    out += canon(static_cast<double>(f.learning_rate));
    out += ",bs";
    out += std::to_string(f.batch_size);
    out += ",vf";
    out += canon(f.valid_fraction);
  }
  return out;
}

void LadderConfig::validate() const {
  if (!enabled()) return;
  if (eta < 2) {
    throw std::invalid_argument("LadderConfig: eta must be >= 2");
  }
  for (std::size_t r = 0; r < rungs.size(); ++r) {
    if (rungs[r].epochs == 0) {
      throw std::invalid_argument("LadderConfig: rung epochs must be positive");
    }
    if (r > 0 && rungs[r].epochs < rungs[r - 1].epochs) {
      throw std::invalid_argument(
          "LadderConfig: rung epochs must be non-decreasing (they are cumulative)");
    }
  }
}

LadderConfig make_geometric_ladder(const FidelityConfig& top, std::size_t rungs,
                                   std::size_t eta) {
  if (rungs == 0) throw std::invalid_argument("make_geometric_ladder: rungs must be positive");
  LadderConfig cfg;
  cfg.eta = eta;
  cfg.rungs.resize(rungs, top);
  std::size_t divisor = 1;
  for (std::size_t r = rungs; r-- > 0;) {
    cfg.rungs[r].epochs = std::max<std::size_t>(1, top.epochs / divisor);
    if (divisor <= std::numeric_limits<std::size_t>::max() / std::max<std::size_t>(eta, 2)) {
      divisor *= std::max<std::size_t>(eta, 2);
    }
  }
  cfg.validate();
  return cfg;
}

// One candidate climbing the ladder. `model` holds the inherited weights
// between rungs; it is absent after a rung-cache hit (the hit served the
// reward, not the parameters) and dropped on elimination.
struct FidelityLadder::Candidate {
  std::size_t index = 0;                  ///< batch position (promotion tie-break)
  const space::ArchEncoding* arch = nullptr;
  std::string key;
  std::optional<nn::Graph> model;
  EvalResult res;
  std::size_t trainings = 0;
  bool eliminated = false;  ///< finalized: not promoted, or floored by a timeout
  // Per-rung transients, written by the (possibly pool-parallel) training
  // task and consumed by the serial accounting phase that follows it.
  bool trained_this_rung = false;
  bool warm_this_rung = false;
  bool timed_out_this_rung = false;
};

FidelityLadder::FidelityLadder(const space::SearchSpace& space, const data::Dataset& dataset,
                               LadderConfig config, CostModel cost)
    : space_(&space), dataset_(&dataset), config_(std::move(config)), cost_(cost) {
  if (config_.rungs.empty()) {
    throw std::invalid_argument("FidelityLadder: at least one rung is required");
  }
  config_.validate();
}

void FidelityLadder::set_telemetry(obs::Telemetry* telemetry) {
  train_wall_ms_ = train_wall_histogram(telemetry);
}

float FidelityLadder::reward_floor() const noexcept { return exec::reward_floor(*dataset_); }

std::string FidelityLadder::context_key() const {
  // The top rung's flat recipe plus the full ladder shape. No "|rung=" part:
  // this is the namespace for *final* ladder outcomes (a candidate eliminated
  // at rung 0 finalizes with its rung-0 reward, which must never be read back
  // as a top-rung measurement).
  return eval_context_key(*dataset_, config_.rungs.back(), cost_) + "|ladder=" +
         config_.fingerprint();
}

std::string FidelityLadder::rung_context_key(std::size_t rung) const {
  return eval_context_key(*dataset_, config_.rungs[rung], cost_) + "|ladder=" +
         config_.fingerprint() + "|rung=" + std::to_string(rung) + "/" +
         std::to_string(config_.rungs.size());
}

// Trains (or re-scores) every pending candidate of one rung. Serial phases
// (shared-cache lookups before, inserts and promotion after) bracket a
// pool-parallel training phase; each parallel task touches only its own
// candidate, so results are bit-identical across thread counts.
void FidelityLadder::run_rung(std::vector<Candidate>& cands, std::size_t rung,
                              std::uint64_t seed, LadderRungStats& stats,
                              tensor::ThreadPool* pool) const {
  const FidelityConfig& fid = config_.rungs[rung];
  const std::string rung_ctx = shared_ != nullptr ? rung_context_key(rung) : std::string();
  const float floor = reward_floor();

  // Serial phase 1: rung-cache lookups. A hit serves the rung reward but not
  // the weights — a later promotion trains from scratch at the cumulative
  // epoch count.
  std::vector<std::size_t> work;
  for (Candidate& c : cands) {
    if (c.eliminated) continue;
    ++stats.candidates;
    if (shared_ != nullptr) {
      if (auto hit = shared_->lookup(rung_ctx, c.key, tenant_)) {
        ++stats.rung_hits;
        c.res.reward = hit->reward;
        c.res.params = hit->params;
        c.res.rung = static_cast<std::uint32_t>(rung);
        c.model.reset();
        if (hit->timed_out) {
          // The stored rung measurement was a kill: this candidate floors
          // here for us too (consistently with the tenant that trained it),
          // but as a cache hit it costs no worker time.
          c.res.timed_out = true;
          c.res.reward = floor;
          c.eliminated = true;
        }
        continue;
      }
    }
    c.trained_this_rung = false;
    c.warm_this_rung = false;
    c.timed_out_this_rung = false;
    work.push_back(c.index);
  }

  const auto train_one = [&](std::size_t i) {
    Candidate& c = cands[work[i]];
    const bool warm = c.model.has_value();
    std::size_t epochs = fid.epochs;
    if (warm && rung > 0) epochs -= config_.rungs[rung - 1].epochs;

    if (!warm) {
      NCNAS_PROF_SCOPE("eval/build");
      c.model = build_for(*space_, *dataset_, *c.arch, seed);
      c.res.params = c.model->param_count();
    }

    const double dur = cost_.duration(c.res.params, train_samples(*dataset_, fid), epochs, c.key);
    c.res.rung = static_cast<std::uint32_t>(rung);
    if (cost_.times_out(dur)) {
      // Balsam kills the rung job at the timeout: the worker is occupied for
      // the full window, the candidate floors and cannot be promoted.
      c.res.sim_duration += cost_.timeout_seconds;
      c.res.timed_out = true;
      c.res.reward = floor;
      c.model.reset();
      c.timed_out_this_rung = true;
      return;
    }
    c.res.sim_duration += dur;

    // Rung r's optimizer stream: split(1 + r) of the agent seed. Rung 0
    // therefore replays the flat evaluator's stream exactly (split(1)),
    // and a scratch training at rung r (after a rung hit, which carries no
    // weights) draws the same stream a warm rung-r continuation would.
    const TrainOutcome out = fit_and_score(*c.model, *dataset_, fid, epochs,
                                           tensor::Rng(seed).split(1 + rung), reward_fn_, c.res,
                                           train_wall_ms_);
    c.res.reward = out.reward;
    c.res.train_wall_ms += out.train_wall_ms;
    if (epochs > 0) {
      ++c.trainings;
      c.trained_this_rung = true;
      c.warm_this_rung = warm;
    }
  };

  if (pool != nullptr && work.size() > 1) {
    tensor::parallel_for(*pool, work.size(), train_one);
  } else {
    for (std::size_t i = 0; i < work.size(); ++i) train_one(i);
  }

  // Serial phase 2: publish fresh rung measurements (batch order, so insert
  // order is deterministic) and book the rung's accounting.
  for (const std::size_t idx : work) {
    Candidate& c = cands[idx];
    if (c.trained_this_rung) {
      ++stats.trainings;
      if (c.warm_this_rung) ++stats.warm_starts;
    }
    if (c.timed_out_this_rung) {
      ++stats.timeouts;
      c.eliminated = true;
    }
    if (shared_ != nullptr) shared_->insert(rung_ctx, c.key, tenant_, c.res);
  }

  // Promotion: survivors = ceil(alive / eta) by reward, ties broken by the
  // lower batch index (rank-stable). The top rung promotes nobody.
  if (rung + 1 >= config_.rungs.size()) return;
  std::vector<std::size_t> alive;
  for (const Candidate& c : cands) {
    if (!c.eliminated) alive.push_back(c.index);
  }
  if (alive.empty()) return;
  const std::size_t keep = (alive.size() + config_.eta - 1) / config_.eta;
  std::stable_sort(alive.begin(), alive.end(), [&](std::size_t a, std::size_t b) {
    if (cands[a].res.reward != cands[b].res.reward) {
      return cands[a].res.reward > cands[b].res.reward;
    }
    return a < b;
  });
  for (std::size_t i = 0; i < alive.size(); ++i) {
    Candidate& c = cands[alive[i]];
    if (i < keep) {
      ++stats.survivors;
    } else {
      c.eliminated = true;
      c.model.reset();  // eliminated weights are dead — free them eagerly
    }
  }
}

std::vector<LadderOutcome> FidelityLadder::evaluate_batch(
    std::span<const space::ArchEncoding> archs, std::uint64_t seed,
    std::vector<LadderRungStats>* stats, tensor::ThreadPool* pool) const {
  NCNAS_PROF_SCOPE("ladder/batch");
  std::vector<Candidate> cands(archs.size());
  for (std::size_t i = 0; i < archs.size(); ++i) {
    cands[i].index = i;
    cands[i].arch = &archs[i];
    cands[i].key = space::arch_key(archs[i]);
  }
  for (std::size_t r = 0; r < config_.rungs.size(); ++r) {
    LadderRungStats rs;
    rs.rung = r;
    run_rung(cands, r, seed, rs, pool);
    if (stats != nullptr && rs.candidates > 0) stats->push_back(rs);
    bool any_alive = false;
    for (const Candidate& c : cands) any_alive = any_alive || !c.eliminated;
    if (!any_alive) break;
  }
  std::vector<LadderOutcome> out(cands.size());
  for (std::size_t i = 0; i < cands.size(); ++i) {
    out[i].result = cands[i].res;
    // Final outcomes are fresh evaluations from the caller's perspective,
    // even when some rungs were served from the shared store.
    out[i].result.cache_hit = false;
    out[i].result.shared_hit = false;
    out[i].trainings = cands[i].trainings;
  }
  return out;
}

EvalResult FidelityLadder::evaluate(const space::ArchEncoding& arch,
                                    std::uint64_t seed) const {
  // Successive halving with n = 1: ceil(1/eta) = 1 survivor per rung, so the
  // single candidate climbs the whole ladder via warm starts.
  const std::span<const space::ArchEncoding> one(&arch, 1);
  return evaluate_batch(one, seed, nullptr, nullptr)[0].result;
}

}  // namespace ncnas::exec
