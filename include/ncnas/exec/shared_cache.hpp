// SharedEvalCache — process-wide content-addressed evaluation cache.
//
// The dominant cost of NAS is reward estimation (Elsken et al., survey §4);
// when many tenants search overlapping spaces on the same dataset at the same
// fidelity, a popular architecture only needs to be trained once. Entries are
// keyed by (evaluation context, architecture key), where the context key
// canonically encodes dataset identity + fidelity + cost model — the full
// recipe that determines a reward — so the cache can never serve a stale
// reward across tenants with different data or budgets.
//
// The agent seed is deliberately NOT part of the key: the paper itself reports
// (and tolerates) same-architecture reward variance across agents, and
// amortizing across seeds is the entire point of a cross-tenant cache. A
// tenant that must not share rewards simply does not attach the shared cache
// (SearchConfig::shared_cache stays null), which also keeps its
// config_fingerprint unchanged.
//
// Thread safety: all methods are safe to call concurrently (one mutex); the
// search driver only touches the cache from its serial event loop, so the
// lock is uncontended in-sim and only matters when multiple SearchServer
// tenants interleave.
#pragma once

#include <cstdint>
#include <map>
#include <mutex>
#include <optional>
#include <string>
#include <unordered_map>

#include "ncnas/exec/evaluator.hpp"

namespace ncnas::exec {

/// Canonical identity of an evaluation context: everything besides the
/// architecture (and the agent seed, see file comment) that determines an
/// EvalResult. Two evaluators agree on this string iff a reward computed by
/// one is valid for the other.
[[nodiscard]] std::string eval_context_key(const data::Dataset& dataset,
                                           const FidelityConfig& fidelity,
                                           const CostModel& cost);

class SharedEvalCache {
 public:
  /// Per-tenant accounting. `cross_tenant_hits` counts hits served from an
  /// entry that a *different* tenant trained — the train-once/serve-many
  /// savings the cache exists for.
  struct Stats {
    std::size_t hits = 0;
    std::size_t misses = 0;
    std::size_t inserts = 0;
    std::size_t cross_tenant_hits = 0;
    std::size_t erases = 0;
  };

  /// Returns the stored result (marked cache_hit + shared_hit) or nullopt.
  /// Records a hit/miss against `tenant`.
  [[nodiscard]] std::optional<EvalResult> lookup(const std::string& context_key,
                                                 const std::string& arch_key,
                                                 std::uint32_t tenant) const;

  /// Stores a freshly trained result under `tenant`'s ownership. First writer
  /// wins: a concurrent duplicate insert leaves the existing entry (and its
  /// owner) untouched, so cross-tenant accounting stays stable.
  void insert(const std::string& context_key, const std::string& arch_key,
              std::uint32_t tenant, const EvalResult& result);

  /// Drops an entry whose evaluation ultimately failed (retry exhaustion) —
  /// the same no-poisoning rule CachedEvaluator::erase applies per agent.
  void erase(const std::string& context_key, const std::string& arch_key);

  [[nodiscard]] std::size_t size() const;
  [[nodiscard]] Stats stats(std::uint32_t tenant) const;
  /// Sum over all tenants.
  [[nodiscard]] Stats totals() const;

 private:
  struct Entry {
    EvalResult result;
    std::uint32_t owner = 0;
  };
  [[nodiscard]] static std::string map_key(const std::string& context_key,
                                           const std::string& arch_key);

  mutable std::mutex mu_;
  std::unordered_map<std::string, Entry> entries_;
  mutable std::map<std::uint32_t, Stats> stats_;
};

}  // namespace ncnas::exec
