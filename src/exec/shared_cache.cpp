#include "ncnas/exec/shared_cache.hpp"

#include <cstdio>

namespace ncnas::exec {
namespace {

// Canonical double formatting: shortest round-trippable form, so context keys
// are stable across writers and platforms.
std::string canon(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

}  // namespace

std::string eval_context_key(const data::Dataset& dataset, const FidelityConfig& fidelity,
                             const CostModel& cost) {
  std::string key = "ds=";
  key += dataset.name;
  key += ':';
  for (std::size_t i = 0; i < dataset.input_count(); ++i) {
    if (i != 0) key += ',';
    key += std::to_string(dataset.input_dim(i));
  }
  key += ':';
  key += std::to_string(dataset.train_rows());
  key += 'x';
  key += std::to_string(dataset.valid_rows());
  key += ":m";
  key += std::to_string(static_cast<int>(dataset.metric));
  key += "|fid=e";
  key += std::to_string(fidelity.epochs);
  key += ":sf";
  key += canon(fidelity.subset_fraction);
  key += ":lr";
  key += canon(static_cast<double>(fidelity.learning_rate));
  key += ":bs";
  key += std::to_string(fidelity.batch_size != 0 ? fidelity.batch_size : dataset.batch_size);
  key += ":vf";
  key += canon(fidelity.valid_fraction);
  key += "|cost=su";
  key += canon(cost.startup_seconds);
  key += ":spm";
  key += canon(cost.seconds_per_megaunit);
  key += ":j";
  key += canon(cost.jitter_frac);
  key += ":to";
  key += canon(cost.timeout_seconds);
  return key;
}

std::string SharedEvalCache::map_key(const std::string& context_key,
                                     const std::string& arch_key) {
  std::string key;
  key.reserve(context_key.size() + 1 + arch_key.size());
  key += context_key;
  key += '\x1f';
  key += arch_key;
  return key;
}

std::optional<EvalResult> SharedEvalCache::lookup(const std::string& context_key,
                                                  const std::string& arch_key,
                                                  std::uint32_t tenant) const {
  std::lock_guard<std::mutex> lock(mu_);
  const auto it = entries_.find(map_key(context_key, arch_key));
  Stats& s = stats_[tenant];
  if (it == entries_.end()) {
    ++s.misses;
    return std::nullopt;
  }
  ++s.hits;
  if (it->second.owner != tenant) ++s.cross_tenant_hits;
  EvalResult hit = it->second.result;
  hit.cache_hit = true;
  hit.shared_hit = true;
  return hit;
}

void SharedEvalCache::insert(const std::string& context_key, const std::string& arch_key,
                             std::uint32_t tenant, const EvalResult& result) {
  std::lock_guard<std::mutex> lock(mu_);
  EvalResult stored = result;
  stored.cache_hit = false;
  stored.shared_hit = false;
  // First writer wins: a duplicate insert leaves the entry and its owner.
  if (entries_.emplace(map_key(context_key, arch_key), Entry{stored, tenant}).second) {
    ++stats_[tenant].inserts;
  }
}

void SharedEvalCache::erase(const std::string& context_key, const std::string& arch_key) {
  std::lock_guard<std::mutex> lock(mu_);
  const auto it = entries_.find(map_key(context_key, arch_key));
  if (it == entries_.end()) return;
  ++stats_[it->second.owner].erases;
  entries_.erase(it);
}

std::size_t SharedEvalCache::size() const {
  std::lock_guard<std::mutex> lock(mu_);
  return entries_.size();
}

SharedEvalCache::Stats SharedEvalCache::stats(std::uint32_t tenant) const {
  std::lock_guard<std::mutex> lock(mu_);
  const auto it = stats_.find(tenant);
  return it != stats_.end() ? it->second : Stats{};
}

SharedEvalCache::Stats SharedEvalCache::totals() const {
  std::lock_guard<std::mutex> lock(mu_);
  Stats out;
  for (const auto& [tenant, s] : stats_) {
    (void)tenant;
    out.hits += s.hits;
    out.misses += s.misses;
    out.inserts += s.inserts;
    out.cross_tenant_hits += s.cross_tenant_hits;
    out.erases += s.erases;
  }
  return out;
}

}  // namespace ncnas::exec
