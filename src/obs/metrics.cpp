#include "ncnas/obs/metrics.hpp"

#include <algorithm>
#include <limits>
#include <stdexcept>

namespace ncnas::obs {

Histogram::Histogram(std::vector<double> bounds) : bounds_(std::move(bounds)) {
  if (!std::is_sorted(bounds_.begin(), bounds_.end())) {
    throw std::invalid_argument("Histogram: bucket bounds must be ascending");
  }
  counts_ = std::make_unique<std::atomic<std::uint64_t>[]>(bounds_.size() + 1);
  for (std::size_t i = 0; i <= bounds_.size(); ++i) counts_[i].store(0);
}

void Histogram::observe(double v) noexcept {
  const auto it = std::lower_bound(bounds_.begin(), bounds_.end(), v);
  const auto idx = static_cast<std::size_t>(it - bounds_.begin());
  counts_[idx].fetch_add(1, std::memory_order_relaxed);
  count_.fetch_add(1, std::memory_order_relaxed);
  double cur = sum_.load(std::memory_order_relaxed);
  while (!sum_.compare_exchange_weak(cur, cur + v, std::memory_order_relaxed)) {
  }
}

std::vector<std::uint64_t> Histogram::bucket_counts() const {
  std::vector<std::uint64_t> out(bounds_.size() + 1);
  for (std::size_t i = 0; i < out.size(); ++i) out[i] = counts_[i].load(std::memory_order_relaxed);
  return out;
}

std::vector<double> exp_buckets(double start, double factor, std::size_t count) {
  if (start <= 0.0 || factor <= 1.0) {
    throw std::invalid_argument("exp_buckets: need start > 0 and factor > 1");
  }
  std::vector<double> out;
  out.reserve(count);
  double edge = start;
  for (std::size_t i = 0; i < count; ++i) {
    out.push_back(edge);
    edge *= factor;
  }
  return out;
}

double HistogramSample::quantile(double q) const {
  if (count == 0) return 0.0;
  q = std::clamp(q, 0.0, 1.0);
  const auto target = static_cast<std::uint64_t>(q * static_cast<double>(count));
  std::uint64_t cum = 0;
  for (std::size_t i = 0; i < buckets.size(); ++i) {
    cum += buckets[i];
    if (cum > target || (q >= 1.0 && cum >= target)) {
      return i < bounds.size() ? bounds[i] : (bounds.empty() ? 0.0 : bounds.back());
    }
  }
  return bounds.empty() ? 0.0 : bounds.back();
}

HistogramSample make_histogram_sample(std::string name, std::vector<double> bounds,
                                      std::span<const double> values) {
  if (!std::is_sorted(bounds.begin(), bounds.end())) {
    throw std::invalid_argument("make_histogram_sample: bucket bounds must be ascending");
  }
  HistogramSample s;
  s.name = std::move(name);
  s.bounds = std::move(bounds);
  s.buckets.assign(s.bounds.size() + 1, 0);
  for (double v : values) {
    const auto it = std::lower_bound(s.bounds.begin(), s.bounds.end(), v);
    ++s.buckets[static_cast<std::size_t>(it - s.bounds.begin())];
    ++s.count;
    s.sum += v;
  }
  return s;
}

std::uint64_t MetricsSnapshot::counter_value(const std::string& name) const {
  for (const CounterSample& c : counters) {
    if (c.name == name) return c.value;
  }
  return 0;
}

double MetricsSnapshot::gauge_value(const std::string& name) const {
  for (const GaugeSample& g : gauges) {
    if (g.name == name) return g.value;
  }
  return 0.0;
}

const HistogramSample* MetricsSnapshot::histogram(const std::string& name) const {
  for (const HistogramSample& h : histograms) {
    if (h.name == name) return &h;
  }
  return nullptr;
}

Counter& MetricsRegistry::counter(const std::string& name) {
  std::lock_guard<std::mutex> lock(mu_);
  auto& slot = counters_[name];
  if (!slot) slot = std::make_unique<Counter>();
  return *slot;
}

Gauge& MetricsRegistry::gauge(const std::string& name) {
  std::lock_guard<std::mutex> lock(mu_);
  auto& slot = gauges_[name];
  if (!slot) slot = std::make_unique<Gauge>();
  return *slot;
}

Histogram& MetricsRegistry::histogram(const std::string& name, std::vector<double> bounds) {
  std::lock_guard<std::mutex> lock(mu_);
  auto& slot = histograms_[name];
  if (!slot) {
    if (bounds.empty()) bounds = exp_buckets(0.001, 4.0, 16);
    slot = std::make_unique<Histogram>(std::move(bounds));
  }
  return *slot;
}

MetricsSnapshot MetricsRegistry::snapshot() const {
  std::lock_guard<std::mutex> lock(mu_);
  MetricsSnapshot snap;
  snap.counters.reserve(counters_.size());
  for (const auto& [name, c] : counters_) snap.counters.push_back({name, c->value()});
  snap.gauges.reserve(gauges_.size());
  for (const auto& [name, g] : gauges_) snap.gauges.push_back({name, g->value()});
  snap.histograms.reserve(histograms_.size());
  for (const auto& [name, h] : histograms_) {
    HistogramSample s;
    s.name = name;
    s.bounds = h->bounds();
    s.buckets = h->bucket_counts();
    s.count = h->count();
    s.sum = h->sum();
    snap.histograms.push_back(std::move(s));
  }
  return snap;
}

}  // namespace ncnas::obs
