// MetricsRegistry — thread-safe named counters, gauges, and fixed-bucket
// histograms for the search internals (paper §4: Balsam's service monitored
// 1000+ concurrent evaluations; we expose the same runtime signals in-process).
//
// Instruments are registered once by name and returned by stable reference;
// updates are lock-free (relaxed atomics), so evaluator threads on the pool
// can record into the same registry the driver thread uses. A snapshot()
// copies everything into plain structs for analysis or an OpenMetrics text
// exposition (obs::openmetrics_text in exporter.hpp).
#pragma once

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <span>
#include <string>
#include <vector>

namespace ncnas::obs {

/// Monotone event count (e.g. evaluations dispatched).
class Counter {
 public:
  void inc(std::uint64_t n = 1) noexcept { value_.fetch_add(n, std::memory_order_relaxed); }
  [[nodiscard]] std::uint64_t value() const noexcept {
    return value_.load(std::memory_order_relaxed);
  }

 private:
  std::atomic<std::uint64_t> value_{0};
};

/// Last-written scalar (e.g. current convergence streak).
class Gauge {
 public:
  void set(double v) noexcept { value_.store(v, std::memory_order_relaxed); }
  void add(double d) noexcept {
    double cur = value_.load(std::memory_order_relaxed);
    while (!value_.compare_exchange_weak(cur, cur + d, std::memory_order_relaxed)) {
    }
  }
  [[nodiscard]] double value() const noexcept { return value_.load(std::memory_order_relaxed); }

 private:
  std::atomic<double> value_{0.0};
};

/// Fixed-bucket histogram: `bounds` are ascending inclusive upper edges; an
/// implicit +Inf bucket catches the tail. Prometheus bucket semantics
/// (observe(v) lands in the first bucket with v <= bound).
class Histogram {
 public:
  explicit Histogram(std::vector<double> bounds);

  void observe(double v) noexcept;

  [[nodiscard]] const std::vector<double>& bounds() const noexcept { return bounds_; }
  [[nodiscard]] std::uint64_t count() const noexcept {
    return count_.load(std::memory_order_relaxed);
  }
  [[nodiscard]] double sum() const noexcept { return sum_.load(std::memory_order_relaxed); }
  /// Per-bucket (non-cumulative) counts; last entry is the +Inf bucket.
  [[nodiscard]] std::vector<std::uint64_t> bucket_counts() const;

 private:
  std::vector<double> bounds_;
  std::unique_ptr<std::atomic<std::uint64_t>[]> counts_;  // bounds_.size() + 1
  std::atomic<std::uint64_t> count_{0};
  std::atomic<double> sum_{0.0};
};

/// Exponential bucket edges: `count` bounds starting at `start`, each
/// multiplied by `factor` (the usual latency-histogram layout).
[[nodiscard]] std::vector<double> exp_buckets(double start, double factor, std::size_t count);

// ---- snapshot types (plain data, safe to keep after the registry dies) ----

struct CounterSample {
  std::string name;
  std::uint64_t value = 0;
};

struct GaugeSample {
  std::string name;
  double value = 0.0;
};

struct HistogramSample {
  std::string name;
  std::vector<double> bounds;          ///< ascending upper edges
  std::vector<std::uint64_t> buckets;  ///< per-bucket counts, last = +Inf
  std::uint64_t count = 0;
  double sum = 0.0;

  [[nodiscard]] double mean() const { return count ? sum / static_cast<double>(count) : 0.0; }
  /// Bucket-resolution quantile estimate (returns the upper edge of the
  /// bucket containing the q-quantile; +Inf bucket reports the last edge).
  [[nodiscard]] double quantile(double q) const;
};

/// Builds a HistogramSample directly from raw values (same Prometheus bucket
/// semantics as Histogram) — for consumers that aggregate offline, e.g. the
/// journal replay computing PS-exchange latency quantiles.
[[nodiscard]] HistogramSample make_histogram_sample(std::string name, std::vector<double> bounds,
                                                    std::span<const double> values);

struct MetricsSnapshot {
  std::vector<CounterSample> counters;
  std::vector<GaugeSample> gauges;
  std::vector<HistogramSample> histograms;

  /// Lookup helpers; counters/gauges return 0 when absent, histograms null.
  [[nodiscard]] std::uint64_t counter_value(const std::string& name) const;
  [[nodiscard]] double gauge_value(const std::string& name) const;
  [[nodiscard]] const HistogramSample* histogram(const std::string& name) const;
};

class MetricsRegistry {
 public:
  MetricsRegistry() = default;
  MetricsRegistry(const MetricsRegistry&) = delete;
  MetricsRegistry& operator=(const MetricsRegistry&) = delete;

  /// Get-or-create by name; the returned reference is stable for the
  /// registry's lifetime. `bounds` only applies on first registration.
  Counter& counter(const std::string& name);
  Gauge& gauge(const std::string& name);
  Histogram& histogram(const std::string& name, std::vector<double> bounds = {});

  [[nodiscard]] MetricsSnapshot snapshot() const;

 private:
  mutable std::mutex mu_;  // guards the maps only; instruments are atomic
  std::map<std::string, std::unique_ptr<Counter>> counters_;
  std::map<std::string, std::unique_ptr<Gauge>> gauges_;
  std::map<std::string, std::unique_ptr<Histogram>> histograms_;
};

}  // namespace ncnas::obs
