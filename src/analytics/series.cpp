#include "ncnas/analytics/series.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

namespace ncnas::analytics {

std::vector<double> resample_best(const std::vector<std::pair<double, float>>& best_so_far,
                                  double t_end, double bucket_seconds, double fill) {
  if (bucket_seconds <= 0.0 || t_end <= 0.0) {
    throw std::invalid_argument("resample_best: positive spans required");
  }
  const std::size_t buckets =
      static_cast<std::size_t>((t_end + bucket_seconds - 1e-9) / bucket_seconds);
  std::vector<double> out(buckets, fill);
  std::size_t i = 0;
  double best = fill;
  for (std::size_t b = 0; b < buckets; ++b) {
    const double deadline = static_cast<double>(b + 1) * bucket_seconds;
    while (i < best_so_far.size() && best_so_far[i].first <= deadline) {
      best = std::max(best, static_cast<double>(best_so_far[i].second));
      ++i;
    }
    out[b] = best;
  }
  return out;
}

std::vector<double> resample_mean(const std::vector<std::pair<double, float>>& observations,
                                  double t_end, double bucket_seconds, double fill) {
  if (bucket_seconds <= 0.0 || t_end <= 0.0) {
    throw std::invalid_argument("resample_mean: positive spans required");
  }
  const std::size_t buckets =
      static_cast<std::size_t>((t_end + bucket_seconds - 1e-9) / bucket_seconds);
  std::vector<double> out(buckets, fill);
  std::vector<double> acc(buckets, 0.0);
  std::vector<std::size_t> count(buckets, 0);
  for (const auto& [t, v] : observations) {
    if (t < 0.0 || t >= t_end) continue;
    const std::size_t b = static_cast<std::size_t>(t / bucket_seconds);
    acc[b] += v;
    ++count[b];
  }
  double last = fill;
  for (std::size_t b = 0; b < buckets; ++b) {
    if (count[b] > 0) last = acc[b] / static_cast<double>(count[b]);
    out[b] = last;
  }
  return out;
}

std::vector<double> reward_trajectory(const std::vector<std::pair<double, float>>& rewards,
                                      double t_end) {
  if (t_end <= 0.0) return {};
  return resample_mean(rewards, t_end, std::max(t_end / 60.0, 1.0), -1.0);
}

double quantile(std::vector<double> values, double q) {
  if (values.empty()) throw std::invalid_argument("quantile: empty sample");
  q = std::clamp(q, 0.0, 1.0);
  std::ranges::sort(values);
  const double pos = q * static_cast<double>(values.size() - 1);
  const std::size_t lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, values.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return values[lo] * (1.0 - frac) + values[hi] * frac;
}

QuantileBands quantile_bands(const std::vector<std::vector<double>>& runs) {
  if (runs.empty()) throw std::invalid_argument("quantile_bands: no runs");
  std::size_t len = 0;
  for (const auto& r : runs) len = std::max(len, r.size());
  QuantileBands bands;
  bands.q10.reserve(len);
  bands.q50.reserve(len);
  bands.q90.reserve(len);
  for (std::size_t b = 0; b < len; ++b) {
    std::vector<double> column;
    column.reserve(runs.size());
    for (const auto& r : runs) {
      if (r.empty()) continue;
      column.push_back(b < r.size() ? r[b] : r.back());
    }
    bands.q10.push_back(quantile(column, 0.10));
    bands.q50.push_back(quantile(column, 0.50));
    bands.q90.push_back(quantile(column, 0.90));
  }
  return bands;
}

}  // namespace ncnas::analytics
