// Time-series utilities for the paper's trajectory plots: running-best reward
// resampling (Figs. 4, 6a, 11) and cross-replication quantile bands (Fig. 13).
#pragma once

#include <utility>
#include <vector>

namespace ncnas::analytics {

/// Resamples a (time, running-best-reward) staircase onto fixed buckets:
/// out[i] = best reward achieved by time (i+1)*bucket_seconds. Buckets before
/// the first observation carry `fill`.
[[nodiscard]] std::vector<double> resample_best(
    const std::vector<std::pair<double, float>>& best_so_far, double t_end,
    double bucket_seconds, double fill = -1.0);

/// Mean of the observations that land in each bucket — the paper's
/// "reward over time" view, where a learning search climbs and random
/// search stays flat. Empty buckets carry the previous bucket's value
/// (`fill` before the first observation).
[[nodiscard]] std::vector<double> resample_mean(
    const std::vector<std::pair<double, float>>& observations, double t_end,
    double bucket_seconds, double fill = -1.0);

/// The mean-reward trajectory a run report draws for a search that spanned
/// t_end seconds: resample_mean over buckets of max(t_end / 60, 1 s), so a
/// one-minute search and a six-hour one both fill about 60 buckets. Empty
/// when t_end <= 0.
[[nodiscard]] std::vector<double> reward_trajectory(
    const std::vector<std::pair<double, float>>& rewards, double t_end);

/// A per-bucket series (one value per `series_bucket` seconds, such as
/// SearchResult::utilization) redrawn on reward_trajectory's time axis for
/// the same t_end, so a report's reward and utilization lines line up
/// glyph for glyph: each reward bucket takes the mean of the series buckets
/// that start inside it, or else the series bucket that covers its start.
/// Empty when t_end <= 0 or the series is empty.
[[nodiscard]] std::vector<double> utilization_trajectory(const std::vector<double>& series,
                                                         double series_bucket, double t_end);

struct QuantileBands {
  std::vector<double> q10, q50, q90;
};

/// Per-bucket 10/50/90 % quantiles across replications (each row one run;
/// rows may have different lengths — shorter rows extend with their last
/// value, matching a converged-and-stopped search).
[[nodiscard]] QuantileBands quantile_bands(const std::vector<std::vector<double>>& runs);

/// Linear-interpolated quantile of a sample (q in [0, 1]).
[[nodiscard]] double quantile(std::vector<double> values, double q);

}  // namespace ncnas::analytics
