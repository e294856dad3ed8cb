// The traced pass's per-layer replay. After one traced repetition, every
// layer's public API is called again, serially, on inputs recorded from that
// repetition, and each call is timed from outside the library. Each replay
// is capped (in calls and in seconds) so the whole pass stays short.
#pragma once

#include <string>
#include <vector>

#include "spans.hpp"
#include "workloads.hpp"

namespace bench {

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
  std::size_t n = 0;  ///< samples behind a median; 0 for other metrics
};

/// Per-layer metrics for `traced`, the outcome of run_workload on `w`.
/// `state_dir` holds the traced run's serve checkpoints (serve workloads)
/// and is reused for the replays' own. Failed replay checks are appended to
/// `failures`.
[[nodiscard]] std::vector<Metric> replay_layers(const Workload& w, const RunOutcome& traced,
                                                const std::string& state_dir, Spans& spans,
                                                std::vector<std::string>& failures);

}  // namespace bench
