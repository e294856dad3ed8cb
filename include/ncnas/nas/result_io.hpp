// Search-log persistence — the reproduction of the paper's analytics flow,
// where the NAS writes logs and the analytics module parses them afterwards.
//
// Bench binaries share expensive search runs through these logs: the first
// binary that needs a configuration performs the run and saves it; later
// binaries (e.g. the utilization figure over the same experiment as the
// trajectory figure) load the log instead of recomputing. A `fingerprint`
// string recorded in the header guards against stale logs after a
// configuration change.
#pragma once

#include <functional>
#include <optional>
#include <string>

#include "ncnas/nas/driver.hpp"

namespace ncnas::nas {

/// Writes `result` to `path` (text, one eval per line). Throws on I/O error.
void save_result(const std::string& path, const SearchResult& result,
                 const std::string& fingerprint);

/// Loads a result previously written by save_result. Returns nullopt when the
/// file is missing or carries a different fingerprint.
[[nodiscard]] std::optional<SearchResult> load_result(const std::string& path,
                                                      const std::string& fingerprint);

/// The fingerprint a log written by save_result carries, for viewers that
/// accept whatever configuration the log records. Returns nullopt when the
/// file is missing or is not a search log.
[[nodiscard]] std::optional<std::string> read_fingerprint(const std::string& path);

/// Convenience: load if a fresh log exists, otherwise invoke `run`, save, and
/// return. `dir` is created if needed.
[[nodiscard]] SearchResult run_or_load(const std::string& dir, const std::string& tag,
                                       const std::string& fingerprint,
                                       const std::function<SearchResult()>& run);

/// Stable fingerprint of a search configuration (fields that affect results).
/// The kernel policy is not an input: it is fixed at compile time, and the
/// blocked kernels are bit-identical to the serial reference (the
/// determinism rule in tensor/kernel_config.hpp), so it — like telemetry
/// and checkpointing — can never invalidate a saved log.
[[nodiscard]] std::string config_fingerprint(const SearchConfig& cfg,
                                             const std::string& space_name);

}  // namespace ncnas::nas
