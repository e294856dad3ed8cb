// CheckpointWriter — the rotation policy around snapshot files.
//
// The driver opts in through SearchConfig::checkpoint, exactly the pattern
// of SearchConfig::telemetry and SearchConfig::faults: a null policy leaves
// the driver on its untouched path (zero overhead, bit-identical results),
// and — like telemetry, unlike a non-empty fault plan — an active checkpoint
// policy is deliberately excluded from config_fingerprint(), because saving
// a search never changes it.
//
// Snapshots are named snap-<ordinal>.ckpt; the ordinal is the run's
// cumulative snapshot count, so a resumed process continues the numbering of
// the process it replaced and rotation (keep the newest K) works across
// process generations.
//
// A snapshot is what survives a killed process (nas::resume_search). A
// search preempted inside its process needs none: SearchDriver::advance
// pauses it at the same safe point, on the same cadence
// (next_checkpoint_time), and the live driver goes on from there.
#pragma once

#include <cstddef>
#include <optional>
#include <string>
#include <vector>

#include "ncnas/ckpt/snapshot.hpp"

namespace ncnas::ckpt {

struct CheckpointConfig {
  /// Directory snapshots land in (created if absent).
  std::string directory;
  /// Virtual seconds between snapshots. The paper's 6-hour allocations make
  /// every 30 simulated minutes a natural cadence.
  double interval_seconds = 1800.0;
  /// Newest snapshots kept on disk; 0 keeps all.
  std::size_t keep_last = 3;
};

/// The checkpoint cadence: the first interval boundary strictly after `t`,
/// (floor(t / interval) + 1) * interval. The driver schedules its first
/// snapshot at next_checkpoint_time(0) and each next one from the time of the
/// last, and a resumed run restarts the rule from its snapshot's time, so
/// its snapshots land on the completions an uninterrupted run's do. A caller
/// that pauses a search on the same boundaries (SearchDriver::advance) stops
/// it exactly where a snapshot is written.
[[nodiscard]] double next_checkpoint_time(double t, double interval);

class CheckpointWriter {
 public:
  /// Creates the directory if needed. Throws SnapshotError when the
  /// directory cannot be created or the interval is not positive.
  explicit CheckpointWriter(CheckpointConfig config);

  /// Writes snap-<header.ordinal>.ckpt atomically, then rotates (deletes
  /// all but the newest keep_last snapshots).
  void write(const SnapshotHeader& header, const std::vector<std::uint8_t>& payload);

  [[nodiscard]] const CheckpointConfig& config() const noexcept { return config_; }

 private:
  CheckpointConfig config_;
};

/// Snapshot files in `directory`, sorted by ordinal ascending. Non-snapshot
/// files are ignored; a missing directory yields an empty list.
[[nodiscard]] std::vector<std::string> list_checkpoints(const std::string& directory);

/// Highest-ordinal snapshot in `directory`, or nullopt when there is none.
[[nodiscard]] std::optional<std::string> latest_checkpoint(const std::string& directory);

}  // namespace ncnas::ckpt
