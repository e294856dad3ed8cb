// The tests' preemption: a checkpointed search is advanced through k
// checkpoint boundaries and then dropped, the way a killed process is gone,
// leaving its k-th snapshot as the newest file in the checkpoint directory.
#pragma once

#include <gtest/gtest.h>

#include <string>

#include "ncnas/ckpt/checkpoint.hpp"
#include "ncnas/nas/driver.hpp"

namespace ncnas::testing {

/// Runs `cfg`, whose checkpoint policy must be set, until it pauses at its
/// k-th checkpoint boundary; each pause writes one snapshot. Returns the
/// newest snapshot, the one a resume starts from; empty, with a test
/// failure, when the search ended first.
inline std::string kill_after(const space::SearchSpace& space, const data::Dataset& dataset,
                              const nas::SearchConfig& cfg, std::size_t k,
                              tensor::ThreadPool* pool = nullptr) {
  nas::SearchDriver driver(space, dataset, cfg, pool);
  for (std::size_t i = 0; i < k; ++i) {
    const double until =
        ckpt::next_checkpoint_time(driver.virtual_time(), cfg.checkpoint->interval_seconds);
    if (driver.advance(until)) {
      ADD_FAILURE() << "search ended before snapshot " << i + 1;
      return {};
    }
  }
  return ckpt::latest_checkpoint(cfg.checkpoint->directory).value_or(std::string());
}

}  // namespace ncnas::testing
