// Heap allocation counting from outside the library: alloc_count.cpp
// replaces the global operator new/delete of the bench_e2e binary. Counting
// is off by default, so untimed and untraced code pays one relaxed atomic
// load per allocation; the replay turns it on around the calls it measures.
#pragma once

#include <cstdint>

namespace bench {

struct AllocTotals {
  std::uint64_t calls = 0;
  std::uint64_t bytes = 0;
};

/// Counts every allocation made on any thread while alive. Not nestable.
class AllocScope {
 public:
  AllocScope();
  ~AllocScope();
  AllocScope(const AllocScope&) = delete;
  AllocScope& operator=(const AllocScope&) = delete;

  /// Allocations since construction.
  [[nodiscard]] AllocTotals totals() const;

 private:
  AllocTotals start_;
};

}  // namespace bench
