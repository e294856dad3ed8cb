// In-memory spans recorded by the benchmark around its own calls into the
// library (never inside it): name, start, end and parent. Single-threaded:
// every span opens and closes on the thread that drives the benchmark, so
// spans nest strictly and a span's parent is the innermost open one.
#pragma once

#include <chrono>
#include <cstddef>
#include <ostream>
#include <string>
#include <utility>
#include <vector>

namespace bench {

using Clock = std::chrono::steady_clock;

inline double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

class Spans {
 public:
  static constexpr std::size_t kNoParent = static_cast<std::size_t>(-1);

  std::size_t open(std::string name);
  /// Closes span `id`, which must be the innermost open span; returns its
  /// duration in seconds.
  double close(std::size_t id);

  [[nodiscard]] std::size_t size() const noexcept { return spans_.size(); }

  /// Chrome trace-event JSON ("X" events, microseconds), loadable in Perfetto.
  void write_chrome_trace(std::ostream& os) const;

  /// Self time per layer, where a span's layer is its name up to the first
  /// '.', and self time is its duration minus the time its children cover.
  [[nodiscard]] std::vector<std::pair<std::string, double>> self_seconds_by_layer() const;

 private:
  struct Span {
    std::string name;
    Clock::time_point start;
    Clock::time_point end;
    std::size_t parent = kNoParent;
  };
  std::vector<Span> spans_;
  std::vector<std::size_t> open_;
};

/// Runs `fn` inside a span named `name` (when `spans` is non-null) and returns
/// its wall time in seconds.
template <class Fn>
double timed(Spans* spans, const char* name, Fn&& fn) {
  if (spans == nullptr) {
    const Clock::time_point t0 = Clock::now();
    fn();
    return seconds_since(t0);
  }
  const std::size_t id = spans->open(name);
  fn();
  return spans->close(id);
}

}  // namespace bench
