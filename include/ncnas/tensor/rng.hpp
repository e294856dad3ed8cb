// Deterministic random number generation.
//
// Every stochastic component of the NAS (weight init, dropout masks, data
// generation, controller sampling, cost-model noise) draws from an explicit
// Rng instance so that runs are reproducible and agent-specific seeds behave
// exactly as in the paper ("agent-specific random weight initialization").
#pragma once

#include <bit>
#include <cmath>
#include <cstdint>
#include <numbers>
#include <vector>

namespace ncnas::tensor {

/// Complete serializable state of an Rng stream: the xoshiro256** words plus
/// the Box–Muller cache, so a restored stream continues bit-identically even
/// when it was saved between the two halves of a normal() pair.
struct RngState {
  std::uint64_t s[4]{};
  bool has_cached_normal = false;
  double cached_normal = 0.0;
};

/// xoshiro256** with SplitMix64 seeding. Fast, high quality, and — unlike
/// std::mt19937 distributions — bit-reproducible across standard libraries.
class Rng {
 public:
  explicit Rng(std::uint64_t seed = 0x9E3779B97F4A7C15ull) { reseed(seed); }

  void reseed(std::uint64_t seed);

  /// Uniform 64-bit integer. Defined here, like uniform(), so the loops
  /// that draw one value per element (dropout masks, weight init) keep the
  /// state in registers instead of calling out per draw.
  std::uint64_t next_u64() {
    const std::uint64_t result = std::rotl(state_[1] * 5, 7) * 9;
    const std::uint64_t t = state_[1] << 17;
    state_[2] ^= state_[0];
    state_[3] ^= state_[1];
    state_[1] ^= state_[2];
    state_[0] ^= state_[3];
    state_[2] ^= t;
    state_[3] = std::rotl(state_[3], 45);
    return result;
  }

  /// Uniform in [0, 1): the 53 high bits of next_u64().
  double uniform() { return static_cast<double>(next_u64() >> 11) * 0x1.0p-53; }

  /// Uniform in [lo, hi).
  double uniform(double lo, double hi) { return lo + (hi - lo) * uniform(); }

  /// Uniform integer in [0, n). Requires n > 0.
  std::uint64_t uniform_int(std::uint64_t n);

  /// Standard normal via Box–Muller (cached second value).
  double normal();

  /// Normal with the given mean and standard deviation.
  double normal(double mean, double stddev) { return mean + stddev * normal(); }

  /// Samples an index from a discrete probability vector (assumed normalized;
  /// falls back to the last index on accumulated rounding error).
  std::size_t categorical(const std::vector<double>& probs);

  /// Derives an independent child stream; children of distinct `stream` values
  /// are decorrelated even under sequential seeds.
  [[nodiscard]] Rng split(std::uint64_t stream) const;

  /// Save/restore the full stream state (checkpoint/resume support). A
  /// stream restored from state() produces the exact draw sequence the
  /// original would have from that point on. set_state() rejects all-zero
  /// words (xoshiro256** would draw 0 forever) with std::invalid_argument.
  [[nodiscard]] RngState state() const;
  void set_state(const RngState& st);

 private:
  std::uint64_t state_[4]{};
  bool has_cached_normal_ = false;
  double cached_normal_ = 0.0;
};

}  // namespace ncnas::tensor
