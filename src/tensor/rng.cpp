#include "ncnas/tensor/rng.hpp"

#include <stdexcept>

namespace ncnas::tensor {

namespace {

std::uint64_t splitmix64(std::uint64_t& x) {
  x += 0x9E3779B97F4A7C15ull;
  std::uint64_t z = x;
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
  return z ^ (z >> 31);
}

}  // namespace

void Rng::reseed(std::uint64_t seed) {
  std::uint64_t sm = seed;
  for (auto& s : state_) s = splitmix64(sm);
  has_cached_normal_ = false;
}

std::uint64_t Rng::uniform_int(std::uint64_t n) {
  if (n == 0) throw std::invalid_argument("Rng::uniform_int: n must be positive");
  // Rejection sampling to remove modulo bias.
  const std::uint64_t limit = ~std::uint64_t{0} - (~std::uint64_t{0} % n);
  std::uint64_t v = next_u64();
  while (v >= limit) v = next_u64();
  return v % n;
}

double Rng::normal() {
  if (has_cached_normal_) {
    has_cached_normal_ = false;
    return cached_normal_;
  }
  double u1 = uniform();
  while (u1 <= 1e-300) u1 = uniform();
  const double u2 = uniform();
  const double r = std::sqrt(-2.0 * std::log(u1));
  const double theta = 2.0 * std::numbers::pi * u2;
  cached_normal_ = r * std::sin(theta);
  has_cached_normal_ = true;
  return r * std::cos(theta);
}

std::size_t Rng::categorical(const std::vector<double>& probs) {
  if (probs.empty()) throw std::invalid_argument("Rng::categorical: empty distribution");
  const double u = uniform();
  double acc = 0.0;
  for (std::size_t i = 0; i < probs.size(); ++i) {
    acc += probs[i];
    if (u < acc) return i;
  }
  return probs.size() - 1;
}

RngState Rng::state() const {
  RngState st;
  for (int i = 0; i < 4; ++i) st.s[i] = state_[i];
  st.has_cached_normal = has_cached_normal_;
  st.cached_normal = cached_normal_;
  return st;
}

void Rng::set_state(const RngState& st) {
  if ((st.s[0] | st.s[1] | st.s[2] | st.s[3]) == 0) {
    throw std::invalid_argument("Rng::set_state: all-zero xoshiro state");
  }
  for (int i = 0; i < 4; ++i) state_[i] = st.s[i];
  has_cached_normal_ = st.has_cached_normal;
  cached_normal_ = st.cached_normal;
}

Rng Rng::split(std::uint64_t stream) const {
  // Mix the current state with the stream id through SplitMix64 so that
  // neighbouring stream ids yield unrelated sequences.
  std::uint64_t mix = state_[0] ^ (stream * 0xD2B74407B1CE6E93ull + 0x8CB92BA72F3D8DD7ull);
  return Rng(splitmix64(mix));
}

}  // namespace ncnas::tensor
