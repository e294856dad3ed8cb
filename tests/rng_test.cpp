#include <gtest/gtest.h>

#include <cmath>
#include <stdexcept>

#include "ncnas/tensor/rng.hpp"

namespace ncnas::tensor {
namespace {

TEST(Rng, DeterministicForSameSeed) {
  Rng a(123), b(123);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.next_u64(), b.next_u64());
}

TEST(Rng, DifferentSeedsDiverge) {
  Rng a(1), b(2);
  int same = 0;
  for (int i = 0; i < 64; ++i) {
    if (a.next_u64() == b.next_u64()) ++same;
  }
  EXPECT_EQ(same, 0);
}

TEST(Rng, UniformInUnitInterval) {
  Rng rng(7);
  double mn = 1.0, mx = 0.0, mean = 0.0;
  constexpr int kN = 20000;
  for (int i = 0; i < kN; ++i) {
    const double u = rng.uniform();
    mn = std::min(mn, u);
    mx = std::max(mx, u);
    mean += u;
  }
  mean /= kN;
  EXPECT_GE(mn, 0.0);
  EXPECT_LT(mx, 1.0);
  EXPECT_NEAR(mean, 0.5, 0.02);
}

TEST(Rng, UniformRange) {
  Rng rng(7);
  for (int i = 0; i < 1000; ++i) {
    const double u = rng.uniform(-3.0, 5.0);
    EXPECT_GE(u, -3.0);
    EXPECT_LT(u, 5.0);
  }
}

TEST(Rng, UniformIntCoversAllValuesUnbiased) {
  Rng rng(11);
  std::vector<int> counts(7, 0);
  constexpr int kN = 70000;
  for (int i = 0; i < kN; ++i) ++counts[rng.uniform_int(7)];
  for (int c : counts) EXPECT_NEAR(c, kN / 7, kN / 70);  // within 10 %
}

TEST(Rng, UniformIntRejectsZero) {
  Rng rng(1);
  EXPECT_THROW((void)rng.uniform_int(0), std::invalid_argument);
}

TEST(Rng, NormalMomentsRoughlyStandard) {
  Rng rng(13);
  double mean = 0.0, m2 = 0.0;
  constexpr int kN = 50000;
  for (int i = 0; i < kN; ++i) {
    const double z = rng.normal();
    mean += z;
    m2 += z * z;
  }
  mean /= kN;
  m2 /= kN;
  EXPECT_NEAR(mean, 0.0, 0.03);
  EXPECT_NEAR(m2, 1.0, 0.05);
}

TEST(Rng, NormalWithMeanAndStd) {
  Rng rng(17);
  double mean = 0.0;
  constexpr int kN = 20000;
  for (int i = 0; i < kN; ++i) mean += rng.normal(10.0, 0.5);
  EXPECT_NEAR(mean / kN, 10.0, 0.05);
}

TEST(Rng, CategoricalFollowsDistribution) {
  Rng rng(19);
  const std::vector<double> probs{0.1, 0.6, 0.3};
  std::vector<int> counts(3, 0);
  constexpr int kN = 30000;
  for (int i = 0; i < kN; ++i) ++counts[rng.categorical(probs)];
  EXPECT_NEAR(counts[0], 0.1 * kN, 0.02 * kN);
  EXPECT_NEAR(counts[1], 0.6 * kN, 0.02 * kN);
  EXPECT_NEAR(counts[2], 0.3 * kN, 0.02 * kN);
}

TEST(Rng, CategoricalRejectsEmpty) {
  Rng rng(1);
  EXPECT_THROW((void)rng.categorical({}), std::invalid_argument);
}

TEST(Rng, SplitStreamsAreIndependentAndDeterministic) {
  const Rng base(42);
  Rng a = base.split(0);
  Rng b = base.split(1);
  Rng a2 = base.split(0);
  EXPECT_NE(a.next_u64(), b.next_u64());
  Rng a3 = base.split(0);
  EXPECT_EQ(a2.next_u64(), a3.next_u64());
}

TEST(Rng, ReseedResetsSequence) {
  Rng rng(5);
  const std::uint64_t first = rng.next_u64();
  rng.reseed(5);
  EXPECT_EQ(rng.next_u64(), first);
}

TEST(Rng, StateRoundTripContinuesBitIdentically) {
  Rng rng(77);
  // Mixed draws so the saved state is mid-stream, not at a seed boundary.
  for (int i = 0; i < 13; ++i) (void)rng.next_u64();
  (void)rng.uniform();
  (void)rng.normal();

  const RngState st = rng.state();
  Rng restored(0);  // different seed: everything must come from the state
  restored.set_state(st);
  for (int i = 0; i < 64; ++i) {
    EXPECT_EQ(rng.next_u64(), restored.next_u64());
    EXPECT_EQ(rng.uniform(), restored.uniform());
    EXPECT_EQ(rng.normal(), restored.normal());
    EXPECT_EQ(rng.uniform_int(97), restored.uniform_int(97));
  }
}

TEST(Rng, SetStateRejectsAllZeroWords) {
  // xoshiro256** never leaves the all-zero state, so a stream restored into
  // it would draw 0 forever; set_state refuses it and keeps its own state.
  Rng rng(5);
  const std::uint64_t expected = Rng(5).next_u64();
  EXPECT_THROW(rng.set_state(RngState{}), std::invalid_argument);
  EXPECT_EQ(rng.next_u64(), expected);
}

TEST(Rng, StateCapturesTheBoxMullerCache) {
  // An odd number of normal() draws leaves the cached second half of the
  // Box–Muller pair pending; the state must carry it, or the restored
  // stream shifts by one normal draw.
  Rng rng(31);
  (void)rng.normal();
  const RngState st = rng.state();
  EXPECT_TRUE(st.has_cached_normal);

  Rng restored(0);
  restored.set_state(st);
  EXPECT_EQ(rng.normal(), restored.normal());   // the cached value itself
  EXPECT_EQ(rng.normal(), restored.normal());   // and the stream after it
  EXPECT_EQ(rng.next_u64(), restored.next_u64());
}

}  // namespace
}  // namespace ncnas::tensor
