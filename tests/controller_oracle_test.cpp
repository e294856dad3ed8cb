// Holds rl::Controller to the step-by-step oracle in controller_oracle.hpp,
// bit for bit: sampled rollouts, PPO statistics, parameters and Adam moments
// after several updates, for every batch size the driver uses, on the
// search spaces the benchmarks run. The "_default" instances run the
// oracle's products on the size-dispatched kernels, as the controller's run;
// the "_reference" instances run them on the serial reference kernels alone,
// so the controller's blocked products are held to the reference bits.
#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <string>
#include <tuple>
#include <vector>

#include "controller_oracle.hpp"
#include "ncnas/rl/controller.hpp"
#include "ncnas/space/spaces.hpp"

namespace ncnas::rl {
namespace {

using tensor::Rng;
using testing::oracle::Kernels;

/// Bitwise float equality (NaN payloads and the sign of zero included).
bool same_bits(float a, float b) { return std::bit_cast<std::uint32_t>(a) == std::bit_cast<std::uint32_t>(b); }

/// Index of the first element whose bits differ, or -1.
long first_diff(const std::vector<float>& a, const std::vector<float>& b) {
  if (a.size() != b.size()) return 0;
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (!same_bits(a[i], b[i])) return static_cast<long>(i);
  }
  return -1;
}

using Case = std::tuple<std::string, std::size_t, Kernels>;

class ControllerOracle : public ::testing::TestWithParam<Case> {};

TEST_P(ControllerOracle, BitIdenticalAfterUpdates) {
  const auto& [space_name, batch, kernels] = GetParam();
  const std::vector<std::size_t> arities = space::space_by_name(space_name).arities();
  constexpr int kUpdates = 3;
  constexpr std::uint64_t kSeed = 29;

  Controller ctrl(arities, kSeed);
  testing::oracle::Controller oracle(arities, ctrl.get_flat(), kernels);
  Rng ctrl_rng(kSeed + batch);
  Rng oracle_rng(kSeed + batch);
  Rng reward_rng(kSeed * 3 + batch);
  const PpoConfig cfg;

  for (int update = 0; update < kUpdates; ++update) {
    SCOPED_TRACE("update " + std::to_string(update));
    std::vector<Rollout> rolls;
    std::vector<float> rewards;
    for (std::size_t b = 0; b < batch; ++b) {
      rolls.push_back(ctrl.sample(ctrl_rng));
      const Rollout expect = oracle.sample(oracle_rng);
      ASSERT_EQ(rolls.back().actions, expect.actions) << "rollout " << b;
      ASSERT_EQ(first_diff(rolls.back().log_probs, expect.log_probs), -1) << "rollout " << b;
      ASSERT_EQ(first_diff(rolls.back().values, expect.values), -1) << "rollout " << b;
      rewards.push_back(static_cast<float>(reward_rng.uniform()));
    }
    const PpoStats got = ctrl.ppo_update(rolls, rewards, cfg);
    const PpoStats want = oracle.ppo_update(rolls, rewards, cfg);
    EXPECT_TRUE(same_bits(got.policy_loss, want.policy_loss));
    EXPECT_TRUE(same_bits(got.value_loss, want.value_loss));
    EXPECT_TRUE(same_bits(got.entropy, want.entropy));
    EXPECT_TRUE(same_bits(got.approx_kl, want.approx_kl));
    ASSERT_EQ(first_diff(ctrl.get_flat(), oracle.get_flat()), -1);

    const nn::Adam::State adam = ctrl.save_state().adam;
    const nn::Adam::State expect = oracle.adam_state();
    EXPECT_EQ(adam.step_count, expect.step_count);
    ASSERT_EQ(adam.entries.size(), expect.entries.size());
    for (std::size_t e = 0; e < adam.entries.size(); ++e) {
      EXPECT_EQ(adam.entries[e].key, expect.entries[e].key);
      EXPECT_EQ(adam.entries[e].shape, expect.entries[e].shape);
      EXPECT_EQ(first_diff(adam.entries[e].m, expect.entries[e].m), -1) << adam.entries[e].key;
      EXPECT_EQ(first_diff(adam.entries[e].v, expect.entries[e].v), -1) << adam.entries[e].key;
    }
  }
}

std::string case_name(const ::testing::TestParamInfo<Case>& info) {
  const auto& [space_name, batch, kernels] = info.param;
  std::string name = space_name + "_B" + std::to_string(batch);
  for (char& ch : name) {
    if (ch == '-') ch = '_';
  }
  return name + (kernels == Kernels::kReference ? "_reference" : "_default");
}

INSTANTIATE_TEST_SUITE_P(
    SpacesBatchesKernels, ControllerOracle,
    ::testing::Combine(::testing::Values("nt3-small", "combo-small", "uno-small"),
                       ::testing::Values(1, 2, 4, 8, 16),
                       ::testing::Values(Kernels::kDefault, Kernels::kReference)),
    case_name);

}  // namespace
}  // namespace ncnas::rl
