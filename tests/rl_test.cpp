#include <gtest/gtest.h>

#include <cmath>

#include "ncnas/rl/controller.hpp"

namespace ncnas::rl {
namespace {

using tensor::Rng;

TEST(Controller, SampleRespectsArities) {
  Controller ctrl({3, 5, 2}, 42);
  Rng rng(1);
  for (int i = 0; i < 100; ++i) {
    const Rollout roll = ctrl.sample(rng);
    ASSERT_EQ(roll.actions.size(), 3u);
    EXPECT_LT(roll.actions[0], 3u);
    EXPECT_LT(roll.actions[1], 5u);
    EXPECT_LT(roll.actions[2], 2u);
    ASSERT_EQ(roll.log_probs.size(), 3u);
    for (float lp : roll.log_probs) EXPECT_LE(lp, 0.0f);
  }
}

TEST(Controller, GreedyIsDeterministic) {
  Controller ctrl({4, 4}, 7);
  EXPECT_EQ(ctrl.greedy(), ctrl.greedy());
}

TEST(Controller, FreshControllerSamplesRoughlyUniformly) {
  Controller ctrl({4}, 11);
  Rng rng(2);
  std::vector<int> counts(4, 0);
  constexpr int kN = 4000;
  for (int i = 0; i < kN; ++i) ++counts[ctrl.sample(rng).actions[0]];
  for (int c : counts) EXPECT_NEAR(c, kN / 4, kN / 8);
}

TEST(Controller, FlatRoundTrip) {
  Controller a({3, 3}, 1);
  Controller b({3, 3}, 2);
  const std::vector<float> flat = a.get_flat();
  EXPECT_EQ(flat.size(), a.flat_size());
  b.set_flat(flat);
  EXPECT_EQ(b.get_flat(), flat);
  // After synchronization both controllers decode identically.
  EXPECT_EQ(a.greedy(), b.greedy());
  std::vector<float> wrong(flat.size() - 1);
  EXPECT_THROW(b.set_flat(wrong), std::invalid_argument);
}

TEST(Controller, RejectsDegenerateAritySpecs) {
  EXPECT_THROW(Controller({}, 1), std::invalid_argument);
  EXPECT_THROW(Controller({3, 0, 2}, 1), std::invalid_argument);
}

TEST(Controller, PpoRejectsMalformedBatches) {
  Controller ctrl({3}, 1);
  Rng rng(1);
  const Rollout roll = ctrl.sample(rng);
  const std::vector<Rollout> rolls{roll};
  const std::vector<float> no_rewards;
  EXPECT_THROW((void)ctrl.ppo_update(rolls, no_rewards, {}), std::invalid_argument);
}

TEST(Controller, PpoLearnssingle_stepBandit) {
  // Reward 1 for arm 2, 0 otherwise: after a few updates the controller must
  // concentrate probability on arm 2.
  Controller ctrl({4}, 3);
  Rng rng(5);
  PpoConfig cfg;
  for (int iter = 0; iter < 60; ++iter) {
    std::vector<Rollout> rolls;
    std::vector<float> rewards;
    for (int b = 0; b < 8; ++b) {
      rolls.push_back(ctrl.sample(rng));
      rewards.push_back(rolls.back().actions[0] == 2 ? 1.0f : 0.0f);
    }
    (void)ctrl.ppo_update(rolls, rewards, cfg);
  }
  EXPECT_EQ(ctrl.greedy()[0], 2u);
  int hits = 0;
  for (int i = 0; i < 200; ++i) hits += ctrl.sample(rng).actions[0] == 2;
  EXPECT_GT(hits, 120);  // well above the uniform 50/200
}

TEST(Controller, PpoLearnsSequentialCredit) {
  // Reward requires the RIGHT pair of actions across two steps: tests that
  // the LSTM conditions step 2 on step 1 (the paper's MDP argument).
  Controller ctrl({3, 3}, 9);
  Rng rng(17);
  PpoConfig cfg;
  for (int iter = 0; iter < 120; ++iter) {
    std::vector<Rollout> rolls;
    std::vector<float> rewards;
    for (int b = 0; b < 8; ++b) {
      rolls.push_back(ctrl.sample(rng));
      const auto& a = rolls.back().actions;
      rewards.push_back(a[0] == 1 && a[1] == 2 ? 1.0f : 0.0f);
    }
    (void)ctrl.ppo_update(rolls, rewards, cfg);
  }
  const auto best = ctrl.greedy();
  EXPECT_EQ(best[0], 1u);
  EXPECT_EQ(best[1], 2u);
}

TEST(Controller, PpoStatsAreFinite) {
  Controller ctrl({5, 5}, 21);
  Rng rng(3);
  std::vector<Rollout> rolls;
  std::vector<float> rewards;
  for (int b = 0; b < 6; ++b) {
    rolls.push_back(ctrl.sample(rng));
    rewards.push_back(static_cast<float>(b) / 6.0f);
  }
  const PpoStats stats = ctrl.ppo_update(rolls, rewards, {});
  EXPECT_TRUE(std::isfinite(stats.policy_loss));
  EXPECT_TRUE(std::isfinite(stats.value_loss));
  EXPECT_TRUE(std::isfinite(stats.entropy));
  EXPECT_GT(stats.entropy, 0.0f);
}

TEST(Controller, ValueHeadLearnsConstantReward) {
  // With a constant reward the critic must converge toward it.
  Controller ctrl({3}, 31);
  Rng rng(7);
  PpoConfig cfg;
  for (int iter = 0; iter < 80; ++iter) {
    std::vector<Rollout> rolls;
    std::vector<float> rewards;
    for (int b = 0; b < 4; ++b) {
      rolls.push_back(ctrl.sample(rng));
      rewards.push_back(0.7f);
    }
    (void)ctrl.ppo_update(rolls, rewards, cfg);
  }
  const Rollout roll = ctrl.sample(rng);
  EXPECT_NEAR(roll.values[0], 0.7f, 0.15f);
}

void expect_same_adam(const nn::Adam::State& a, const nn::Adam::State& b) {
  EXPECT_EQ(a.step_count, b.step_count);
  ASSERT_EQ(a.entries.size(), b.entries.size());
  for (std::size_t e = 0; e < a.entries.size(); ++e) {
    EXPECT_EQ(a.entries[e].key, b.entries[e].key);
    EXPECT_EQ(a.entries[e].m, b.entries[e].m) << a.entries[e].key;
    EXPECT_EQ(a.entries[e].v, b.entries[e].v) << a.entries[e].key;
  }
}

TEST(Controller, RejectedSetFlatOrLoadStateLeavesControllerUnchanged) {
  Controller ctrl({3, 4}, 5);
  Rng rng(2);
  const std::vector<Rollout> rolls{ctrl.sample(rng), ctrl.sample(rng)};
  const std::vector<float> rewards{0.2f, 0.9f};
  (void)ctrl.ppo_update(rolls, rewards, {});
  const Controller::State before = ctrl.save_state();
  const std::vector<float>& flat = before.flat;

  const auto expect_unchanged = [&] {
    EXPECT_EQ(ctrl.get_flat(), flat);
    expect_same_adam(ctrl.save_state().adam, before.adam);
  };
  // A too-long vector would fill every parameter before the size check; a
  // too-short one a prefix.
  EXPECT_THROW(ctrl.set_flat(std::vector<float>(flat.size() + 3, 9.0f)), std::invalid_argument);
  expect_unchanged();
  EXPECT_THROW(ctrl.set_flat(std::vector<float>(flat.size() - 1, 9.0f)), std::invalid_argument);
  expect_unchanged();

  // New parameters with moments that do not fit: nothing is replaced.
  Controller::State bad = before;
  bad.flat.assign(flat.size(), 7.0f);
  bad.adam.step_count = 99;
  bad.adam.entries.back().m.pop_back();
  EXPECT_THROW(ctrl.load_state(bad), std::invalid_argument);
  expect_unchanged();
  // Well-formed moments that attach to a parameter of another size.
  bad = before;
  bad.flat.assign(flat.size(), 7.0f);
  for (nn::Adam::MomentEntry& e : bad.adam.entries) {
    if (e.key != "ctrl.bv") continue;
    e.shape = {2};
    e.m.assign(2, 1.0f);
    e.v.assign(2, 1.0f);
  }
  EXPECT_THROW(ctrl.load_state(bad), std::invalid_argument);
  expect_unchanged();
  // A flat vector of the wrong size with valid moments.
  bad = before;
  bad.flat.push_back(1.0f);
  bad.adam.step_count = 99;
  EXPECT_THROW(ctrl.load_state(bad), std::invalid_argument);
  expect_unchanged();

  // The same states, corrected, load.
  bad = before;
  bad.flat.assign(flat.size(), 7.0f);
  ctrl.load_state(bad);
  EXPECT_EQ(ctrl.get_flat(), bad.flat);
  expect_same_adam(ctrl.save_state().adam, before.adam);
}

}  // namespace
}  // namespace ncnas::rl
