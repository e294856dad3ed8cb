// Seed handling shared by the seeded fuzz harnesses (each owns its main()):
// --seed=N replays one stream exactly; --runs=N repeats the whole suite N
// times, rotating the seed each run (splitmix64 of base+run; run 0 keeps the
// base seed untouched so a --seed=S replay reproduces exactly). Any failing
// run prints its absolute seed on a FAILING SEED line — replay that one run
// with --seed=S, no --runs needed.
#pragma once

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <string>

#include <gtest/gtest.h>

namespace ncnas::testing {

/// splitmix64 — decorrelates the per-run seeds so --runs=N explores N
/// genuinely different streams instead of N neighbors of the base seed.
inline std::uint64_t mix64(std::uint64_t x) {
  x += 0x9E3779B97F4A7C15ULL;
  x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ULL;
  x = (x ^ (x >> 27)) * 0x94D049BB133111EBULL;
  return x ^ (x >> 31);
}

/// Rotates `*seed` at the start of each --gtest_repeat iteration and prints
/// the absolute failing seed at the end of any iteration that failed, so a
/// multi-run CI log always names the exact seed to replay.
class SeedRotator : public ::testing::Environment {
 public:
  SeedRotator(const char* name, std::uint64_t* seed) : name_(name), seed_(seed), base_(*seed) {}

  void SetUp() override {
    *seed_ = run_ == 0 ? base_ : mix64(base_ + static_cast<std::uint64_t>(run_));
    std::printf("%s run %d seed: %llu (replay with --seed=%llu)\n", name_, run_ + 1,
                static_cast<unsigned long long>(*seed_), static_cast<unsigned long long>(*seed_));
    std::fflush(stdout);
    ++run_;
  }

  void TearDown() override {
    if (::testing::UnitTest::GetInstance()->failed_test_count() > 0) {
      std::printf("%s FAILING SEED: %llu (replay with --seed=%llu)\n", name_,
                  static_cast<unsigned long long>(*seed_),
                  static_cast<unsigned long long>(*seed_));
      std::fflush(stdout);
    }
  }

 private:
  const char* name_;
  std::uint64_t* seed_;
  std::uint64_t base_;
  int run_ = 0;
};

/// The whole main() of a fuzz harness whose streams derive from `*seed`.
inline int fuzz_main(int argc, char** argv, const char* name, std::uint64_t* seed) {
  ::testing::InitGoogleTest(&argc, argv);
  int runs = 1;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg.rfind("--seed=", 0) == 0) {
      *seed = std::stoull(arg.substr(7));
    } else if (arg == "--seed" && i + 1 < argc) {
      *seed = std::stoull(argv[++i]);
    } else if (arg.rfind("--runs=", 0) == 0) {
      runs = std::max(1, std::stoi(arg.substr(7)));
    } else if (arg == "--runs" && i + 1 < argc) {
      runs = std::max(1, std::stoi(argv[++i]));
    }
  }
  std::printf("%s base seed: %llu, runs: %d (override with --seed=N --runs=N)\n", name,
              static_cast<unsigned long long>(*seed), runs);
  ::testing::GTEST_FLAG(repeat) = runs;
  ::testing::AddGlobalTestEnvironment(new SeedRotator(name, seed));
  return RUN_ALL_TESTS();
}

}  // namespace ncnas::testing
