#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <fstream>

#include "ncnas/nas/result_io.hpp"

namespace ncnas::nas {
namespace {

SearchResult sample_result() {
  SearchResult res;
  res.end_time = 1234.5;
  res.converged_early = true;
  res.cache_hits = 7;
  res.timeouts = 2;
  res.unique_archs = 11;
  res.ppo_updates = 4;
  res.utilization = {0.5, 0.75, 1.0};
  EvalRecord e;
  e.time = 10.0;
  e.reward = 0.25f;
  e.params = 999;
  e.sim_duration = 120.0;
  e.cache_hit = false;
  e.timed_out = true;
  e.agent = 3;
  e.arch = {1, 0, 12};
  res.evals.push_back(e);
  e.time = 20.0;
  e.cache_hit = true;
  e.arch = {2, 2, 2};
  res.evals.push_back(e);
  return res;
}

struct TempDir {
  std::filesystem::path path;
  TempDir() {
    path = std::filesystem::temp_directory_path() /
           ("ncnas_test_" + std::to_string(::getpid()));
    std::filesystem::create_directories(path);
  }
  ~TempDir() { std::filesystem::remove_all(path); }
};

TEST(ResultIo, RoundTrip) {
  TempDir dir;
  const std::string file = (dir.path / "run.log").string();
  const SearchResult original = sample_result();
  save_result(file, original, "fp-1");
  const auto loaded = load_result(file, "fp-1");
  ASSERT_TRUE(loaded.has_value());
  EXPECT_DOUBLE_EQ(loaded->end_time, original.end_time);
  EXPECT_EQ(loaded->converged_early, original.converged_early);
  EXPECT_EQ(loaded->cache_hits, original.cache_hits);
  EXPECT_EQ(loaded->timeouts, original.timeouts);
  EXPECT_EQ(loaded->unique_archs, original.unique_archs);
  EXPECT_EQ(loaded->ppo_updates, original.ppo_updates);
  EXPECT_EQ(loaded->utilization, original.utilization);
  ASSERT_EQ(loaded->evals.size(), original.evals.size());
  for (std::size_t i = 0; i < original.evals.size(); ++i) {
    EXPECT_DOUBLE_EQ(loaded->evals[i].time, original.evals[i].time);
    EXPECT_EQ(loaded->evals[i].reward, original.evals[i].reward);
    EXPECT_EQ(loaded->evals[i].params, original.evals[i].params);
    EXPECT_EQ(loaded->evals[i].cache_hit, original.evals[i].cache_hit);
    EXPECT_EQ(loaded->evals[i].timed_out, original.evals[i].timed_out);
    EXPECT_EQ(loaded->evals[i].agent, original.evals[i].agent);
    EXPECT_EQ(loaded->evals[i].arch, original.evals[i].arch);
  }
}

TEST(ResultIo, TelemetryFlagRoundTripsInHeader) {
  TempDir dir;
  const std::string file = (dir.path / "tel.log").string();
  SearchResult res = sample_result();
  res.telemetry_enabled = true;
  save_result(file, res, "fp");
  const auto loaded = load_result(file, "fp");
  ASSERT_TRUE(loaded.has_value());
  EXPECT_TRUE(loaded->telemetry_enabled);
}

TEST(ResultIo, ReaderToleratesPreTelemetryV3Header) {
  // A v3 log written before the telemetry flag existed: the stats line has
  // only seven fields. It must still load, with the flag defaulting to off.
  TempDir dir;
  const std::string file = (dir.path / "old.log").string();
  {
    std::ofstream out(file);
    out << "ncnas-search-log-v3\nfp\n";
    out << "100.5 1 7 2 11 4 60\n";    // no trailing telemetry field
    out << "2 0.5 1\n";                // utilization
    out << "1\n";                      // evals
    out << "10 0.25 99 12 0 1 3 2 1 0\n";
  }
  const auto loaded = load_result(file, "fp");
  ASSERT_TRUE(loaded.has_value());
  EXPECT_FALSE(loaded->telemetry_enabled);
  EXPECT_DOUBLE_EQ(loaded->end_time, 100.5);
  EXPECT_EQ(loaded->cache_hits, 7u);
  ASSERT_EQ(loaded->evals.size(), 1u);
  EXPECT_EQ(loaded->evals[0].params, 99u);
}

TEST(ResultIo, FingerprintMismatchInvalidatesLog) {
  TempDir dir;
  const std::string file = (dir.path / "run.log").string();
  save_result(file, sample_result(), "fp-old");
  EXPECT_FALSE(load_result(file, "fp-new").has_value());
}

TEST(ResultIo, HugeCountsYieldNulloptWithoutSizingAnything) {
  // A corrupt count is trusted only as far as the values behind it parse:
  // none of these may allocate for 10^18 entries or throw out of the loader.
  TempDir dir;
  const std::string file = (dir.path / "huge.log").string();
  const auto load_with = [&](const char* utilization, const char* evals, const char* record) {
    {
      std::ofstream out(file);
      out << "ncnas-search-log-v3\nfp\n100.5 1 7 2 11 4 60\n"
          << utilization << '\n' << evals << '\n' << record << '\n';
    }
    return load_result(file, "fp");
  };
  ASSERT_TRUE(load_with("2 0.5 1", "1", "10 0.25 99 12 0 1 3 2 1 0").has_value());
  EXPECT_FALSE(load_with("1000000000000000000 0.5 1", "1", "10 0.25 99 12 0 1 3 2 1 0"));
  EXPECT_FALSE(load_with("2 0.5 1", "1000000000000000000", "10 0.25 99 12 0 1 3 2 1 0"));
  EXPECT_FALSE(load_with("2 0.5 1", "1", "10 0.25 99 12 0 1 3 1000000000000000000 1 0"));
}

TEST(ResultIo, MissingFileYieldsNullopt) {
  EXPECT_FALSE(load_result("/nonexistent/nope.log", "fp").has_value());
}

TEST(ResultIo, ReadFingerprintRoundTripsAndRejectsForeignFiles) {
  TempDir dir;
  const std::string file = (dir.path / "run.log").string();
  const std::string fp = config_fingerprint(SearchConfig{}, "nt3-small");
  save_result(file, sample_result(), fp);
  EXPECT_EQ(read_fingerprint(file), fp);
  EXPECT_EQ(read_fingerprint((dir.path / "missing.log").string()), std::nullopt);
  {
    std::ofstream out(file);
    out << "ncnas-search-log-v2\n" << fp << "\n";
  }
  EXPECT_EQ(read_fingerprint(file), std::nullopt);
}

TEST(ResultIo, RunOrLoadRunsOnceThenCaches) {
  TempDir dir;
  int calls = 0;
  const auto runner = [&] {
    ++calls;
    return sample_result();
  };
  const SearchResult a = run_or_load(dir.path.string(), "tag", "fp", runner);
  const SearchResult b = run_or_load(dir.path.string(), "tag", "fp", runner);
  EXPECT_EQ(calls, 1);
  EXPECT_EQ(a.evals.size(), b.evals.size());
  // Changing the fingerprint triggers a rerun.
  (void)run_or_load(dir.path.string(), "tag", "fp2", runner);
  EXPECT_EQ(calls, 2);
}

TEST(ResultIo, FingerprintCoversKeyConfigFields) {
  SearchConfig a;
  SearchConfig b = a;
  EXPECT_EQ(config_fingerprint(a, "s"), config_fingerprint(b, "s"));
  b.seed += 1;
  EXPECT_NE(config_fingerprint(a, "s"), config_fingerprint(b, "s"));
  b = a;
  b.fidelity.subset_fraction = 0.4;
  EXPECT_NE(config_fingerprint(a, "s"), config_fingerprint(b, "s"));
  b = a;
  b.cluster.num_agents *= 2;
  EXPECT_NE(config_fingerprint(a, "s"), config_fingerprint(b, "s"));
  b = a;
  b.strategy = SearchStrategy::kRandom;
  EXPECT_NE(config_fingerprint(a, "s"), config_fingerprint(b, "s"));
  EXPECT_NE(config_fingerprint(a, "s"), config_fingerprint(a, "t"));
}

}  // namespace
}  // namespace ncnas::nas
