#include <gtest/gtest.h>

#include <sstream>

#include "ncnas/analytics/posttrain.hpp"
#include "ncnas/analytics/report.hpp"
#include "ncnas/analytics/series.hpp"
#include "ncnas/space/spaces.hpp"

namespace ncnas::analytics {
namespace {

TEST(Series, ResampleBestStaircase) {
  const std::vector<std::pair<double, float>> best{{30.0, 0.2f}, {90.0, 0.5f}, {150.0, 0.7f}};
  const auto series = resample_best(best, 240.0, 60.0, -1.0);
  ASSERT_EQ(series.size(), 4u);
  EXPECT_NEAR(series[0], 0.2, 1e-6);  // by t=60
  EXPECT_NEAR(series[1], 0.5, 1e-6);  // by t=120
  EXPECT_NEAR(series[2], 0.7, 1e-6);  // by t=180
  EXPECT_NEAR(series[3], 0.7, 1e-6);  // plateau
}

TEST(Series, ResampleEmptyUsesFill) {
  const auto series = resample_best({}, 120.0, 60.0, -1.0);
  ASSERT_EQ(series.size(), 2u);
  EXPECT_DOUBLE_EQ(series[0], -1.0);
}

TEST(Series, ResampleMeanAveragesPerBucket) {
  const std::vector<std::pair<double, float>> obs{
      {10.0, 0.0f}, {20.0, 1.0f},   // bucket 0: mean 0.5
      {70.0, 0.2f},                 // bucket 1: 0.2
                                    // bucket 2: empty -> carries 0.2
      {190.0, 0.8f}};               // bucket 3: 0.8
  const auto series = resample_mean(obs, 240.0, 60.0, -1.0);
  ASSERT_EQ(series.size(), 4u);
  EXPECT_NEAR(series[0], 0.5, 1e-6);
  EXPECT_NEAR(series[1], 0.2, 1e-6);
  EXPECT_NEAR(series[2], 0.2, 1e-6);
  EXPECT_NEAR(series[3], 0.8, 1e-6);
}

TEST(Series, ResampleMeanEmptyUsesFill) {
  const auto series = resample_mean({}, 120.0, 60.0, -0.5);
  ASSERT_EQ(series.size(), 2u);
  EXPECT_DOUBLE_EQ(series[0], -0.5);
  EXPECT_DOUBLE_EQ(series[1], -0.5);
}

TEST(Series, ResampleMeanIgnoresOutOfRange) {
  const std::vector<std::pair<double, float>> obs{{-5.0, 9.0f}, {500.0, 9.0f}, {30.0, 0.3f}};
  const auto series = resample_mean(obs, 60.0, 60.0, 0.0);
  ASSERT_EQ(series.size(), 1u);
  EXPECT_NEAR(series[0], 0.3, 1e-6);
}

TEST(Series, RewardTrajectorySizesItsBucketsFromTheSpan) {
  // A 1.2-minute search, the span of a bench_evolution --quick log: one
  // reward a second, climbing from -1 to 1.
  std::vector<std::pair<double, float>> rewards;
  for (int t = 0; t < 72; ++t) {
    rewards.emplace_back(t, -1.0f + 2.0f * static_cast<float>(t) / 71.0f);
  }
  const auto short_run = reward_trajectory(rewards, 72.0);
  ASSERT_EQ(short_run.size(), 60u);  // 1.2 s buckets, not one 600 s bucket
  EXPECT_LT(short_run.front(), short_run.back());
  std::ostringstream spark;
  print_sparkline(spark, "mean reward ", short_run, -1.0, 1.0);
  EXPECT_EQ(spark.str().rfind('|') - spark.str().find('|'), 61u);  // 60 glyphs between bars

  // A six-hour search gets the same width; a search under a minute gets
  // one-second buckets; an empty span draws nothing.
  EXPECT_EQ(reward_trajectory(rewards, 6.0 * 3600.0).size(), 60u);
  EXPECT_EQ(reward_trajectory(rewards, 30.0).size(), 30u);
  EXPECT_TRUE(reward_trajectory(rewards, 0.0).empty());
}

TEST(Series, QuantileInterpolates) {
  EXPECT_DOUBLE_EQ(quantile({1, 2, 3, 4, 5}, 0.5), 3.0);
  EXPECT_DOUBLE_EQ(quantile({1, 2, 3, 4}, 0.5), 2.5);
  EXPECT_DOUBLE_EQ(quantile({7}, 0.9), 7.0);
  EXPECT_THROW((void)quantile({}, 0.5), std::invalid_argument);
}

TEST(Series, QuantileBandsAcrossRuns) {
  const std::vector<std::vector<double>> runs{
      {0.1, 0.2, 0.3}, {0.2, 0.3, 0.4}, {0.3, 0.4, 0.5}};
  const QuantileBands bands = quantile_bands(runs);
  ASSERT_EQ(bands.q50.size(), 3u);
  EXPECT_DOUBLE_EQ(bands.q50[0], 0.2);
  EXPECT_DOUBLE_EQ(bands.q50[2], 0.4);
  EXPECT_LT(bands.q10[1], bands.q90[1]);
}

TEST(Series, ShorterRunsExtendWithLastValue) {
  const std::vector<std::vector<double>> runs{{0.5}, {0.1, 0.9}};
  const QuantileBands bands = quantile_bands(runs);
  ASSERT_EQ(bands.q50.size(), 2u);
  // Bucket 1 sees {0.5 (extended), 0.9}.
  EXPECT_DOUBLE_EQ(bands.q50[1], 0.7);
}

TEST(PostTrain, BaselineAndArchProduceComparableRows) {
  data::Nt3Dims dims;
  dims.train = 64;
  dims.valid = 32;
  dims.length = 64;
  dims.motif = 6;
  const data::Dataset ds = data::make_nt3(5, dims);
  const space::SearchSpace s = space::nt3_small_space();

  PostTrainOptions opts;
  opts.epochs = 2;
  const PostTrainResult base = post_train_baseline(ds, opts);
  EXPECT_GT(base.params, 0u);
  EXPECT_GT(base.train_seconds, 0.0);

  tensor::Rng rng(1);
  const PostTrainResult mine = post_train(s, ds, s.random_arch(rng), opts);
  EXPECT_GT(mine.params, 0u);

  const RatioRow row = ratios(mine, base);
  EXPECT_GT(row.param_ratio, 0.0f);
  EXPECT_GT(row.time_ratio, 0.0f);
}

TEST(PostTrain, ManyKeepsInputOrder) {
  data::Nt3Dims dims;
  dims.train = 32;
  dims.valid = 16;
  dims.length = 64;
  dims.motif = 6;
  const data::Dataset ds = data::make_nt3(5, dims);
  const space::SearchSpace s = space::nt3_small_space();
  tensor::Rng rng(2);
  std::vector<nas::EvalRecord> top(3);
  for (auto& rec : top) {
    rec.arch = s.random_arch(rng);
    rec.reward = 0.5f;
  }
  PostTrainOptions opts;
  opts.epochs = 1;
  const auto results = post_train_many(s, ds, top, opts);
  ASSERT_EQ(results.size(), 3u);
  for (std::size_t i = 0; i < 3; ++i) {
    EXPECT_EQ(results[i].arch, top[i].arch);
    EXPECT_EQ(results[i].search_reward, 0.5f);
  }
}

TEST(Report, TableAlignsColumns) {
  Table t({"name", "value"});
  t.add_row({"alpha", "1"});
  t.add_row({"b", "22222"});
  std::ostringstream os;
  t.print(os);
  const std::string out = os.str();
  EXPECT_NE(out.find("name"), std::string::npos);
  EXPECT_NE(out.find("alpha"), std::string::npos);
  EXPECT_NE(out.find("-----"), std::string::npos);
}

TEST(Report, SeriesAndSparkline) {
  std::ostringstream os;
  print_series(os, "u", {0.5, 0.75}, 60.0);
  EXPECT_NE(os.str().find("u\t1.0\t0.5000"), std::string::npos);
  std::ostringstream spark;
  print_sparkline(spark, "traj", {0.0, 0.5, 1.0}, 0.0, 1.0);
  EXPECT_NE(spark.str().find("traj |"), std::string::npos);
}

TEST(Report, FmtPrecision) {
  EXPECT_EQ(fmt(1.23456, 2), "1.23");
  EXPECT_EQ(fmt(2.0, 0), "2");
}

}  // namespace
}  // namespace ncnas::analytics
