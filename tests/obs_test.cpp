#include <gtest/gtest.h>

#include <algorithm>
#include <sstream>
#include <thread>
#include <vector>

#include "json_check.hpp"
#include "ncnas/obs/telemetry.hpp"

namespace ncnas::obs {
namespace {

using ncnas::testing::is_valid_json;

// ---- metrics ---------------------------------------------------------------

TEST(Metrics, CounterAndGaugeBasics) {
  MetricsRegistry reg;
  Counter& c = reg.counter("ncnas_test_total");
  c.inc();
  c.inc(4);
  EXPECT_EQ(c.value(), 5u);
  EXPECT_EQ(&c, &reg.counter("ncnas_test_total"));  // same name, same instrument

  Gauge& g = reg.gauge("ncnas_test_gauge");
  g.set(2.5);
  g.add(-0.5);
  EXPECT_DOUBLE_EQ(g.value(), 2.0);
}

TEST(Metrics, RegistryConcurrentUpdatesFromManyThreads) {
  MetricsRegistry reg;
  constexpr int kThreads = 8;
  constexpr int kPerThread = 20000;
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&reg] {
      // Mix registration (map lock) and updates (atomics) across threads.
      Counter& c = reg.counter("ncnas_shared_total");
      Gauge& g = reg.gauge("ncnas_shared_gauge");
      Histogram& h = reg.histogram("ncnas_shared_hist", {1.0, 2.0, 4.0});
      for (int i = 0; i < kPerThread; ++i) {
        c.inc();
        g.add(1.0);
        h.observe(static_cast<double>(i % 5));
      }
    });
  }
  for (std::thread& t : threads) t.join();

  const MetricsSnapshot snap = reg.snapshot();
  EXPECT_EQ(snap.counter_value("ncnas_shared_total"),
            static_cast<std::uint64_t>(kThreads) * kPerThread);
  EXPECT_DOUBLE_EQ(snap.gauge_value("ncnas_shared_gauge"),
                   static_cast<double>(kThreads) * kPerThread);
  const HistogramSample* h = snap.histogram("ncnas_shared_hist");
  ASSERT_NE(h, nullptr);
  EXPECT_EQ(h->count, static_cast<std::uint64_t>(kThreads) * kPerThread);
}

TEST(Metrics, HistogramBucketEdgesAreInclusiveUpperBounds) {
  Histogram h({1.0, 2.0});
  h.observe(0.5);   // le=1
  h.observe(1.0);   // le=1 (edge is inclusive, Prometheus semantics)
  h.observe(1.5);   // le=2
  h.observe(2.0);   // le=2
  h.observe(3.0);   // +Inf
  const std::vector<std::uint64_t> counts = h.bucket_counts();
  ASSERT_EQ(counts.size(), 3u);
  EXPECT_EQ(counts[0], 2u);
  EXPECT_EQ(counts[1], 2u);
  EXPECT_EQ(counts[2], 1u);
  EXPECT_EQ(h.count(), 5u);
  EXPECT_DOUBLE_EQ(h.sum(), 8.0);
}

TEST(Metrics, HistogramRejectsUnsortedBounds) {
  EXPECT_THROW(Histogram({2.0, 1.0}), std::invalid_argument);
}

TEST(Metrics, SnapshotQuantileUsesBucketEdges) {
  MetricsRegistry reg;
  Histogram& h = reg.histogram("h", {1.0, 10.0, 100.0});
  for (int i = 0; i < 90; ++i) h.observe(0.5);
  for (int i = 0; i < 10; ++i) h.observe(50.0);
  const MetricsSnapshot snap = reg.snapshot();
  const HistogramSample* s = snap.histogram("h");
  ASSERT_NE(s, nullptr);
  EXPECT_DOUBLE_EQ(s->quantile(0.5), 1.0);
  EXPECT_DOUBLE_EQ(s->quantile(0.95), 100.0);
  EXPECT_NEAR(s->mean(), (90 * 0.5 + 10 * 50.0) / 100.0, 1e-9);
}

TEST(Metrics, QuantileEdgeCases) {
  // Empty sample: any quantile is 0 (no data to estimate from).
  HistogramSample empty;
  empty.bounds = {1.0, 2.0};
  empty.buckets = {0, 0, 0};
  EXPECT_DOUBLE_EQ(empty.quantile(0.0), 0.0);
  EXPECT_DOUBLE_EQ(empty.quantile(0.5), 0.0);
  EXPECT_DOUBLE_EQ(empty.quantile(1.0), 0.0);

  // q = 0 returns the first non-empty bucket's edge; q = 1 the last.
  MetricsRegistry reg;
  Histogram& h = reg.histogram("h", {1.0, 10.0, 100.0});
  h.observe(5.0);    // le=10
  h.observe(50.0);   // le=100
  const MetricsSnapshot snap = reg.snapshot();
  const HistogramSample* s = snap.histogram("h");
  ASSERT_NE(s, nullptr);
  EXPECT_DOUBLE_EQ(s->quantile(0.0), 10.0);
  EXPECT_DOUBLE_EQ(s->quantile(1.0), 100.0);
  // Out-of-range q clamps rather than reading out of bounds.
  EXPECT_DOUBLE_EQ(s->quantile(-1.0), s->quantile(0.0));
  EXPECT_DOUBLE_EQ(s->quantile(2.0), s->quantile(1.0));

  // All observations in the +Inf overflow bucket: report the last finite edge
  // (the best bound the histogram can state).
  Histogram& over = reg.histogram("over", {1.0, 2.0});
  over.observe(100.0);
  over.observe(200.0);
  const MetricsSnapshot over_snap = reg.snapshot();
  const HistogramSample* o = over_snap.histogram("over");
  ASSERT_NE(o, nullptr);
  EXPECT_DOUBLE_EQ(o->quantile(0.5), 2.0);
  EXPECT_DOUBLE_EQ(o->quantile(1.0), 2.0);
}

TEST(Metrics, MakeHistogramSampleMatchesHistogramSemantics) {
  const std::vector<double> values{0.5, 1.0, 1.5, 2.0, 3.0};
  const HistogramSample s = make_histogram_sample("s", {1.0, 2.0}, values);
  ASSERT_EQ(s.buckets.size(), 3u);
  EXPECT_EQ(s.buckets[0], 2u);  // le=1 is inclusive, Prometheus semantics
  EXPECT_EQ(s.buckets[1], 2u);
  EXPECT_EQ(s.buckets[2], 1u);
  EXPECT_EQ(s.count, 5u);
  EXPECT_DOUBLE_EQ(s.sum, 8.0);
  EXPECT_THROW(make_histogram_sample("bad", {2.0, 1.0}, values), std::invalid_argument);
}

TEST(Metrics, PrometheusDumpShape) {
  MetricsRegistry reg;
  reg.counter("ncnas_evals_total").inc(3);
  reg.gauge("ncnas_streak").set(1.5);
  reg.histogram("ncnas_lat", {1.0, 2.0}).observe(1.5);
  const std::string text = openmetrics_text(reg.snapshot());
  EXPECT_NE(text.find("# TYPE ncnas_evals counter"), std::string::npos);
  EXPECT_NE(text.find("ncnas_evals_total 3"), std::string::npos);
  EXPECT_NE(text.find("# TYPE ncnas_streak gauge"), std::string::npos);
  EXPECT_NE(text.find("ncnas_lat_bucket{le=\"2\"} 1"), std::string::npos);
  EXPECT_NE(text.find("ncnas_lat_bucket{le=\"+Inf\"} 1"), std::string::npos);
  EXPECT_NE(text.find("ncnas_lat_count 1"), std::string::npos);
}

TEST(Metrics, ExpBucketsLayout) {
  const std::vector<double> b = exp_buckets(1.0, 2.0, 4);
  ASSERT_EQ(b.size(), 4u);
  EXPECT_DOUBLE_EQ(b[0], 1.0);
  EXPECT_DOUBLE_EQ(b[3], 8.0);
  EXPECT_THROW(exp_buckets(0.0, 2.0, 3), std::invalid_argument);
}

// ---- telemetry bundle ------------------------------------------------------

TEST(Telemetry, SnapshotCapturesBothSides) {
  Telemetry tel;
  tel.enable_journal();
  tel.metrics().counter("c_total").inc(2);
  tel.emit(JournalEventType::kEvalDispatched, 1.0, 0, {{"duration_s", 2.0}});
  tel.emit(JournalEventType::kEvalFinished, 3.0, 0, {{"reward", 0.5}, {"duration_s", 2.0}});
  const TelemetrySnapshot snap = tel.snapshot();
  EXPECT_EQ(snap.metrics.counter_value("c_total"), 2u);
  EXPECT_EQ(snap.metrics.counter_value("ncnas_evals_total"), 1u);
  EXPECT_EQ(snap.metrics.counter_value("ncnas_real_evals_total"), 1u);
  EXPECT_EQ(snap.journal.size(), 2u);

  const std::string text = openmetrics_text(snap.metrics);
  EXPECT_TRUE(validate_openmetrics(text)) << text;
  EXPECT_NE(text.find("c_total 2"), std::string::npos);
  std::ostringstream chrome;
  tel.export_chrome_trace(chrome);
  EXPECT_TRUE(is_valid_json(chrome.str())) << chrome.str();
  EXPECT_NE(chrome.str().find("\"name\":\"eval\""), std::string::npos);
}

TEST(Telemetry, EmitFoldsEveryEventEvenWithoutAJournal) {
  Telemetry tel;
  tel.emit(JournalEventType::kRunStarted, 0.0, kNoAgent, {{"wall_time_s", 10.0}});
  tel.emit(JournalEventType::kEvalCached, 5.0, 1, {{"reward", 0.25}, {"shared", 1.0}});
  tel.emit(JournalEventType::kEvalFinished, 12.0, 1, {{"reward", 0.5}});  // past the deadline
  tel.emit(JournalEventType::kEvalRetried, 12.0, 1, {{"attempt", 1.0}});  // faults: no deadline
  EXPECT_EQ(tel.journal(), nullptr);
  const MetricsSnapshot m = tel.metrics_snapshot();
  EXPECT_EQ(m.counter_value("ncnas_evals_total"), 1u);
  EXPECT_EQ(m.counter_value("ncnas_cache_hits_total"), 1u);
  EXPECT_EQ(m.counter_value("ncnas_shared_cache_hits_total"), 1u);
  EXPECT_EQ(m.counter_value("ncnas_real_evals_total"), 0u);
  EXPECT_EQ(m.counter_value("ncnas_fault_retries_total"), 1u);
  // Registry and fold counters merge into one sorted list, no name twice.
  EXPECT_TRUE(std::is_sorted(m.counters.begin(), m.counters.end(),
                             [](const auto& a, const auto& b) { return a.name < b.name; }));
  EXPECT_EQ(std::adjacent_find(m.counters.begin(), m.counters.end(),
                               [](const auto& a, const auto& b) { return a.name == b.name; }),
            m.counters.end());

  // No journal, no recorded stream: the trace is an empty, valid document.
  std::ostringstream chrome;
  tel.export_chrome_trace(chrome);
  EXPECT_TRUE(is_valid_json(chrome.str())) << chrome.str();
  EXPECT_EQ(chrome.str().find("\"ph\""), std::string::npos);
}

TEST(Telemetry, ConcurrentEmitsLoseNothing) {
  Telemetry tel;
  tel.enable_journal();
  constexpr int kThreads = 4;
  constexpr int kPerThread = 500;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&tel, t] {
      for (int i = 0; i < kPerThread; ++i) {
        tel.emit(JournalEventType::kEvalFinished, static_cast<double>(i),
                 static_cast<std::uint32_t>(t), {{"reward", 0.5}});
      }
    });
  }
  for (std::thread& t : threads) t.join();
  constexpr std::size_t kTotal = static_cast<std::size_t>(kThreads) * kPerThread;
  EXPECT_EQ(tel.journal()->size(), kTotal);
  const MetricsSnapshot m = tel.metrics_snapshot();
  EXPECT_EQ(m.counter_value("ncnas_evals_total"), kTotal);
  EXPECT_EQ(m.counter_value("ncnas_real_evals_total"), kTotal);
}

TEST(Stopwatch, MeasuresRealTimeAndScopedTimerObserves) {
  MetricsRegistry reg;
  Histogram& h = reg.histogram("ncnas_wall_ms", {1e6});
  {
    ScopedTimer timer(&h);
    Stopwatch w;
    EXPECT_GE(w.elapsed_seconds(), 0.0);
  }
  EXPECT_EQ(h.count(), 1u);
  { ScopedTimer noop(nullptr); }  // null histogram must be safe
  EXPECT_EQ(h.count(), 1u);
}

}  // namespace
}  // namespace ncnas::obs
