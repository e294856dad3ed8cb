#include <arpa/inet.h>
#include <gtest/gtest.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <chrono>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <future>
#include <limits>
#include <sstream>
#include <string>
#include <vector>

#include "ncnas/nas/driver.hpp"
#include "ncnas/obs/exporter.hpp"
#include "ncnas/obs/telemetry.hpp"
#include "ncnas/space/spaces.hpp"

namespace ncnas::obs {
namespace {

data::Dataset tiny_nt3() {
  data::Nt3Dims dims;
  dims.train = 64;
  dims.valid = 32;
  dims.length = 64;
  dims.motif = 6;
  return data::make_nt3(5, dims);
}

ExporterConfig every_tick(int http_port = -1) {
  ExporterConfig cfg;
  cfg.cadence_seconds = 0.0;
  cfg.http_port = http_port;
  return cfg;
}

nas::SearchConfig small_config(nas::SearchStrategy strategy) {
  nas::SearchConfig cfg;
  cfg.strategy = strategy;
  cfg.cluster = {.num_agents = 3, .workers_per_agent = 4};
  cfg.wall_time_seconds = 1800.0;  // 30 simulated minutes
  cfg.fidelity = {.epochs = 1, .subset_fraction = 1.0};
  cfg.cost = {.startup_seconds = 20.0, .seconds_per_megaunit = 1.0, .timeout_seconds = 600.0};
  cfg.seed = 11;
  return cfg;
}

/// A throwaway path in the build dir; removed on destruction.
struct TempFile {
  std::string path;
  explicit TempFile(const std::string& name) : path("exporter_test_" + name) {
    std::remove(path.c_str());
  }
  ~TempFile() { std::remove(path.c_str()); }
};

// ---- OpenMetrics rendering and conformance ---------------------------------

MetricsSnapshot sample_metrics() {
  MetricsRegistry reg;
  reg.counter("ncnas_evals_total").inc(42);
  reg.counter("ncnas_cache_hits_total").inc(7);
  reg.gauge("ncnas_best_reward").set(0.75);
  Histogram& h = reg.histogram("ncnas_eval_seconds", {1.0, 10.0, 100.0});
  h.observe(0.5);
  h.observe(5.0);
  h.observe(50.0);
  h.observe(500.0);
  return reg.snapshot();
}

TEST(OpenMetrics, RenderedExpositionConforms) {
  const std::string text = openmetrics_text(sample_metrics());
  std::string error;
  EXPECT_TRUE(validate_openmetrics(text, &error)) << error;
  // Counter TYPE lines drop the _total suffix; samples keep it.
  EXPECT_NE(text.find("# TYPE ncnas_evals counter\n"), std::string::npos) << text;
  EXPECT_NE(text.find("ncnas_evals_total 42\n"), std::string::npos) << text;
  EXPECT_NE(text.find("# TYPE ncnas_best_reward gauge\n"), std::string::npos);
  // Histogram closes with +Inf and carries _count/_sum.
  EXPECT_NE(text.find("ncnas_eval_seconds_bucket{le=\"+Inf\"} 4\n"), std::string::npos) << text;
  EXPECT_NE(text.find("ncnas_eval_seconds_count 4\n"), std::string::npos);
  EXPECT_NE(text.find("ncnas_eval_seconds_sum"), std::string::npos);
  // Exactly one trailing EOF marker.
  ASSERT_GE(text.size(), 6u);
  EXPECT_EQ(text.substr(text.size() - 6), "# EOF\n");
  EXPECT_EQ(text.find("# EOF"), text.size() - 6);
}

TEST(OpenMetrics, HistogramBucketsAreCumulativeAndOrdered) {
  const std::string text = openmetrics_text(sample_metrics());
  std::istringstream in(text);
  std::string line;
  std::vector<double> edges;
  std::vector<std::uint64_t> counts;
  while (std::getline(in, line)) {
    const std::string prefix = "ncnas_eval_seconds_bucket{le=\"";
    if (line.rfind(prefix, 0) != 0) continue;
    const std::size_t close = line.find('"', prefix.size());
    ASSERT_NE(close, std::string::npos);
    const std::string le = line.substr(prefix.size(), close - prefix.size());
    edges.push_back(le == "+Inf" ? std::numeric_limits<double>::infinity() : std::stod(le));
    counts.push_back(std::stoull(line.substr(line.rfind(' ') + 1)));
  }
  ASSERT_EQ(edges.size(), 4u);  // three edges + the +Inf close
  for (std::size_t i = 1; i < edges.size(); ++i) {
    EXPECT_LT(edges[i - 1], edges[i]);
    EXPECT_LE(counts[i - 1], counts[i]);  // cumulative, never decreasing
  }
  EXPECT_EQ(counts.back(), 4u);
}

TEST(OpenMetrics, InfoLabelValuesAreEscaped) {
  const std::string text =
      openmetrics_text(sample_metrics(), {{"strategy", "a\"b\\c\nd"}});
  std::string error;
  EXPECT_TRUE(validate_openmetrics(text, &error)) << error;
  // The three escapable characters, escaped; everything else verbatim.
  EXPECT_NE(text.find("strategy=\"a\\\"b\\\\c\\nd\""), std::string::npos) << text;
}

TEST(OpenMetrics, ValidatorRejectsMalformedPayloads) {
  const std::string good = openmetrics_text(sample_metrics());
  const auto rejects = [](std::string text, const char* why) {
    std::string error;
    EXPECT_FALSE(validate_openmetrics(text, &error)) << why;
    EXPECT_FALSE(error.empty()) << why;
  };
  rejects(good.substr(0, good.size() - 7), "missing # EOF");
  rejects(good + "trailing 1\n", "content after # EOF");
  rejects("# TYPE x counter\nx 1\n# EOF\n", "counter sample without _total");
  rejects("# TYPE x counter\nx_total -1\n# EOF\n", "negative counter");
  rejects("# TYPE x gauge\n# TYPE x gauge\nx 1\n# EOF\n", "duplicate TYPE");
  rejects("orphan_total 1\n# EOF\n", "sample without TYPE");
  rejects(
      "# TYPE h histogram\nh_bucket{le=\"1\"} 5\nh_bucket{le=\"2\"} 3\n"
      "h_bucket{le=\"+Inf\"} 5\nh_count 5\nh_sum 1\n# EOF\n",
      "non-cumulative buckets");
  rejects(
      "# TYPE h histogram\nh_bucket{le=\"2\"} 1\nh_bucket{le=\"1\"} 2\n"
      "h_bucket{le=\"+Inf\"} 2\nh_count 2\nh_sum 1\n# EOF\n",
      "descending le edges");
  rejects("# TYPE h histogram\nh_bucket{le=\"1\"} 1\nh_count 1\nh_sum 1\n# EOF\n",
          "histogram without +Inf close");
  rejects(
      "# TYPE h histogram\nh_bucket{le=\"+Inf\"} 2\nh_count 3\nh_sum 1\n# EOF\n",
      "_count disagrees with +Inf bucket");
  // Infinite, negative or fractional counts are rejected. Counts are
  // compared as written, never cast to an integer type (the OpenMetrics fuzz
  // cases found that cast overflowing on 1e308).
  rejects("# TYPE h histogram\nh_bucket{le=\"+Inf\"} +Inf\nh_count +Inf\nh_sum 1\n# EOF\n",
          "infinite bucket count");
  rejects("# TYPE h histogram\nh_bucket{le=\"+Inf\"} 2\nh_count -2\nh_sum 1\n# EOF\n",
          "negative _count");
  rejects("# TYPE h histogram\nh_bucket{le=\"+Inf\"} 1.5\nh_count 1.5\nh_sum 1\n# EOF\n",
          "fractional bucket count");
}

// ---- progress JSON round-trip ----------------------------------------------

TEST(ProgressJson, RoundTripsEveryField) {
  ProgressSnapshot p;
  p.seq = 9;
  p.virtual_time = 123.5;
  p.wall_time_seconds = 1800.0;
  p.strategy = "A2C";
  p.finished = true;
  p.converged = true;
  p.evals_done = 100;
  p.real_evals = 80;
  p.cache_hits = 20;
  p.timeouts = 3;
  p.ppo_updates = 12;
  p.batches_in_flight = 2;
  p.best_reward = 0.625f;
  p.has_best = true;
  p.top.push_back({"1,2,3,", 0.625f, 4096, 2});
  p.agents.push_back({1, "running", 33, 5, 1, 2, 0.5f, true});
  p.retries = 1;
  p.exhausted = 2;
  p.lost_results = 3;
  p.crashed_workers = 4;
  p.dead_agents = 5;
  p.healthy = false;
  p.stragglers = 6;
  p.stalls = 7;
  p.hot_scopes.push_back({"eval/train", 42, 10.5, 8.25});
  p.journal_events = 321;
  p.exporter_errors = 1;

  const ProgressSnapshot q = parse_progress_json(progress_to_json(p));
  EXPECT_EQ(q.seq, p.seq);
  EXPECT_DOUBLE_EQ(q.virtual_time, p.virtual_time);
  EXPECT_DOUBLE_EQ(q.wall_time_seconds, p.wall_time_seconds);
  EXPECT_EQ(q.strategy, p.strategy);
  EXPECT_EQ(q.finished, p.finished);
  EXPECT_EQ(q.converged, p.converged);
  EXPECT_EQ(q.evals_done, p.evals_done);
  EXPECT_EQ(q.real_evals, p.real_evals);
  EXPECT_EQ(q.cache_hits, p.cache_hits);
  EXPECT_EQ(q.timeouts, p.timeouts);
  EXPECT_EQ(q.ppo_updates, p.ppo_updates);
  EXPECT_EQ(q.batches_in_flight, p.batches_in_flight);
  EXPECT_FLOAT_EQ(q.best_reward, p.best_reward);
  EXPECT_EQ(q.has_best, p.has_best);
  ASSERT_EQ(q.top.size(), 1u);
  EXPECT_EQ(q.top[0].arch, "1,2,3,");
  EXPECT_FLOAT_EQ(q.top[0].reward, 0.625f);
  EXPECT_EQ(q.top[0].params, 4096u);
  EXPECT_EQ(q.top[0].agent, 2u);
  ASSERT_EQ(q.agents.size(), 1u);
  EXPECT_EQ(q.agents[0].id, 1u);
  EXPECT_EQ(q.agents[0].status, "running");
  EXPECT_EQ(q.agents[0].evals, 33u);
  EXPECT_EQ(q.agents[0].cached_streak, 2u);
  EXPECT_TRUE(q.agents[0].has_best);
  EXPECT_EQ(q.retries, p.retries);
  EXPECT_EQ(q.exhausted, p.exhausted);
  EXPECT_EQ(q.lost_results, p.lost_results);
  EXPECT_EQ(q.crashed_workers, p.crashed_workers);
  EXPECT_EQ(q.dead_agents, p.dead_agents);
  EXPECT_EQ(q.healthy, p.healthy);
  EXPECT_EQ(q.stragglers, p.stragglers);
  EXPECT_EQ(q.stalls, p.stalls);
  ASSERT_EQ(q.hot_scopes.size(), 1u);
  EXPECT_EQ(q.hot_scopes[0].name, "eval/train");
  EXPECT_EQ(q.hot_scopes[0].calls, 42u);
  EXPECT_DOUBLE_EQ(q.hot_scopes[0].self_ms, 8.25);
  EXPECT_EQ(q.journal_events, p.journal_events);
  EXPECT_EQ(q.exporter_errors, p.exporter_errors);
}

TEST(ProgressJson, ParserRejectsGarbage) {
  EXPECT_THROW(parse_progress_json("not json"), std::runtime_error);
  EXPECT_THROW(parse_progress_json("{\"seq\":"), std::runtime_error);
  // Strict grammar: malformed numbers, bad escapes, trailing bytes and
  // unbounded nesting are errors, never partial reads or crashes.
  EXPECT_THROW(parse_progress_json("{\"seq\":1-2-3}"), std::runtime_error);
  EXPECT_THROW(parse_progress_json("{\"seq\":+1}"), std::runtime_error);
  EXPECT_THROW(parse_progress_json("{\"strategy\":\"\\uZZZZ\"}"), std::runtime_error);
  EXPECT_THROW(parse_progress_json("{} trailing"), std::runtime_error);
  EXPECT_THROW(parse_progress_json(std::string(200000, '[')), std::runtime_error);
  // Out-of-range numbers saturate instead of reaching an undefined cast.
  const ProgressSnapshot huge = parse_progress_json("{\"seq\":1e300,\"best_reward\":-1e300}");
  EXPECT_EQ(huge.seq, std::numeric_limits<std::uint64_t>::max());
  EXPECT_EQ(huge.best_reward, -std::numeric_limits<float>::max());
  EXPECT_EQ(parse_progress_json("{\"evals_done\":-5}").evals_done, 0u);
}

// ---- /healthz transitions via a scripted watchdog --------------------------

TEST(Exporter, HealthzFollowsWatchdogVerdicts) {
  Telemetry t;
  t.enable_watchdog();
  Exporter& exporter = t.enable_exporter(every_tick());

  EXPECT_EQ(exporter.healthz_status(), 200);  // before any publication

  // Eight 10 s evals calibrate the watchdog's expectation.
  Journal& journal = *t.journal();
  for (int i = 0; i < 8; ++i) {
    journal.append(JournalEventType::kEvalFinished, 10.0 * (i + 1), 0,
                   {{"reward", 0.5}, {"duration_s", 10.0}, {"timed_out", 0.0}});
  }
  exporter.publish(80.0, {});
  EXPECT_EQ(exporter.healthz_status(), 200);
  EXPECT_EQ(exporter.healthz_body(), "ok\n");

  // A 100s eval against the 10s mean is a straggler: 503.
  journal.append(JournalEventType::kEvalFinished, 120.0, 1,
                 {{"reward", 0.4}, {"duration_s", 100.0}, {"timed_out", 0.0}});
  exporter.publish(120.0, {});
  EXPECT_EQ(exporter.healthz_status(), 503);
  EXPECT_NE(exporter.healthz_body().find("1 straggler(s)"), std::string::npos)
      << exporter.healthz_body();

  // The verdict sticks (the report is cumulative) even after the run ends.
  ProgressSnapshot done;
  done.finished = true;
  exporter.publish(200.0, std::move(done));
  EXPECT_EQ(exporter.healthz_status(), 503);
}

// ---- HTTP endpoints ---------------------------------------------------------

TEST(Exporter, HttpServesPublishedPayloadsOnEphemeralPort) {
  Telemetry t;
  t.enable_journal();
  Exporter& exporter =
      t.enable_exporter(every_tick(0));
  ASSERT_GT(exporter.http_port(), 0);
  const int port = exporter.http_port();

  // Before the first publication /metrics is an empty-but-valid exposition.
  int status = 0;
  std::optional<std::string> body = http_get("127.0.0.1", port, "/metrics", &status);
  ASSERT_TRUE(body.has_value());
  EXPECT_EQ(status, 200);
  std::string error;
  EXPECT_TRUE(validate_openmetrics(*body, &error)) << error;

  for (int i = 0; i < 5; ++i) t.emit(JournalEventType::kEvalCached, 1.0, 0, {{"reward", 0.5}});
  ProgressSnapshot p;
  p.strategy = "RDM";
  p.evals_done = 5;
  exporter.publish(60.0, std::move(p));

  body = http_get("127.0.0.1", port, "/metrics", &status);
  ASSERT_TRUE(body.has_value());
  EXPECT_EQ(status, 200);
  EXPECT_TRUE(validate_openmetrics(*body, &error)) << error;
  EXPECT_NE(body->find("ncnas_evals_total 5\n"), std::string::npos) << *body;
  EXPECT_NE(body->find("ncnas_exporter_info{strategy=\"RDM\"} 1\n"), std::string::npos);

  body = http_get("127.0.0.1", port, "/progress", &status);
  ASSERT_TRUE(body.has_value());
  EXPECT_EQ(status, 200);
  const ProgressSnapshot q = parse_progress_json(*body);
  EXPECT_EQ(q.evals_done, 5u);
  EXPECT_EQ(q.strategy, "RDM");
  EXPECT_EQ(q.seq, 1u);

  body = http_get("127.0.0.1", port, "/healthz", &status);
  ASSERT_TRUE(body.has_value());
  EXPECT_EQ(status, 200);

  body = http_get("127.0.0.1", port, "/nope", &status);
  ASSERT_TRUE(body.has_value());
  EXPECT_EQ(status, 404);
}

TEST(Exporter, BindFailureDegradesGracefully) {
  Telemetry a;
  Exporter& first = a.enable_exporter(every_tick(0));
  ASSERT_GT(first.http_port(), 0);

  // Second exporter asks for the port the first one holds: bind fails, the
  // endpoint is disabled, the error is counted — and a search still runs.
  Telemetry b;
  Exporter& second =
      b.enable_exporter(every_tick(first.http_port()));
  EXPECT_EQ(second.http_port(), -1);
  EXPECT_GE(second.errors(), 1u);

  const space::SearchSpace s = space::nt3_small_space();
  const data::Dataset ds = tiny_nt3();
  nas::SearchConfig cfg = small_config(nas::SearchStrategy::kRandom);
  cfg.wall_time_seconds = 300.0;
  cfg.telemetry = &b;
  const nas::SearchResult res = nas::SearchDriver(s, ds, cfg).run();
  EXPECT_GT(res.evals.size(), 0u);
  EXPECT_GT(second.publications(), 0u);
  EXPECT_EQ(b.metrics().snapshot().counter_value("ncnas_exporter_errors_total"),
            second.errors());
}

/// A TCP client connected to a local port that sends nothing; -1 on failure.
int connect_silently(int port) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return -1;
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<std::uint16_t>(port));
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  if (::connect(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr)) != 0) {
    ::close(fd);
    return -1;
  }
  return fd;
}

TEST(Exporter, SilentClientHoldsUpNeitherScrapesNorStop) {
  MetricsRegistry reg;
  Counter& errors = reg.counter("ncnas_exporter_errors_total");
  HttpExporter server(
      "127.0.0.1", 0,
      [](const std::string&) -> std::tuple<int, std::string, std::string> {
        return {200, "text/plain; charset=utf-8", "ok\n"};
      },
      &errors);
  ASSERT_GT(server.port(), 0);
  constexpr auto kWithin = std::chrono::seconds(2);

  // The server accepts the silent client first; the scrape queued behind it
  // must still be answered.
  const int silent = connect_silently(server.port());
  ASSERT_GE(silent, 0);
  auto scrape = std::async(std::launch::async, [port = server.port()] {
    return http_get("127.0.0.1", port, "/metrics").value_or("<no answer>");
  });
  const bool answered = scrape.wait_for(kWithin) == std::future_status::ready;

  // A second silent client is being read when stop() comes.
  const int silent_at_stop = connect_silently(server.port());
  auto stopping = std::async(std::launch::async, [&server] { server.stop(); });
  const bool stopped = stopping.wait_for(kWithin) == std::future_status::ready;

  // Closing the clients frees a server that waits on them, so a regression
  // fails the expectations below instead of hanging the test.
  ::close(silent);
  if (silent_at_stop >= 0) ::close(silent_at_stop);
  EXPECT_TRUE(answered) << "a silent client blocked another scrape";
  EXPECT_TRUE(stopped) << "a silent client blocked stop()";
  EXPECT_EQ(scrape.get(), "ok\n");
  stopping.get();
  EXPECT_GE(errors.value(), 1u);  // the dropped silent client is counted
}

TEST(Exporter, HttpGetGivesUpOnASilentServer) {
  // A listener that never accepts: the kernel completes the connection and
  // buffers the request, and no response ever comes.
  const int listener = ::socket(AF_INET, SOCK_STREAM, 0);
  ASSERT_GE(listener, 0);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  socklen_t len = sizeof(addr);
  ASSERT_EQ(::bind(listener, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr)), 0);
  ASSERT_EQ(::listen(listener, 4), 0);
  ASSERT_EQ(::getsockname(listener, reinterpret_cast<sockaddr*>(&addr), &len), 0);

  using Clock = std::chrono::steady_clock;
  auto get = std::async(std::launch::async, [port = ntohs(addr.sin_port)] {
    const Clock::time_point start = Clock::now();
    const std::optional<std::string> body = http_get("127.0.0.1", port, "/progress");
    return std::make_pair(body, Clock::now() - start);
  });
  const bool returned =
      get.wait_for(kHttpGetBudget + std::chrono::seconds(2)) == std::future_status::ready;
  // Closing the listener resets the queued connection, so a regression fails
  // the expectations below instead of hanging the test.
  ::close(listener);
  const auto [body, waited] = get.get();
  EXPECT_TRUE(returned) << "http_get outlived its budget";
  EXPECT_FALSE(body.has_value());
  EXPECT_LT(waited, kHttpGetBudget + std::chrono::seconds(1));
}

// ---- live journal sink ------------------------------------------------------

TEST(Journal, LiveExportStreamsAndCatchesUp) {
  TempFile file("live_journal.jsonl");
  Journal journal;
  journal.append(JournalEventType::kRunStarted, 0.0, kNoAgent, {{"agents", 3.0}});
  // Opening after the fact catches up on everything already buffered.
  ASSERT_TRUE(journal.open_live_export(file.path));
  EXPECT_TRUE(journal.live_export_open());
  journal.append(JournalEventType::kEvalFinished, 5.0, 1,
                 {{"reward", 0.5}, {"duration_s", 5.0}});

  // A reader tailing the file mid-run sees complete, parseable lines.
  {
    std::ifstream in(file.path);
    const std::vector<JournalEvent> seen = Journal::import_jsonl(in);
    ASSERT_EQ(seen.size(), 2u);
    EXPECT_EQ(seen[0].type, JournalEventType::kRunStarted);
    EXPECT_EQ(seen[1].type, JournalEventType::kEvalFinished);
    EXPECT_FLOAT_EQ(static_cast<float>(seen[1].field("reward")), 0.5f);
  }

  journal.append(JournalEventType::kRunFinished, 9.0);
  journal.close_live_export();
  EXPECT_FALSE(journal.live_export_open());

  std::ifstream in(file.path);
  const std::vector<JournalEvent> streamed = Journal::import_jsonl(in);
  const std::vector<JournalEvent> buffered = journal.snapshot();
  ASSERT_EQ(streamed.size(), buffered.size());
  for (std::size_t i = 0; i < streamed.size(); ++i) {
    EXPECT_EQ(streamed[i].type, buffered[i].type);
    EXPECT_DOUBLE_EQ(streamed[i].t, buffered[i].t);
    EXPECT_EQ(streamed[i].agent, buffered[i].agent);
    EXPECT_EQ(streamed[i].seq, buffered[i].seq);
  }
}

TEST(Journal, LiveExportFailureCountsAndDisables) {
  Journal journal;
  MetricsRegistry reg;
  Counter& errors = reg.counter("ncnas_exporter_errors_total");
  EXPECT_FALSE(journal.open_live_export("/nonexistent-dir/live.jsonl", &errors));
  EXPECT_FALSE(journal.live_export_open());
  EXPECT_GE(errors.value(), 1u);
  EXPECT_GE(journal.live_export_errors(), 1u);
  // The journal itself keeps working.
  journal.append(JournalEventType::kRunStarted, 0.0);
  EXPECT_EQ(journal.size(), 1u);
}

// ---- the full loop: exporter on a real search ------------------------------

/// The value of the sample `name` (a counter's `..._total` line) in an
/// OpenMetrics payload; -1 when absent.
long long sample_value(const std::string& text, const std::string& name) {
  std::istringstream in(text);
  for (std::string line; std::getline(in, line);) {
    if (line.rfind(name + ' ', 0) == 0) return std::stoll(line.substr(name.size() + 1));
  }
  return -1;
}

TEST(Exporter, FinalScrapeReconcilesWithJournalSummary) {
  TempFile live("final_live.jsonl");
  const space::SearchSpace s = space::nt3_small_space();
  const data::Dataset ds = tiny_nt3();
  Telemetry t;
  t.enable_journal();
  ExporterConfig ecfg = every_tick();  // publish at every completion: worst case
  ecfg.live_journal_path = live.path;
  Exporter& exporter = t.enable_exporter(std::move(ecfg));
  nas::SearchConfig cfg = small_config(nas::SearchStrategy::kA2C);
  cfg.telemetry = &t;
  const nas::SearchResult res = nas::SearchDriver(s, ds, cfg).run();

  // The counters in the last published /metrics payload must agree exactly
  // with a replay of the live-streamed journal file — the "scrape at run end
  // == summarize_journal" contract.
  std::ifstream in(live.path);
  ASSERT_TRUE(in);
  const std::vector<JournalEvent> events = Journal::import_jsonl(in);
  const RunSummary sum = summarize_journal(events);
  EXPECT_TRUE(sum.has_run_finished);

  // The counters are a view of the same event fold summarize_journal runs,
  // deadline filter included, so they equal its totals — and the result's.
  const std::string m = exporter.metrics_text();
  const auto want = [](std::size_t n) { return static_cast<long long>(n); };
  EXPECT_EQ(sample_value(m, "ncnas_evals_total"), want(sum.evals));
  EXPECT_EQ(sample_value(m, "ncnas_real_evals_total"), want(sum.real_evals));
  EXPECT_EQ(sample_value(m, "ncnas_cache_hits_total"), want(sum.cache_hits));
  EXPECT_EQ(sample_value(m, "ncnas_eval_timeouts_total"), want(sum.timeouts));
  EXPECT_EQ(sample_value(m, "ncnas_ppo_updates_total"), want(sum.ppo_updates));
  EXPECT_EQ(sample_value(m, "ncnas_ps_exchanges_total"), want(sum.ps_exchanges));
  EXPECT_EQ(sample_value(m, "ncnas_exporter_errors_total"), 0);
  EXPECT_EQ(nas::reconcile(res, sum), std::vector<std::string>{});
  const ProgressSnapshot last = parse_progress_json(exporter.progress_json());
  EXPECT_TRUE(last.finished);
  EXPECT_EQ(last.evals_done, res.evals.size());
  EXPECT_EQ(last.journal_events, events.size());
  EXPECT_EQ(last.seq, exporter.publications());
}

TEST(Exporter, ProgressCountsEqualTheJournalReplayAtEveryPublication) {
  // A ladder run: its budget meter counts rung trainings, which /progress
  // must not report as evaluations.
  const space::SearchSpace s = space::nt3_small_space();
  const data::Dataset ds = tiny_nt3();
  Telemetry t;
  t.enable_journal();
  Exporter& exporter = t.enable_exporter(every_tick());
  nas::SearchConfig cfg = small_config(nas::SearchStrategy::kA3C);
  cfg.ladder.eta = 2;
  cfg.ladder.rungs = {{.epochs = 1, .subset_fraction = 0.5}, {.epochs = 2, .subset_fraction = 1.0}};
  cfg.telemetry = &t;
  nas::SearchDriver driver(s, ds, cfg);

  // Pause every 100 virtual seconds: each pause follows a completion that
  // published, so /progress is the journal replayed up to the pause.
  std::uint64_t last_seq = 0;
  int pauses = 0;
  while (!driver.advance(driver.virtual_time() + 100.0)) {
    ++pauses;
    const ProgressSnapshot p = parse_progress_json(exporter.progress_json());
    const std::vector<JournalEvent> journal = t.journal()->snapshot();
    const RunSummary sum = summarize_journal(journal);
    SCOPED_TRACE("pause " + std::to_string(pauses) + " at t=" +
                 std::to_string(driver.virtual_time()));
    EXPECT_GT(p.seq, last_seq);
    last_seq = p.seq;
    EXPECT_DOUBLE_EQ(p.virtual_time, driver.virtual_time());
    EXPECT_EQ(p.evals_done, sum.evals);
    EXPECT_EQ(p.real_evals, sum.real_evals);
    EXPECT_EQ(p.cache_hits, sum.cache_hits);
    EXPECT_EQ(p.timeouts, sum.timeouts);
    EXPECT_EQ(p.ppo_updates, sum.ppo_updates);
    EXPECT_EQ(p.journal_events, journal.size());
    EXPECT_FALSE(p.finished);
  }
  const nas::SearchResult res = driver.run();

  ASSERT_GT(pauses, 2);
  ASSERT_GT(res.ladder_trainings, res.evals.size());  // the meter runs ahead of the count
  const ProgressSnapshot last = parse_progress_json(exporter.progress_json());
  const std::string m = exporter.metrics_text();
  EXPECT_GT(last.seq, last_seq);
  EXPECT_TRUE(last.finished);
  EXPECT_EQ(static_cast<long long>(last.real_evals), sample_value(m, "ncnas_real_evals_total"));
  EXPECT_EQ(static_cast<long long>(last.evals_done), sample_value(m, "ncnas_evals_total"));
}

/// Steps `driver` one completion at a time and records, per completion,
/// whether the exporter published and at which virtual time.
struct Steps {
  std::vector<double> times;       // completion times, in harvest order
  std::vector<bool> published;     // the completion published
  std::uint64_t during_run = 0;    // publications before the final flush
  std::uint64_t total = 0;
};

Steps step_by_completion(double cadence) {
  const space::SearchSpace s = space::nt3_small_space();
  const data::Dataset ds = tiny_nt3();
  Telemetry t;
  ExporterConfig ecfg;
  ecfg.cadence_seconds = cadence;
  Exporter& exporter = t.enable_exporter(std::move(ecfg));
  nas::SearchConfig cfg = small_config(nas::SearchStrategy::kA3C);
  cfg.telemetry = &t;
  nas::SearchDriver driver(s, ds, cfg);
  Steps steps;
  // advance(0) pauses right after the next completion: every one is >= 0.
  while (!driver.advance(0.0)) {
    const std::uint64_t before = steps.during_run;
    steps.during_run = exporter.publications();
    steps.times.push_back(driver.virtual_time());
    steps.published.push_back(steps.during_run > before);
    EXPECT_LE(steps.during_run, before + 1);
    if (steps.published.back()) {
      EXPECT_DOUBLE_EQ(parse_progress_json(exporter.progress_json()).virtual_time,
                       driver.virtual_time());
    }
  }
  (void)driver.run();
  steps.total = exporter.publications();
  return steps;
}

TEST(Exporter, CadencePublishesAtTheFirstCompletionPastEachBoundary) {
  const Steps steps = step_by_completion(60.0);
  ASSERT_GT(steps.times.size(), 10u);
  // A completion publishes exactly when it is the first one in its 60 s
  // window of the virtual clock (the very first completion included).
  std::size_t windows = 0;
  for (std::size_t i = 0; i < steps.times.size(); ++i) {
    const bool first_in_window =
        i == 0 || std::floor(steps.times[i] / 60.0) > std::floor(steps.times[i - 1] / 60.0);
    EXPECT_EQ(steps.published[i], first_in_window) << "completion " << i << " at t="
                                                   << steps.times[i];
    windows += first_in_window ? 1 : 0;
  }
  EXPECT_LT(windows, steps.times.size());  // the cadence actually skipped some
  EXPECT_EQ(steps.during_run, windows);
  EXPECT_EQ(steps.total, windows + 1);  // plus the unconditional final flush
}

TEST(Exporter, ZeroCadencePublishesAtEveryCompletion) {
  const Steps steps = step_by_completion(0.0);
  ASSERT_GT(steps.times.size(), 10u);
  for (std::size_t i = 0; i < steps.times.size(); ++i) {
    EXPECT_TRUE(steps.published[i]) << "completion " << i;
  }
  EXPECT_EQ(steps.during_run, steps.times.size());
  EXPECT_EQ(steps.total, steps.times.size() + 1);
}

TEST(Exporter, OnOffLeavesResultsBitIdentical) {
  const space::SearchSpace s = space::nt3_small_space();
  const data::Dataset ds = tiny_nt3();
  for (const nas::SearchStrategy strategy :
       {nas::SearchStrategy::kRandom, nas::SearchStrategy::kA3C, nas::SearchStrategy::kA2C,
        nas::SearchStrategy::kEvolution}) {
    const nas::SearchResult plain = nas::SearchDriver(s, ds, small_config(strategy)).run();

    Telemetry t;
    t.enable_watchdog();
    t.enable_profiler();
    t.enable_exporter(every_tick());  // every tick: maximum exposure
    nas::SearchConfig cfg = small_config(strategy);
    cfg.telemetry = &t;
    const nas::SearchResult observed = nas::SearchDriver(s, ds, cfg).run();

    ASSERT_EQ(plain.evals.size(), observed.evals.size()) << nas::strategy_name(strategy);
    for (std::size_t i = 0; i < plain.evals.size(); ++i) {
      EXPECT_EQ(plain.evals[i].arch, observed.evals[i].arch);
      EXPECT_EQ(plain.evals[i].reward, observed.evals[i].reward);
      EXPECT_DOUBLE_EQ(plain.evals[i].time, observed.evals[i].time);
      EXPECT_EQ(plain.evals[i].cache_hit, observed.evals[i].cache_hit);
    }
    EXPECT_EQ(plain.cache_hits, observed.cache_hits);
    EXPECT_EQ(plain.timeouts, observed.timeouts);
    EXPECT_EQ(plain.ppo_updates, observed.ppo_updates);
    EXPECT_EQ(plain.unique_archs, observed.unique_archs);
    EXPECT_DOUBLE_EQ(plain.end_time, observed.end_time);
    EXPECT_EQ(plain.converged_early, observed.converged_early);
    EXPECT_GT(t.exporter()->publications(), 0u) << nas::strategy_name(strategy);
  }
}

}  // namespace
}  // namespace ncnas::obs
