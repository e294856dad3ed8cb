#include <gtest/gtest.h>

#include <sstream>
#include <thread>
#include <vector>

#include "ncnas/nas/driver.hpp"
#include "ncnas/obs/telemetry.hpp"
#include "ncnas/space/spaces.hpp"

namespace ncnas::obs {
namespace {

// ---- event basics ----------------------------------------------------------

TEST(Journal, EventNamesRoundTrip) {
  const JournalEventType all[] = {
      JournalEventType::kRunStarted,     JournalEventType::kRunFinished,
      JournalEventType::kEvalDispatched, JournalEventType::kEvalFinished,
      JournalEventType::kEvalCached,     JournalEventType::kEvalTimeout,
      JournalEventType::kPpoUpdate,      JournalEventType::kPsExchange,
      JournalEventType::kAgentConverged, JournalEventType::kStragglerDetected,
      JournalEventType::kAgentStalled,   JournalEventType::kEvalFailed,
      JournalEventType::kEvalRetried,    JournalEventType::kEvalExhausted,
      JournalEventType::kResultLost,     JournalEventType::kWorkerCrashed,
      JournalEventType::kAgentDead,      JournalEventType::kPsDropped,
      JournalEventType::kPsDelayed,      JournalEventType::kBarrierTimeout,
      JournalEventType::kCheckpointWritten, JournalEventType::kRunResumed,
  };
  for (JournalEventType t : all) {
    const char* name = journal_event_name(t);
    ASSERT_STRNE(name, "?");
    const auto back = journal_event_from_name(name);
    ASSERT_TRUE(back.has_value()) << name;
    EXPECT_EQ(*back, t);
  }
  EXPECT_FALSE(journal_event_from_name("not_an_event").has_value());
}

TEST(Journal, AppendAssignsSequentialSeqAndSnapshotPreservesOrder) {
  Journal j;
  j.append(JournalEventType::kRunStarted, 0.0);
  j.append(JournalEventType::kEvalFinished, 12.5, 2, {{"reward", 0.5}});
  j.append(JournalEventType::kRunFinished, 30.0);
  EXPECT_EQ(j.size(), 3u);
  const auto events = j.snapshot();
  ASSERT_EQ(events.size(), 3u);
  for (std::size_t i = 0; i < events.size(); ++i) {
    EXPECT_EQ(events[i].seq, i);
  }
  EXPECT_EQ(events[0].agent, kNoAgent);
  EXPECT_EQ(events[1].agent, 2u);
  EXPECT_FLOAT_EQ(static_cast<float>(events[1].field("reward")), 0.5f);
  EXPECT_DOUBLE_EQ(events[1].field("missing", -7.0), -7.0);
  EXPECT_TRUE(events[1].has_field("reward"));
  EXPECT_FALSE(events[1].has_field("missing"));

  j.clear();
  EXPECT_EQ(j.size(), 0u);
  j.append(JournalEventType::kRunStarted, 0.0);
  EXPECT_EQ(j.snapshot()[0].seq, 0u);  // seq restarts after clear
}

TEST(Journal, SubscribersSeeEveryEventAndMayAppendReentrantly) {
  Journal j;
  std::vector<JournalEventType> seen;
  j.subscribe([&seen](const JournalEvent& e) { seen.push_back(e.type); });
  // A subscriber that reacts to evals by appending a verdict — the watchdog
  // pattern; must not deadlock and the verdict must reach all subscribers.
  j.subscribe([&j](const JournalEvent& e) {
    if (e.type == JournalEventType::kEvalFinished) {
      j.append(JournalEventType::kStragglerDetected, e.t, e.agent);
    }
  });
  j.append(JournalEventType::kEvalFinished, 5.0, 1);
  ASSERT_EQ(seen.size(), 2u);
  EXPECT_EQ(seen[0], JournalEventType::kEvalFinished);
  EXPECT_EQ(seen[1], JournalEventType::kStragglerDetected);
  EXPECT_EQ(j.size(), 2u);
}

TEST(Journal, ConcurrentAppendsLoseNothing) {
  Journal j(1 << 12);
  constexpr int kThreads = 4;
  constexpr int kPerThread = 1000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&j, t] {
      for (int i = 0; i < kPerThread; ++i) {
        j.append(JournalEventType::kEvalFinished, static_cast<double>(i),
                 static_cast<std::uint32_t>(t), {{"reward", 0.1}});
      }
    });
  }
  for (std::thread& t : threads) t.join();
  const auto events = j.snapshot();
  ASSERT_EQ(events.size(), static_cast<std::size_t>(kThreads) * kPerThread);
  for (std::size_t i = 0; i < events.size(); ++i) {
    EXPECT_EQ(events[i].seq, i);  // seq is the buffer order, gap-free
  }
}

// ---- JSONL export / import -------------------------------------------------

TEST(Journal, JsonlRoundTripIsExact) {
  Journal j;
  j.append(JournalEventType::kRunStarted, 0.0, kNoAgent,
           {{"agents", 3.0}, {"wall_time_s", 1800.0}});
  // Non-representable decimals and large timestamps must survive exactly so a
  // replay applies the deadline rule to bit-identical numbers.
  j.append(JournalEventType::kEvalFinished, 1799.9999999999998, 2,
           {{"reward", 0.30000000000000004}, {"timed_out", 0.0}});
  j.append(JournalEventType::kRunFinished, 1800.0, kNoAgent, {{"converged", 1.0}});

  std::ostringstream os;
  j.export_jsonl(os);
  std::istringstream is(os.str());
  const auto imported = Journal::import_jsonl(is);
  const auto original = j.snapshot();
  ASSERT_EQ(imported.size(), original.size());
  for (std::size_t i = 0; i < imported.size(); ++i) {
    EXPECT_EQ(imported[i].type, original[i].type);
    EXPECT_EQ(imported[i].agent, original[i].agent);
    EXPECT_EQ(imported[i].seq, original[i].seq);
    EXPECT_EQ(imported[i].t, original[i].t);  // exact, not approximate
    ASSERT_EQ(imported[i].payload.size(), original[i].payload.size());
    for (std::size_t f = 0; f < imported[i].payload.size(); ++f) {
      EXPECT_EQ(imported[i].payload[f].key, original[i].payload[f].key);
      EXPECT_EQ(imported[i].payload[f].value, original[i].payload[f].value);
    }
  }
}

TEST(Journal, ExportWritesVersionedHeaderAndEveryLineCarriesVersion) {
  Journal j;
  j.append(JournalEventType::kEvalCached, 1.0, 0, {{"reward", 0.25}});
  std::ostringstream os;
  j.export_jsonl(os);
  std::istringstream lines(os.str());
  std::string line;
  ASSERT_TRUE(std::getline(lines, line));
  EXPECT_NE(line.find("\"schema\":\"ncnas.journal\""), std::string::npos);
  EXPECT_NE(line.find("\"events\":1"), std::string::npos);
  int events = 0;
  while (std::getline(lines, line)) {
    EXPECT_NE(line.find("\"v\":1"), std::string::npos) << line;
    ++events;
  }
  EXPECT_EQ(events, 1);
}

TEST(Journal, ImportRejectsNewerSchemaVersion) {
  std::istringstream newer(
      R"({"v":99,"seq":0,"type":"eval_finished","t":1,"agent":0,"payload":{}})" "\n");
  EXPECT_THROW((void)Journal::import_jsonl(newer), std::runtime_error);

  std::istringstream unversioned(
      R"({"seq":0,"type":"eval_finished","t":1,"agent":0,"payload":{}})" "\n");
  EXPECT_THROW((void)Journal::import_jsonl(unversioned), std::runtime_error);
}

TEST(Journal, ImportSkipsUnknownEventTypesFromOlderReadersView) {
  std::istringstream is(
      R"({"v":1,"seq":0,"type":"eval_finished","t":1,"agent":0,"payload":{"reward":1}})" "\n"
      R"({"v":1,"seq":1,"type":"some_future_event","t":2,"agent":0,"payload":{}})" "\n");
  const auto events = Journal::import_jsonl(is);
  ASSERT_EQ(events.size(), 1u);
  EXPECT_EQ(events[0].type, JournalEventType::kEvalFinished);
}

TEST(Journal, ImportRejectsMalformedLines) {
  const char* const lines[] = {
      R"({"v":1,"seq":+1,"type":"eval_finished","t":1,"agent":0,"payload":{}})",
      R"({"v":1,"seq":1,"type":"eval_finished","t":1,"agent":0,"payload":{}} trailing)",
      R"({"v":1,"seq":1,"type":"eval_finished","t":1,"agent":0,"payload":{"reward":"x"}})",
      R"({"v":1,"seq":1,"type":"eval_finished","t":1,"agent":0,"payload":[]})",
  };
  for (const char* line : lines) {
    std::istringstream is(std::string(line) + "\n");
    EXPECT_THROW((void)Journal::import_jsonl(is), std::runtime_error) << line;
  }
}

// ---- summarize_journal -----------------------------------------------------

TEST(Journal, SummaryAppliesTheDriverDeadlineFilter) {
  Journal j;
  j.append(JournalEventType::kRunStarted, 0.0, kNoAgent,
           {{"agents", 2.0}, {"workers", 4.0}, {"wall_time_s", 100.0}, {"strategy", 0.0}});
  j.append(JournalEventType::kEvalFinished, 50.0, 0, {{"reward", 0.4}});
  j.append(JournalEventType::kEvalCached, 99.0, 1, {{"reward", 0.2}});
  // Past the deadline: the driver drops this record, so must the replay.
  j.append(JournalEventType::kEvalFinished, 101.0, 0, {{"reward", 0.9}});
  j.append(JournalEventType::kRunFinished, 100.0, kNoAgent,
           {{"end_time_s", 100.0}, {"converged", 0.0}});

  const RunSummary sum = summarize_journal(j.snapshot());
  EXPECT_TRUE(sum.has_run_started);
  EXPECT_TRUE(sum.has_run_finished);
  EXPECT_EQ(sum.agents_declared, 2u);
  EXPECT_EQ(sum.evals, 2u);
  EXPECT_EQ(sum.real_evals, 1u);
  EXPECT_EQ(sum.cache_hits, 1u);
  EXPECT_FLOAT_EQ(sum.best_reward, 0.4f);  // the 0.9 is post-deadline
  EXPECT_DOUBLE_EQ(sum.best_reward_t, 50.0);
  EXPECT_DOUBLE_EQ(sum.end_time_s, 100.0);
  EXPECT_EQ(sum.per_agent.size(), 2u);
  EXPECT_EQ(sum.per_agent.at(0).evals, 1u);
  EXPECT_EQ(sum.per_agent.at(1).cached, 1u);
}

// ---- resume stitching ------------------------------------------------------

TEST(Journal, MergeResumedTruncatesAtWatermarkAndReseqs) {
  // The interrupted process journaled 5 events, snapshotted at watermark 4,
  // then journaled one more (the eval at t=60) before dying: that event's
  // work was re-done by the resumed process and must not be double-counted.
  Journal prior;
  prior.append(JournalEventType::kRunStarted, 0.0, kNoAgent,
               {{"agents", 2.0}, {"workers", 4.0}, {"wall_time_s", 100.0}, {"strategy", 0.0}});
  prior.append(JournalEventType::kEvalFinished, 20.0, 0, {{"reward", 0.2}});
  prior.append(JournalEventType::kEvalFinished, 40.0, 1, {{"reward", 0.3}});
  prior.append(JournalEventType::kCheckpointWritten, 50.0, kNoAgent,
               {{"ordinal", 1.0}, {"bytes", 1024.0}});
  prior.append(JournalEventType::kEvalFinished, 60.0, 0, {{"reward", 0.9}});

  Journal resumed;
  resumed.append(JournalEventType::kRunResumed, 50.0, kNoAgent,
                 {{"from_t", 50.0}, {"prior_events", 4.0}, {"ordinal", 1.0}});
  resumed.append(JournalEventType::kEvalFinished, 60.0, 0, {{"reward", 0.9}});
  resumed.append(JournalEventType::kEvalFinished, 80.0, 1, {{"reward", 0.5}});
  resumed.append(JournalEventType::kRunFinished, 100.0, kNoAgent,
                 {{"end_time_s", 100.0}, {"converged", 0.0}});

  const auto merged = merge_resumed_journal(prior.snapshot(), resumed.snapshot());
  ASSERT_EQ(merged.size(), 8u);  // 4 kept + 4 resumed
  for (std::size_t i = 0; i < merged.size(); ++i) EXPECT_EQ(merged[i].seq, i);
  EXPECT_EQ(merged[3].type, JournalEventType::kCheckpointWritten);
  EXPECT_EQ(merged[4].type, JournalEventType::kRunResumed);

  const RunSummary sum = summarize_journal(merged);
  EXPECT_EQ(sum.evals, 4u);  // the pre-death t=60 eval appears exactly once
  EXPECT_EQ(sum.checkpoints, 1u);
  EXPECT_EQ(sum.resumes, 1u);
  ASSERT_EQ(sum.resume_times.size(), 1u);
  EXPECT_DOUBLE_EQ(sum.resume_times[0], 50.0);
  EXPECT_TRUE(sum.has_run_started);
  EXPECT_TRUE(sum.has_run_finished);
}

TEST(Journal, MergeResumedRejectsForeignOrMarkerlessJournals) {
  Journal prior;
  prior.append(JournalEventType::kRunStarted, 0.0);

  Journal no_marker;
  no_marker.append(JournalEventType::kEvalFinished, 10.0, 0, {{"reward", 0.1}});
  EXPECT_THROW((void)merge_resumed_journal(prior.snapshot(), no_marker.snapshot()),
               std::runtime_error);

  // Watermark beyond the prior journal: these artifacts cannot be one run.
  Journal foreign;
  foreign.append(JournalEventType::kRunResumed, 50.0, kNoAgent,
                 {{"from_t", 50.0}, {"prior_events", 99.0}});
  EXPECT_THROW((void)merge_resumed_journal(prior.snapshot(), foreign.snapshot()),
               std::runtime_error);
}

// ---- watchdog --------------------------------------------------------------

JournalEvent eval_finished(double t, std::uint32_t agent, double duration) {
  JournalEvent e;
  e.type = JournalEventType::kEvalFinished;
  e.t = t;
  e.agent = agent;
  e.payload = {{"reward", 0.1}, {"duration_s", duration}, {"timed_out", 0.0}};
  return e;
}

TEST(Watchdog, PinnedExpectationFlagsSlowEvals) {
  HealthWatchdog w({.straggler_multiple = 3.0, .expected_seconds = 10.0});
  w.on_event(eval_finished(10.0, 0, 10.0));
  w.on_event(eval_finished(40.0, 0, 30.0));  // exactly 3x: not a straggler
  EXPECT_TRUE(w.report().healthy());
  w.on_event(eval_finished(80.0, 1, 31.0));  // over the multiple
  const WatchdogReport r = w.report();
  ASSERT_EQ(r.stragglers.size(), 1u);
  EXPECT_EQ(r.stragglers[0].agent, 1u);
  EXPECT_DOUBLE_EQ(r.stragglers[0].duration_s, 31.0);
  EXPECT_DOUBLE_EQ(r.stragglers[0].expected_s, 10.0);
  EXPECT_FALSE(r.stragglers[0].timed_out);
  EXPECT_EQ(r.evals_seen, 3u);
}

TEST(Watchdog, SelfCalibratedExpectationFromRunningMean) {
  // No pinned expectation: the first min_samples evals only calibrate, then
  // a 100 s eval against a ~10 s mean crosses the 3x default multiple.
  HealthWatchdog w({.expected_seconds = 0.0, .min_samples = 8});
  for (int i = 0; i < 10; ++i) {
    w.on_event(eval_finished(10.0 * (i + 1), 0, 10.0));
    EXPECT_TRUE(w.report().healthy());
  }
  EXPECT_DOUBLE_EQ(w.report().expected_eval_seconds, 10.0);
  w.on_event(eval_finished(200.0, 1, 100.0));
  const WatchdogReport r = w.report();
  ASSERT_EQ(r.stragglers.size(), 1u);
  EXPECT_DOUBLE_EQ(r.stragglers[0].expected_s, 10.0);
}

TEST(Watchdog, EveryTimeoutIsAStraggler) {
  HealthWatchdog w;  // no expectation yet: timeouts flag regardless
  JournalEvent e;
  e.type = JournalEventType::kEvalTimeout;
  e.t = 600.0;
  e.agent = 3;
  e.payload = {{"duration_s", 600.0}};
  w.on_event(e);
  const WatchdogReport r = w.report();
  ASSERT_EQ(r.stragglers.size(), 1u);
  EXPECT_TRUE(r.stragglers[0].timed_out);
  EXPECT_EQ(r.stragglers[0].agent, 3u);
}

TEST(Watchdog, FlagsSilentAgentAsStalledOncePerEpisode) {
  HealthWatchdog w({.expected_seconds = 10.0, .stall_multiple = 2.0});
  w.on_event(eval_finished(10.0, 0, 10.0));
  w.on_event(eval_finished(12.0, 1, 10.0));
  // Agent 1 stays silent while agent 0 advances past the 20 s window.
  w.on_event(eval_finished(40.0, 0, 10.0));
  WatchdogReport r = w.report();
  ASSERT_EQ(r.stalls.size(), 1u);
  EXPECT_EQ(r.stalls[0].agent, 1u);
  EXPECT_DOUBLE_EQ(r.stalls[0].silent_s, 28.0);
  EXPECT_DOUBLE_EQ(r.stalls[0].window_s, 20.0);
  // Still silent: the episode is already flagged, no duplicate verdicts.
  w.on_event(eval_finished(60.0, 0, 10.0));
  EXPECT_EQ(w.report().stalls.size(), 1u);
  // Activity clears the episode; a fresh silence flags again.
  w.on_event(eval_finished(61.0, 1, 10.0));
  w.on_event(eval_finished(90.0, 0, 10.0));
  EXPECT_EQ(w.report().stalls.size(), 2u);
}

TEST(Watchdog, VerdictsFlowIntoJournalAndMetricsViaTelemetry) {
  Telemetry tel;
  tel.enable_watchdog({.straggler_multiple = 2.0, .expected_seconds = 10.0});
  Journal& j = *tel.journal();
  tel.emit(JournalEventType::kEvalFinished, 25.0, 0,
           {{"reward", 0.1}, {"duration_s", 25.0}, {"timed_out", 0.0}});
  std::size_t verdicts = 0;
  for (const JournalEvent& e : j.snapshot()) {
    verdicts += e.type == JournalEventType::kStragglerDetected;
  }
  EXPECT_EQ(verdicts, 1u);
  EXPECT_EQ(tel.metrics_snapshot().counter_value("ncnas_watchdog_stragglers_total"), 1u);
  ASSERT_NE(tel.watchdog(), nullptr);
  EXPECT_FALSE(tel.watchdog()->report().healthy());
  // The verdict replays like any other event, and a summary counts it.
  EXPECT_EQ(summarize_journal(j.snapshot()).stragglers, 1u);
}

// ---- driver integration ----------------------------------------------------

data::Dataset tiny_nt3() {
  data::Nt3Dims dims;
  dims.train = 64;
  dims.valid = 32;
  dims.length = 64;
  dims.motif = 6;
  return data::make_nt3(5, dims);
}

nas::SearchConfig small_config(nas::SearchStrategy strategy) {
  nas::SearchConfig cfg;
  cfg.strategy = strategy;
  cfg.cluster = {.num_agents = 3, .workers_per_agent = 4};
  cfg.wall_time_seconds = 1800.0;
  cfg.fidelity = {.epochs = 1, .subset_fraction = 1.0};
  cfg.cost = {.startup_seconds = 20.0, .seconds_per_megaunit = 1.0, .timeout_seconds = 600.0};
  cfg.seed = 11;
  return cfg;
}

TEST(JournalDriver, ReplaySummaryMatchesSearchResultExactly) {
  const space::SearchSpace s = space::nt3_small_space();
  const data::Dataset ds = tiny_nt3();
  Telemetry tel;
  tel.enable_journal();
  nas::SearchConfig cfg = small_config(nas::SearchStrategy::kA3C);
  cfg.telemetry = &tel;
  const nas::SearchResult res = nas::SearchDriver(s, ds, cfg).run();

  // Round-trip through the wire format, as run_report does.
  std::ostringstream os;
  tel.export_journal_jsonl(os);
  std::istringstream is(os.str());
  const RunSummary sum = summarize_journal(Journal::import_jsonl(is));

  EXPECT_TRUE(sum.has_run_started);
  EXPECT_TRUE(sum.has_run_finished);
  EXPECT_EQ(sum.strategy, static_cast<int>(nas::SearchStrategy::kA3C));
  EXPECT_EQ(sum.agents_declared, cfg.cluster.num_agents);
  EXPECT_EQ(nas::reconcile(res, sum), std::vector<std::string>{});
  EXPECT_EQ(sum.converged, res.converged_early);
  EXPECT_DOUBLE_EQ(sum.end_time_s, res.end_time);

  std::size_t per_agent_evals = 0;
  for (const auto& [id, a] : sum.per_agent) per_agent_evals += a.evals;
  EXPECT_EQ(per_agent_evals, res.evals.size());
}

TEST(JournalDriver, WatchdogFlagsInjectedSlowEvaluations) {
  // Pin the expectation well below the cost model's cheapest task (startup
  // alone is 20 s), so every real evaluation is a deterministic straggler —
  // the injected-slow-eval acceptance scenario.
  const space::SearchSpace s = space::nt3_small_space();
  const data::Dataset ds = tiny_nt3();
  Telemetry tel;
  tel.enable_watchdog({.straggler_multiple = 2.0, .expected_seconds = 5.0});
  nas::SearchConfig cfg = small_config(nas::SearchStrategy::kRandom);
  cfg.wall_time_seconds = 300.0;
  cfg.telemetry = &tel;
  const nas::SearchResult res = nas::SearchDriver(s, ds, cfg).run();

  std::size_t real = 0;
  for (const auto& e : res.evals) real += !e.cache_hit;
  ASSERT_GT(real, 0u);

  const WatchdogReport health = tel.watchdog()->report();
  EXPECT_FALSE(health.healthy());
  EXPECT_GE(health.stragglers.size(), real);  // post-deadline tails may add more
  EXPECT_EQ(res.telemetry->metrics.counter_value("ncnas_watchdog_stragglers_total"),
            health.stragglers.size());
  std::size_t verdict_events = 0;
  for (const JournalEvent& e : res.telemetry->journal) {
    verdict_events += e.type == JournalEventType::kStragglerDetected;
  }
  EXPECT_EQ(verdict_events, health.stragglers.size());
}

}  // namespace
}  // namespace ncnas::obs
