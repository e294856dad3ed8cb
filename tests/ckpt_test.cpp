// Checkpoint/restore subsystem tests: snapshot format integrity, rotation,
// and the headline guarantee — an interrupted-then-resumed search reproduces
// the uninterrupted run bit-identically for every strategy, faults included,
// with the journal lineage reconciling counter-for-counter.
#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <sstream>
#include <vector>

#include "ncnas/ckpt/checkpoint.hpp"
#include "ncnas/ckpt/snapshot.hpp"
#include "ncnas/exec/fault.hpp"
#include "ncnas/nas/driver.hpp"
#include "ncnas/nas/result_io.hpp"
#include "ncnas/obs/journal.hpp"
#include "ncnas/obs/telemetry.hpp"
#include "ncnas/space/spaces.hpp"

namespace ncnas::nas {
namespace {

data::Dataset tiny_nt3() {
  data::Nt3Dims dims;
  dims.train = 64;
  dims.valid = 32;
  dims.length = 64;
  dims.motif = 6;
  return data::make_nt3(5, dims);
}

SearchConfig small_config(SearchStrategy strategy) {
  SearchConfig cfg;
  cfg.strategy = strategy;
  cfg.cluster = {.num_agents = 3, .workers_per_agent = 4};
  cfg.wall_time_seconds = 600.0;
  cfg.fidelity = {.epochs = 1, .subset_fraction = 1.0};
  cfg.cost = {.startup_seconds = 20.0, .seconds_per_megaunit = 1.0, .timeout_seconds = 600.0};
  cfg.seed = 11;
  return cfg;
}

exec::FaultPlan chaos_plan() {
  exec::FaultPlan plan;
  plan.seed = 7;
  plan.eval_failure_prob = 0.25;
  plan.slowdown_prob = 0.15;
  plan.slowdown_multiple = 2.0;
  plan.lost_result_prob = 0.10;
  plan.ps_drop_prob = 0.15;
  plan.ps_delay_prob = 0.15;
  plan.ps_delay_seconds = 15.0;
  plan.max_retries = 2;
  plan.backoff_base_seconds = 5.0;
  plan.backoff_cap_seconds = 40.0;
  plan.barrier_timeout_seconds = 120.0;
  plan.worker_crashes.push_back({.agent = 1, .worker = 0, .time = 300.0});
  return plan;
}

/// Fresh scratch directory per test, cleaned on entry so reruns start empty.
std::string scratch_dir(const std::string& name) {
  const std::string dir = ::testing::TempDir() + "ncnas_ckpt_" + name;
  std::filesystem::remove_all(dir);
  return dir;
}

/// Every field the search computed must match exactly. The checkpoint
/// bookkeeping counters (checkpoints_written, resumes) are excluded on
/// purpose: they describe the process lineage, not the search.
void expect_bit_identical(const SearchResult& a, const SearchResult& b) {
  ASSERT_EQ(a.evals.size(), b.evals.size());
  for (std::size_t i = 0; i < a.evals.size(); ++i) {
    SCOPED_TRACE("eval " + std::to_string(i));
    const EvalRecord& x = a.evals[i];
    const EvalRecord& y = b.evals[i];
    EXPECT_DOUBLE_EQ(x.time, y.time);
    EXPECT_EQ(x.reward, y.reward);
    EXPECT_EQ(x.params, y.params);
    EXPECT_DOUBLE_EQ(x.sim_duration, y.sim_duration);
    EXPECT_EQ(x.cache_hit, y.cache_hit);
    EXPECT_EQ(x.shared_hit, y.shared_hit);
    EXPECT_EQ(x.timed_out, y.timed_out);
    EXPECT_EQ(x.failed, y.failed);
    EXPECT_EQ(x.attempts, y.attempts);
    EXPECT_EQ(x.agent, y.agent);
    EXPECT_EQ(x.arch, y.arch);
  }
  EXPECT_DOUBLE_EQ(a.end_time, b.end_time);
  EXPECT_EQ(a.converged_early, b.converged_early);
  EXPECT_EQ(a.cache_hits, b.cache_hits);
  EXPECT_EQ(a.shared_cache_hits, b.shared_cache_hits);
  EXPECT_EQ(a.timeouts, b.timeouts);
  EXPECT_EQ(a.unique_archs, b.unique_archs);
  EXPECT_EQ(a.ppo_updates, b.ppo_updates);
  EXPECT_EQ(a.retries, b.retries);
  EXPECT_EQ(a.exhausted, b.exhausted);
  EXPECT_EQ(a.lost_results, b.lost_results);
  EXPECT_EQ(a.crashed_workers, b.crashed_workers);
  EXPECT_EQ(a.dead_agents, b.dead_agents);
  ASSERT_EQ(a.utilization.size(), b.utilization.size());
  for (std::size_t i = 0; i < a.utilization.size(); ++i) {
    EXPECT_DOUBLE_EQ(a.utilization[i], b.utilization[i]);
  }
}

/// Runs checkpointed until the driver aborts after `kill_after` snapshots,
/// then resumes from the snapshot that interruption left behind. Returns the
/// resumed process's final result.
SearchResult kill_and_resume(const space::SearchSpace& s, const data::Dataset& ds,
                             SearchConfig cfg, ckpt::CheckpointConfig ckpt_cfg,
                             std::size_t kill_after) {
  ckpt_cfg.abort_after_snapshots = kill_after;
  cfg.checkpoint = &ckpt_cfg;
  std::string snapshot_path;
  try {
    (void)SearchDriver(s, ds, cfg).run();
    ADD_FAILURE() << "search finished before writing " << kill_after << " snapshot(s)";
  } catch (const ckpt::SearchInterrupted& e) {
    snapshot_path = e.snapshot_path();
  }
  ckpt_cfg.abort_after_snapshots = 0;
  cfg.checkpoint = &ckpt_cfg;
  return resume_search(snapshot_path, s, ds, cfg);
}

// ---- snapshot format -------------------------------------------------------

TEST(Snapshot, ByteCodecRoundTripsEveryType) {
  ckpt::ByteWriter w;
  w.u8(0xAB);
  w.flag(true);
  w.flag(false);
  w.u16(0xBEEF);
  w.u32(0xDEADBEEFu);
  w.u64(0x0123456789ABCDEFull);
  w.i64(-42);
  w.f32(-1.5f);
  w.f64(3.141592653589793);
  w.str("nt3-small");
  w.floats(std::vector<float>{1.0f, -0.0f, 2.5f});
  w.doubles(std::vector<double>{-7.25, 0.125});

  ckpt::ByteReader r(w.bytes());
  EXPECT_EQ(r.u8(), 0xAB);
  EXPECT_TRUE(r.flag());
  EXPECT_FALSE(r.flag());
  EXPECT_EQ(r.u16(), 0xBEEF);
  EXPECT_EQ(r.u32(), 0xDEADBEEFu);
  EXPECT_EQ(r.u64(), 0x0123456789ABCDEFull);
  EXPECT_EQ(r.i64(), -42);
  EXPECT_EQ(r.f32(), -1.5f);
  EXPECT_EQ(r.f64(), 3.141592653589793);
  EXPECT_EQ(r.str(), "nt3-small");
  EXPECT_EQ(r.floats(), (std::vector<float>{1.0f, -0.0f, 2.5f}));
  EXPECT_EQ(r.doubles(), (std::vector<double>{-7.25, 0.125}));
  EXPECT_EQ(r.remaining(), 0u);
  EXPECT_NO_THROW(r.require_done());
}

TEST(Snapshot, ReaderThrowsOnTruncationAndTrailingBytes) {
  ckpt::ByteWriter w;
  w.u64(7);
  {
    // One byte short of the u64: the read must fail loudly, not read garbage.
    std::vector<std::uint8_t> cut(w.bytes().begin(), w.bytes().end() - 1);
    ckpt::ByteReader r(cut);
    EXPECT_THROW((void)r.u64(), ckpt::SnapshotError);
  }
  {
    ckpt::ByteReader r(w.bytes());
    (void)r.u32();  // half the payload consumed
    EXPECT_THROW(r.require_done(), ckpt::SnapshotError);
  }
}

TEST(Snapshot, FileRoundTripPreservesHeaderAndPayload) {
  const std::string dir = scratch_dir("roundtrip");
  std::filesystem::create_directories(dir);
  ckpt::SnapshotHeader header;
  header.fingerprint = "fp|a3c|3x4";
  header.space_name = "nt3-small";
  header.virtual_time = 1234.5;
  header.journal_events = 99;
  header.ordinal = 7;
  const std::vector<std::uint8_t> payload = {1, 2, 3, 250, 251, 252};

  const std::string path = dir + "/snap-000007.ckpt";
  ckpt::write_snapshot(path, header, payload);
  const ckpt::Snapshot snap = ckpt::read_snapshot(path);
  EXPECT_EQ(snap.header.fingerprint, header.fingerprint);
  EXPECT_EQ(snap.header.space_name, header.space_name);
  EXPECT_DOUBLE_EQ(snap.header.virtual_time, header.virtual_time);
  EXPECT_EQ(snap.header.journal_events, header.journal_events);
  EXPECT_EQ(snap.header.ordinal, header.ordinal);
  EXPECT_EQ(snap.payload, payload);
  // Atomic write: no temp file left behind.
  EXPECT_FALSE(std::filesystem::exists(path + ".tmp"));
}

TEST(Snapshot, RejectsMissingGarbageCorruptedAndTruncatedFiles) {
  const std::string dir = scratch_dir("reject");
  std::filesystem::create_directories(dir);

  EXPECT_THROW((void)ckpt::read_snapshot(dir + "/absent.ckpt"), ckpt::SnapshotError);

  const std::string garbage = dir + "/garbage.ckpt";
  std::ofstream(garbage) << "this is not a snapshot";
  EXPECT_THROW((void)ckpt::read_snapshot(garbage), ckpt::SnapshotError);

  ckpt::SnapshotHeader header;
  header.fingerprint = "fp";
  header.space_name = "nt3-small";
  const std::string good = dir + "/snap-000001.ckpt";
  ckpt::write_snapshot(good, header, std::vector<std::uint8_t>(64, 0x5A));
  ASSERT_NO_THROW((void)ckpt::read_snapshot(good));

  // Flip one payload byte: the integrity hash must catch it.
  {
    const auto size = std::filesystem::file_size(good);
    std::fstream f(good, std::ios::in | std::ios::out | std::ios::binary);
    f.seekp(static_cast<std::streamoff>(size) - 10);
    f.put(static_cast<char>(0xA5));
  }
  EXPECT_THROW((void)ckpt::read_snapshot(good), ckpt::SnapshotError);

  // Rewrite, then truncate: also rejected.
  ckpt::write_snapshot(good, header, std::vector<std::uint8_t>(64, 0x5A));
  const auto size = std::filesystem::file_size(good);
  std::filesystem::resize_file(good, size / 2);
  EXPECT_THROW((void)ckpt::read_snapshot(good), ckpt::SnapshotError);
}

TEST(CheckpointWriter, RotationKeepsNewestAndLatestFindsHighestOrdinal) {
  const std::string dir = scratch_dir("rotate");
  ckpt::CheckpointConfig cfg;
  cfg.directory = dir;
  cfg.keep_last = 2;
  ckpt::CheckpointWriter writer(cfg);

  ckpt::SnapshotHeader header;
  header.fingerprint = "fp";
  header.space_name = "nt3-small";
  for (std::uint64_t ordinal = 1; ordinal <= 4; ++ordinal) {
    header.ordinal = ordinal;
    writer.write(header, {static_cast<std::uint8_t>(ordinal)});
  }
  EXPECT_EQ(writer.session_writes(), 4u);

  const auto files = ckpt::list_checkpoints(dir);
  ASSERT_EQ(files.size(), 2u);
  EXPECT_NE(files[0].find("snap-000003.ckpt"), std::string::npos);
  EXPECT_NE(files[1].find("snap-000004.ckpt"), std::string::npos);
  const auto latest = ckpt::latest_checkpoint(dir);
  ASSERT_TRUE(latest.has_value());
  EXPECT_EQ(*latest, files[1]);

  EXPECT_TRUE(ckpt::list_checkpoints(dir + "/missing").empty());
  EXPECT_FALSE(ckpt::latest_checkpoint(dir + "/missing").has_value());
}

// ---- driver integration ----------------------------------------------------

// Checkpointing must observe the search without perturbing it: a run that
// writes snapshots matches the null-policy run bit-for-bit.
TEST(CheckpointDriver, WritingSnapshotsDoesNotPerturbTheSearch) {
  const space::SearchSpace s = space::nt3_small_space();
  const data::Dataset ds = tiny_nt3();
  SearchConfig cfg = small_config(SearchStrategy::kA3C);
  const SearchResult plain = SearchDriver(s, ds, cfg).run();

  ckpt::CheckpointConfig ckpt_cfg;
  ckpt_cfg.directory = scratch_dir("noperturb");
  ckpt_cfg.interval_seconds = 120.0;
  cfg.checkpoint = &ckpt_cfg;
  const SearchResult snapped = SearchDriver(s, ds, cfg).run();

  expect_bit_identical(plain, snapped);
  EXPECT_EQ(plain.checkpoints_written, 0u);
  EXPECT_GE(snapped.checkpoints_written, 3u);
  EXPECT_EQ(snapped.resumes, 0u);
  // Rotation held: at most keep_last files remain despite more writes.
  EXPECT_LE(ckpt::list_checkpoints(ckpt_cfg.directory).size(), ckpt_cfg.keep_last);
}

// The headline guarantee, for every strategy: kill after the first snapshot,
// resume, and the final result is bit-identical to the uninterrupted run.
TEST(CheckpointDriver, KillAndResumeIsBitIdenticalForAllStrategies) {
  const space::SearchSpace s = space::nt3_small_space();
  const data::Dataset ds = tiny_nt3();
  for (SearchStrategy strategy : {SearchStrategy::kA3C, SearchStrategy::kA2C,
                                  SearchStrategy::kRandom, SearchStrategy::kEvolution}) {
    SCOPED_TRACE(strategy_name(strategy));
    SearchConfig cfg = small_config(strategy);
    const SearchResult reference = SearchDriver(s, ds, cfg).run();

    ckpt::CheckpointConfig ckpt_cfg;
    ckpt_cfg.directory = scratch_dir(std::string("kill_") + strategy_name(strategy));
    ckpt_cfg.interval_seconds = 120.0;
    const SearchResult resumed = kill_and_resume(s, ds, cfg, ckpt_cfg, 1);

    expect_bit_identical(reference, resumed);
    EXPECT_EQ(resumed.resumes, 1u);
    EXPECT_GE(resumed.checkpoints_written, 3u);  // cumulative across the lineage
  }
}

// Interrupting later in the run (after several snapshots) restores from a
// state with a populated cache, queue history, and PPO trajectory.
TEST(CheckpointDriver, ResumeFromALateSnapshotIsBitIdentical) {
  const space::SearchSpace s = space::nt3_small_space();
  const data::Dataset ds = tiny_nt3();
  SearchConfig cfg = small_config(SearchStrategy::kA3C);
  const SearchResult reference = SearchDriver(s, ds, cfg).run();

  ckpt::CheckpointConfig ckpt_cfg;
  ckpt_cfg.directory = scratch_dir("late");
  ckpt_cfg.interval_seconds = 120.0;
  const SearchResult resumed = kill_and_resume(s, ds, cfg, ckpt_cfg, 3);
  expect_bit_identical(reference, resumed);
}

// Preemption under chaos: the deterministic fault plan (retries, crashes,
// lost results, PS drops) must survive the snapshot boundary too.
TEST(CheckpointDriver, KillAndResumeUnderChaosPlanIsBitIdentical) {
  const space::SearchSpace s = space::nt3_small_space();
  const data::Dataset ds = tiny_nt3();
  const exec::FaultInjector fx(chaos_plan());
  SearchConfig cfg = small_config(SearchStrategy::kA3C);
  cfg.faults = &fx;
  const SearchResult reference = SearchDriver(s, ds, cfg).run();
  ASSERT_GT(reference.retries + reference.lost_results + reference.crashed_workers, 0u);

  ckpt::CheckpointConfig ckpt_cfg;
  ckpt_cfg.directory = scratch_dir("chaos");
  ckpt_cfg.interval_seconds = 120.0;
  const SearchResult resumed = kill_and_resume(s, ds, cfg, ckpt_cfg, 2);
  expect_bit_identical(reference, resumed);
}

// A resumed process keeps checkpointing on the original cadence: the lineage
// writes exactly as many snapshots as the never-interrupted checkpointed run.
TEST(CheckpointDriver, ResumedProcessContinuesTheSnapshotCadence) {
  const space::SearchSpace s = space::nt3_small_space();
  const data::Dataset ds = tiny_nt3();
  SearchConfig cfg = small_config(SearchStrategy::kA2C);

  ckpt::CheckpointConfig full_cfg;
  full_cfg.directory = scratch_dir("cadence_full");
  full_cfg.interval_seconds = 120.0;
  cfg.checkpoint = &full_cfg;
  const SearchResult full = SearchDriver(s, ds, cfg).run();

  ckpt::CheckpointConfig ckpt_cfg;
  ckpt_cfg.directory = scratch_dir("cadence_killed");
  ckpt_cfg.interval_seconds = 120.0;
  const SearchResult resumed = kill_and_resume(s, ds, cfg, ckpt_cfg, 1);
  EXPECT_EQ(resumed.checkpoints_written, full.checkpoints_written);
}

TEST(CheckpointDriver, ResumeRejectsMismatchedConfigAndSpace) {
  const space::SearchSpace s = space::nt3_small_space();
  const data::Dataset ds = tiny_nt3();
  SearchConfig cfg = small_config(SearchStrategy::kA3C);
  ckpt::CheckpointConfig ckpt_cfg;
  ckpt_cfg.directory = scratch_dir("mismatch");
  ckpt_cfg.interval_seconds = 120.0;
  ckpt_cfg.abort_after_snapshots = 1;
  cfg.checkpoint = &ckpt_cfg;
  std::string snapshot_path;
  try {
    (void)SearchDriver(s, ds, cfg).run();
    FAIL() << "expected SearchInterrupted";
  } catch (const ckpt::SearchInterrupted& e) {
    snapshot_path = e.snapshot_path();
  }
  ckpt_cfg.abort_after_snapshots = 0;

  // Any config drift changes the fingerprint; the snapshot is refused.
  SearchConfig other_seed = cfg;
  other_seed.seed = cfg.seed + 1;
  EXPECT_THROW((void)resume_search(snapshot_path, s, ds, other_seed), ckpt::SnapshotError);

  SearchConfig other_shape = cfg;
  other_shape.cluster.workers_per_agent += 1;
  EXPECT_THROW((void)resume_search(snapshot_path, s, ds, other_shape), ckpt::SnapshotError);

  const space::SearchSpace other_space = space::space_by_name("combo-small");
  EXPECT_THROW((void)resume_search(snapshot_path, other_space, ds, cfg),
               ckpt::SnapshotError);

  // The unmodified config still resumes fine.
  EXPECT_NO_THROW((void)resume_search(snapshot_path, s, ds, cfg));
}

// Checkpoint policy is excluded from the fingerprint (like telemetry): a
// snapshot from one directory/cadence resumes under another, or none at all.
TEST(CheckpointDriver, FingerprintIgnoresCheckpointPolicy) {
  SearchConfig cfg = small_config(SearchStrategy::kA3C);
  const std::string base = config_fingerprint(cfg, "nt3-small");
  ckpt::CheckpointConfig ckpt_cfg;
  ckpt_cfg.directory = "anywhere";
  cfg.checkpoint = &ckpt_cfg;
  EXPECT_EQ(config_fingerprint(cfg, "nt3-small"), base);
}

// The journals of the interrupted and the resumed process, stitched at the
// run_resumed watermark, must reconcile with the final SearchResult counter
// for counter — the same contract the fault events honor.
TEST(CheckpointDriver, MergedJournalLineageReconcilesWithResult) {
  const space::SearchSpace s = space::nt3_small_space();
  const data::Dataset ds = tiny_nt3();
  SearchConfig cfg = small_config(SearchStrategy::kA3C);

  ckpt::CheckpointConfig ckpt_cfg;
  ckpt_cfg.directory = scratch_dir("journal");
  ckpt_cfg.interval_seconds = 120.0;
  ckpt_cfg.abort_after_snapshots = 2;
  cfg.checkpoint = &ckpt_cfg;

  obs::Telemetry first;
  first.enable_journal();
  cfg.telemetry = &first;
  std::string snapshot_path;
  try {
    (void)SearchDriver(s, ds, cfg).run();
    FAIL() << "expected SearchInterrupted";
  } catch (const ckpt::SearchInterrupted& e) {
    snapshot_path = e.snapshot_path();
  }

  ckpt_cfg.abort_after_snapshots = 0;
  obs::Telemetry second;
  second.enable_journal();
  cfg.telemetry = &second;
  const SearchResult res = resume_search(snapshot_path, s, ds, cfg);

  // Round-trip both journals through JSONL, the way separate processes
  // exchange them, then stitch and summarize.
  const auto round_trip = [](const obs::Telemetry& t) {
    std::stringstream ss;
    t.export_journal_jsonl(ss);
    return obs::Journal::import_jsonl(ss);
  };
  std::vector<obs::JournalEvent> events = round_trip(first);
  events = obs::merge_resumed_journal(std::move(events), round_trip(second));
  const obs::RunSummary sum = obs::summarize_journal(events);

  EXPECT_EQ(reconcile(res, sum), std::vector<std::string>{});
  EXPECT_EQ(sum.resumes, 1u);
  ASSERT_EQ(sum.resume_times.size(), 1u);
  EXPECT_GT(sum.resume_times[0], 0.0);
  EXPECT_EQ(sum.converged, res.converged_early);
  EXPECT_DOUBLE_EQ(sum.end_time_s, res.end_time);
}

}  // namespace
}  // namespace ncnas::nas
