// Checkpoint/restore subsystem tests: snapshot format integrity, rotation,
// and the headline guarantee — an interrupted-then-resumed search reproduces
// the uninterrupted run bit-identically for every strategy, faults included,
// with the journal lineage reconciling counter-for-counter.
#include <gtest/gtest.h>

#include <algorithm>
#include <deque>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <vector>

#include "kill_after.hpp"
#include "ncnas/ckpt/checkpoint.hpp"
#include "ncnas/ckpt/snapshot.hpp"
#include "ncnas/exec/fault.hpp"
#include "ncnas/nas/driver.hpp"
#include "ncnas/nas/result_io.hpp"
#include "ncnas/obs/journal.hpp"
#include "ncnas/obs/telemetry.hpp"
#include "ncnas/space/spaces.hpp"
#include "ncnas/tensor/rng.hpp"
#include "ncnas/tensor/thread_pool.hpp"

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

/// Runs checkpointed until the search is killed after `kill_after`
/// snapshots, then resumes from the snapshot that kill left behind. Returns
/// the resumed process's final result.
SearchResult kill_and_resume(const space::SearchSpace& s, const data::Dataset& ds,
                             SearchConfig cfg, ckpt::CheckpointConfig ckpt_cfg,
                             std::size_t kill_after, tensor::ThreadPool* pool = nullptr) {
  cfg.checkpoint = &ckpt_cfg;
  const std::string snapshot_path = testing::kill_after(s, ds, cfg, kill_after, pool);
  return resume_search(snapshot_path, s, ds, cfg, pool);
}

// ---- snapshot format -------------------------------------------------------

TEST(Snapshot, ByteCodecRoundTripsEveryType) {
  using Nested = std::vector<std::vector<std::uint16_t>>;
  using Scored = std::deque<std::pair<std::string, float>>;
  ckpt::ByteWriter w;
  w(std::uint8_t{0xAB}, true, false, std::uint16_t{0xBEEF}, std::uint32_t{0xDEADBEEFu},
    std::uint64_t{0x0123456789ABCDEFull}, std::int64_t{-42}, -1.5f, 3.141592653589793,
    std::string("nt3-small"), std::vector<float>{1.0f, -0.0f, 2.5f},
    std::vector<double>{-7.25, 0.125}, Nested{{1, 2}, {}, {65535}},
    Scored{{"a", 0.5f}, {"", -1.0f}}, std::pair<long, bool>{-7, true}, std::size_t{12345});

  std::uint8_t u8 = 0;
  bool yes = false;
  bool no = true;
  std::uint16_t u16 = 0;
  std::uint32_t u32 = 0;
  std::uint64_t u64 = 0;
  std::int64_t i64 = 0;
  float f32 = 0.0f;
  double f64 = 0.0;
  std::string str;
  std::vector<float> floats;
  std::vector<double> doubles;
  Nested nested;
  Scored scored;
  std::pair<long, bool> pair;
  std::size_t count = 0;
  ckpt::ByteReader r(w.bytes());
  r(u8, yes, no, u16, u32, u64, i64, f32, f64, str, floats, doubles, nested, scored, pair, count);
  EXPECT_EQ(u8, 0xAB);
  EXPECT_TRUE(yes);
  EXPECT_FALSE(no);
  EXPECT_EQ(u16, 0xBEEF);
  EXPECT_EQ(u32, 0xDEADBEEFu);
  EXPECT_EQ(u64, 0x0123456789ABCDEFull);
  EXPECT_EQ(i64, -42);
  EXPECT_EQ(f32, -1.5f);
  EXPECT_EQ(f64, 3.141592653589793);
  EXPECT_EQ(str, "nt3-small");
  EXPECT_EQ(floats, (std::vector<float>{1.0f, -0.0f, 2.5f}));
  EXPECT_EQ(doubles, (std::vector<double>{-7.25, 0.125}));
  EXPECT_EQ(nested, (Nested{{1, 2}, {}, {65535}}));
  EXPECT_EQ(scored, (Scored{{"a", 0.5f}, {"", -1.0f}}));
  EXPECT_EQ(pair, (std::pair<long, bool>{-7, true}));
  EXPECT_EQ(count, 12345u);
  EXPECT_EQ(r.remaining(), 0u);
  EXPECT_NO_THROW(r.require_done());

  // The wire widths are the format: pin the exact bytes of one value per case.
  using Bytes = std::vector<std::uint8_t>;
  const auto bytes_of = [](const auto& v) {
    ckpt::ByteWriter one;
    one(v);
    return one.bytes();
  };
  EXPECT_EQ(bytes_of(std::uint8_t{0xAB}), (Bytes{0xAB}));
  EXPECT_EQ(bytes_of(true), (Bytes{1}));
  EXPECT_EQ(bytes_of(std::uint16_t{0xBEEF}), (Bytes{0xEF, 0xBE}));
  EXPECT_EQ(bytes_of(std::uint32_t{0xDEADBEEFu}), (Bytes{0xEF, 0xBE, 0xAD, 0xDE}));
  EXPECT_EQ(bytes_of(std::size_t{0x0102}), (Bytes{2, 1, 0, 0, 0, 0, 0, 0}));
  EXPECT_EQ(bytes_of(long{-2}), (Bytes{0xFE, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF}));
  EXPECT_EQ(bytes_of(1.0f), (Bytes{0, 0, 0x80, 0x3F}));
  EXPECT_EQ(bytes_of(1.0), (Bytes{0, 0, 0, 0, 0, 0, 0xF0, 0x3F}));
  EXPECT_EQ(bytes_of(std::string("ab")), (Bytes{2, 0, 0, 0, 0, 0, 0, 0, 'a', 'b'}));
  EXPECT_EQ(bytes_of(std::vector<double>{}), (Bytes{0, 0, 0, 0, 0, 0, 0, 0}));
  EXPECT_EQ(bytes_of(Nested{{0x0102}}),
            (Bytes{1, 0, 0, 0, 0, 0, 0, 0, 1, 0, 0, 0, 0, 0, 0, 0, 2, 1}));
  EXPECT_EQ(bytes_of(std::deque<float>{1.0f}), (Bytes{1, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0x80, 0x3F}));
  EXPECT_EQ(bytes_of(std::pair<std::uint8_t, std::uint16_t>{5, 0x0607}), (Bytes{5, 7, 6}));
}

TEST(Snapshot, ReaderThrowsOnTruncationAndTrailingBytes) {
  ckpt::ByteWriter w;
  w(std::uint64_t{7});
  std::uint64_t u64 = 0;
  std::uint32_t u32 = 0;
  {
    // One byte short of the u64: the read must fail loudly, not read garbage.
    std::vector<std::uint8_t> cut(w.bytes().begin(), w.bytes().end() - 1);
    ckpt::ByteReader r(cut);
    EXPECT_THROW(r(u64), ckpt::SnapshotError);
  }
  {
    ckpt::ByteReader r(w.bytes());
    r(u32);  // half the payload consumed
    EXPECT_THROW(r.require_done(), ckpt::SnapshotError);
  }
  // A length prefix is checked against the bytes left before anything is
  // sized: no wrap-around past the bounds check, no allocation first.
  const auto prefix = [](std::uint64_t n) {
    ckpt::ByteWriter p;
    p(n);
    return p.take();
  };
  const std::vector<std::uint8_t> wraps = prefix(~std::uint64_t{0});
  const std::vector<std::uint8_t> huge = prefix(std::uint64_t{1} << 60);
  const std::vector<std::uint8_t> eight_bytes = prefix(std::uint64_t{1} << 26);
  std::string str;
  std::vector<float> floats;
  ckpt::ByteReader wrapping(wraps);
  EXPECT_THROW(wrapping(str), ckpt::SnapshotError);
  ckpt::ByteReader oversized(huge);
  EXPECT_THROW(oversized(floats), ckpt::SnapshotError);
  ckpt::ByteReader short_payload(eight_bytes);
  EXPECT_THROW(short_payload(floats), ckpt::SnapshotError);
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

// On a pool, other agents' trainings are still running when a snapshot is
// due. The snapshot joins them first, and the interrupted process unwinds
// with trainings in flight, so the resumed lineage must still match the
// uninterrupted pooled run bit for bit, for every strategy.
TEST(CheckpointDriver, KillAndResumeWithTrainingsInFlightIsBitIdentical) {
  const space::SearchSpace s = space::nt3_small_space();
  const data::Dataset ds = tiny_nt3();
  tensor::ThreadPool pool(4);
  for (SearchStrategy strategy : {SearchStrategy::kA3C, SearchStrategy::kA2C,
                                  SearchStrategy::kRandom, SearchStrategy::kEvolution}) {
    SCOPED_TRACE(strategy_name(strategy));
    const SearchConfig cfg = small_config(strategy);
    const SearchResult reference = SearchDriver(s, ds, cfg, &pool).run();

    ckpt::CheckpointConfig ckpt_cfg;
    ckpt_cfg.directory = scratch_dir(std::string("pooled_") + strategy_name(strategy));
    ckpt_cfg.interval_seconds = 120.0;
    const SearchResult resumed = kill_and_resume(s, ds, cfg, ckpt_cfg, 2, &pool);
    expect_bit_identical(reference, resumed);
    EXPECT_EQ(resumed.resumes, 1u);
  }
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
  cfg.checkpoint = &ckpt_cfg;
  const std::string snapshot_path = testing::kill_after(s, ds, cfg, 1);
  ASSERT_FALSE(snapshot_path.empty());

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

/// The snapshot a checkpointed run of `cfg` leaves when it is interrupted
/// after its first one.
ckpt::Snapshot first_snapshot(const space::SearchSpace& s, const data::Dataset& ds,
                              SearchConfig cfg, const std::string& name) {
  ckpt::CheckpointConfig ckpt_cfg;
  ckpt_cfg.directory = scratch_dir(name);
  ckpt_cfg.interval_seconds = 120.0;
  cfg.checkpoint = &ckpt_cfg;
  const std::string path = testing::kill_after(s, ds, cfg, 1);
  return path.empty() ? ckpt::Snapshot{} : ckpt::read_snapshot(path);
}

/// Writes `snap` under a fresh name with a recomputed integrity hash, as a
/// forger would, and returns its path.
std::string rewrite(const ckpt::Snapshot& snap, const std::string& name) {
  const std::string path = scratch_dir(name) + ".ckpt";
  ckpt::write_snapshot(path, snap.header, snap.payload);
  return path;
}

// A queued completion harvests its agent's in-flight batch. A forged heap
// entry that points at an agent with no batch in flight is rejected at load
// instead of harvesting empty records.
TEST(CheckpointDriver, ResumeRejectsACompletionForAnAgentWithoutABatch) {
  const space::SearchSpace s = space::nt3_small_space();
  const data::Dataset ds = tiny_nt3();
  const SearchConfig cfg = small_config(SearchStrategy::kA2C);
  ckpt::Snapshot snap = first_snapshot(s, ds, cfg, "forged_heap");
  ASSERT_FALSE(snap.payload.empty());

  // The payload opens with the strategy/cluster prelude and six run scalars;
  // the completion heap follows as a count and (time, seq, agent) entries.
  ckpt::ByteReader in(snap.payload);
  std::uint32_t strategy = 0;
  std::size_t n = 0, w = 0, m = 0, seq = 0, real_evals = 0, outstanding = 0, queued = 0;
  bool exhausted = false;
  double round_time = 0.0, last_completion = 0.0;
  in(strategy, n, w, m, seq, real_evals, exhausted, round_time, outstanding, last_completion,
     queued);
  ASSERT_EQ(n, 3u);
  ASSERT_GE(queued, 1u);
  ASSERT_LT(queued, n) << "every agent has a batch in flight; pick another snapshot";
  const std::size_t heap_at = snap.payload.size() - in.remaining();
  std::vector<bool> in_flight(n, false);
  for (std::size_t i = 0; i < queued; ++i) {
    double time = 0.0;
    std::size_t entry_seq = 0, agent = 0;
    in(time, entry_seq, agent);
    in_flight.at(agent) = true;
  }
  const std::size_t idle = static_cast<std::size_t>(
      std::find(in_flight.begin(), in_flight.end(), false) - in_flight.begin());

  // Retarget the first entry's agent word (after its time and seq).
  ckpt::ByteWriter agent_word;
  agent_word(idle);
  std::copy(agent_word.bytes().begin(), agent_word.bytes().end(),
            snap.payload.begin() + static_cast<std::ptrdiff_t>(heap_at + 16));
  EXPECT_THROW((void)resume_search(rewrite(snap, "forged_heap_out"), s, ds, cfg),
               ckpt::SnapshotError);
}

// An all-zero xoshiro state draws 0 forever, and evolution redraws a mutated
// gene until it differs from the parent's: a forged snapshot with zeroed
// agent RNG words must be refused, not resumed into an endless loop.
TEST(CheckpointDriver, ResumeRejectsAnAllZeroAgentRng) {
  const space::SearchSpace s = space::nt3_small_space();
  const data::Dataset ds = tiny_nt3();
  SearchConfig cfg = small_config(SearchStrategy::kEvolution);
  cfg.evolution.population = 4;
  cfg.evolution.tournament = 2;
  ckpt::Snapshot snap = first_snapshot(s, ds, cfg, "forged_rng");
  ASSERT_FALSE(snap.payload.empty());

  // Find agent 0's RNG words by replaying its stream, seeded as the driver
  // seeds it, until the payload holds the current state.
  tensor::Rng rng = tensor::Rng(cfg.seed).split(1000);
  auto at = snap.payload.end();
  for (int draw = 0; draw < 1'000'000 && at == snap.payload.end(); ++draw) {
    const tensor::RngState st = rng.state();
    ckpt::ByteWriter words;
    words(st.s[0], st.s[1], st.s[2], st.s[3]);
    at = std::search(snap.payload.begin(), snap.payload.end(), words.bytes().begin(),
                     words.bytes().end());
    (void)rng.next_u64();
  }
  ASSERT_NE(at, snap.payload.end()) << "agent 0's RNG state not found in the payload";
  std::fill(at, at + 32, std::uint8_t{0});
  EXPECT_THROW((void)resume_search(rewrite(snap, "forged_rng_out"), s, ds, cfg),
               ckpt::SnapshotError);
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
  cfg.checkpoint = &ckpt_cfg;

  obs::Telemetry first;
  first.enable_journal();
  cfg.telemetry = &first;
  const std::string snapshot_path = testing::kill_after(s, ds, cfg, 2);
  ASSERT_FALSE(snapshot_path.empty());

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
