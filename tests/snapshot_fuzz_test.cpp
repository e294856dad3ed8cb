// Seeded mutation fuzz harness for the two loaders of saved search state:
// the snapshot loader, the trust boundary every resumed search sits behind,
// and the search-log reader (nas::load_result, nas::read_fingerprint) that
// `run_report --result` and the benches' log cache read files with.
//
// The corpus is three real mid-run snapshots: an A2C search with a fault
// plan and a fidelity ladder (parameter server, controllers, retries, a dead
// worker, ladder rungs in the cache), an A3C search on a pool (every agent
// has a batch in flight, so each carries its PPO update's outcome) and an
// EVO search (aging populations).
// Both use a tiny NT3 and a small max_evaluations, so any resumed run ends
// after a handful of trainings. Each iteration mutates the snapshot — bit
// flips, truncations, huge length prefixes, or spliced byte ranges — and
// rewrites its size fields and integrity hash, so the mutation reaches the
// header and payload decoders instead of failing the hash check. It then
// requires that resume_search (which reads the file with read_snapshot)
// either returns a result or throws ckpt::SnapshotError: nothing else is
// thrown and, run under ASan+UBSan, nothing reads out of bounds or hits
// undefined behaviour.
//
// The search-log corpus is the saved result of the A2C and EVO searches.
// The same byte mutations, plus swapping a number for an extreme one, must
// leave both readers returning a value or nullopt, never throwing; and a
// log that loads must save to a fixed point: saving what it loaded, then
// loading and saving that, writes the same bytes twice.
//
// --seed=N / --runs=N / FAILING SEED replay as in fuzz_seed.hpp.

#include <cstdint>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <stdexcept>
#include <string>
#include <vector>

#include <unistd.h>

#include <gtest/gtest.h>

#include "fuzz_seed.hpp"
#include "kill_after.hpp"
#include "ncnas/ckpt/checkpoint.hpp"
#include "ncnas/ckpt/snapshot.hpp"
#include "ncnas/exec/fault.hpp"
#include "ncnas/nas/driver.hpp"
#include "ncnas/nas/result_io.hpp"
#include "ncnas/space/spaces.hpp"
#include "ncnas/tensor/rng.hpp"
#include "ncnas/tensor/thread_pool.hpp"

namespace {

using namespace ncnas;
using Bytes = std::vector<std::uint8_t>;

std::uint64_t g_seed = 0x5A9F5EEDULL;
constexpr int kIters = 64;

/// Magic, version, header size, payload size, hash.
constexpr std::size_t kPreamble = 4 + 4 + 8 + 8 + 8;

const space::SearchSpace& fuzz_space() {
  static const space::SearchSpace s = space::nt3_small_space();
  return s;
}

const data::Dataset& fuzz_dataset() {
  static const data::Dataset ds =
      data::make_nt3(5, {.train = 32, .valid = 16, .length = 64, .motif = 6});
  return ds;
}

const exec::FaultInjector& fuzz_faults() {
  static const exec::FaultInjector faults = [] {
    exec::FaultPlan plan;
    plan.seed = 3;
    plan.eval_failure_prob = 0.25;
    plan.lost_result_prob = 0.1;
    plan.slowdown_prob = 0.2;
    plan.slowdown_multiple = 4.0;
    plan.ps_drop_prob = 0.2;
    plan.ps_delay_prob = 0.2;
    plan.ps_delay_seconds = 15.0;
    plan.max_retries = 1;
    plan.barrier_timeout_seconds = 60.0;
    plan.worker_crashes.push_back({.agent = 1, .worker = 0, .time = 60.0});
    return exec::FaultInjector(plan);
  }();
  return faults;
}

nas::SearchConfig base_config(nas::SearchStrategy strategy) {
  nas::SearchConfig cfg;
  cfg.strategy = strategy;
  cfg.cluster = {.num_agents = 2, .workers_per_agent = 2};
  cfg.wall_time_seconds = 300.0;
  cfg.fidelity = {.epochs = 1, .subset_fraction = 1.0};
  cfg.cost = {.startup_seconds = 20.0, .seconds_per_megaunit = 1.0, .timeout_seconds = 60.0};
  cfg.seed = 5;
  cfg.max_evaluations = 24;
  return cfg;
}

nas::SearchConfig a2c_config() {
  nas::SearchConfig cfg = base_config(nas::SearchStrategy::kA2C);
  cfg.faults = &fuzz_faults();
  cfg.ladder.eta = 2;
  cfg.ladder.rungs = {{.epochs = 1, .subset_fraction = 1.0},
                      {.epochs = 2, .subset_fraction = 1.0}};
  return cfg;
}

nas::SearchConfig a3c_config() { return base_config(nas::SearchStrategy::kA3C); }

nas::SearchConfig evo_config() {
  nas::SearchConfig cfg = base_config(nas::SearchStrategy::kEvolution);
  cfg.evolution.population = 4;
  cfg.evolution.tournament = 2;
  return cfg;
}

/// Per-process scratch root (ctest runs each test as its own process, all at
/// once), removed when the process exits.
struct ScratchRoot {
  std::filesystem::path path = std::filesystem::path(::testing::TempDir()) /
                               ("ncnas_snapshot_fuzz_" + std::to_string(::getpid()));
  ~ScratchRoot() { std::filesystem::remove_all(path); }
};

std::string scratch(const std::string& name) {
  static const ScratchRoot root;
  const std::filesystem::path dir = root.path / name;
  std::filesystem::create_directories(dir);
  return dir.string();
}

Bytes read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return Bytes((std::istreambuf_iterator<char>(in)), std::istreambuf_iterator<char>());
}

void write_file(const std::string& path, const Bytes& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(reinterpret_cast<const char*>(bytes.data()),
            static_cast<std::streamsize>(bytes.size()));
}

/// The snapshot file the driver leaves behind when it is killed after its
/// second snapshot.
Bytes mid_run_snapshot(nas::SearchConfig cfg, const std::string& name,
                       tensor::ThreadPool* pool = nullptr) {
  ckpt::CheckpointConfig ckpt_cfg;
  ckpt_cfg.directory = scratch(name);
  ckpt_cfg.interval_seconds = 40.0;
  cfg.checkpoint = &ckpt_cfg;
  const std::string path = ncnas::testing::kill_after(fuzz_space(), fuzz_dataset(), cfg, 2, pool);
  return path.empty() ? Bytes{} : read_file(path);
}

struct Seed {
  const char* name;
  nas::SearchConfig config;
  Bytes header;   ///< encoded SnapshotHeader
  Bytes payload;  ///< driver state
};

Seed split(const char* name, nas::SearchConfig config, const Bytes& file) {
  ckpt::ByteReader pre(file);
  std::uint32_t magic = 0;
  std::uint32_t version = 0;
  std::uint64_t header_size = 0;
  std::uint64_t payload_size = 0;
  std::uint64_t hash = 0;
  pre(magic, version, header_size, payload_size, hash);
  const auto body = file.begin() + static_cast<std::ptrdiff_t>(kPreamble);
  const auto cut = body + static_cast<std::ptrdiff_t>(header_size);
  return {name, std::move(config), Bytes(body, cut), Bytes(cut, file.end())};
}

const std::vector<Seed>& corpus() {
  static const std::vector<Seed> seeds = [] {
    std::vector<Seed> out;
    out.push_back(split("a2c-faults-ladder", a2c_config(), mid_run_snapshot(a2c_config(), "a2c")));
    tensor::ThreadPool pool(2);
    out.push_back(split("a3c-pool", a3c_config(), mid_run_snapshot(a3c_config(), "a3c", &pool)));
    out.push_back(split("evo", evo_config(), mid_run_snapshot(evo_config(), "evo")));
    return out;
  }();
  return seeds;
}

/// A well-formed file around (possibly mutated) header and payload bytes:
/// correct size fields and a recomputed hash.
Bytes assemble(const Bytes& header, const Bytes& payload) {
  Bytes body = header;
  body.insert(body.end(), payload.begin(), payload.end());
  ckpt::ByteWriter w;
  w(ckpt::kSnapshotMagic, ckpt::kSnapshotVersion, header.size(), payload.size(),
    ckpt::fnv1a64(body));
  Bytes file = w.take();
  file.insert(file.end(), body.begin(), body.end());
  return file;
}

Bytes flip_bits(Bytes b, tensor::Rng& rng) {
  const std::size_t flips = 1 + rng.uniform_int(8);
  for (std::size_t i = 0; i < flips && !b.empty(); ++i) {
    b[rng.uniform_int(b.size())] ^= static_cast<std::uint8_t>(1u << rng.uniform_int(8));
  }
  return b;
}

Bytes truncate(Bytes b, tensor::Rng& rng) {
  b.resize(rng.uniform_int(b.size() + 1));
  return b;
}

/// Overwrites an 8-byte word with a length far past the payload. Half the
/// time the word is one that already holds a small count (a likely length
/// prefix); otherwise any offset.
Bytes huge_prefix(Bytes b, tensor::Rng& rng) {
  static const std::uint64_t kValues[] = {~std::uint64_t{0},     std::uint64_t{1} << 63,
                                          std::uint64_t{1} << 60, std::uint64_t{1} << 32,
                                          std::uint64_t{1} << 26, 0x7FFFFFFFFFFFFFFFull,
                                          1000000000000000000ull};
  if (b.size() < 8) return b;
  std::size_t at = rng.uniform_int(b.size() - 7);
  if (rng.uniform_int(2) == 0) {
    for (int tries = 0; tries < 64; ++tries) {
      const std::size_t p = rng.uniform_int(b.size() - 7);
      std::uint64_t v = 0;
      for (int i = 0; i < 8; ++i) v |= static_cast<std::uint64_t>(b[p + i]) << (8 * i);
      if (v > 0 && v < 4096) {
        at = p;
        break;
      }
    }
  }
  std::uint64_t v = kValues[rng.uniform_int(std::size(kValues))];
  if (rng.uniform_int(4) == 0) v = b.size() - at;  // just past the end
  for (int i = 0; i < 8; ++i) b[at + i] = static_cast<std::uint8_t>(v >> (8 * i));
  return b;
}

/// Copies, inserts or deletes a byte range, shifting or duplicating fields.
Bytes splice(Bytes b, tensor::Rng& rng) {
  if (b.empty()) return b;
  const std::size_t from = rng.uniform_int(b.size());
  const std::size_t len = 1 + rng.uniform_int(std::min<std::size_t>(64, b.size() - from));
  const std::size_t to = rng.uniform_int(b.size());
  const Bytes chunk(b.begin() + static_cast<std::ptrdiff_t>(from),
                    b.begin() + static_cast<std::ptrdiff_t>(from + len));
  switch (rng.uniform_int(3)) {
    case 0:  // overwrite in place
      for (std::size_t i = 0; i < len && to + i < b.size(); ++i) b[to + i] = chunk[i];
      break;
    case 1:  // insert a copy
      b.insert(b.begin() + static_cast<std::ptrdiff_t>(to), chunk.begin(), chunk.end());
      break;
    default:  // delete
      b.erase(b.begin() + static_cast<std::ptrdiff_t>(from),
              b.begin() + static_cast<std::ptrdiff_t>(from + len));
  }
  return b;
}

/// The invariant, checked on one mutated snapshot file.
void check_file(const Seed& seed, const Bytes& file, const char* mutation, int iter) {
  SCOPED_TRACE(std::string(seed.name) + " " + mutation + " iteration " + std::to_string(iter) +
               " (replay with --seed=" + std::to_string(g_seed) + ")");
  const std::string path = scratch("mutated") + "/snap.ckpt";
  write_file(path, file);
  try {
    (void)nas::resume_search(path, fuzz_space(), fuzz_dataset(), seed.config);
  } catch (const ckpt::SnapshotError&) {
    // A clean rejection is a valid outcome.
  } catch (const std::exception& e) {
    ADD_FAILURE() << "resume threw something other than SnapshotError: " << e.what();
  }
}

/// Mutates the payload of every corpus snapshot (the header is mutated in
/// one iteration out of eight, so its decoder is reached too).
template <typename Mutate>
void fuzz(std::uint64_t salt, const char* mutation, Mutate mutate) {
  tensor::Rng rng(g_seed ^ salt);
  for (const Seed& seed : corpus()) {
    for (int i = 0; i < kIters; ++i) {
      const bool header = rng.uniform_int(8) == 0;
      const Bytes file = header ? assemble(mutate(seed.header, rng), seed.payload)
                                : assemble(seed.header, mutate(seed.payload, rng));
      check_file(seed, file, mutation, i);
    }
  }
}

TEST(SnapshotFuzz, CorpusResumesToTheEnd) {
  ASSERT_EQ(corpus().size(), 3u);
  for (const Seed& seed : corpus()) {
    SCOPED_TRACE(seed.name);
    ASSERT_FALSE(seed.payload.empty());
    const std::string path = scratch("intact") + "/snap.ckpt";
    write_file(path, assemble(seed.header, seed.payload));
    const nas::SearchResult res =
        nas::resume_search(path, fuzz_space(), fuzz_dataset(), seed.config);
    EXPECT_GT(res.evals.size(), 0u);
    EXPECT_EQ(res.resumes, 1u);
  }
}

TEST(SnapshotFuzz, RawFileCorruptionIsRejected) {
  // Without a recomputed hash every mutation must stop at read_snapshot.
  tensor::Rng rng(g_seed ^ 0xF11E);
  for (const Seed& seed : corpus()) {
    const Bytes intact = assemble(seed.header, seed.payload);
    for (int i = 0; i < kIters; ++i) {
      Bytes file = flip_bits(intact, rng);
      if (file == intact) continue;
      const std::string path = scratch("raw") + "/snap.ckpt";
      write_file(path, file);
      EXPECT_THROW((void)ckpt::read_snapshot(path), ckpt::SnapshotError) << seed.name;
    }
  }
}

TEST(SnapshotFuzz, BitFlips) { fuzz(0xB17F, "bit flip", flip_bits); }

TEST(SnapshotFuzz, Truncations) { fuzz(0x7256, "truncation", truncate); }

TEST(SnapshotFuzz, HugeLengthPrefixes) { fuzz(0x4A6E, "huge length prefix", huge_prefix); }

TEST(SnapshotFuzz, SplicedFields) { fuzz(0x5911CE, "splice", splice); }

TEST(SnapshotFuzz, MutationsCompose) {
  fuzz(0xC0A1, "composed", [](const Bytes& b, tensor::Rng& rng) {
    return flip_bits(huge_prefix(splice(b, rng), rng), rng);
  });
}

// ---- search logs -------------------------------------------------------------

struct LogSeed {
  const char* name;
  Bytes bytes;  ///< the file nas::save_result wrote
};

const std::vector<LogSeed>& log_corpus() {
  static const std::vector<LogSeed> seeds = [] {
    std::vector<LogSeed> out;
    for (const auto& [name, cfg] : {std::pair{"a2c-faults-ladder", a2c_config()},
                                    std::pair{"evo", evo_config()}}) {
      const nas::SearchResult res = nas::SearchDriver(fuzz_space(), fuzz_dataset(), cfg).run();
      const std::string path = scratch("logs") + "/" + name + ".log";
      nas::save_result(path, res, nas::config_fingerprint(cfg, fuzz_space().name()));
      out.push_back({name, read_file(path)});
    }
    return out;
  }();
  return seeds;
}

/// Replaces one whitespace-separated token with a number at or past the
/// edge of what its field can hold, or with something that is no number.
Bytes extreme_token(Bytes b, tensor::Rng& rng) {
  static const char* const kTokens[] = {
      "0",    "-1",   "1e308",      "-1e308", "1e-320", "18446744073709551615", "18446744073709551616",
      "4294967296", "65536", "nan", "inf", "1.5", "0x10", "", "-0"};
  const auto space = [](std::uint8_t c) { return c == ' ' || c == '\n'; };
  if (b.empty()) return b;
  std::size_t from = rng.uniform_int(b.size());
  while (from > 0 && !space(b[from - 1])) --from;
  std::size_t to = from;
  while (to < b.size() && !space(b[to])) ++to;
  const std::string token = kTokens[rng.uniform_int(std::size(kTokens))];
  b.erase(b.begin() + static_cast<std::ptrdiff_t>(from), b.begin() + static_cast<std::ptrdiff_t>(to));
  b.insert(b.begin() + static_cast<std::ptrdiff_t>(from), token.begin(), token.end());
  return b;
}

/// The invariant, checked on one mutated log file.
void check_log(const LogSeed& seed, const Bytes& file, const char* mutation, int iter) {
  SCOPED_TRACE(std::string(seed.name) + " " + mutation + " iteration " + std::to_string(iter) +
               " (replay with --seed=" + std::to_string(g_seed) + ")");
  // Fresh files, removed afterwards: rewriting one path in place makes some
  // file systems flush every close, which slows a run a hundredfold.
  const std::string dir = scratch("mutated-log-" + std::to_string(iter));
  const std::string path = dir + "/run.log";
  write_file(path, file);
  const struct Cleanup {
    std::string dir;
    ~Cleanup() { std::filesystem::remove_all(dir); }
  } cleanup{dir};
  try {
    // Accept whatever fingerprint the log carries, as run_report does.
    const std::optional<std::string> fp = nas::read_fingerprint(path);
    if (!fp) return;
    const std::optional<nas::SearchResult> res = nas::load_result(path, *fp);
    if (!res) return;
    const std::string once = dir + "/once.log";
    const std::string twice = dir + "/twice.log";
    nas::save_result(once, *res, *fp);
    const std::optional<nas::SearchResult> again = nas::load_result(once, *fp);
    ASSERT_TRUE(again.has_value()) << "a log saved from a loaded result does not load";
    nas::save_result(twice, *again, *fp);
    EXPECT_EQ(read_file(once), read_file(twice)) << "saving a loaded log is not a fixed point";
  } catch (const std::exception& e) {
    ADD_FAILURE() << "a search-log reader threw: " << e.what();
  }
}

constexpr int kLogIters = 256;

template <typename Mutate>
void fuzz_logs(std::uint64_t salt, const char* mutation, Mutate mutate) {
  tensor::Rng rng(g_seed ^ salt);
  for (const LogSeed& seed : log_corpus()) {
    for (int i = 0; i < kLogIters; ++i) check_log(seed, mutate(seed.bytes, rng), mutation, i);
  }
}

TEST(ResultLogFuzz, CorpusRoundTripsByteForByte) {
  ASSERT_EQ(log_corpus().size(), 2u);
  for (const LogSeed& seed : log_corpus()) {
    SCOPED_TRACE(seed.name);
    const std::string path = scratch("intact-log") + "/run.log";
    write_file(path, seed.bytes);
    const std::optional<std::string> fp = nas::read_fingerprint(path);
    ASSERT_TRUE(fp.has_value());
    const std::optional<nas::SearchResult> res = nas::load_result(path, *fp);
    ASSERT_TRUE(res.has_value());
    EXPECT_GT(res->evals.size(), 0u);
    nas::save_result(path, *res, *fp);
    EXPECT_EQ(read_file(path), seed.bytes);
  }
}

TEST(ResultLogFuzz, BitFlips) { fuzz_logs(0x10B17F, "bit flip", flip_bits); }

TEST(ResultLogFuzz, Truncations) { fuzz_logs(0x107256, "truncation", truncate); }

TEST(ResultLogFuzz, SplicedRanges) { fuzz_logs(0x105911CE, "splice", splice); }

TEST(ResultLogFuzz, ExtremeNumbers) { fuzz_logs(0x10E7, "extreme number", extreme_token); }

TEST(ResultLogFuzz, MutationsCompose) {
  fuzz_logs(0x10C0A1, "composed", [](const Bytes& b, tensor::Rng& rng) {
    return flip_bits(extreme_token(splice(b, rng), rng), rng);
  });
}

}  // namespace

int main(int argc, char** argv) {
  return ncnas::testing::fuzz_main(argc, argv, "snapshot_fuzz_test", &g_seed);
}
