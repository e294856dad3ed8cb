#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <cstdlib>
#include <limits>
#include <new>
#include <sstream>
#include <thread>
#include <vector>

#include "json_check.hpp"
#include "ncnas/data/dataset.hpp"
#include "ncnas/exec/evaluator.hpp"
#include "ncnas/nn/layers.hpp"
#include "ncnas/obs/journal.hpp"
#include "ncnas/obs/profiler.hpp"
#include "ncnas/obs/telemetry.hpp"
#include "ncnas/rl/controller.hpp"
#include "ncnas/space/builder.hpp"
#include "ncnas/space/spaces.hpp"
#include "ncnas/tensor/ops.hpp"
#include "ncnas/tensor/tensor.hpp"

// Counts this thread's operator-new calls while g_count_news is set: the
// profiler only sees allocations the library reports (Tensor buffers, arena
// and workspace growth), this sees every heap allocation.
namespace {
thread_local bool g_count_news = false;
thread_local std::size_t g_news = 0;
}  // namespace

void* operator new(std::size_t n) {
  if (g_count_news) ++g_news;
  if (void* p = std::malloc(n == 0 ? 1 : n)) return p;
  throw std::bad_alloc();
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }

namespace ncnas::obs {
namespace {

void spin_for(std::chrono::microseconds us) {
  const auto until = std::chrono::steady_clock::now() + us;
  while (std::chrono::steady_clock::now() < until) {
  }
}

const FlatProfileEntry* find_entry(const std::vector<FlatProfileEntry>& flat,
                                   const std::string& name) {
  for (const FlatProfileEntry& e : flat) {
    if (e.name == name) return &e;
  }
  return nullptr;
}

TEST(Profiler, NestingRecordsTreeWithSelfTotalSplit) {
  Profiler prof;
  {
    ProfilerInstallGuard guard(&prof);
    for (int i = 0; i < 3; ++i) {
      NCNAS_PROF_SCOPE("outer");
      spin_for(std::chrono::microseconds(200));
      {
        NCNAS_PROF_SCOPE("inner");
        spin_for(std::chrono::microseconds(200));
      }
      {
        NCNAS_PROF_SCOPE("inner");
        spin_for(std::chrono::microseconds(200));
      }
    }
  }
  const ProfileSnapshot snap = prof.snapshot();
  ASSERT_EQ(snap.roots.size(), 1u);
  const ProfileNode& outer = snap.roots[0];
  EXPECT_EQ(outer.name, "outer");
  EXPECT_EQ(outer.calls, 3u);
  ASSERT_EQ(outer.children.size(), 1u);  // same name at the same level merges
  const ProfileNode& inner = outer.children[0];
  EXPECT_EQ(inner.name, "inner");
  EXPECT_EQ(inner.calls, 6u);
  // Total covers the children; self is total minus the children's total.
  EXPECT_GE(outer.total_ms, inner.total_ms);
  EXPECT_NEAR(outer.self_ms, outer.total_ms - inner.total_ms, 1e-9);
  EXPECT_GT(outer.self_ms, 0.0);
  EXPECT_GT(inner.total_ms, 0.0);
}

TEST(Profiler, ScopesFromMultipleThreadsMergeByName) {
  Profiler prof;
  {
    ProfilerInstallGuard guard(&prof);
    std::vector<std::thread> threads;
    for (int t = 0; t < 3; ++t) {
      threads.emplace_back([] {
        for (int i = 0; i < 5; ++i) {
          NCNAS_PROF_SCOPE("work");
          NCNAS_PROF_SCOPE("work/sub");
          spin_for(std::chrono::microseconds(50));
        }
      });
    }
    for (std::thread& th : threads) th.join();
  }
  const ProfileSnapshot snap = prof.snapshot();
  EXPECT_EQ(snap.threads_merged, 3u);
  ASSERT_EQ(snap.roots.size(), 1u);
  EXPECT_EQ(snap.roots[0].name, "work");
  EXPECT_EQ(snap.roots[0].calls, 15u);
  ASSERT_EQ(snap.roots[0].children.size(), 1u);
  EXPECT_EQ(snap.roots[0].children[0].calls, 15u);
}

TEST(Profiler, DisabledPathRecordsNothing) {
  ASSERT_EQ(current_profiler(), nullptr);
  {
    NCNAS_PROF_SCOPE("never");
    profile_work(100.0, 100.0);
    profile_alloc(42);
  }
  Profiler prof;  // never installed: scopes above went nowhere
  const ProfileSnapshot snap = prof.snapshot();
  EXPECT_TRUE(snap.empty());
  EXPECT_EQ(snap.threads_merged, 0u);
  EXPECT_TRUE(snap.flat().empty());
}

TEST(Profiler, EmptyNameScopeIsNoOp) {
  Profiler prof;
  {
    ProfilerInstallGuard guard(&prof);
    ProfileScope scope{std::string_view{}};
  }
  EXPECT_TRUE(prof.snapshot().empty());
}

TEST(Profiler, KernelWorkAndAllocationsAttributeToScopes) {
  Profiler prof;
  {
    ProfilerInstallGuard guard(&prof);
    NCNAS_PROF_SCOPE("phase");
    tensor::Tensor a({4, 8}, 1.0f);
    tensor::Tensor b({8, 5}, 2.0f);
    const tensor::Tensor c = tensor::matmul(a, b);
    ASSERT_EQ(c.dim(1), 5u);
  }
  const std::vector<FlatProfileEntry> flat = prof.snapshot().flat();
  const FlatProfileEntry* gemm = find_entry(flat, "gemm");
  ASSERT_NE(gemm, nullptr);
  EXPECT_EQ(gemm->calls, 1u);
  EXPECT_DOUBLE_EQ(gemm->flops, 2.0 * 4 * 8 * 5);
  EXPECT_DOUBLE_EQ(gemm->bytes_moved, 4.0 * (4 * 8 + 8 * 5 + 4 * 5));
  EXPECT_GT(gemm->arithmetic_intensity(), 0.0);
  // a, b, and matmul's result buffer all allocate inside "phase".
  const FlatProfileEntry* phase = find_entry(flat, "phase");
  ASSERT_NE(phase, nullptr);
  EXPECT_EQ(phase->alloc_count, 3u);
  EXPECT_EQ(phase->alloc_bytes, sizeof(float) * (4 * 8 + 8 * 5 + 4 * 5));
}

TEST(Profiler, Conv1DForwardRecordsItsKernelScopeAndFlops) {
  constexpr std::size_t kBatch = 5, kLen = 64, kCin = 8, kKernel = 4, kFilters = 8;
  tensor::Rng rng(3);
  nn::Conv1D conv(kFilters, kKernel, rng);
  const nn::FeatShape in = {kLen, kCin};
  ASSERT_EQ(conv.bind({&in, 1}), (nn::FeatShape{kLen - kKernel + 1, kFilters}));
  const tensor::Tensor x({kBatch, kLen, kCin}, 0.5f);
  const tensor::Tensor* inputs[] = {&x};
  tensor::Tensor out;
  nn::ForwardCtx ctx{};
  Profiler prof;
  {
    ProfilerInstallGuard guard(&prof);
    (void)conv.forward(inputs, out, ctx);
  }
  const std::vector<FlatProfileEntry> flat = prof.snapshot().flat();
  const FlatProfileEntry* entry = find_entry(flat, "conv1d");
  ASSERT_NE(entry, nullptr);
  EXPECT_EQ(entry->calls, 1u);
  EXPECT_DOUBLE_EQ(entry->flops, 2.0 * kBatch * (kLen - kKernel + 1) * kKernel * kCin * kFilters);
}

TEST(Profiler, UnscopedWorkSurfacesAsPseudoNode) {
  Profiler prof;
  {
    ProfilerInstallGuard guard(&prof);
    profile_alloc(128);
    profile_work(10.0, 20.0);
  }
  const std::vector<FlatProfileEntry> flat = prof.snapshot().flat();
  const FlatProfileEntry* unscoped = find_entry(flat, "(unscoped)");
  ASSERT_NE(unscoped, nullptr);
  EXPECT_EQ(unscoped->alloc_count, 1u);
  EXPECT_EQ(unscoped->alloc_bytes, 128u);
  EXPECT_DOUBLE_EQ(unscoped->flops, 10.0);
}

TEST(Profiler, InstallGuardRestoresPreviousSink) {
  Profiler outer_prof;
  Profiler inner_prof;
  {
    ProfilerInstallGuard outer(&outer_prof);
    EXPECT_EQ(current_profiler(), &outer_prof);
    {
      ProfilerInstallGuard inner(&inner_prof);
      EXPECT_EQ(current_profiler(), &inner_prof);
      ProfilerInstallGuard noop(nullptr);  // null guard must not disturb the sink
      EXPECT_EQ(current_profiler(), &inner_prof);
    }
    EXPECT_EQ(current_profiler(), &outer_prof);
  }
  EXPECT_EQ(current_profiler(), nullptr);
}

TEST(Profiler, ResetDropsRecordedData) {
  Profiler prof;
  {
    ProfilerInstallGuard guard(&prof);
    NCNAS_PROF_SCOPE("x");
  }
  EXPECT_FALSE(prof.snapshot().empty());
  prof.reset();
  EXPECT_TRUE(prof.snapshot().empty());
  {  // still usable after reset
    ProfilerInstallGuard guard(&prof);
    NCNAS_PROF_SCOPE("y");
  }
  ASSERT_EQ(prof.snapshot().roots.size(), 1u);
  EXPECT_EQ(prof.snapshot().roots[0].name, "y");
}

TEST(Profiler, FlatAggregatesOneNameAcrossPaths) {
  Profiler prof;
  {
    ProfilerInstallGuard guard(&prof);
    {
      NCNAS_PROF_SCOPE("a");
      NCNAS_PROF_SCOPE("leaf");
    }
    {
      NCNAS_PROF_SCOPE("b");
      NCNAS_PROF_SCOPE("leaf");
    }
  }
  const std::vector<FlatProfileEntry> flat = prof.snapshot().flat();
  const FlatProfileEntry* leaf = find_entry(flat, "leaf");
  ASSERT_NE(leaf, nullptr);
  EXPECT_EQ(leaf->calls, 2u);
}

TEST(Profiler, ExportJsonRoundTripsThroughImport) {
  Profiler prof;
  {
    ProfilerInstallGuard guard(&prof);
    NCNAS_PROF_SCOPE("phase \"quoted\"");
    tensor::Tensor a({4, 8}, 1.0f);
    tensor::Tensor b({8, 5}, 2.0f);
    (void)tensor::matmul(a, b);
  }
  const ProfileSnapshot snap = prof.snapshot();
  std::ostringstream os;
  snap.export_json(os);
  std::istringstream is(os.str());
  const ImportedProfile imported = import_profile_json(is);
  EXPECT_EQ(imported.schema_version, kProfileSchemaVersion);
  EXPECT_EQ(imported.threads_merged, snap.threads_merged);
  const std::vector<FlatProfileEntry> flat = snap.flat();
  ASSERT_EQ(imported.flat.size(), flat.size());
  for (std::size_t i = 0; i < flat.size(); ++i) {
    EXPECT_EQ(imported.flat[i].name, flat[i].name);
    EXPECT_EQ(imported.flat[i].calls, flat[i].calls);
    EXPECT_NEAR(imported.flat[i].self_ms, flat[i].self_ms, 1e-6);
    EXPECT_NEAR(imported.flat[i].flops, flat[i].flops, 1e-3);
    EXPECT_EQ(imported.flat[i].alloc_count, flat[i].alloc_count);
    EXPECT_EQ(imported.flat[i].alloc_bytes, flat[i].alloc_bytes);
  }
}

TEST(Profiler, ImportRejectsMissingOrWrongSchema) {
  std::istringstream empty("{}\n");
  EXPECT_THROW((void)import_profile_json(empty), std::runtime_error);
  std::istringstream wrong("{\n\"schema_version\": 999\n}\n");
  EXPECT_THROW((void)import_profile_json(wrong), std::runtime_error);
}

TEST(Profiler, ImportSaturatesOutOfRangeCounts) {
  std::istringstream is(
      "{\"schema_version\": 1, \"threads_merged\": -3, \"flat\": [\n"
      "{\"name\": \"neg\", \"calls\": -1e30, \"alloc_bytes\": -1},\n"
      "{\"name\": \"huge\", \"calls\": 1e30, \"alloc_count\": 1e999}\n]}\n");
  const ImportedProfile imported = import_profile_json(is);
  EXPECT_EQ(imported.threads_merged, 0u);
  ASSERT_EQ(imported.flat.size(), 2u);
  EXPECT_EQ(imported.flat[0].calls, 0u);
  EXPECT_EQ(imported.flat[0].alloc_bytes, 0u);
  EXPECT_EQ(imported.flat[1].calls, std::numeric_limits<std::uint64_t>::max());
  EXPECT_EQ(imported.flat[1].alloc_count, std::numeric_limits<std::uint64_t>::max());
}

JournalEvent trained_eval(double train_wall_ms) {
  return {JournalEventType::kEvalFinished, 10.0, 0, 0, {{"train_wall_ms", train_wall_ms}}};
}

TEST(Profiler, EvalWallGapComparesEvalScopesWithTrainWall) {
  const std::vector<FlatProfileEntry> flat = {
      {.name = "eval/train", .total_ms = 30.0},
      {.name = "eval/validate", .total_ms = 10.0},
      {.name = "eval/build", .total_ms = 500.0},
  };
  const EvalWallGap gap =
      eval_wall_gap(flat, {trained_eval(20.0), trained_eval(30.0)});
  EXPECT_TRUE(gap.saw_eval_scopes);
  EXPECT_DOUBLE_EQ(gap.profile_ms, 40.0);
  EXPECT_DOUBLE_EQ(gap.journal_ms, 50.0);
  EXPECT_DOUBLE_EQ(gap.rel, 0.2);

  // Neither instrument saw eval time: no gap. Only the profile did: all gap.
  EXPECT_EQ(eval_wall_gap({{.name = "eval/train"}}, {trained_eval(0.0)}).rel, 0.0);
  EXPECT_EQ(eval_wall_gap(flat, {}).rel, 1.0);
}

TEST(Profiler, EvalWallGapNotesAnUnprofiledRun) {
  const EvalWallGap gap =
      eval_wall_gap({{.name = "op/dense", .total_ms = 5.0}}, {trained_eval(12.0)});
  EXPECT_FALSE(gap.saw_eval_scopes);
  EXPECT_EQ(gap.profile_ms, 0.0);
  EXPECT_DOUBLE_EQ(gap.journal_ms, 12.0);
  EXPECT_EQ(gap.rel, 1.0);
}

TEST(Profiler, ExportTextRendersTreeAndFlatTable) {
  Profiler prof;
  {
    ProfilerInstallGuard guard(&prof);
    NCNAS_PROF_SCOPE("outer");
    NCNAS_PROF_SCOPE("inner");
  }
  std::ostringstream os;
  prof.snapshot().export_text(os);
  const std::string text = os.str();
  EXPECT_NE(text.find("call tree"), std::string::npos);
  EXPECT_NE(text.find("outer"), std::string::npos);
  EXPECT_NE(text.find("  inner"), std::string::npos);
  EXPECT_NE(text.find("flat (by self time)"), std::string::npos);
}

/// Heap allocations (operator new calls) made by fn on this thread.
template <class Fn>
std::size_t news_during(Fn&& fn) {
  g_news = 0;
  g_count_news = true;
  fn();
  g_count_news = false;
  return g_news;
}

// Once its workspace is sized, the controller allocates nothing but what it
// returns: ppo_update() nothing at all, sample() the returned Rollout's three
// vectors.
TEST(Profiler, ControllerAllocatesNothingAtSteadyState) {
  constexpr std::size_t kBatch = 4;
  rl::Controller ctrl(space::nt3_small_space().arities(), 3);
  tensor::Rng rng(1);
  std::vector<rl::Rollout> rolls;
  rolls.reserve(kBatch);
  const std::vector<float> rewards{0.1f, 0.7f, 0.4f, 0.9f};
  Profiler prof;
  const ProfilerInstallGuard guard(&prof);
  const auto cycle = [&](std::size_t& sample_news, std::size_t& update_news) {
    rolls.clear();
    sample_news = update_news = 0;
    for (std::size_t b = 0; b < kBatch; ++b) {
      rl::Rollout roll;
      sample_news += news_during([&] { roll = ctrl.sample(rng); });
      rolls.push_back(std::move(roll));
    }
    update_news = news_during([&] { (void)ctrl.ppo_update(rolls, rewards, {}); });
  };
  std::size_t sample_news = 0, update_news = 0;
  cycle(sample_news, update_news);  // sizes the workspace
  const auto allocs = [&](const char* name) {
    const std::vector<FlatProfileEntry> flat = prof.snapshot().flat();
    const FlatProfileEntry* e = find_entry(flat, name);
    return e == nullptr ? std::uint64_t{0} : e->alloc_count;
  };
  const std::uint64_t sample_before = allocs("rl/sample");
  const std::uint64_t update_before = allocs("rl/ppo_update");
  EXPECT_GT(update_before, 0u);  // the first update grew the workspace
  for (int round = 0; round < 3; ++round) {
    cycle(sample_news, update_news);
    EXPECT_EQ(sample_news, 3 * kBatch) << "round " << round;
    EXPECT_EQ(update_news, 0u) << "round " << round;
  }
  EXPECT_EQ(allocs("rl/sample"), sample_before);
  EXPECT_EQ(allocs("rl/ppo_update"), update_before);
}

/// Allocations the profiler has counted, over every scope.
std::uint64_t profiled_allocs(const Profiler& prof) {
  std::uint64_t total = 0;
  for (const FlatProfileEntry& e : prof.snapshot().flat()) total += e.alloc_count;
  return total;
}

// After one warm-up step has sized every slot, a training step of a built
// model allocates nothing: forward() and backward() write into the graph's
// slots and the layers' scratch.
TEST(Profiler, GraphAllocatesNothingAtSteadyState) {
  constexpr std::size_t kBatch = 16;
  const auto combo = [] {
    data::ComboDims dims;
    dims.train = kBatch;
    dims.valid = 4;
    dims.expression = 12;
    dims.descriptors = 10;
    return data::make_combo(1, dims);
  };
  const auto nt3 = [] {
    data::Nt3Dims dims;
    dims.train = kBatch;
    dims.valid = 4;
    dims.length = 64;
    dims.motif = 6;
    return data::make_nt3(1, dims);
  };
  const auto uno = [] {
    data::UnoDims dims;
    dims.train = kBatch;
    dims.valid = 4;
    dims.rnaseq = 12;
    dims.descriptors = 10;
    dims.fingerprints = 6;
    return data::make_uno(1, dims);
  };
  const std::vector<std::pair<space::SearchSpace, data::Dataset>> cases = {
      {space::combo_small_space(), combo()},
      {space::nt3_small_space(), nt3()},
      {space::uno_small_space(), uno()},
  };
  Profiler prof;
  const ProfilerInstallGuard guard(&prof);
  for (const auto& [sp, ds] : cases) {
    std::vector<std::size_t> dims;
    for (std::size_t i = 0; i < ds.input_count(); ++i) dims.push_back(ds.input_dim(i));
    tensor::Rng arch_rng(3);
    for (int trial = 0; trial < 3; ++trial) {
      const space::ArchEncoding arch = sp.random_arch(arch_rng);
      tensor::Rng init(7);
      nn::Graph g = space::build_model(sp, arch, dims, exec::head_for(ds), init);
      tensor::Rng rng(9);
      nn::ForwardCtx ctx{.training = true, .rng = &rng};
      tensor::Tensor grad;
      const auto step = [&] {
        std::size_t news = news_during([&] {
          g.zero_grad();
          (void)g.forward(ds.x_train, ctx);
        });
        if (grad.empty()) grad = tensor::Tensor(g.forward(ds.x_train, ctx).shape(), 0.25f);
        news += news_during([&] { g.backward(grad); });
        return news;
      };
      EXPECT_GT(step(), 0u);  // the warm-up step sizes the slots
      const std::uint64_t counted = profiled_allocs(prof);
      for (int round = 0; round < 3; ++round) {
        EXPECT_EQ(step(), 0u) << sp.describe(arch) << ", round " << round;
      }
      EXPECT_EQ(profiled_allocs(prof), counted) << sp.describe(arch);  // no slot grew
    }
  }
}

TEST(Telemetry, EnableProfilerIsIdempotentAndFeedsSnapshot) {
  Telemetry tel;
  EXPECT_EQ(tel.profiler(), nullptr);
  EXPECT_TRUE(tel.snapshot().profile.empty());
  Profiler& p1 = tel.enable_profiler();
  Profiler& p2 = tel.enable_profiler();
  EXPECT_EQ(&p1, &p2);
  {
    ProfilerInstallGuard guard(tel.profiler());
    NCNAS_PROF_SCOPE("tel/scope");
  }
  const TelemetrySnapshot snap = tel.snapshot();
  ASSERT_FALSE(snap.profile.empty());
  EXPECT_EQ(snap.profile.roots[0].name, "tel/scope");
  std::ostringstream os;
  tel.export_profile_json(os);
  EXPECT_NE(os.str().find("\"schema_version\""), std::string::npos);
  EXPECT_NE(os.str().find("tel/scope"), std::string::npos);
}

TEST(ChromeTrace, ExportShapeAndEventCountSurvive) {
  const std::vector<JournalEvent> events{
      {JournalEventType::kEvalDispatched, 1.0, 7, 0, {{"duration_s", 0.5}, {"eval \"x\"", 0.25}}},
      {JournalEventType::kPsExchange, 2.25, 3, 1, {{"mode", 0.0}, {"wait_s", 0.25}}},
      {JournalEventType::kEvalFailed, 3.0, 1, 2, {{"attempt", 0.0}}},
  };
  std::ostringstream os;
  export_chrome_trace(events, os);
  const std::string json = os.str();
  EXPECT_EQ(json.rfind("{\"traceEvents\":[", 0), 0u);  // document shape
  EXPECT_TRUE(ncnas::testing::is_valid_json(json)) << json;
  // One record per event: two spans (eval, barrier wait), one instant,
  // payload keys escaped, virtual seconds rendered as microseconds.
  std::size_t spans = 0;
  for (std::size_t at = json.find("\"ph\":\"X\""); at != std::string::npos;
       at = json.find("\"ph\":\"X\"", at + 1)) {
    ++spans;
  }
  EXPECT_EQ(spans, 2u);
  EXPECT_NE(json.find("\"ph\":\"i\""), std::string::npos);
  EXPECT_NE(json.find("eval \\\"x\\\""), std::string::npos);
  EXPECT_NE(json.find("\"name\":\"eval\",\"cat\":\"exec\",\"ph\":\"X\",\"ts\":1000000,"
                      "\"dur\":500000,\"pid\":0,\"tid\":7"),
            std::string::npos)
      << json;
  EXPECT_NE(json.find("\"name\":\"a2c_barrier_wait\",\"cat\":\"ps\",\"ph\":\"X\",\"ts\":2000000,"
                      "\"dur\":250000"),
            std::string::npos)
      << json;
  EXPECT_NE(json.find("\"name\":\"eval_failed\""), std::string::npos);
}

}  // namespace
}  // namespace ncnas::obs
