// Test helpers for searches whose trainings are still running when the
// driver reads its caches: a tiny search space whose agents keep sampling
// the same architectures, a one-thread pool held shut until the test opens
// it, and field-by-field comparisons of two search results and of two
// journals.
#pragma once

#include <gtest/gtest.h>

#include <bit>
#include <chrono>
#include <future>
#include <string>
#include <vector>

#include "ncnas/nas/driver.hpp"
#include "ncnas/obs/journal.hpp"
#include "ncnas/space/search_space.hpp"
#include "ncnas/tensor/thread_pool.hpp"

namespace ncnas::pending {

/// Two binary decisions, so four architectures: agents sample the same ones
/// from their first batch on, and caches hit while trainings are pending.
inline space::SearchSpace four_arch_space() {
  using namespace ncnas::space;
  Structure s;
  s.name = "four-arch";
  s.input_names = {"x"};
  Cell cell{"C0", {}};
  Block block{"B0", SkipRef::to_input(0), {}};
  block.nodes.emplace_back(
      VariableNode{"width", {DenseOp{8, nn::Act::kRelu}, DenseOp{16, nn::Act::kRelu}}});
  block.nodes.emplace_back(VariableNode{"tail", {IdentityOp{}, DenseOp{8, nn::Act::kTanh}}});
  cell.blocks.push_back(std::move(block));
  s.cells.push_back(std::move(cell));
  s.output_cells = {0};
  return SearchSpace(std::move(s));
}

/// A one-thread pool whose thread is held until open(), so every training
/// submitted before then is still pending. The hold gives up after a minute,
/// so a test that never opens the gate fails instead of hanging.
class GatedPool {
 public:
  GatedPool() {
    (void)pool_.submit([gate = gate_.get_future().share()] {
      (void)gate.wait_for(std::chrono::minutes(1));
    });
  }
  ~GatedPool() { open(); }
  GatedPool(const GatedPool&) = delete;
  GatedPool& operator=(const GatedPool&) = delete;

  void open() {
    if (opened_) return;
    opened_ = true;
    gate_.set_value();
  }
  [[nodiscard]] tensor::ThreadPool* pool() noexcept { return &pool_; }

 private:
  std::promise<void> gate_;
  bool opened_ = false;
  tensor::ThreadPool pool_{1};
};

/// How many events a journal holds before its first harvest event
/// (eval_finished or eval_cached): everything the first dispatch round
/// journals. A journal subscriber that opens a GatedPool after this many
/// events keeps every training of that round pending until the round ends.
inline std::size_t events_before_first_harvest(const std::vector<obs::JournalEvent>& journal) {
  std::size_t n = 0;
  for (const obs::JournalEvent& e : journal) {
    if (e.type == obs::JournalEventType::kEvalFinished ||
        e.type == obs::JournalEventType::kEvalCached) {
      break;
    }
    ++n;
  }
  return n;
}

/// Opens `gate` once `journal` holds `open_after` events (at once when 0).
/// Subscribers run on the emitting thread, so the gate opens at that exact
/// point of the driver's event sequence.
inline void open_after_events(obs::Journal& journal, GatedPool& gate, std::size_t open_after) {
  if (open_after == 0) gate.open();
  journal.subscribe([&gate, open_after, seen = std::size_t{0}](const obs::JournalEvent&) mutable {
    if (++seen == open_after) gate.open();
  });
}

/// The records each agent harvested from its first batch (its first `batch`
/// records; an agent's batches never overlap in time).
inline std::vector<nas::EvalRecord> first_batches(const nas::SearchResult& r, std::size_t batch) {
  std::vector<std::size_t> taken;
  std::vector<nas::EvalRecord> out;
  for (const nas::EvalRecord& e : r.evals) {
    if (e.agent >= taken.size()) taken.resize(e.agent + 1, 0);
    if (taken[e.agent]++ < batch) out.push_back(e);
  }
  return out;
}

/// Every record field and every counter the search computed, compared
/// bit for bit.
inline void expect_same_search(const nas::SearchResult& a, const nas::SearchResult& b) {
  ASSERT_EQ(a.evals.size(), b.evals.size());
  for (std::size_t i = 0; i < a.evals.size(); ++i) {
    SCOPED_TRACE("record " + std::to_string(i));
    const nas::EvalRecord& x = a.evals[i];
    const nas::EvalRecord& y = b.evals[i];
    EXPECT_EQ(std::bit_cast<std::uint64_t>(x.time), std::bit_cast<std::uint64_t>(y.time));
    EXPECT_EQ(std::bit_cast<std::uint32_t>(x.reward), std::bit_cast<std::uint32_t>(y.reward));
    EXPECT_EQ(x.params, y.params);
    EXPECT_EQ(std::bit_cast<std::uint64_t>(x.sim_duration),
              std::bit_cast<std::uint64_t>(y.sim_duration));
    EXPECT_EQ(x.cache_hit, y.cache_hit);
    EXPECT_EQ(x.shared_hit, y.shared_hit);
    EXPECT_EQ(x.timed_out, y.timed_out);
    EXPECT_EQ(x.failed, y.failed);
    EXPECT_EQ(x.agent, y.agent);
    EXPECT_EQ(x.attempts, y.attempts);
    EXPECT_EQ(x.rung, y.rung);
    EXPECT_EQ(x.arch, y.arch);
    EXPECT_FALSE(y.training.valid());
  }
  EXPECT_EQ(a.end_time, b.end_time);
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
  EXPECT_EQ(a.checkpoints_written, b.checkpoints_written);
  EXPECT_EQ(a.resumes, b.resumes);
  EXPECT_EQ(a.ladder_trainings, b.ladder_trainings);
  EXPECT_EQ(a.ladder_promotions, b.ladder_promotions);
  EXPECT_EQ(a.ladder_warm_starts, b.ladder_warm_starts);
  EXPECT_EQ(a.ladder_rung_hits, b.ladder_rung_hits);
  EXPECT_EQ(a.utilization, b.utilization);
}

/// Same events in the same order with the same payloads, except the host
/// training time, which no two runs share.
inline void expect_same_journal(const std::vector<obs::JournalEvent>& a,
                                const std::vector<obs::JournalEvent>& b) {
  ASSERT_EQ(a.size(), b.size());
  const auto virtual_fields = [](const obs::JournalEvent& e) {
    std::vector<std::pair<std::string, std::uint64_t>> out;
    for (const obs::JournalField& f : e.payload) {
      if (f.key != "train_wall_ms") out.emplace_back(f.key, std::bit_cast<std::uint64_t>(f.value));
    }
    return out;
  };
  for (std::size_t i = 0; i < a.size(); ++i) {
    SCOPED_TRACE("event " + std::to_string(i));
    EXPECT_EQ(a[i].type, b[i].type);
    EXPECT_EQ(std::bit_cast<std::uint64_t>(a[i].t), std::bit_cast<std::uint64_t>(b[i].t));
    EXPECT_EQ(a[i].agent, b[i].agent);
    EXPECT_EQ(a[i].seq, b[i].seq);
    EXPECT_EQ(virtual_fields(a[i]), virtual_fields(b[i]));
  }
}

}  // namespace ncnas::pending
