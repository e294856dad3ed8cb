#include <gtest/gtest.h>

#include "ncnas/nas/parameter_server.hpp"

namespace ncnas::nas {
namespace {

TEST(ParameterServer, AsyncAppliesImmediately) {
  ParameterServer ps({1.0f, 2.0f}, ParameterServer::Mode::kAsync, 3);
  const std::vector<float> delta{0.5f, -1.0f};
  EXPECT_TRUE(ps.submit(0, delta));
  EXPECT_FLOAT_EQ(ps.params()[0], 1.5f);
  EXPECT_FLOAT_EQ(ps.params()[1], 1.0f);
  EXPECT_EQ(ps.updates_applied(), 1u);
}

TEST(ParameterServer, SyncWaitsForAllAgents) {
  ParameterServer ps({0.0f}, ParameterServer::Mode::kSync, 3);
  EXPECT_FALSE(ps.submit(0, std::vector<float>{3.0f}));
  EXPECT_FALSE(ps.submit(1, std::vector<float>{6.0f}));
  EXPECT_FLOAT_EQ(ps.params()[0], 0.0f);  // nothing applied yet
  EXPECT_TRUE(ps.submit(2, std::vector<float>{0.0f}));
  EXPECT_FLOAT_EQ(ps.params()[0], 3.0f);  // mean of {3, 6, 0}
  EXPECT_EQ(ps.updates_applied(), 1u);
}

TEST(ParameterServer, SyncBarrierResetsBetweenRounds) {
  ParameterServer ps({0.0f}, ParameterServer::Mode::kSync, 2);
  EXPECT_FALSE(ps.submit(0, std::vector<float>{2.0f}));
  EXPECT_TRUE(ps.submit(1, std::vector<float>{4.0f}));
  EXPECT_FLOAT_EQ(ps.params()[0], 3.0f);
  // Next round works the same way.
  EXPECT_FALSE(ps.submit(1, std::vector<float>{1.0f}));
  EXPECT_TRUE(ps.submit(0, std::vector<float>{1.0f}));
  EXPECT_FLOAT_EQ(ps.params()[0], 4.0f);
}

TEST(ParameterServer, SyncDoubleSubmitRejected) {
  ParameterServer ps({0.0f}, ParameterServer::Mode::kSync, 2);
  EXPECT_FALSE(ps.submit(0, std::vector<float>{1.0f}));
  EXPECT_THROW((void)ps.submit(0, std::vector<float>{1.0f}), std::logic_error);
}

TEST(ParameterServer, AsyncWindowAveragesRecentDeltas) {
  ParameterServer ps({0.0f}, ParameterServer::Mode::kAsync, 2, /*async_window=*/2);
  (void)ps.submit(0, std::vector<float>{4.0f});  // window {4}: apply 4
  EXPECT_FLOAT_EQ(ps.params()[0], 4.0f);
  (void)ps.submit(1, std::vector<float>{0.0f});  // window {4, 0}: apply 2
  EXPECT_FLOAT_EQ(ps.params()[0], 6.0f);
}

TEST(ParameterServer, ValidatesInput) {
  EXPECT_THROW(ParameterServer({}, ParameterServer::Mode::kAsync, 2), std::invalid_argument);
  EXPECT_THROW(ParameterServer({1.0f}, ParameterServer::Mode::kAsync, 0),
               std::invalid_argument);
  ParameterServer ps({1.0f, 2.0f}, ParameterServer::Mode::kAsync, 2);
  EXPECT_THROW((void)ps.submit(5, std::vector<float>{1.0f, 1.0f}), std::invalid_argument);
  EXPECT_THROW((void)ps.submit(0, std::vector<float>{1.0f}), std::invalid_argument);
}

// ---- failure tolerance (sync mode) -----------------------------------------

TEST(ParameterServer, TryReleaseRequiresTimeoutAndPendingDeltas) {
  ParameterServer ps({0.0f}, ParameterServer::Mode::kSync, 3);
  EXPECT_FALSE(ps.try_release(1e9));  // no timeout configured: waits forever
  ps.set_absent_timeout(120.0);
  EXPECT_FALSE(ps.try_release(1e9));  // nothing pending: nothing to release
}

TEST(ParameterServer, SyncBarrierReleasesAfterAbsentTimeout) {
  ParameterServer ps({0.0f}, ParameterServer::Mode::kSync, 3);
  ps.set_absent_timeout(120.0);
  EXPECT_FALSE(ps.submit(0, std::vector<float>{3.0f}, 10.0));
  EXPECT_FALSE(ps.submit(1, std::vector<float>{9.0f}, 20.0));
  // Agent 2 never reports. The window runs from the latest arrival.
  EXPECT_FALSE(ps.try_release(139.9));
  EXPECT_TRUE(ps.try_release(140.0));
  EXPECT_FLOAT_EQ(ps.params()[0], 6.0f);  // mean of the two that arrived
  EXPECT_EQ(ps.updates_applied(), 1u);
  // The absentee was only late, not dead: the next round still counts it.
  EXPECT_FALSE(ps.submit(2, std::vector<float>{0.0f}, 150.0));
  EXPECT_FALSE(ps.submit(0, std::vector<float>{0.0f}, 151.0));
  EXPECT_TRUE(ps.submit(1, std::vector<float>{3.0f}, 152.0));
  EXPECT_FLOAT_EQ(ps.params()[0], 7.0f);
}

TEST(ParameterServer, DeactivateShrinksBarrier) {
  ParameterServer ps({0.0f}, ParameterServer::Mode::kSync, 3);
  EXPECT_EQ(ps.active_agents(), 3u);
  EXPECT_FALSE(ps.deactivate(2));  // no round pending: nothing released
  EXPECT_EQ(ps.active_agents(), 2u);
  // The barrier now completes with the two survivors.
  EXPECT_FALSE(ps.submit(0, std::vector<float>{2.0f}));
  EXPECT_TRUE(ps.submit(1, std::vector<float>{4.0f}));
  EXPECT_FLOAT_EQ(ps.params()[0], 3.0f);
}

TEST(ParameterServer, DeactivateCompletesPendingRound) {
  ParameterServer ps({0.0f}, ParameterServer::Mode::kSync, 3);
  EXPECT_FALSE(ps.submit(0, std::vector<float>{2.0f}, 5.0));
  EXPECT_FALSE(ps.submit(1, std::vector<float>{6.0f}, 6.0));
  // Agent 2's pool died while the others were parked on the barrier: its
  // removal is what completes the round.
  EXPECT_TRUE(ps.deactivate(2, 7.0));
  EXPECT_FLOAT_EQ(ps.params()[0], 4.0f);  // mean of the arrivals only
  EXPECT_EQ(ps.updates_applied(), 1u);
}

TEST(ParameterServer, DeactivatedAgentMustNotSubmit) {
  ParameterServer ps({0.0f}, ParameterServer::Mode::kSync, 2);
  EXPECT_FALSE(ps.deactivate(0));
  EXPECT_THROW((void)ps.submit(0, std::vector<float>{1.0f}), std::logic_error);
}

TEST(ParameterServer, SyncStateRoundTripMidBarrier) {
  // Save with one delta parked at the barrier: the restored server must
  // complete the round exactly as the original would.
  ParameterServer ps({0.0f, 0.0f}, ParameterServer::Mode::kSync, 3);
  (void)ps.pull(0);
  (void)ps.pull(1);
  EXPECT_FALSE(ps.submit(0, std::vector<float>{3.0f, 6.0f}, 1.0));

  ParameterServer restored({9.0f, 9.0f}, ParameterServer::Mode::kSync, 3);
  restored.import_state(ps.export_state());
  EXPECT_EQ(restored.params(), ps.params());

  for (ParameterServer* p : {&ps, &restored}) {
    EXPECT_FALSE(p->submit(1, std::vector<float>{6.0f, 3.0f}, 2.0));
    EXPECT_TRUE(p->submit(2, std::vector<float>{0.0f, 0.0f}, 3.0));
  }
  EXPECT_EQ(restored.params(), ps.params());
  EXPECT_EQ(restored.updates_applied(), ps.updates_applied());
  EXPECT_FLOAT_EQ(restored.params()[0], 3.0f);  // mean of the three deltas
}

TEST(ParameterServer, AsyncStateRoundTripKeepsWindowAndStaleness) {
  ParameterServer ps({0.0f}, ParameterServer::Mode::kAsync, 2, /*async_window=*/2);
  (void)ps.pull(0);
  (void)ps.submit(0, std::vector<float>{2.0f}, 1.0);
  (void)ps.pull(1);

  ParameterServer restored({5.0f}, ParameterServer::Mode::kAsync, 2, /*async_window=*/2);
  restored.import_state(ps.export_state());
  EXPECT_EQ(restored.params(), ps.params());
  // The next submission is averaged with the recent-delta window carried in
  // the state; both servers must land on the same parameters.
  (void)ps.submit(1, std::vector<float>{4.0f}, 2.0);
  (void)restored.submit(1, std::vector<float>{4.0f}, 2.0);
  EXPECT_EQ(restored.params(), ps.params());
  EXPECT_EQ(restored.updates_applied(), ps.updates_applied());
}

TEST(ParameterServer, ImportRejectsMismatchedShape) {
  ParameterServer ps({0.0f, 0.0f}, ParameterServer::Mode::kSync, 3);
  const ParameterServer::State st = ps.export_state();

  ParameterServer wrong_dim({0.0f}, ParameterServer::Mode::kSync, 3);
  EXPECT_THROW(wrong_dim.import_state(st), std::invalid_argument);
  ParameterServer wrong_agents({0.0f, 0.0f}, ParameterServer::Mode::kSync, 2);
  EXPECT_THROW(wrong_agents.import_state(st), std::invalid_argument);

  // Internally inconsistent states of the right shape: barrier counts that
  // disagree with the flags, a parked delta of the wrong size, and an async
  // window cursor past the window.
  (void)ps.pull(0);
  EXPECT_FALSE(ps.submit(0, std::vector<float>{1.0f, 2.0f}, 1.0));
  const ParameterServer::State mid = ps.export_state();
  ParameterServer sync({0.0f, 0.0f}, ParameterServer::Mode::kSync, 3);
  EXPECT_NO_THROW(sync.import_state(mid));

  ParameterServer::State wrong_pending = mid;
  wrong_pending.pending_count += 1;
  EXPECT_THROW(sync.import_state(wrong_pending), std::invalid_argument);
  ParameterServer::State wrong_active = mid;
  wrong_active.active_count -= 1;
  EXPECT_THROW(sync.import_state(wrong_active), std::invalid_argument);
  ParameterServer::State short_delta = mid;
  short_delta.pending[0].pop_back();
  EXPECT_THROW(sync.import_state(short_delta), std::invalid_argument);

  ParameterServer async({0.0f}, ParameterServer::Mode::kAsync, 2, /*async_window=*/2);
  ParameterServer::State cursor = async.export_state();
  EXPECT_NO_THROW(async.import_state(cursor));
  cursor.recent_next = 2;
  EXPECT_THROW(async.import_state(cursor), std::invalid_argument);
}

}  // namespace
}  // namespace ncnas::nas
