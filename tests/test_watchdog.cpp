/// \file test_watchdog.cpp
/// \brief Session-watchdog death tests: a wedged or runaway session must
/// abort loudly with a per-rank progress dump instead of hanging until an
/// outer (ctest/CI) timeout kills it silently. Covers both triggers —
/// ESP_SESSION_DEADLINE (virtual-time deadline) and ESP_SESSION_STALL
/// (real-time stall with no rank making progress) — and the dump
/// contents: the firing reason, the per-rank clock/call lines, and each
/// rank's executor state (running, ready, or what it is parked on).
///
/// Uses gtest's fast death-test style: the parent process never launches
/// a Session (and so never starts carrier threads); the statement under
/// EXPECT_DEATH runs in the forked child, which inherits the environment
/// set immediately before.

#include <gtest/gtest.h>

#include <cstdlib>
#include <vector>

#include "core/session.hpp"

namespace esp {
namespace {

/// Runaway workload: the virtual clock races ahead forever, so the
/// virtual-time deadline is crossed while ranks keep "running".
void run_runaway_session() {
  SessionConfig cfg;
  Session session(cfg);
  session.add_application("hot", 2, [](mpi::ProcEnv&) {
    for (;;) mpi::compute(1.0);  // virtual frontier blows past any deadline
  });
  session.run();
}

/// Wedged workload: rank 0 blocks on a receive no one will ever match, so
/// neither clocks nor call counts move — the stall trigger must fire.
void run_wedged_session() {
  SessionConfig cfg;
  Session session(cfg);
  session.add_application("stuck", 2, [](mpi::ProcEnv& env) {
    if (env.world_rank == 0) {
      std::vector<std::byte> buf(64);
      env.world.recv(buf.data(), buf.size(), 1, /*tag=*/12345);  // no sender
    }
  });
  session.run();
}

/// Cooperative deadlock: each rank parks in a receive only the other
/// could satisfy. The stall dump must name both parked requests.
void run_mutual_recv_session() {
  SessionConfig cfg;
  Session session(cfg);
  session.add_application("pair", 2, [](mpi::ProcEnv& env) {
    int v = 0;
    env.world.recv(&v, sizeof v, 1 - env.world_rank, /*tag=*/4);
  });
  session.run();
}

class WatchdogDeath : public testing::Test {
 protected:
  void TearDown() override {
    ::unsetenv("ESP_SESSION_DEADLINE");
    ::unsetenv("ESP_SESSION_STALL");
  }
};

TEST_F(WatchdogDeath, VirtualDeadlineAbortsWithReason) {
  ::setenv("ESP_SESSION_DEADLINE", "0.01", 1);
  EXPECT_DEATH(run_runaway_session(),
               "session watchdog fired "
               "\\(virtual-time deadline exceeded\\)");
}

TEST_F(WatchdogDeath, VirtualDeadlineDumpListsPerRankProgress) {
  ::setenv("ESP_SESSION_DEADLINE", "0.01", 1);
  // The dump names every rank with partition-relative identity, its
  // virtual clock and p-layer call count, and its liveness state.
  EXPECT_DEATH(run_runaway_session(), "rank 0 \\(hot/0\\): clock=");
  EXPECT_DEATH(run_runaway_session(), "clock=[0-9.]+s calls=[0-9]+ running");
}

TEST_F(WatchdogDeath, RealTimeStallAbortsWithReason) {
  // Arm the watchdog with a far-away virtual deadline (the stall trigger
  // is only live alongside it) and a short real-time stall window.
  ::setenv("ESP_SESSION_DEADLINE", "1e6", 1);
  ::setenv("ESP_SESSION_STALL", "0.5", 1);
  EXPECT_DEATH(run_wedged_session(),
               "session watchdog fired \\(no progress \\(stalled\\)\\)");
}

TEST_F(WatchdogDeath, StallDumpShowsTheWedgedRank) {
  ::setenv("ESP_SESSION_DEADLINE", "1e6", 1);
  ::setenv("ESP_SESSION_STALL", "0.5", 1);
  EXPECT_DEATH(run_wedged_session(), "rank 0 \\(stuck/0\\): clock=");
}

TEST_F(WatchdogDeath, StallDumpNamesEachParkedRequest) {
  ::setenv("ESP_SESSION_DEADLINE", "1e6", 1);
  // Long enough that both ranks have parked before the stall is judged,
  // even on a loaded host.
  ::setenv("ESP_SESSION_STALL", "2", 1);
  // Per rank, after the progress fields, the executor state: here the
  // request each rank is parked on (peer world rank and tag). Then one
  // line per carrier thread, every one idle since every rank waits.
  EXPECT_DEATH(run_mutual_recv_session(),
               "rank 0 \\(pair/0\\): clock=[0-9.]+s calls=[0-9]+ running; "
               "parked on request \\(recv from rank 1, tag 4\\)\n"
               "  rank 1 \\(pair/1\\): clock=[0-9.]+s calls=[0-9]+ running; "
               "parked on request \\(recv from rank 0, tag 4\\)\n"
               "(.|\n)*executor carriers:\n"
               "  carrier 0 \\(ranks [0-9,-]+\\): idle");
}

TEST(Watchdog, DisabledByDefaultSessionsComplete) {
  // No ESP_SESSION_* in the environment: the watchdog never arms and a
  // normal short session completes untouched.
  SessionConfig cfg;
  Session session(cfg);
  session.add_application("ok", 2, [](mpi::ProcEnv&) { mpi::compute(1e-4); });
  auto results = session.run();
  ASSERT_NE(results, nullptr);
  EXPECT_DOUBLE_EQ(session.runtime().config().watchdog_virtual_deadline, 0.0);
}

}  // namespace
}  // namespace esp
