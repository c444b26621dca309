/// \file test_executor.cpp
/// \brief The rank executor: ranks run as fibers on one carrier thread per
/// CPU. Results must not depend on how many carriers there are, ranks
/// sharing a carrier must not share per-rank state (stream tags,
/// instrument state, C++ exception state), and a rank polling for its
/// peer on the same carrier must let that peer run.
///
/// A test forces a single carrier by restricting its own thread's CPU
/// affinity (the executor sizes itself from the affinity mask of the
/// thread that calls Runtime::run, and carriers inherit it).

#include <gtest/gtest.h>

#include <sched.h>

#include <exception>
#include <mutex>
#include <stdexcept>
#include <string>
#include <vector>

#include "instrument/online_instrument.hpp"
#include "net/fault.hpp"
#include "simmpi/runtime.hpp"
#include "vmpi/stream.hpp"

namespace esp::mpi {
namespace {

/// Pins the calling thread to the first CPU of its mask while alive, so
/// every Runtime::run in scope gets exactly one carrier.
class OneCarrier {
 public:
  OneCarrier() {
    CPU_ZERO(&saved_);
    sched_getaffinity(0, sizeof saved_, &saved_);
    cpu_set_t one;
    CPU_ZERO(&one);
    for (int c = 0; c < CPU_SETSIZE; ++c) {
      if (CPU_ISSET(c, &saved_)) {
        CPU_SET(c, &one);
        break;
      }
    }
    sched_setaffinity(0, sizeof one, &one);
  }
  ~OneCarrier() { sched_setaffinity(0, sizeof saved_, &saved_); }
  OneCarrier(const OneCarrier&) = delete;
  OneCarrier& operator=(const OneCarrier&) = delete;

 private:
  cpu_set_t saved_;
};

int cpus_in_mask() {
  cpu_set_t set;
  CPU_ZERO(&set);
  sched_getaffinity(0, sizeof set, &set);
  return CPU_COUNT(&set);
}

struct RingResult {
  std::vector<double> clocks;
  std::vector<std::uint64_t> checksums;
  std::uint64_t transfers = 0;
};

/// A 256-rank ring: every iteration each rank computes, sends to its right
/// neighbour (eager and rendezvous sizes alternate) and receives from its
/// left one, then all ranks allreduce a checksum. The machine gives every
/// rank its own node (its NICs and memory engine serve it alone, in
/// program order) and the fat tree a fresh lane for every transfer, so no
/// resource sees requests from two ranks and the virtual results are a
/// function of the program alone — the carrier count must not move them.
/// (With fewer lanes, ranks running ahead in real time take the lanes a
/// lagging rank would find idle: the real-time arrival-order caveat of
/// net/resource.hpp.)
RingResult run_ring() {
  constexpr int kRanks = 256;
  constexpr int kIters = 12;
  RuntimeConfig cfg;
  cfg.machine.cores_per_node = 1;
  // One fat-tree lane per NIC rate, more lanes than the run makes
  // transfers (3,582): every transfer finds a lane that was never used.
  cfg.machine.bisection_bandwidth = cfg.machine.nic_bandwidth * 8192;
  RingResult out;
  out.checksums.assign(kRanks, 0);
  std::vector<ProgramSpec> progs;
  progs.push_back({"ring", kRanks, [&](ProcEnv& env) {
                     const int n = env.world.size();
                     const int me = env.world_rank;
                     const int right = (me + 1) % n;
                     const int left = (me + n - 1) % n;
                     std::uint64_t sum = 0;
                     for (int it = 0; it < kIters; ++it) {
                       compute(2e-6);
                       const std::size_t bytes = it % 2 ? 32 * 1024 : 256;
                       std::vector<std::uint8_t> send(bytes), recv(bytes);
                       for (std::size_t i = 0; i < bytes; ++i)
                         send[i] = static_cast<std::uint8_t>(me * 31 + it + i);
                       Request s =
                           env.world.isend(send.data(), bytes, right, it);
                       const Status st =
                           env.world.recv(recv.data(), bytes, left, it);
                       wait(s);
                       // Kept small: the allreduce sums it as Int64.
                       sum = (sum * 31 + recv[bytes - 1] + st.bytes +
                              static_cast<std::uint64_t>(st.source)) %
                             1000003;
                     }
                     std::uint64_t total = 0;
                     env.world.allreduce(&sum, &total, 1, Datatype::Int64,
                                         ReduceOp::Sum);
                     out.checksums[static_cast<std::size_t>(me)] = total ^ sum;
                   }});
  Runtime rt(cfg, std::move(progs));
  rt.run();
  for (int r = 0; r < kRanks; ++r) out.clocks.push_back(rt.final_clock(r));
  out.transfers = rt.machine().total_transfers();
  return out;
}

TEST(Executor, RingGivesIdenticalResultsOnOneAndManyCarriers) {
  RingResult one;
  {
    OneCarrier pin;
    one = run_ring();
  }
  const RingResult many = run_ring();
  if (cpus_in_mask() < 2)
    GTEST_LOG_(INFO) << "one CPU in the mask: both runs used one carrier";
  EXPECT_EQ(one.transfers, many.transfers);
  EXPECT_EQ(one.checksums, many.checksums);
  ASSERT_EQ(one.clocks.size(), many.clocks.size());
  for (std::size_t r = 0; r < one.clocks.size(); ++r)
    EXPECT_EQ(one.clocks[r], many.clocks[r]) << "rank " << r;
}

TEST(Executor, RanksOnOneCarrierKeepTheirOwnStreamTags) {
  // Two writers each open two streams in turn. A stream's tag is a pure
  // function of (universe rank, the rank's own open index); a counter
  // shared by the ranks of one carrier would hand the second writer the
  // open indexes 2 and 3.
  OneCarrier pin;
  constexpr int kWriters = 2, kOpens = 2;
  std::vector<int> tags(kWriters * kOpens, -1);
  std::vector<ProgramSpec> progs;
  progs.push_back({"w", kWriters, [&](ProcEnv& env) {
                     for (int k = 0; k < kOpens; ++k) {
                       vmpi::Stream st({1024, 2, vmpi::BalancePolicy::None});
                       st.open_peer(env, env.universe_rank + kWriters, "w");
                       tags[static_cast<std::size_t>(env.world_rank * kOpens +
                                                     k)] = st.data_tag();
                       st.close();
                     }
                   }});
  progs.push_back({"r", kWriters, [&](ProcEnv& env) {
                     std::vector<std::byte> block(1024);
                     for (int k = 0; k < kOpens; ++k) {
                       vmpi::Stream st({1024, 2, vmpi::BalancePolicy::None});
                       st.open_peer(env, env.world_rank, "r");
                       while (st.read(block.data(), 1) > 0) {
                       }
                     }
                   }});
  Runtime rt(RuntimeConfig{}, std::move(progs));
  rt.run();
  const int universe = 2 * kWriters;
  for (int w = 0; w < kWriters; ++w)
    for (int k = 0; k < kOpens; ++k)
      EXPECT_EQ(tags[static_cast<std::size_t>(w * kOpens + k)],
                net::kStreamDataTagBase + k * universe + w)
          << "writer " << w << ", open " << k;
}

TEST(Executor, RanksOnOneCarrierKeepTheirOwnInstrumentState) {
  // Rank 1 records one POSIX event and finishes (its instrument state is
  // detached at finalize); only then does rank 0, on the same carrier,
  // record its own. Instrument state shared by the carrier's ranks would
  // have been detached under rank 0 and its event lost.
  OneCarrier pin;
  std::mutex mu;
  std::vector<int> events_of(2, 0);
  std::vector<ProgramSpec> progs;
  progs.push_back({"app", 2, [](ProcEnv& env) {
                     if (env.world_rank == 0) {
                       while (!env.runtime->rank_finished(1))
                         env.universe.piprobe(kAnySource, 99, nullptr);
                     }
                     inst::posix_io(inst::EventKind::PosixWrite, 64, 1e-6);
                   }});
  progs.push_back({"analyzer", 1, [&](ProcEnv& env) {
                     vmpi::Map map;
                     map.map_partitions(env, 0, vmpi::MapPolicy::RoundRobin);
                     vmpi::Stream st(
                         {4096, 2, vmpi::BalancePolicy::RoundRobin});
                     st.open_map(env, map, "r");
                     std::vector<std::byte> block(4096);
                     while (st.read(block.data(), 1) > 0) {
                       const auto v = inst::PackView::parse(block.data(),
                                                            block.size());
                       ASSERT_TRUE(v.valid());
                       std::lock_guard lock(mu);
                       for (const auto& ev : v.span())
                         if (ev.kind == inst::EventKind::PosixWrite)
                           ++events_of.at(static_cast<std::size_t>(ev.rank));
                     }
                   }});
  Runtime rt(RuntimeConfig{}, std::move(progs));
  inst::InstrumentConfig icfg;
  icfg.block_size = 4096;
  auto tool = inst::attach_online_instrumentation(rt, icfg);
  rt.run();
  EXPECT_EQ(tool->totals().events, 2u);
  EXPECT_EQ(events_of, (std::vector<int>{1, 1}));
}

TEST(Executor, PollingRankLetsItsPeerOnTheSameCarrierRun) {
  // Rank 0 runs first and polls for data that rank 1, on the same
  // carrier, has not produced yet: with iprobe, with test, and with a
  // non-blocking stream read (rank 1 writes only once rank 0 has seen
  // kEagain, and polls for that news with iprobe itself). Each empty poll
  // yields, so the other rank runs and every loop ends. A livelock would
  // instead trip the watchdog (no rank publishes progress while the
  // poller spins) and abort.
  OneCarrier pin;
  RuntimeConfig cfg;
  cfg.watchdog_virtual_deadline = 1.0;
  cfg.watchdog_stall_seconds = 5.0;
  constexpr int kPolled = 3;
  int eagains = 0;
  std::vector<ProgramSpec> progs;
  progs.push_back({"pair", 2, [&](ProcEnv& env) {
                     int v = 0;
                     vmpi::Stream st({1024, 2, vmpi::BalancePolicy::None});
                     std::vector<std::byte> block(1024);
                     if (env.world_rank == 0) {
                       Status s;
                       while (!env.world.iprobe(1, 1, &s)) {
                       }
                       env.world.recv(&v, sizeof v, 1, 1);
                       Request r = env.world.irecv(&v, sizeof v, 1, 2);
                       while (!test(r, nullptr)) {
                       }
                       st.open_peer(env, 1, "r");
                       int got = st.read(block.data(), 1, vmpi::kNonblock);
                       EXPECT_EQ(got, vmpi::kEagain);
                       env.world.psend(nullptr, 0, 1, kPolled);
                       while (got == vmpi::kEagain) {
                         ++eagains;
                         got = st.read(block.data(), 1, vmpi::kNonblock);
                       }
                       EXPECT_EQ(got, 1);
                       EXPECT_EQ(st.read(block.data(), 1), 0);
                     } else {
                       compute(1e-3);
                       env.world.send(&v, sizeof v, 0, 1);
                       compute(1e-3);
                       env.world.send(&v, sizeof v, 0, 2);
                       st.open_peer(env, 0, "w");
                       while (!env.world.iprobe(0, kPolled, nullptr)) {
                       }
                       st.write(block.data(), 1);
                       st.close();
                     }
                   }});
  Runtime rt(cfg, std::move(progs));
  rt.run();
  EXPECT_GE(eagains, 1);
  EXPECT_GT(rt.final_clock(1), 2e-3);
}

TEST(Executor, CrashUnwindAndCatchOnOneCarrierKeepExceptionStateApart) {
  // Rank 0 parks inside a catch handler. Rank 1 crashes and, while its
  // stack unwinds, a destructor hands rank 0 a message and parks too, so
  // the two switch back and forth with live exception state on both
  // sides. Each must see only its own: rank 0 its caught exception and no
  // uncaught one, rank 1 one uncaught exception and nothing caught.
  OneCarrier pin;
  RuntimeConfig cfg;
  cfg.faults.crashes.push_back({.world_rank = 1, .after_calls = 0});
  constexpr int kUnwinding = 1, kResume = 2;
  int r0_uncaught = -1, r0_after = -1;
  std::string r0_rethrown;
  bool r0_current_after = true;
  int r1_uncaught_before = -1, r1_uncaught_after = -1;
  bool r1_current = true;

  struct Unwinder {
    ProcEnv& env;
    int& before;
    int& after;
    bool& current;
    ~Unwinder() {
      before = std::uncaught_exceptions();
      current = std::current_exception() != nullptr;
      env.world.psend(nullptr, 0, 0, kUnwinding);
      env.world.precv(nullptr, 0, 0, kResume);  // parks mid-unwind
      after = std::uncaught_exceptions();
    }
  };

  std::vector<ProgramSpec> progs;
  progs.push_back({"pair", 2, [&](ProcEnv& env) {
                     if (env.world_rank == 0) {
                       try {
                         throw std::runtime_error("rank 0's own");
                       } catch (const std::runtime_error&) {
                         env.world.precv(nullptr, 0, 1, kUnwinding);
                         r0_uncaught = std::uncaught_exceptions();
                         try {
                           throw;
                         } catch (const std::runtime_error& e) {
                           r0_rethrown = e.what();
                         }
                         env.world.psend(nullptr, 0, 1, kResume);
                       }
                       r0_after = std::uncaught_exceptions();
                       r0_current_after = std::current_exception() != nullptr;
                     } else {
                       Unwinder u{env, r1_uncaught_before, r1_uncaught_after,
                                  r1_current};
                       compute(1e-6);  // the crash point
                     }
                   }});
  Runtime rt(cfg, std::move(progs));
  rt.run();
  ASSERT_EQ(rt.deaths().size(), 1u);
  EXPECT_EQ(rt.deaths()[0].world_rank, 1);
  EXPECT_EQ(r0_uncaught, 0);
  EXPECT_EQ(r0_rethrown, "rank 0's own");
  EXPECT_EQ(r0_after, 0);
  EXPECT_FALSE(r0_current_after);
  EXPECT_EQ(r1_uncaught_before, 1);
  EXPECT_EQ(r1_uncaught_after, 1);
  EXPECT_FALSE(r1_current);
}

}  // namespace
}  // namespace esp::mpi
