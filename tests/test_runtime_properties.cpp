/// \file test_runtime_properties.cpp
/// \brief Property sweeps over runtime configurations: payload integrity,
/// virtual-clock sanity and size-only cost equivalence must hold for every
/// eager threshold, message size and machine geometry combination.

#include <gtest/gtest.h>

#include <numeric>

#include "simmpi/runtime.hpp"
#include "vmpi/map.hpp"

namespace esp::mpi {
namespace {

struct Config {
  std::uint64_t eager_threshold;
  std::uint64_t message_bytes;
  int cores_per_node;
};

class RuntimePropertyP : public ::testing::TestWithParam<Config> {};

/// Virtual walltime of a two-rank ping-pong of `bytes`, with real buffers
/// or size-only (null buffers).
double pingpong_walltime(const Config& c, bool size_only) {
  RuntimeConfig cfg;
  cfg.eager_threshold = c.eager_threshold;
  cfg.machine.cores_per_node = c.cores_per_node;
  std::vector<ProgramSpec> progs;
  progs.push_back({"pp", 2, [bytes = c.message_bytes, size_only](ProcEnv& env) {
                     std::vector<std::uint8_t> buf(size_only ? 0 : bytes);
                     void* data = size_only ? nullptr : buf.data();
                     const int peer = 1 - env.world_rank;
                     for (int iter = 0; iter < 4; ++iter) {
                       if (env.world_rank == 0) {
                         env.world.send(data, bytes, peer, iter);
                         EXPECT_EQ(env.world.recv(data, bytes, peer, iter).bytes,
                                   bytes);
                       } else {
                         EXPECT_EQ(env.world.recv(data, bytes, peer, iter).bytes,
                                   bytes);
                         env.world.send(data, bytes, peer, iter);
                       }
                     }
                   }});
  Runtime rt(cfg, std::move(progs));
  rt.run();
  return rt.max_walltime();
}

TEST_P(RuntimePropertyP, ExchangeIntegrityAndClockSanity) {
  const auto [eager, bytes, cpn] = GetParam();
  RuntimeConfig cfg;
  cfg.eager_threshold = eager;
  cfg.machine.cores_per_node = cpn;

  std::vector<ProgramSpec> progs;
  progs.push_back({"ring", 6, [bytes = bytes](ProcEnv& env) {
                     const int n = env.world.size();
                     const int r = env.world_rank;
                     std::vector<std::uint8_t> out(bytes), in(bytes);
                     for (std::size_t i = 0; i < bytes; i += 173)
                       out[i] = static_cast<std::uint8_t>(r * 31 + i);

                     double last_clock = 0.0;
                     for (int iter = 0; iter < 4; ++iter) {
                       Request rq = env.world.irecv(in.data(), bytes,
                                                    (r + n - 1) % n, iter);
                       env.world.send(out.data(), bytes, (r + 1) % n, iter);
                       Status st = wait(rq);
                       EXPECT_EQ(st.bytes, bytes);
                       EXPECT_EQ(st.source, (r + n - 1) % n);
                       // Payload provenance (sparse probe).
                       const int src = (r + n - 1) % n;
                       for (std::size_t i = 0; i < bytes; i += 173)
                         ASSERT_EQ(in[i],
                                   static_cast<std::uint8_t>(src * 31 + i));
                       // Virtual clock must be monotone within a rank.
                       const double now = Runtime::self().clock;
                       EXPECT_GE(now, last_clock);
                       last_clock = now;
                       env.world.barrier();
                     }
                   }});
  Runtime rt(cfg, std::move(progs));
  rt.run();
  // Moving real bytes takes virtual time under every configuration.
  EXPECT_GT(rt.max_walltime(), 0.0);
  // Virtual costs never depend on whether bytes physically move: the
  // size-only ping-pong ends at exactly the payload-carrying walltime.
  const double carried = pingpong_walltime(GetParam(), false);
  EXPECT_GT(carried, 0.0);
  EXPECT_EQ(pingpong_walltime(GetParam(), true), carried);
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, RuntimePropertyP,
    ::testing::Values(
        // Always-eager, mixed, always-rendezvous; intra- and inter-node.
        Config{1u << 30, 512, 32}, Config{1u << 30, 512, 1},
        Config{0, 512, 32}, Config{0, 512, 1},
        Config{16 * 1024, 4 * 1024, 32}, Config{16 * 1024, 64 * 1024, 1},
        Config{16 * 1024, 1u << 20, 32}, Config{16 * 1024, 1u << 20, 1},
        Config{1024, 1024, 4}, Config{1024, 1025, 4}),
    [](const auto& info) {
      return "eager" + std::to_string(info.param.eager_threshold) + "_msg" +
             std::to_string(info.param.message_bytes) + "_cpn" +
             std::to_string(info.param.cores_per_node);
    });

TEST(RuntimeProperties, PayloadCapPreservesVirtualCosts) {
  // With a payload copy cap, virtual timing must be unchanged while
  // physical copies shrink; status still reports logical sizes.
  auto run = [](std::uint64_t cap) {
    RuntimeConfig cfg;
    cfg.machine.cores_per_node = 1;
    cfg.payload_copy_cap = cap;
    std::vector<ProgramSpec> progs;
    progs.push_back({"pp", 2, [](ProcEnv& env) {
                       std::vector<std::byte> buf(8u << 20);
                       if (env.world_rank == 0) {
                         env.world.send(buf.data(), buf.size(), 1, 0);
                       } else {
                         Status st =
                             env.world.recv(buf.data(), buf.size(), 0, 0);
                         EXPECT_EQ(st.bytes, 8u << 20);
                       }
                     }});
    Runtime rt(cfg, std::move(progs));
    rt.run();
    return rt.max_walltime();
  };
  const double uncapped = run(~0ull);
  const double capped = run(4096);
  EXPECT_NEAR(uncapped, capped, uncapped * 0.01);
  EXPECT_GT(capped, (8u << 20) / 2.1e9);  // full transfer time charged
}

TEST(RuntimeProperties, SeededRandomMappingIsReproducible) {
  // The Random map policy must produce identical assignments for equal
  // runtime seeds and different ones for different seeds.
  auto collect = [](std::uint64_t seed) {
    std::vector<int> assignment(16, -1);
    std::mutex mu;
    RuntimeConfig cfg;
    cfg.seed = seed;
    std::vector<ProgramSpec> progs;
    progs.push_back(
        {"apps", 16, [&](ProcEnv& env) {
           vmpi::Map m;
           m.map_partitions(env,
                            env.runtime->partition_by_name("Analyzer")->id,
                            vmpi::MapPolicy::Random);
           std::lock_guard lock(mu);
           assignment[static_cast<std::size_t>(env.world_rank)] =
               m.peers().at(0);
         }});
    progs.push_back({"Analyzer", 4, [](ProcEnv& env) {
                       vmpi::Map m;
                       m.map_partitions(
                           env, env.runtime->partition_by_name("apps")->id,
                           vmpi::MapPolicy::Random);
                     }});
    Runtime rt(cfg, std::move(progs));
    rt.run();
    return assignment;
  };
  const auto a = collect(123), b = collect(123), c = collect(999);
  EXPECT_EQ(a, b);
  EXPECT_NE(a, c);
}

}  // namespace
}  // namespace esp::mpi
