/// \file test_simmpi.cpp
/// \brief Unit tests for the esp::mpi runtime: point-to-point semantics,
/// wildcards, nonblocking completion, virtual-clock behaviour, and the
/// tool chain.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <bit>
#include <numeric>
#include <vector>

#include "simmpi/runtime.hpp"

namespace esp::mpi {
namespace {

RuntimeConfig small_config() {
  RuntimeConfig cfg;
  cfg.machine = net::MachineConfig::tera100();
  return cfg;
}

/// Run `n` ranks of a single program.
void run_spmd(int n, ProgramMain main, RuntimeConfig cfg = small_config()) {
  std::vector<ProgramSpec> progs;
  progs.push_back({"test", n, std::move(main)});
  Runtime rt(std::move(cfg), std::move(progs));
  rt.run();
}

TEST(SimMpi, WorldRankAndSize) {
  std::atomic<int> visits{0};
  run_spmd(4, [&](ProcEnv& env) {
    EXPECT_EQ(env.world.size(), 4);
    EXPECT_EQ(env.world.rank(), env.world_rank);
    EXPECT_EQ(env.universe.rank(), env.universe_rank);
    visits.fetch_add(1);
  });
  EXPECT_EQ(visits.load(), 4);
}

TEST(SimMpi, BlockingSendRecvDeliversPayload) {
  run_spmd(2, [](ProcEnv& env) {
    if (env.world_rank == 0) {
      std::vector<int> data(256);
      std::iota(data.begin(), data.end(), 7);
      env.world.send(data.data(), data.size() * sizeof(int), 1, 42);
    } else {
      std::vector<int> data(256, 0);
      Status st = env.world.recv(data.data(), data.size() * sizeof(int), 0, 42);
      EXPECT_EQ(st.source, 0);
      EXPECT_EQ(st.tag, 42);
      EXPECT_EQ(st.bytes, 256u * sizeof(int));
      for (int i = 0; i < 256; ++i) EXPECT_EQ(data[static_cast<size_t>(i)], 7 + i);
    }
  });
}

TEST(SimMpi, RendezvousLargeMessage) {
  // Above the eager threshold the sender must still complete and the
  // payload must arrive intact.
  run_spmd(2, [](ProcEnv& env) {
    const std::size_t n = 1 << 20;  // 1 MiB > 16 KiB threshold
    if (env.world_rank == 0) {
      std::vector<std::uint8_t> data(n);
      for (std::size_t i = 0; i < n; ++i)
        data[i] = static_cast<std::uint8_t>(i * 131);
      env.world.send(data.data(), n, 1, 0);
    } else {
      std::vector<std::uint8_t> data(n, 0);
      env.world.recv(data.data(), n, 0, 0);
      for (std::size_t i = 0; i < n; i += 4097)
        ASSERT_EQ(data[i], static_cast<std::uint8_t>(i * 131));
    }
  });
}

TEST(SimMpi, AnySourceAnyTag) {
  run_spmd(3, [](ProcEnv& env) {
    if (env.world_rank != 0) {
      int v = env.world_rank * 100;
      env.world.send(&v, sizeof v, 0, env.world_rank);
    } else {
      int seen[2] = {0, 0};
      for (int i = 0; i < 2; ++i) {
        int v = 0;
        Status st = env.world.recv(&v, sizeof v, kAnySource, kAnyTag);
        EXPECT_EQ(v, st.source * 100);
        EXPECT_EQ(st.tag, st.source);
        seen[st.source - 1]++;
      }
      EXPECT_EQ(seen[0], 1);
      EXPECT_EQ(seen[1], 1);
    }
  });
}

TEST(SimMpi, NonblockingRoundtrip) {
  run_spmd(2, [](ProcEnv& env) {
    int out = env.world_rank + 1;
    int in = -1;
    const int peer = 1 - env.world_rank;
    Request r = env.world.irecv(&in, sizeof in, peer, 5);
    Request s = env.world.isend(&out, sizeof out, peer, 5);
    Status st = wait(r);
    wait(s);
    EXPECT_EQ(in, peer + 1);
    EXPECT_EQ(st.source, peer);
  });
}

TEST(SimMpi, MessageOrderingPerPair) {
  run_spmd(2, [](ProcEnv& env) {
    constexpr int kN = 50;
    if (env.world_rank == 0) {
      for (int i = 0; i < kN; ++i) env.world.send(&i, sizeof i, 1, 9);
    } else {
      for (int i = 0; i < kN; ++i) {
        int v = -1;
        env.world.recv(&v, sizeof v, 0, 9);
        ASSERT_EQ(v, i) << "FIFO order violated";
      }
    }
  });
}

TEST(SimMpi, ClockAdvancesWithTraffic) {
  std::vector<ProgramSpec> progs;
  progs.push_back({"test", 2, [](ProcEnv& env) {
                     std::vector<char> buf(1 << 20);
                     if (env.world_rank == 0) {
                       env.world.send(buf.data(), buf.size(), 1, 0);
                     } else {
                       env.world.recv(buf.data(), buf.size(), 0, 0);
                     }
                   }});
  RuntimeConfig cfg = small_config();
  cfg.machine.cores_per_node = 1;  // force the inter-node (NIC) path
  Runtime rt(cfg, std::move(progs));
  rt.run();
  // 1 MiB across nodes at 1.25 GB/s is ~0.8 ms; clocks must reflect it.
  EXPECT_GT(rt.final_clock(1), 500e-6);
  EXPECT_LT(rt.final_clock(1), 50e-3);
}

TEST(SimMpi, ComputeAdvancesClock) {
  std::vector<ProgramSpec> progs;
  progs.push_back({"test", 1, [](ProcEnv&) { compute(0.25); }});
  Runtime rt(small_config(), std::move(progs));
  rt.run();
  EXPECT_DOUBLE_EQ(rt.final_clock(0), 0.25);
}

TEST(SimMpi, IprobeSeesPendingMessage) {
  run_spmd(2, [](ProcEnv& env) {
    if (env.world_rank == 0) {
      int v = 77;
      env.world.send(&v, sizeof v, 1, 3);
      env.world.barrier();
    } else {
      env.world.barrier();  // after this, the eager message is queued
      Status st;
      // Poll: the matching engine is asynchronous in real time.
      while (!env.world.iprobe(0, 3, &st)) {
      }
      EXPECT_EQ(st.source, 0);
      EXPECT_EQ(st.tag, 3);
      EXPECT_EQ(st.bytes, sizeof(int));
      int v = 0;
      env.world.recv(&v, sizeof v, 0, 3);
      EXPECT_EQ(v, 77);
    }
  });
}

TEST(SimMpi, ToolChainSeesCalls) {
  struct Counter : Tool {
    std::atomic<int> sends{0}, recvs{0};
    void on_call(RankContext&, const CallInfo& ci) override {
      if (ci.kind == CallKind::Send) sends.fetch_add(1);
      if (ci.kind == CallKind::Recv) recvs.fetch_add(1);
    }
  };
  auto counter = std::make_shared<Counter>();
  std::vector<ProgramSpec> progs;
  progs.push_back({"test", 2, [](ProcEnv& env) {
                     int v = 1;
                     if (env.world_rank == 0)
                       env.world.send(&v, sizeof v, 1, 0);
                     else
                       env.world.recv(&v, sizeof v, 0, 0);
                   }});
  Runtime rt(small_config(), std::move(progs));
  rt.tools().attach(counter);
  rt.run();
  EXPECT_EQ(counter->sends.load(), 1);
  EXPECT_EQ(counter->recvs.load(), 1);
}

TEST(SimMpi, ToolPartitionFilter) {
  struct Counter : Tool {
    std::atomic<int> calls{0};
    void on_call(RankContext&, const CallInfo&) override { calls.fetch_add(1); }
  };
  auto only_a = std::make_shared<Counter>();
  std::vector<ProgramSpec> progs;
  auto body = [](ProcEnv& env) { env.world.barrier(); };
  progs.push_back({"a", 2, body});
  progs.push_back({"b", 2, body});
  Runtime rt(small_config(), std::move(progs));
  rt.tools().attach(only_a, 0);
  rt.run();
  EXPECT_EQ(only_a->calls.load(), 2);  // one Barrier call per rank of "a"
}

TEST(SimMpi, PartitionDescriptors) {
  std::vector<ProgramSpec> progs;
  progs.push_back({"app", 3, [](ProcEnv& env) {
                     const auto* an =
                         env.runtime->partition_by_name("analyzer");
                     ASSERT_NE(an, nullptr);
                     EXPECT_EQ(an->size, 2);
                     EXPECT_EQ(an->first_world_rank, 3);
                     EXPECT_EQ(env.partition->name, "app");
                   }});
  progs.push_back({"analyzer", 2, [](ProcEnv& env) {
                     EXPECT_EQ(env.world.size(), 2);
                     EXPECT_EQ(env.universe.size(), 5);
                   }});
  Runtime rt(small_config(), std::move(progs));
  rt.run();
}

TEST(SimMpi, UniverseSpansPartitionsAndWorldIsVirtualized) {
  // Cross-partition traffic over the universe communicator; the partition
  // "world" communicators are fully isolated message namespaces.
  std::vector<ProgramSpec> progs;
  progs.push_back({"a", 1, [](ProcEnv& env) {
                     int v = 123;
                     env.universe.send(&v, sizeof v, 1, 0);
                   }});
  progs.push_back({"b", 1, [](ProcEnv& env) {
                     int v = 0;
                     env.universe.recv(&v, sizeof v, 0, 0);
                     EXPECT_EQ(v, 123);
                     EXPECT_EQ(env.world.rank(), 0);  // virtualized world
                     EXPECT_EQ(env.universe.rank(), 1);
                   }});
  Runtime rt(small_config(), std::move(progs));
  rt.run();
}

TEST(SimMpi, EagerSendDoesNotBlockWithoutReceiver) {
  // An eager-size send must complete even though the receive is posted
  // much later (after a barrier among other ranks would deadlock a
  // rendezvous-only implementation).
  run_spmd(2, [](ProcEnv& env) {
    if (env.world_rank == 0) {
      int v = 5;
      env.world.send(&v, sizeof v, 1, 1);  // completes eagerly
      int w = 0;
      env.world.recv(&w, sizeof w, 1, 2);
      EXPECT_EQ(w, 6);
    } else {
      int w = 6;
      env.world.send(&w, sizeof w, 0, 2);
      int v = 0;
      env.world.recv(&v, sizeof v, 0, 1);
      EXPECT_EQ(v, 5);
    }
  });
}

/// Run one rank-0 -> rank-1 message of `bytes` with either side size-only
/// (null buffer), the send or the receive posted first. Returns the bytes
/// the tool chain saw on the two Wait calls.
std::uint64_t size_only_exchange(std::uint64_t bytes, bool null_send,
                                 bool null_recv, bool send_first) {
  struct WaitBytes : Tool {
    std::atomic<std::uint64_t> bytes{0};
    void on_call(RankContext&, const CallInfo& ci) override {
      if (ci.kind == CallKind::Wait) bytes.fetch_add(ci.bytes);
    }
  };
  auto seen = std::make_shared<WaitBytes>();
  std::vector<ProgramSpec> progs;
  progs.push_back({"test", 2, [=](ProcEnv& env) {
                     constexpr std::byte kFill{0xab}, kSent{0x01};
                     const bool sender = env.world_rank == 0;
                     std::vector<std::byte> buf(bytes, sender ? kSent : kFill);
                     // The barrier orders the two posts in real time, so
                     // the second poster is the one that closes the match.
                     const bool post_first = sender == send_first;
                     if (!post_first) env.world.barrier();
                     Request rq =
                         sender ? env.world.isend(null_send ? nullptr
                                                            : buf.data(),
                                                  bytes, 1, 3)
                                : env.world.irecv(null_recv ? nullptr
                                                            : buf.data(),
                                                  bytes, 0, 3);
                     if (post_first) env.world.barrier();
                     const Status st = wait(rq);
                     EXPECT_EQ(st.bytes, bytes);
                     EXPECT_EQ(st.tag, 3);
                     if (sender || null_recv) return;
                     EXPECT_EQ(st.source, 0);
                     // A null sender leaves a real receive buffer untouched.
                     const std::byte want = null_send ? kFill : kSent;
                     EXPECT_EQ(std::count(buf.begin(), buf.end(), want),
                               static_cast<std::ptrdiff_t>(bytes));
                   }});
  Runtime rt(small_config(), std::move(progs));
  rt.tools().attach(seen);
  rt.run();
  return seen->bytes.load();
}

TEST(SimMpi, SizeOnlyPointToPoint) {
  // Eager and rendezvous, send-first and recv-first, null on either or
  // both sides: every status and tool record carries the logical size.
  for (const std::uint64_t bytes : {std::uint64_t{512}, std::uint64_t{1} << 20})
    for (const bool send_first : {true, false})
      for (const auto& [null_send, null_recv] :
           {std::pair{true, false}, std::pair{false, true},
            std::pair{true, true}}) {
        SCOPED_TRACE(::testing::Message()
                     << "bytes=" << bytes << " send_first=" << send_first
                     << " null_send=" << null_send
                     << " null_recv=" << null_recv);
        EXPECT_EQ(size_only_exchange(bytes, null_send, null_recv, send_first),
                  2 * bytes);
      }
}

TEST(SimMpi, CorruptDecisionOnSizeOnlyMessageFlipsNothing) {
  // Every 0 -> 1 message draws a corrupt decision. A size-only message
  // has no delivered copy to flip; a real-to-real control message does.
  RuntimeConfig cfg = small_config();
  cfg.faults.scope = net::FaultScope::AllTraffic;
  cfg.faults.links.push_back(
      {.src_world = 0, .dst_world = 1, .corrupt_probability = 1.0});
  std::vector<ProgramSpec> progs;
  progs.push_back({"test", 2, [](ProcEnv& env) {
                     const std::uint64_t sizes[] = {512, 1u << 20};
                     if (env.world_rank == 0) {
                       std::vector<std::byte> real(1u << 20);
                       for (const auto n : sizes) {
                         env.world.send(nullptr, n, 1, 1);      // size-only
                         env.world.send(real.data(), n, 1, 2);  // null recv
                         env.world.send(real.data(), n, 1, 3);  // control
                       }
                       return;
                     }
                     for (const auto n : sizes) {
                       std::vector<std::byte> buf(n);
                       EXPECT_EQ(env.world.recv(buf.data(), n, 0, 1).bytes, n);
                       EXPECT_EQ(std::count(buf.begin(), buf.end(),
                                            std::byte{0}),
                                 static_cast<std::ptrdiff_t>(n));
                       EXPECT_EQ(env.world.recv(nullptr, n, 0, 2).bytes, n);
                       env.world.recv(buf.data(), n, 0, 3);
                       EXPECT_EQ(std::count(buf.begin(), buf.end(),
                                            std::byte{0}),
                                 static_cast<std::ptrdiff_t>(n) - 1);
                     }
                   }});
  Runtime rt(cfg, std::move(progs));
  rt.run();
  EXPECT_EQ(rt.injector().stats().messages_corrupted, 6u);
}

TEST(SimMpi, AlltoallAcceptsNullBuffers) {
  // Size-only all-to-all: null in and/or out never touches memory, and a
  // real out buffer fed by null senders stays as it was.
  struct AlltoallBytes : Tool {
    std::atomic<std::uint64_t> bytes{0};
    void on_call(RankContext&, const CallInfo& ci) override {
      if (ci.kind == CallKind::Alltoall) bytes.fetch_add(ci.bytes);
    }
  };
  auto seen = std::make_shared<AlltoallBytes>();
  constexpr std::uint64_t kEach = 4096;
  std::vector<ProgramSpec> progs;
  progs.push_back({"test", 4, [](ProcEnv& env) {
                     std::vector<std::byte> real(4 * kEach, std::byte{0x5a});
                     env.world.alltoall(nullptr, kEach, nullptr);
                     env.world.alltoall(nullptr, kEach, real.data());
                     env.world.alltoall(real.data(), kEach, nullptr);
                     EXPECT_EQ(std::count(real.begin(), real.end(),
                                          std::byte{0x5a}),
                               static_cast<std::ptrdiff_t>(real.size()));
                     EXPECT_GT(Runtime::self().clock, 0.0);
                   }});
  Runtime rt(small_config(), std::move(progs));
  rt.tools().attach(seen);
  rt.run();
  EXPECT_EQ(seen->bytes.load(), 3u * 4 * 4 * kEach);  // 3 calls x 4 ranks
}

/// One rank-0 -> rank-1 rendezvous message sent with the donated pisend
/// overload. The buffers live outside the ranks so both can be inspected
/// after the run: a storage exchange shows as the receiver's buffer
/// holding the sender's original storage.
struct Donation {
  std::uint64_t bytes = 64 * 1024;  // rendezvous: above the eager threshold
  std::size_t send_cap = 64 * 1024, send_size = 64 * 1024;
  std::size_t recv_cap = 64 * 1024, recv_size = 64 * 1024;
  bool send_view = false, recv_view = false, raw_recv = false;
  bool send_first = true;
  std::uint64_t copy_cap = ~0ull;
  bool corrupt = false;

  BufferRef sent, received;
  const std::byte* sent_storage = nullptr;
  const std::byte* recv_storage = nullptr;

  bool exchanged() const {
    return received->data() == sent_storage && sent->data() == recv_storage;
  }
};

constexpr std::byte kRecvFill{0xee};
std::byte donation_byte(std::size_t i) {
  return static_cast<std::byte>((i * 7 + 1) & 0xffu);
}

BufferRef donation_side(std::size_t cap, std::size_t size, bool view) {
  auto b = Buffer::make(cap);
  b->resize(size);
  return view ? Buffer::view_of(b, 0, size) : b;
}

void run_donation(Donation& d) {
  d.sent = donation_side(d.send_cap, d.send_size, d.send_view);
  d.received = donation_side(d.recv_cap, d.recv_size, d.recv_view);
  for (std::size_t i = 0; i < d.sent->size(); ++i)
    d.sent->data()[i] = donation_byte(i);
  std::fill_n(d.received->data(), d.received->size(), kRecvFill);
  d.sent_storage = d.sent->data();
  d.recv_storage = d.received->data();
  RuntimeConfig cfg = small_config();
  cfg.payload_copy_cap = d.copy_cap;
  if (d.corrupt) {
    cfg.faults.scope = net::FaultScope::AllTraffic;
    cfg.faults.links.push_back(
        {.src_world = 0, .dst_world = 1, .corrupt_probability = 1.0});
  }
  std::vector<ProgramSpec> progs;
  progs.push_back({"test", 2, [&d](ProcEnv& env) {
                     const bool sender = env.world_rank == 0;
                     // The (size-only) barrier orders the two posts, so the
                     // second poster is the one that closes the match.
                     const bool post_first = sender == d.send_first;
                     if (!post_first) env.world.barrier();
                     Request rq;
                     if (sender)
                       rq = env.world.pisend(d.sent, d.bytes, 1, 3);
                     else if (d.raw_recv)
                       rq = env.world.pirecv(d.received->data(), d.bytes, 0, 3);
                     else
                       rq = env.world.pirecv(d.received, d.bytes, 0, 3);
                     if (post_first) env.world.barrier();
                     const Status st = pwait(rq);
                     EXPECT_EQ(st.error, 0);
                     EXPECT_EQ(st.bytes, d.bytes);
                   }});
  Runtime rt(cfg, std::move(progs));
  rt.run();
}

/// The first `n` received bytes are the message, the rest untouched.
void expect_delivered_prefix(const Donation& d, std::size_t n) {
  const std::byte* got = d.received->data();
  for (std::size_t i = 0; i < n; ++i)
    ASSERT_EQ(got[i], donation_byte(i)) << "byte " << i;
  for (std::size_t i = n; i < d.received->size(); ++i)
    ASSERT_EQ(got[i], kRecvFill) << "byte " << i;
}

TEST(SimMpi, DonatedSendExchangesStorageSendOrReceiveFirst) {
  for (const bool send_first : {true, false}) {
    SCOPED_TRACE(send_first ? "send first" : "receive first");
    Donation d;
    d.send_first = send_first;
    run_donation(d);
    EXPECT_TRUE(d.exchanged());
    EXPECT_EQ(d.sent->size(), d.send_size);
    EXPECT_EQ(d.received->size(), d.recv_size);
    expect_delivered_prefix(d, d.bytes);
  }
}

TEST(SimMpi, DonatedPartialBlockKeepsBothSizes) {
  // A short final block sent into a full-size posted slot: the slot stays
  // full size and the sender's buffer stays short.
  for (const bool send_first : {true, false}) {
    SCOPED_TRACE(send_first ? "send first" : "receive first");
    Donation d;
    d.send_first = send_first;
    d.send_size = d.bytes = 40 * 1024;
    run_donation(d);
    EXPECT_TRUE(d.exchanged());
    EXPECT_EQ(d.sent->size(), 40u * 1024);
    EXPECT_EQ(d.received->size(), 64u * 1024);
    EXPECT_EQ(d.received->capacity(), d.sent->capacity());
    const std::byte* got = d.received->data();
    for (std::size_t i = 0; i < d.bytes; ++i)
      ASSERT_EQ(got[i], donation_byte(i)) << "byte " << i;
  }
}

TEST(SimMpi, DonatedSendFallsBackToCopy) {
  struct Case {
    const char* name;
    void (*setup)(Donation&);
  };
  const Case cases[] = {
      {"raw-pointer receive", [](Donation& d) { d.raw_recv = true; }},
      {"sender is a view", [](Donation& d) { d.send_view = true; }},
      {"receiver is a view", [](Donation& d) { d.recv_view = true; }},
      {"capacities differ", [](Donation& d) { d.recv_cap = 128 * 1024; }},
      {"copy cap below message", [](Donation& d) { d.copy_cap = 1000; }},
  };
  for (const auto& c : cases)
    for (const bool send_first : {true, false}) {
      SCOPED_TRACE(::testing::Message() << c.name << ", "
                                        << (send_first ? "send" : "receive")
                                        << " first");
      Donation d;
      d.send_first = send_first;
      c.setup(d);
      run_donation(d);
      EXPECT_EQ(d.received->data(), d.recv_storage);
      EXPECT_EQ(d.sent->data(), d.sent_storage);
      // Prefix semantics: only payload_copy_cap bytes physically arrive.
      expect_delivered_prefix(d, std::min<std::uint64_t>(d.bytes, d.copy_cap));
      for (std::size_t i = 0; i < d.sent->size(); ++i)
        ASSERT_EQ(d.sent->data()[i], donation_byte(i)) << "sender byte " << i;
    }
}

TEST(SimMpi, CorruptDecisionOnDonatedSendFlipsOneReceiverBit) {
  for (const bool send_first : {true, false}) {
    SCOPED_TRACE(send_first ? "send first" : "receive first");
    Donation d;
    d.send_first = send_first;
    d.corrupt = true;
    run_donation(d);
    ASSERT_TRUE(d.exchanged());
    int flipped = 0;
    for (std::size_t i = 0; i < d.bytes; ++i)
      flipped += std::popcount(static_cast<unsigned>(
          std::to_integer<unsigned>(d.received->data()[i] ^ donation_byte(i))));
    EXPECT_EQ(flipped, 1);
    // The sender now holds the receiver's old storage, with no flip in it.
    EXPECT_EQ(std::count(d.sent->data(), d.sent->data() + d.sent->size(),
                         kRecvFill),
              static_cast<std::ptrdiff_t>(d.sent->size()));
  }
}

}  // namespace
}  // namespace esp::mpi
