#pragma once
/// \file request.hpp
/// \brief Nonblocking-operation handles.

#include <chrono>
#include <memory>
#include <mutex>

#include "simmpi/executor.hpp"
#include "simmpi/types.hpp"

namespace esp::mpi {

struct CommData;

/// A multiplexed completion target: several requests can be armed to
/// notify one WaitSet, giving wait-any semantics without a global
/// broadcast (a global completion channel serializes the whole runtime
/// into a wake-up storm at scale). One fiber waits on it at a time.
struct WaitSet {
  std::mutex mu;
  std::uint64_t ticket = 0;
  exec::Fiber* waiter = nullptr;  ///< Parked in wait_change*, if any.

  void notify() {
    exec::Fiber* w;
    {
      std::lock_guard lock(mu);
      ++ticket;
      w = waiter;
      waiter = nullptr;
    }
    if (w != nullptr) exec::wake(w);
  }
  std::uint64_t snapshot() {
    std::lock_guard lock(mu);
    return ticket;
  }
  /// Park until notify() has been called after `seen` was snapshotted.
  void wait_change(std::uint64_t seen) {
    std::unique_lock lock(mu);
    while (ticket == seen) {
      waiter = exec::current();
      lock.unlock();
      exec::park({.kind = exec::ParkReason::Kind::WaitSet});
      lock.lock();
    }
    waiter = nullptr;
  }
  /// Like wait_change() but gives up after `timeout` (real time). Returns
  /// false on timeout — used by readers that must periodically re-check
  /// whether a silently-dead writer will ever notify them.
  bool wait_change_for(std::uint64_t seen, std::chrono::nanoseconds timeout) {
    const auto deadline = exec::Clock::now() + timeout;
    std::unique_lock lock(mu);
    while (ticket == seen) {
      if (exec::Clock::now() >= deadline) {
        waiter = nullptr;
        return false;
      }
      waiter = exec::current();
      lock.unlock();
      exec::park_until(deadline, {.kind = exec::ParkReason::Kind::WaitSet});
      lock.lock();
    }
    waiter = nullptr;
    return true;
  }
};

/// Shared completion state of a nonblocking operation. Matching happens on
/// whichever rank closes the (send, recv) pair; the initiating rank
/// observes completion through wait()/test().
struct RequestState {
  std::mutex mu;
  bool done = false;
  exec::Fiber* waiter = nullptr;  ///< Parked in block(), if any.

  /// Virtual time at which the *owning* rank may consider the operation
  /// complete (transfer finish for receives and rendezvous sends; local
  /// staging finish for eager sends).
  double finish = 0.0;
  Status status;  ///< status.source holds the sender's *world* rank until
                  ///< the owning Comm translates it.

  // Bookkeeping for tool-chain reporting and source translation at wait
  // time.
  CallKind kind = CallKind::Isend;
  std::uint64_t ctx = 0;
  int peer_world = -1;
  int tag = 0;
  std::uint64_t bytes = 0;
  std::shared_ptr<const CommData> comm;

  /// Armed wait-any target; see arm_waitset()/disarm_waitset().
  WaitSet* waitset = nullptr;

  void complete(double t, Status st) {
    exec::Fiber* w;
    {
      std::lock_guard lock(mu);
      done = true;
      finish = t;
      status = st;
      // Notify while still holding the request lock: once disarm_waitset()
      // (same lock) returns, no completion can touch the WaitSet again, so
      // a stack- or stream-owned WaitSet may be destroyed right after
      // disarming. Safe order-wise: nothing locks a request while holding
      // a WaitSet's mutex.
      if (waitset != nullptr) waitset->notify();
      w = waiter;
      waiter = nullptr;
    }
    if (w != nullptr) exec::wake(w);
  }

  /// Register `ws` for completion notification. Returns true when the
  /// request is already done (no arming happened).
  bool arm_waitset(WaitSet* ws) {
    std::lock_guard lock(mu);
    if (done) return true;
    waitset = ws;
    return false;
  }
  /// Remove an armed wait-set (required before a stack-owned WaitSet goes
  /// out of scope while the request may still complete).
  void disarm_waitset(WaitSet* ws) {
    std::lock_guard lock(mu);
    if (waitset == ws) waitset = nullptr;
  }

  bool is_done() {
    std::lock_guard lock(mu);
    return done;
  }

  /// Park the calling rank until done; returns the virtual finish time.
  double block() {
    std::unique_lock lock(mu);
    while (!done) {
      waiter = exec::current();
      lock.unlock();
      exec::park({.kind = exec::ParkReason::Kind::Request,
                  .send = kind == CallKind::Isend,
                  .peer = peer_world,
                  .tag = tag});
      lock.lock();
    }
    waiter = nullptr;
    return finish;
  }
};

/// A request handle; copyable, null-testable.
using Request = std::shared_ptr<RequestState>;

}  // namespace esp::mpi
