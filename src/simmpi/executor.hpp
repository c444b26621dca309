#pragma once
/// \file executor.hpp
/// \brief Cooperative fiber executor that runs the simulated ranks.
///
/// Every rank is a fiber (a glibc ucontext with its own mmap'ed stack)
/// pinned to one of C carrier threads, C = min(ranks, CPUs in the affinity
/// mask of the thread that calls run()). Each partition's ranks go to the
/// carriers in contiguous blocks, so nearest neighbours share a carrier
/// and every carrier gets a share of every partition. A blocking wait
/// parks the fiber and the carrier switches straight to the next fiber in
/// its FIFO ready queue: a user-level switch instead of a kernel sleep and
/// wake-up. A wake from another thread pushes onto the target carrier's
/// queue under that carrier's lock and signals the carrier only when it
/// sleeps. An idle carrier sleeps until a wake or its earliest timer.
///
/// Every wait built on park() must re-check its condition in a loop: a
/// park may return early (a wake aimed at an earlier wait of the same
/// fiber). Rules for code running on a fiber (DESIGN.md "Executor"):
/// never hold a lock across a park, and never block the carrier thread on
/// work only a fiber of the same carrier can do.

#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <functional>
#include <memory>
#include <string>
#include <vector>

namespace esp::obs {
struct TraceTrack;
}

namespace esp::mpi {

struct RankContext;

namespace exec {

class Fiber;
struct Carrier;

using Clock = std::chrono::steady_clock;

/// Why a fiber is parked; read by the watchdog dump.
struct ParkReason {
  enum class Kind : std::uint8_t { Request, WaitSet, Timed };
  Kind kind = Kind::Timed;
  bool send = false;  ///< Request: a send (true) or a receive.
  int peer = -1;      ///< Request: peer world rank (-1 = any source).
  int tag = 0;        ///< Request: message tag (-1 = any tag).
};

/// The calling fiber, or null on a thread that is not running one.
Fiber* current() noexcept;

/// The calling fiber's rank, or null off a rank fiber.
RankContext* current_rank() noexcept;

/// Attach the calling fiber's per-rank identity: the rank context that
/// Runtime::self() returns and the trace track its spans land on. Both are
/// switched in with the fiber.
void bind_rank(RankContext* rc, obs::TraceTrack* track) noexcept;

/// Park the calling fiber until wake(). May return early; see file comment.
void park(const ParkReason& why);

/// Park until wake() or `deadline`, whichever comes first. Off a fiber this
/// is a plain sleep until the deadline.
void park_until(Clock::time_point deadline, const ParkReason& why);

/// Timed park of the calling fiber (a real-time sleep that lets the other
/// fibers of the carrier run meanwhile). Changes no virtual clock.
inline void sleep_for(std::chrono::nanoseconds d) {
  park_until(Clock::now() + d, ParkReason{});
}

/// Make a parked fiber ready. Callable from any thread; a no-op for a
/// fiber that is already ready or finished, and a pending wake for one
/// that is running (its next park returns at once).
void wake(Fiber* f) noexcept;

/// Move the calling fiber to the back of its carrier's ready queue if any
/// other fiber is ready there. A no-op off a fiber.
void yield() noexcept;

/// Runs rank bodies as fibers. Construct, then run() once.
class Executor {
 public:
  /// One fiber per rank; `groups` are the sizes of consecutive rank groups
  /// (partitions), each split into contiguous blocks across the carriers.
  /// `body(i)` runs rank i.
  Executor(std::vector<int> groups, std::size_t stack_bytes,
           std::function<void(int)> body);
  ~Executor();
  Executor(const Executor&) = delete;
  Executor& operator=(const Executor&) = delete;

  /// Map the stacks, start the carriers, run every body to completion and
  /// join the carriers.
  void run();

  /// One line of executor state for fiber `i` ("running", "ready",
  /// "parked on request (recv from rank 3, tag 7)", ...). Thread-safe.
  std::string describe(int i) const;
  /// One line per carrier: the fiber it runs, or whether it is idle.
  void dump_carriers(std::FILE* out) const;

 private:
  std::vector<int> groups_;
  int n_;
  std::size_t stack_bytes_;
  std::function<void(int)> body_;
  std::vector<std::unique_ptr<Fiber>> fibers_;
  std::vector<std::unique_ptr<Carrier>> carriers_;
  std::atomic<bool> started_{false};  ///< Carriers placed (run() began).
};

}  // namespace exec
}  // namespace esp::mpi
