#include "simmpi/executor.hpp"

#include <cxxabi.h>
#include <pthread.h>
#include <sched.h>
#include <sys/mman.h>
#include <ucontext.h>
#include <unistd.h>

#include <algorithm>
#include <cassert>
#include <condition_variable>
#include <cstdlib>
#include <mutex>
#include <numeric>
#include <stdexcept>
#include <thread>

#include "obs/obs.hpp"

#if defined(__SANITIZE_ADDRESS__)
#define ESP_FIBER_ASAN 1
#elif defined(__has_feature)
#if __has_feature(address_sanitizer)
#define ESP_FIBER_ASAN 1
#endif
#endif
#if defined(__SANITIZE_THREAD__)
#define ESP_FIBER_TSAN 1
#elif defined(__has_feature)
#if __has_feature(thread_sanitizer)
#define ESP_FIBER_TSAN 1
#endif
#endif

#ifdef ESP_FIBER_ASAN
#include <sanitizer/common_interface_defs.h>
#endif
#ifdef ESP_FIBER_TSAN
#include <sanitizer/tsan_interface.h>
#endif

namespace esp::mpi::exec {

namespace {

/// Mirror of libstdc++'s per-thread exception state (__cxa_eh_globals):
/// the stack of caught exceptions and the uncaught count. A fiber can
/// switch out while it is live — blocking inside a catch handler, or a
/// crashed rank's destructors parking mid-unwind — so each fiber keeps
/// its own copy and the carrier's is swapped at every switch.
struct EhGlobals {
  void* caught = nullptr;
  unsigned int uncaught = 0;
};

EhGlobals& eh_globals() noexcept {
  return *reinterpret_cast<EhGlobals*>(abi::__cxa_get_globals());
}

}  // namespace

/// What a switch saves and restores: registers, exception state, and the
/// sanitizers' view of the stack.
struct Context {
  ucontext_t uc{};
  EhGlobals eh;
  void* fake_stack = nullptr;  ///< ASan fake-stack handle while switched out.
  const void* stack_lo = nullptr;
  std::size_t stack_size = 0;
  void* tsan = nullptr;
};

class Fiber {
 public:
  enum class State : std::uint8_t { Ready, Running, Parked, Done };

  Context ctx;
  Carrier* carrier = nullptr;
  int index = -1;
  const std::function<void(int)>* body = nullptr;
  void* map = nullptr;  ///< Stack mapping, guard page included.
  std::size_t map_bytes = 0;
  // Per-rank identity, switched in with the fiber.
  RankContext* rank = nullptr;
  obs::TraceTrack* track = nullptr;

  // Scheduling state, guarded by carrier->mu.
  State state = State::Ready;
  bool notified = false;  ///< A wake arrived while not parked.
  bool timed = false;     ///< Listed in carrier->timed.
  Clock::time_point deadline{};
  ParkReason why;
  Fiber* next = nullptr;  ///< Ready-queue link.
};

struct Carrier {
  std::mutex mu;
  std::condition_variable cv;
  // Everything below is guarded by mu.
  Fiber* head = nullptr;  ///< FIFO ready queue (intrusive).
  Fiber* tail = nullptr;
  /// Fibers in a timed park. Capacity is reserved for every fiber of the
  /// carrier, so parking never allocates.
  std::vector<Fiber*> timed;
  Clock::time_point earliest = Clock::time_point::max();  ///< Lower bound.
  bool sleeping = false;
  bool exited = false;
  int live = 0;  ///< Fibers not yet finished.
  Fiber* running = nullptr;
  std::vector<int> members;  ///< Its fibers' indexes, ascending.

  Context main;  ///< The carrier thread's own stack (scheduler loop).
  std::thread thread;

  void push(Fiber* f) noexcept {
    f->next = nullptr;
    if (tail != nullptr)
      tail->next = f;
    else
      head = f;
    tail = f;
  }
  Fiber* pop() noexcept {
    Fiber* f = head;
    if (f != nullptr) {
      head = f->next;
      if (head == nullptr) tail = nullptr;
      f->next = nullptr;
    }
    return f;
  }
  void add_timer(Fiber* f, Clock::time_point d) {
    f->timed = true;
    f->deadline = d;
    timed.push_back(f);
    earliest = std::min(earliest, d);
  }
  void untime(Fiber* f) noexcept {
    f->timed = false;
    auto it = std::find(timed.begin(), timed.end(), f);
    *it = timed.back();
    timed.pop_back();
    if (timed.empty()) earliest = Clock::time_point::max();
  }
  /// Move every fiber whose timer is due to the ready queue.
  void expire_due() {
    const auto now = Clock::now();
    if (now < earliest) return;
    earliest = Clock::time_point::max();
    for (std::size_t i = 0; i < timed.size();) {
      Fiber* f = timed[i];
      if (f->deadline <= now) {
        f->timed = false;
        f->state = Fiber::State::Ready;
        push(f);
        timed[i] = timed.back();
        timed.pop_back();
      } else {
        earliest = std::min(earliest, f->deadline);
        ++i;
      }
    }
  }
  /// Next fiber to run, marked running; null when none is ready.
  Fiber* take_next() {
    if (!timed.empty()) expire_due();
    Fiber* f = pop();
    if (f != nullptr) f->state = Fiber::State::Running;
    running = f;
    return f;
  }
};

namespace {

thread_local Fiber* t_fiber = nullptr;

/// Switch the carrier from `from` to `to`. `to_fiber` is null when `to`
/// is the carrier's scheduler loop. An exiting fiber passes `exiting` so
/// ASan releases its fake stack; it is never resumed.
void jump(Context& from, Context& to, Fiber* to_fiber, bool exiting) {
  EhGlobals& g = eh_globals();
  from.eh = g;
  g = to.eh;
  t_fiber = to_fiber;
  obs::bind_track(to_fiber != nullptr ? to_fiber->track : nullptr);
#ifdef ESP_FIBER_ASAN
  __sanitizer_start_switch_fiber(exiting ? nullptr : &from.fake_stack,
                                 to.stack_lo, to.stack_size);
#else
  (void)exiting;
#endif
#ifdef ESP_FIBER_TSAN
  __tsan_switch_to_fiber(to.tsan, 0);
#endif
  swapcontext(&from.uc, &to.uc);
#ifdef ESP_FIBER_ASAN
  __sanitizer_finish_switch_fiber(from.fake_stack, nullptr, nullptr);
#endif
}

void fiber_entry() {
  Fiber* f = t_fiber;
#ifdef ESP_FIBER_ASAN
  __sanitizer_finish_switch_fiber(nullptr, nullptr, nullptr);
#endif
  (*f->body)(f->index);  // rank bodies catch everything they throw
  Carrier& c = *f->carrier;
  Fiber* next;
  {
    std::lock_guard lock(c.mu);
    f->state = Fiber::State::Done;
    --c.live;
    next = c.take_next();
  }
  jump(f->ctx, next != nullptr ? next->ctx : c.main, next, true);
  std::abort();  // a finished fiber is never resumed
}

void carrier_loop(Carrier& c) {
#ifdef ESP_FIBER_ASAN
  pthread_attr_t attr;
  if (pthread_getattr_np(pthread_self(), &attr) == 0) {
    void* lo = nullptr;
    std::size_t size = 0;
    pthread_attr_getstack(&attr, &lo, &size);
    c.main.stack_lo = lo;
    c.main.stack_size = size;
    pthread_attr_destroy(&attr);
  }
#endif
#ifdef ESP_FIBER_TSAN
  c.main.tsan = __tsan_get_current_fiber();
#endif
  std::unique_lock lock(c.mu);
  for (;;) {
    Fiber* f = c.take_next();
    if (f == nullptr) {
      if (c.live == 0) break;
      c.sleeping = true;
      if (c.timed.empty())
        c.cv.wait(lock);
      else
        c.cv.wait_until(lock, c.earliest);
      c.sleeping = false;
      continue;
    }
    lock.unlock();
    jump(c.main, f->ctx, f, false);
    lock.lock();
  }
  c.exited = true;
}

/// Prepare `ctx` to start fiber_entry on the given stack. Out of line:
/// getcontext returns twice, which must not clobber the caller's locals.
[[gnu::noinline]] void make_context(Context& ctx, void* stack,
                                    std::size_t size) {
  ctx.stack_lo = stack;
  ctx.stack_size = size;
  getcontext(&ctx.uc);
  ctx.uc.uc_stack.ss_sp = stack;
  ctx.uc.uc_stack.ss_size = size;
  ctx.uc.uc_link = nullptr;
  makecontext(&ctx.uc, fiber_entry, 0);
#ifdef ESP_FIBER_TSAN
  ctx.tsan = __tsan_create_fiber(0);
#endif
}

/// Park the calling fiber (see park / park_until).
void park_impl(const ParkReason& why, const Clock::time_point* deadline) {
  Fiber* f = t_fiber;
  if (f == nullptr) {
    assert(deadline != nullptr && "untimed park off a fiber");
    if (deadline != nullptr) std::this_thread::sleep_until(*deadline);
    return;
  }
  Carrier& c = *f->carrier;
  Fiber* next;
  {
    std::lock_guard lock(c.mu);
    if (f->notified) {
      f->notified = false;
      return;
    }
    f->state = Fiber::State::Parked;
    f->why = why;
    if (deadline != nullptr) c.add_timer(f, *deadline);
    next = c.take_next();
    if (next == f) return;  // its own timer was already due
  }
  jump(f->ctx, next != nullptr ? next->ctx : c.main, next, false);
}

std::string park_text(const ParkReason& w, bool timed) {
  switch (w.kind) {
    case ParkReason::Kind::Request: {
      std::string s = "parked on request (";
      s += w.send ? "send to " : "recv from ";
      s += w.peer < 0 ? std::string("any rank")
                      : "rank " + std::to_string(w.peer);
      s += w.tag < 0 ? std::string(", any tag")
                     : ", tag " + std::to_string(w.tag);
      return s + ")";
    }
    case ParkReason::Kind::WaitSet:
      return timed ? "parked on a WaitSet (timed)" : "parked on a WaitSet";
    case ParkReason::Kind::Timed:
      break;
  }
  return "in a timed park";
}

}  // namespace

Fiber* current() noexcept { return t_fiber; }

RankContext* current_rank() noexcept {
  return t_fiber != nullptr ? t_fiber->rank : nullptr;
}

void bind_rank(RankContext* rc, obs::TraceTrack* track) noexcept {
  Fiber* f = t_fiber;
  assert(f != nullptr && "bind_rank off a fiber");
  f->rank = rc;
  f->track = track;
  obs::bind_track(track);
}

void park(const ParkReason& why) { park_impl(why, nullptr); }

void park_until(Clock::time_point deadline, const ParkReason& why) {
  park_impl(why, &deadline);
}

void wake(Fiber* f) noexcept {
  Carrier& c = *f->carrier;
  bool signal = false;
  {
    std::lock_guard lock(c.mu);
    switch (f->state) {
      case Fiber::State::Parked:
        if (f->timed) c.untime(f);
        f->state = Fiber::State::Ready;
        c.push(f);
        signal = c.sleeping;
        break;
      case Fiber::State::Running:
      case Fiber::State::Ready:
        f->notified = true;
        break;
      case Fiber::State::Done:
        break;
    }
  }
  if (signal) c.cv.notify_one();
}

void yield() noexcept {
  Fiber* f = t_fiber;
  if (f == nullptr) return;
  Carrier& c = *f->carrier;
  Fiber* next;
  {
    std::lock_guard lock(c.mu);
    if (!c.timed.empty()) c.expire_due();
    if (c.head == nullptr) return;
    f->state = Fiber::State::Ready;
    c.push(f);
    next = c.take_next();
  }
  jump(f->ctx, next->ctx, next, false);
}

Executor::Executor(std::vector<int> groups, std::size_t stack_bytes,
                   std::function<void(int)> body)
    : groups_(std::move(groups)),
      n_(std::accumulate(groups_.begin(), groups_.end(), 0)),
      stack_bytes_(stack_bytes),
      body_(std::move(body)) {
  fibers_.reserve(static_cast<std::size_t>(n_));
  for (int i = 0; i < n_; ++i) {
    fibers_.push_back(std::make_unique<Fiber>());
    fibers_.back()->index = i;
    fibers_.back()->body = &body_;
  }
}

Executor::~Executor() {
  for (auto& f : fibers_) {
#ifdef ESP_FIBER_TSAN
    if (f->ctx.tsan != nullptr) __tsan_destroy_fiber(f->ctx.tsan);
#endif
    if (f->map != nullptr) munmap(f->map, f->map_bytes);
  }
}

void Executor::run() {
  if (n_ <= 0) return;
  cpu_set_t set;
  CPU_ZERO(&set);
  int cpus = 1;
  if (sched_getaffinity(0, sizeof set, &set) == 0)
    cpus = std::max(1, CPU_COUNT(&set));
  const int nc = std::min(n_, cpus);

  // Every group (partition) splits into contiguous blocks of its fibers
  // (world ranks), one per carrier; group g's block k goes to carrier
  // (k + g) mod C, so small groups do not all land on the same carrier.
  carriers_.reserve(static_cast<std::size_t>(nc));
  for (int k = 0; k < nc; ++k) carriers_.push_back(std::make_unique<Carrier>());
  int first = 0;
  for (std::size_t g = 0; g < groups_.size(); ++g) {
    const long size = groups_[g];
    for (int k = 0; k < nc; ++k) {
      Carrier& c = *carriers_[(static_cast<std::size_t>(k) + g) %
                              static_cast<std::size_t>(nc)];
      for (int i = first + static_cast<int>(k * size / nc);
           i < first + static_cast<int>((k + 1) * size / nc); ++i)
        c.members.push_back(i);
    }
    first += static_cast<int>(size);
  }
  for (auto& cp : carriers_) {
    std::sort(cp->members.begin(), cp->members.end());
    cp->live = static_cast<int>(cp->members.size());
    cp->timed.reserve(cp->members.size());
  }

  const auto page = static_cast<std::size_t>(sysconf(_SC_PAGESIZE));
  const std::size_t stack = (std::max<std::size_t>(stack_bytes_, 64 * 1024) +
                             page - 1) / page * page;
  for (auto& cp : carriers_) {
    Carrier& c = *cp;
    for (int i : c.members) {
      Fiber& f = *fibers_[static_cast<std::size_t>(i)];
      f.carrier = &c;
      // Never zero-filled: like a thread stack, only touched pages count
      // toward RSS. The lowest page is the overflow guard.
      f.map_bytes = stack + page;
      f.map = mmap(nullptr, f.map_bytes, PROT_READ | PROT_WRITE,
                   MAP_PRIVATE | MAP_ANONYMOUS | MAP_NORESERVE | MAP_STACK, -1,
                   0);
      if (f.map == MAP_FAILED) {
        f.map = nullptr;
        throw std::runtime_error("mmap of a rank stack failed");
      }
      mprotect(f.map, page, PROT_NONE);
      make_context(f.ctx, static_cast<char*>(f.map) + page, stack);
      c.push(&f);
    }
  }
  // Carriers and fiber placement are fixed from here on; publish them to
  // the watchdog's describe() / dump_carriers().
  started_.store(true, std::memory_order_release);
  for (auto& cp : carriers_) {
    Carrier* c = cp.get();
    c->thread = std::thread([c] { carrier_loop(*c); });
  }
  for (auto& cp : carriers_) cp->thread.join();
}

std::string Executor::describe(int i) const {
  if (!started_.load(std::memory_order_acquire)) return "not started";
  const Fiber& f = *fibers_[static_cast<std::size_t>(i)];
  Carrier* c = f.carrier;
  std::lock_guard lock(c->mu);
  switch (f.state) {
    case Fiber::State::Running: return "running";
    case Fiber::State::Ready: return "ready";
    case Fiber::State::Done: return "finished";
    case Fiber::State::Parked: return park_text(f.why, f.timed);
  }
  return "unknown";
}

void Executor::dump_carriers(std::FILE* out) const {
  if (!started_.load(std::memory_order_acquire)) return;
  for (std::size_t k = 0; k < carriers_.size(); ++k) {
    Carrier& c = *carriers_[k];
    std::lock_guard lock(c.mu);
    int ready = 0;
    for (const Fiber* f = c.head; f != nullptr; f = f->next) ++ready;
    std::string what;
    if (c.exited)
      what = "exited";
    else if (c.running != nullptr)
      what = "running rank " + std::to_string(c.running->index);
    else
      what = c.sleeping ? "idle, asleep" : "idle";
    const std::vector<int>& m = c.members;
    std::string ranks;  // ascending runs: "0-31,68-71"
    for (std::size_t i = 0; i < m.size();) {
      std::size_t j = i;
      while (j + 1 < m.size() && m[j + 1] == m[j] + 1) ++j;
      if (!ranks.empty()) ranks += ',';
      ranks += std::to_string(m[i]);
      if (j > i) {
        ranks += '-';
        ranks += std::to_string(m[j]);
      }
      i = j + 1;
    }
    std::fprintf(out,
                 "  carrier %zu (ranks %s): %s; %d ready, %d timed, %d "
                 "unfinished\n",
                 k, ranks.c_str(), what.c_str(), ready,
                 static_cast<int>(c.timed.size()), c.live);
  }
}

}  // namespace esp::mpi::exec
