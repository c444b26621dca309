/// \file driver.cpp
/// \brief One repetition of one hostbench workload, as a fresh process.
///
///   hostbench_driver --workload W --seed N [--ref] [--trace] [--smoke]
///                    --out-dir DIR
///
/// Runs the workload's measured program once (or, with --ref, its
/// uninstrumented reference program) through the public API and prints a
/// single JSON line: host fingerprint, end-to-end host costs, the exact
/// simulated statistics, the output checks and, with --trace, the
/// per-layer breakdown. `run.py` repeats this, takes medians and prints
/// the benchmark result; see README.md for the metric definitions.
///
/// The driver starts no threads of its own: every thread of the process
/// belongs to the runtime (one per simulated rank) or to the analyzer's
/// blackboard. Untraced runs attach nothing that the workload itself does
/// not need. Traced runs add, from outside the libraries:
///  - a wrapper around every program main that reads the rank thread's
///    CPU usage (getrusage RUSAGE_THREAD) at main entry and exit;
///  - a counting Tool last in the chain, which also reads the rank
///    thread's total CPU in on_finalize, the last thing a rank runs;
///  - a decorator Tool around the workload's measurement tool that times
///    every hook with the cheap monotonic clock and one hook in
///    kCpuSampleEvery with the thread CPU clock (that clock is a system
///    call; reading it around every hook inflates host time by ~40%);
///  - thread CPU + wall timing around each vmpi::Stream call in
///    stream_bulk's own rank mains (1 MB blocks, so the clock is cheap).

#include <sched.h>
#include <sys/resource.h>
#include <time.h>
#include <unistd.h>

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <functional>
#include <memory>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "analysis/analyzer.hpp"
#include "analysis/report.hpp"
#include "baseline/baseline_tools.hpp"
#include "instrument/online_instrument.hpp"
#include "nas/workloads.hpp"
#include "simmpi/runtime.hpp"
#include "vmpi/stream.hpp"

namespace {

using namespace esp;

// ---- workload sizes ---------------------------------------------------
// Chosen so one measured run costs ~2-3 host seconds on the two CPUs
// run.py pins the benchmark to; the seed adds up to 2 iterations (or
// blocks) so every seed is a distinct input.
constexpr int kRanks = 64;
constexpr int kAnalyzerRatio = 8;
constexpr int kOnlineIters = 600;
constexpr int kBulkBlocks = 130;  ///< 1 MB blocks per writer.
constexpr int kTraceIters = 100;
constexpr int kSmokeIters = 3;
constexpr int kSmokeBlocks = 2;
constexpr std::uint64_t kBlock = 1u << 20;
constexpr int kAsync = 3;  ///< N_A: asynchronous buffers per stream end.

/// One hook in this many is timed with the thread CPU clock.
constexpr std::uint64_t kCpuSampleEvery = 16;
/// Hooks whose wall time reaches this are estimated in their own stratum
/// (pack flushes, backpressure waits, preemptions).
constexpr double kSlowHookSeconds = 20e-6;

// ---- clocks -----------------------------------------------------------
double mono_now() {
  timespec ts{};
  clock_gettime(CLOCK_MONOTONIC, &ts);
  return static_cast<double>(ts.tv_sec) + static_cast<double>(ts.tv_nsec) * 1e-9;
}

double thread_cpu_now() {
  timespec ts{};
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + static_cast<double>(ts.tv_nsec) * 1e-9;
}

double tv_seconds(const timeval& tv) {
  return static_cast<double>(tv.tv_sec) + static_cast<double>(tv.tv_usec) * 1e-6;
}

struct Usage {
  double user = 0, sys = 0;
  long vcsw = 0, ivcsw = 0;
  long maxrss_kb = 0;
  double cpu() const { return user + sys; }
};

Usage usage(int who) {
  rusage ru{};
  getrusage(who, &ru);
  return {tv_seconds(ru.ru_utime), tv_seconds(ru.ru_stime), ru.ru_nvcsw,
          ru.ru_nivcsw, ru.ru_maxrss};
}

int count_threads() {
  std::ifstream in("/proc/self/status");
  std::string line;
  while (std::getline(in, line))
    if (line.rfind("Threads:", 0) == 0) return std::stoi(line.substr(8));
  return 0;
}

// ---- JSON output ------------------------------------------------------
std::string json_str(const std::string& s) {
  std::string o = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') o += '\\';
    if (static_cast<unsigned char>(c) < 0x20) continue;
    o += c;
  }
  return o + "\"";
}

/// Ordered JSON object built from pre-rendered values.
class Obj {
 public:
  Obj& raw(const std::string& k, const std::string& v) {
    items_.emplace_back(k, v);
    return *this;
  }
  Obj& num(const std::string& k, double v) {
    char b[40];
    std::snprintf(b, sizeof b, "%.17g", v);
    return raw(k, b);
  }
  Obj& count(const std::string& k, std::uint64_t v) {
    return raw(k, std::to_string(v));
  }
  Obj& str(const std::string& k, const std::string& v) {
    return raw(k, json_str(v));
  }
  Obj& boolean(const std::string& k, bool v) { return raw(k, v ? "true" : "false"); }
  std::string render() const {
    std::string o = "{";
    for (std::size_t i = 0; i < items_.size(); ++i) {
      if (i) o += ", ";
      o += json_str(items_[i].first) + ": " + items_[i].second;
    }
    return o + "}";
  }

 private:
  std::vector<std::pair<std::string, std::string>> items_;
};

// ---- per-rank trace slots --------------------------------------------
/// Everything the traced run records about one world rank. Written only
/// by that rank's thread, read after run() joined it.
struct alignas(64) RankSlot {
  // Counting tool.
  std::uint64_t calls = 0;
  std::uint64_t p2p_bytes = 0;  ///< Bytes sent point-to-point.
  double thread_total_cpu = 0;  ///< Thread CPU at the last tool hook.
  // Program-main wrapper.
  double main_cpu = 0, main_sys = 0;
  long main_vcsw = 0, main_ivcsw = 0;
  int threads_seen = 0;
  // Decorated measurement tool (instrument or baseline).
  std::uint64_t hooks = 0;
  std::uint64_t stratum_hooks[2] = {0, 0};  ///< [fast, slow] hook counts.
  double hook_wall[2] = {0, 0};             ///< [fast, slow] wall seconds.
  std::uint64_t samples[2] = {0, 0};
  double sampled_wall[2] = {0, 0};
  double sampled_cpu[2] = {0, 0};
  double init_cpu = 0, fini_cpu = 0, fini_wall = 0;
  // stream_bulk's own vmpi calls.
  double open_wall = 0, open_cpu = 0;
  double write_cpu = 0, write_wall = 0, read_cpu = 0, read_wall = 0;
  double close_cpu = 0;
};

/// Counting Tool, attached last so its on_finalize is the rank's final
/// hook: the thread CPU read there covers every tool's finalize.
class CountingTool final : public mpi::Tool {
 public:
  explicit CountingTool(std::vector<RankSlot>& slots) : slots_(slots) {}
  void on_call(mpi::RankContext& rc, const mpi::CallInfo& ci) override {
    RankSlot& s = slots_[static_cast<std::size_t>(rc.world_rank)];
    ++s.calls;
    if (ci.kind == mpi::CallKind::Send || ci.kind == mpi::CallKind::Isend)
      s.p2p_bytes += ci.bytes;
  }
  void on_finalize(mpi::RankContext& rc) override {
    slots_[static_cast<std::size_t>(rc.world_rank)].thread_total_cpu =
        thread_cpu_now();
  }

 private:
  std::vector<RankSlot>& slots_;
};

/// Decorator timing every hook of the wrapped measurement tool.
class TimedTool final : public mpi::Tool {
 public:
  TimedTool(std::shared_ptr<mpi::Tool> inner, std::vector<RankSlot>& slots)
      : inner_(std::move(inner)), slots_(slots) {}

  void on_init(mpi::RankContext& rc) override {
    const double c0 = thread_cpu_now();
    inner_->on_init(rc);
    slot(rc).init_cpu += thread_cpu_now() - c0;
  }
  void on_call(mpi::RankContext& rc, const mpi::CallInfo& ci) override {
    RankSlot& s = slot(rc);
    const bool sample = s.hooks++ % kCpuSampleEvery == 0;
    const double c0 = sample ? thread_cpu_now() : 0.0;
    const double w0 = mono_now();
    inner_->on_call(rc, ci);
    const double w = mono_now() - w0;
    const int stratum = w < kSlowHookSeconds ? 0 : 1;
    ++s.stratum_hooks[stratum];
    s.hook_wall[stratum] += w;
    if (sample) {
      ++s.samples[stratum];
      s.sampled_wall[stratum] += w;
      s.sampled_cpu[stratum] += thread_cpu_now() - c0;
    }
  }
  void on_finalize(mpi::RankContext& rc) override {
    const double c0 = thread_cpu_now();
    const double w0 = mono_now();
    inner_->on_finalize(rc);
    RankSlot& s = slot(rc);
    s.fini_wall += mono_now() - w0;
    s.fini_cpu += thread_cpu_now() - c0;
  }

 private:
  RankSlot& slot(mpi::RankContext& rc) {
    return slots_[static_cast<std::size_t>(rc.world_rank)];
  }
  std::shared_ptr<mpi::Tool> inner_;
  std::vector<RankSlot>& slots_;
};

/// What the timing itself adds to one hook: a monotonic-clock pair in its
/// wall time, and that pair plus half of each thread-CPU read in a
/// sampled hook's CPU time. Measured once per process on the driver
/// thread and subtracted, so short hooks are not dominated by the clocks.
struct ClockCost {
  double wall = 0;
  double sampled_cpu = 0;
};

ClockCost measure_clock_cost() {
  constexpr int kReps = 4000;
  double wall = 0, cpu = 0;
  for (int i = 0; i < kReps; ++i) {
    const double c0 = thread_cpu_now();
    const double w0 = mono_now();
    wall += mono_now() - w0;
    cpu += thread_cpu_now() - c0;
  }
  return {wall / kReps, cpu / kReps};
}

/// Estimated hook CPU and wall over all ranks, net of the clock cost. CPU
/// is, per wall-time stratum, the stratum's wall seconds times the
/// CPU/wall ratio of its sampled hooks, pooled over ranks; a stratum
/// without samples counts as all CPU.
std::pair<double, double> estimated_hook_cpu_wall(const std::vector<RankSlot>& slots,
                                                  const ClockCost& cost) {
  double n[2] = {0, 0}, wall[2] = {0, 0}, ns[2] = {0, 0}, sw[2] = {0, 0}, sc[2] = {0, 0};
  for (const auto& s : slots)
    for (int k = 0; k < 2; ++k) {
      n[k] += static_cast<double>(s.stratum_hooks[k]);
      wall[k] += s.hook_wall[k];
      ns[k] += static_cast<double>(s.samples[k]);
      sw[k] += s.sampled_wall[k];
      sc[k] += s.sampled_cpu[k];
    }
  double cpu = 0, net_wall = 0;
  for (int k = 0; k < 2; ++k) {
    const double w = std::max(0.0, wall[k] - n[k] * cost.wall);
    const double sampled_w = std::max(0.0, sw[k] - ns[k] * cost.wall);
    const double sampled_c = std::max(0.0, sc[k] - ns[k] * cost.sampled_cpu);
    cpu += sampled_w > 0 ? w * std::min(1.0, sampled_c / sampled_w) : w;
    net_wall += w;
  }
  return {cpu, net_wall};
}

/// Wrap a program main so the traced run reads its rank thread's usage at
/// entry and exit.
mpi::ProgramMain wrap_main(mpi::ProgramMain inner, std::vector<RankSlot>& slots) {
  return [inner = std::move(inner), &slots](mpi::ProcEnv& env) {
    RankSlot& s = slots[static_cast<std::size_t>(env.universe_rank)];
    const int t0 = count_threads();
    const Usage u0 = usage(RUSAGE_THREAD);
    inner(env);
    const Usage u1 = usage(RUSAGE_THREAD);
    s.main_cpu = u1.cpu() - u0.cpu();
    s.main_sys = u1.sys - u0.sys;
    s.main_vcsw = u1.vcsw - u0.vcsw;
    s.main_ivcsw = u1.ivcsw - u0.ivcsw;
    s.threads_seen = std::max(t0, count_threads());
  };
}

// ---- options and results ---------------------------------------------
struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  bool ref = false;
  bool trace = false;
  bool smoke = false;
  std::string out_dir = ".";
};

struct Check {
  std::string name;
  bool ok = false;
  std::string detail;
};

/// Everything one repetition measured.
struct Result {
  double setup_s = 0, host_s = 0, host_cpu_s = 0, peak_rss_mb = 0;
  double driver_cpu_s = 0;
  std::uint64_t attempted = 0, failed = 0;
  Obj virt;      ///< Virtual-time results, the inputs of the virt_* metrics.
  Obj simstats;  ///< Exact simulated statistics.
  Obj layers;    ///< Per-layer metrics (traced runs only).
  std::vector<Check> checks;
};

void check(Result& r, const std::string& name, bool ok, const std::string& detail) {
  r.checks.push_back({name, ok, detail});
}

std::string eq_detail(std::uint64_t a, std::uint64_t b) {
  return std::to_string(a) + " vs " + std::to_string(b);
}

/// Times setup (workload start to run()), the run plus result collection,
/// and process CPU over that same window.
class Stopwatch {
 public:
  explicit Stopwatch(Result& r) : r_(r), t0_(mono_now()) {}
  void start_run() {
    r_.setup_s = mono_now() - t0_;
    run0_ = mono_now();
    self0_ = usage(RUSAGE_SELF);
    main0_ = usage(RUSAGE_THREAD);
  }
  /// Peak RSS is read right after the measured run, before results are
  /// collected.
  void end_run() { r_.peak_rss_mb = static_cast<double>(usage(RUSAGE_SELF).maxrss_kb) / 1024.0; }
  void stop() {
    r_.host_s = mono_now() - run0_;
    r_.host_cpu_s = usage(RUSAGE_SELF).cpu() - self0_.cpu();
    r_.driver_cpu_s = usage(RUSAGE_THREAD).cpu() - main0_.cpu();
  }

 private:
  Result& r_;
  double t0_ = 0, run0_ = 0;
  Usage self0_, main0_;
};

mpi::RuntimeConfig runtime_config(const net::MachineConfig& machine,
                                  std::uint64_t seed) {
  mpi::RuntimeConfig cfg;
  cfg.machine = machine;
  cfg.seed = seed;
  // Skeleton payloads are never read: cap physical copies at the stream
  // block size, as the figure benches do (virtual costs use full sizes).
  cfg.payload_copy_cap = kBlock;
  return cfg;
}

/// Sum of per-rank traced values over a world-rank range.
template <typename F>
double sum_ranks(const std::vector<RankSlot>& slots, int first, int n, F f) {
  double v = 0;
  for (int r = first; r < first + n; ++r) v += f(slots[static_cast<std::size_t>(r)]);
  return v;
}

/// Layer metrics every traced workload reports from the slots and the
/// counting tool. `layer_cpu_in_main` is the CPU already attributed to a
/// layer inside the app ranks' mains (hooks or vmpi calls); the rest of
/// those mains is simmpi's own.
void common_layers(Result& r, const std::vector<RankSlot>& slots, int app_first,
                   int app_n, double layer_cpu_in_main) {
  std::uint64_t calls = 0, p2p = 0;
  double sys = 0, vcsw = 0, ivcsw = 0;
  int threads = 0;
  for (const auto& s : slots) {
    calls += s.calls;
    p2p += s.p2p_bytes;
    sys += s.main_sys;
    vcsw += static_cast<double>(s.main_vcsw);
    ivcsw += static_cast<double>(s.main_ivcsw);
    threads = std::max(threads, s.threads_seen);
  }
  const double app_main =
      sum_ranks(slots, app_first, app_n, [](const RankSlot& s) { return s.main_cpu; });
  const double self = app_main - layer_cpu_in_main;
  r.layers.count("simmpi.calls", calls)
      .count("simmpi.p2p_bytes", p2p)
      .num("simmpi.rank_self_cpu_s", self)
      .num("simmpi.cpu_us_per_call", calls ? self / static_cast<double>(calls) * 1e6 : 0.0)
      .num("simmpi.sys_cpu_s", sys)
      .num("simmpi.vol_ctx_switches", vcsw)
      .num("simmpi.invol_ctx_switches", ivcsw)
      .count("simmpi.peak_threads", static_cast<std::uint64_t>(threads));
}

/// Rank-thread CPU outside every measured span (thread start-up, the
/// counting tool's own hooks): the explicit unattributed part of rank
/// threads.
double rank_unattributed(const std::vector<RankSlot>& slots) {
  double v = 0;
  for (const auto& s : slots)
    v += std::max(0.0, s.thread_total_cpu - s.main_cpu - s.init_cpu - s.fini_cpu);
  return v;
}

/// Reports a decorated tool's hook metrics; returns its estimated
/// on_call CPU (which runs inside the rank mains).
double hook_layer(Result& r, const char* layer, const std::vector<RankSlot>& slots,
                  std::uint64_t events) {
  const auto [hook_cpu, wall] = estimated_hook_cpu_wall(slots, measure_clock_cost());
  double fini = 0;
  for (const auto& s : slots) fini += s.fini_wall;
  const std::string p = layer;
  r.layers.num(p + ".hook_cpu_s", hook_cpu)
      .num(p + ".hook_wall_s", wall)
      .num(p + ".finalize_s", fini);
  if (p == "instrument")
    r.layers.num("instrument.ns_per_event",
                 events ? hook_cpu / static_cast<double>(events) * 1e9 : 0.0);
  return hook_cpu;
}

// ---- online_spc -------------------------------------------------------
/// NAS SP.C, 64 ranks, Tera 100, online coupling at writer/reader ratio 8.
void run_online_spc(const Options& o, Result& r) {
  const int iters = o.smoke ? kSmokeIters : kOnlineIters + static_cast<int>(o.seed % 3);
  nas::WorkloadParams wp{nas::Benchmark::SP, nas::ProblemClass::C, iters};
  Stopwatch sw(r);
  std::vector<RankSlot> slots;
  if (o.ref) {
    std::vector<mpi::ProgramSpec> progs;
    progs.push_back({"SP.C", kRanks, nas::make_workload(wp)});
    mpi::Runtime rt(runtime_config(net::MachineConfig::tera100(), o.seed), std::move(progs));
    sw.start_run();
    rt.run();
    sw.end_run();
    sw.stop();
    r.virt.num("ref_walltime_s", rt.partition_walltime(0));
    r.simstats.count("net.transfers", rt.machine().total_transfers())
        .num("ref_walltime_s", rt.partition_walltime(0));
    return;
  }

  const int n_an = kRanks / kAnalyzerRatio;
  an::AnalyzerConfig acfg;
  // One blackboard worker per analyzer rank: in the machine model one
  // analysis core backs one analyzer process (as the figure benches do).
  acfg.board.workers = 1;
  acfg.board.fifo_count = 4;
  acfg.results = std::make_shared<an::AnalysisResults>();
  mpi::ProgramMain app = nas::make_workload(wp);
  mpi::ProgramMain analyzer = [acfg](mpi::ProcEnv& env) { an::run_analyzer(env, acfg); };
  if (o.trace) {
    slots.resize(static_cast<std::size_t>(kRanks + n_an));
    app = wrap_main(std::move(app), slots);
    analyzer = wrap_main(std::move(analyzer), slots);
  }
  std::vector<mpi::ProgramSpec> progs;
  progs.push_back({"SP.C", kRanks, std::move(app)});
  progs.push_back({"analyzer", n_an, std::move(analyzer)});
  mpi::Runtime rt(runtime_config(net::MachineConfig::tera100(), o.seed), std::move(progs));
  std::shared_ptr<inst::OnlineInstrument> online;
  if (o.trace) {
    online = std::make_shared<inst::OnlineInstrument>(rt, inst::InstrumentConfig{});
    rt.tools().attach(std::make_shared<TimedTool>(online, slots), 0);
    rt.tools().attach(std::make_shared<CountingTool>(slots));
  } else {
    online = inst::attach_online_instrumentation(rt);
  }
  sw.start_run();
  rt.run();
  sw.end_run();

  const inst::InstrumentTotals it = online->totals();
  std::uint64_t analysed = 0;
  bool clean = true;
  std::vector<const an::AppResults*> apps;
  an::SessionHealth health;
  {
    std::lock_guard lock(acfg.results->mu);
    for (const auto& [id, app_r] : acfg.results->apps) {
      analysed += app_r.total_events;
      clean = clean && app_r.loss.clean();
      apps.push_back(&app_r);
    }
    health = acfg.results->health;
  }
  const std::string dir = o.out_dir + "/report";
  const double rep0 = mono_now();
  const bool wrote = an::write_report(dir, apps, &health);
  const double report_s = mono_now() - rep0;
  std::error_code ec;
  const auto report_bytes = std::filesystem::file_size(dir + "/report.md", ec);
  sw.stop();
  std::filesystem::remove_all(dir, ec);

  const double wall = rt.partition_walltime(0);
  const an::SessionTelemetry& tel = health.telemetry;
  check(r, "events_analysed == instrument.events", analysed == it.events && it.events > 0,
        eq_detail(analysed, it.events));
  check(r, "loss ledger empty", clean && apps.size() == 1, clean ? "clean" : "data loss");
  check(r, "blackboard.jobs_failed == 0", health.jobs_failed == 0,
        std::to_string(health.jobs_failed));
  check(r, "report.md non-empty", wrote && !ec && report_bytes > 0,
        std::to_string(ec ? 0 : report_bytes) + " bytes");
  r.attempted = it.events;
  r.failed = it.events > analysed ? it.events - analysed : 0;

  r.virt.num("walltime_s", wall).count("streamed_bytes", it.streamed_bytes);
  r.simstats.count("instrument.events", it.events)
      .count("instrument.packs", it.packs)
      .count("instrument.streamed_bytes", it.streamed_bytes)
      .count("analysis.events_analysed", analysed)
      .count("net.transfers", rt.machine().total_transfers())
      .num("net.bisection_busy_s", rt.machine().bisection_busy())
      .num("walltime_s", wall)
      .num("analyzer_walltime_s", rt.partition_walltime(1));

  if (!o.trace) return;
  const double hook_cpu = hook_layer(r, "instrument", slots, it.events);
  common_layers(r, slots, 0, kRanks, hook_cpu);
  double init_fini = 0;
  for (const auto& s : slots) init_fini += s.init_cpu + s.fini_cpu;
  const double ranks_total =
      sum_ranks(slots, 0, kRanks + n_an, [](const RankSlot& s) { return s.thread_total_cpu; });
  const double reader =
      sum_ranks(slots, kRanks, n_an, [](const RankSlot& s) { return s.main_cpu; });
  // Blackboard workers are the only non-rank threads besides the driver.
  const double workers = r.host_cpu_s - ranks_total - r.driver_cpu_s;
  r.layers.count("net.transfers", rt.machine().total_transfers())
      .num("net.bisection_busy_s", rt.machine().bisection_busy())
      .count("net.fs_metadata_ops", 0);
  r.layers.num("instrument.init_fini_cpu_s", init_fini)
      .count("instrument.events", it.events)
      .count("instrument.packs", it.packs)
      .count("instrument.streamed_bytes", it.streamed_bytes)
      .count("vmpi.blocks", tel.blocks_read)
      .count("vmpi.bytes", tel.bytes_read)
      .count("vmpi.eagain_returns", tel.eagain_returns)
      .num("analysis.reader_cpu_s", reader)
      .count("analysis.events_analysed", analysed)
      .num("analysis.eagain_per_block",
           tel.blocks_read ? static_cast<double>(tel.eagain_returns) /
                                 static_cast<double>(tel.blocks_read)
                           : 0.0)
      .num("analysis.report_s", report_s)
      .num("blackboard.worker_cpu_s", workers)
      .count("blackboard.jobs", tel.jobs_executed)
      .count("blackboard.batches", tel.batches_submitted)
      .num("blackboard.jobs_per_batch",
           tel.batches_submitted ? static_cast<double>(tel.jobs_executed) /
                                       static_cast<double>(tel.batches_submitted)
                                 : 0.0)
      .count("blackboard.jobs_stolen", tel.jobs_stolen)
      .count("blackboard.jobs_failed", health.jobs_failed)
      .num("cpu.unattributed_s", rank_unattributed(slots));
}

// ---- stream_bulk ------------------------------------------------------
/// Per-rank stream counters, always collected (they feed the checks).
struct alignas(64) StreamSlot {
  vmpi::StreamStats stats;
  int read_status = 0;
};

/// 64 writers -> 8 readers over a raw vmpi::Stream, fig14's program shape.
/// The reference is the same transfer at writer/reader ratio 1.
void run_stream_bulk(const Options& o, Result& r) {
  const int blocks = o.smoke ? kSmokeBlocks : kBulkBlocks + static_cast<int>(o.seed % 3);
  const int n_readers = o.ref ? kRanks : kRanks / kAnalyzerRatio;
  const bool trace = o.trace && !o.ref;
  std::vector<RankSlot> slots(trace ? static_cast<std::size_t>(kRanks + n_readers) : 0);
  std::vector<StreamSlot> sslots(static_cast<std::size_t>(kRanks + n_readers));
  Stopwatch sw(r);

  std::vector<mpi::ProgramSpec> progs;
  // Times one vmpi call into the rank's slot; untraced runs pass no slot.
  auto timed = [](RankSlot* s, double RankSlot::*cpu, double RankSlot::*wall,
                  auto&& call) {
    if (s == nullptr) return call();
    const double c0 = thread_cpu_now();
    const double w0 = mono_now();
    auto out = call();
    if (wall) s->*wall += mono_now() - w0;
    s->*cpu += thread_cpu_now() - c0;
    return out;
  };
  const vmpi::StreamConfig scfg{kBlock, kAsync, vmpi::BalancePolicy::RoundRobin};
  mpi::ProgramMain writer = [&, blocks](mpi::ProcEnv& env) {
    RankSlot* s = trace ? &slots[static_cast<std::size_t>(env.universe_rank)] : nullptr;
    vmpi::Map map;
    vmpi::Stream st(scfg);
    timed(s, &RankSlot::open_cpu, &RankSlot::open_wall, [&] {
      map.map_partitions(env, env.runtime->partition_by_name("readers")->id,
                         vmpi::MapPolicy::RoundRobin);
      st.open_map(env, map, "w");
      return 0;
    });
    std::vector<std::byte> buf(kBlock);
    for (int b = 0; b < blocks; ++b) {
      // Distinct block contents, so the checksum works on real data.
      std::memcpy(buf.data(), &b, sizeof b);
      timed(s, &RankSlot::write_cpu, &RankSlot::write_wall,
            [&] { return st.write(buf.data(), 1); });
    }
    timed(s, &RankSlot::close_cpu, nullptr, [&] {
      st.close();
      return 0;
    });
    sslots[static_cast<std::size_t>(env.universe_rank)].stats = st.stats();
  };
  mpi::ProgramMain reader = [&](mpi::ProcEnv& env) {
    RankSlot* s = trace ? &slots[static_cast<std::size_t>(env.universe_rank)] : nullptr;
    vmpi::Map map;
    vmpi::Stream st(scfg);
    timed(s, &RankSlot::open_cpu, &RankSlot::open_wall, [&] {
      map.map_partitions(env, env.runtime->partition_by_name("writers")->id,
                         vmpi::MapPolicy::RoundRobin);
      st.open_map(env, map, "r");
      return 0;
    });
    std::vector<std::byte> buf(kBlock);
    int n = 0;
    do {
      n = timed(s, &RankSlot::read_cpu, &RankSlot::read_wall,
                [&] { return st.read(buf.data(), 1); });
    } while (n > 0);
    auto& out = sslots[static_cast<std::size_t>(env.universe_rank)];
    out.read_status = n;
    out.stats = st.stats();
  };
  if (trace) {
    writer = wrap_main(std::move(writer), slots);
    reader = wrap_main(std::move(reader), slots);
  }
  progs.push_back({"writers", kRanks, std::move(writer)});
  progs.push_back({"readers", n_readers, std::move(reader)});
  mpi::Runtime rt(runtime_config(net::MachineConfig::tera100(), o.seed), std::move(progs));
  if (trace) rt.tools().attach(std::make_shared<CountingTool>(slots));
  sw.start_run();
  rt.run();
  sw.end_run();
  vmpi::StreamStats w{}, rd{};
  bool clean_eos = true;
  for (int i = 0; i < kRanks + n_readers; ++i) {
    const auto& ss = sslots[static_cast<std::size_t>(i)];
    vmpi::StreamStats& into = i < kRanks ? w : rd;
    into.blocks_written += ss.stats.blocks_written;
    into.bytes_written += ss.stats.bytes_written;
    into.blocks_read += ss.stats.blocks_read;
    into.bytes_read += ss.stats.bytes_read;
    into.backpressure_waits += ss.stats.backpressure_waits;
    into.eagain_returns += ss.stats.eagain_returns;
    if (i >= kRanks) clean_eos = clean_eos && ss.read_status == 0;
  }
  sw.stop();

  const std::uint64_t expect_blocks = static_cast<std::uint64_t>(kRanks) * blocks;
  check(r, "blocks read == blocks written",
        rd.blocks_read == w.blocks_written && w.blocks_written == expect_blocks,
        eq_detail(rd.blocks_read, w.blocks_written));
  check(r, "bytes read == bytes written",
        rd.bytes_read == w.bytes_written && w.bytes_written == expect_blocks * kBlock,
        eq_detail(rd.bytes_read, w.bytes_written));
  check(r, "every reader saw a clean end-of-stream", clean_eos, clean_eos ? "yes" : "no");
  r.attempted = w.blocks_written;
  r.failed = w.blocks_written > rd.blocks_read ? w.blocks_written - rd.blocks_read : 0;

  const double wall = rt.max_walltime();
  r.virt.num(o.ref ? "ref_walltime_s" : "walltime_s", wall)
      .count("streamed_bytes", rd.bytes_read);
  r.simstats.count("vmpi.blocks", rd.blocks_read)
      .count("vmpi.bytes", rd.bytes_read)
      .count("net.transfers", rt.machine().total_transfers())
      .num("net.bisection_busy_s", rt.machine().bisection_busy())
      .num("walltime_s", wall);

  if (!trace) return;
  double open = 0, wcpu = 0, wwall = 0, rcpu = 0, rwall = 0, vmpi_cpu = 0;
  for (const auto& s : slots) {
    open += s.open_wall;
    wcpu += s.write_cpu;
    wwall += s.write_wall;
    rcpu += s.read_cpu;
    rwall += s.read_wall;
    vmpi_cpu += s.open_cpu + s.write_cpu + s.read_cpu + s.close_cpu;
  }
  common_layers(r, slots, 0, kRanks + n_readers, vmpi_cpu);
  const double mb = static_cast<double>(rd.bytes_read) / double(1u << 20);
  const double ranks_total = sum_ranks(slots, 0, kRanks + n_readers,
                                       [](const RankSlot& s) { return s.thread_total_cpu; });
  r.layers.count("net.transfers", rt.machine().total_transfers())
      .num("net.bisection_busy_s", rt.machine().bisection_busy())
      .count("net.fs_metadata_ops", 0)
      .num("vmpi.cpu_s", vmpi_cpu)
      .num("vmpi.open_s", open)
      .num("vmpi.write_cpu_s", wcpu)
      .num("vmpi.write_wall_s", wwall)
      .num("vmpi.read_cpu_s", rcpu)
      .num("vmpi.read_wall_s", rwall)
      .num("vmpi.write_ns_per_mb", mb > 0 ? wcpu / mb * 1e9 : 0.0)
      .num("vmpi.read_ns_per_mb", mb > 0 ? rcpu / mb * 1e9 : 0.0)
      .count("vmpi.blocks", rd.blocks_read)
      .count("vmpi.bytes", rd.bytes_read)
      .count("vmpi.backpressure_waits", w.backpressure_waits)
      .count("vmpi.eagain_returns", rd.eagain_returns)
      .num("cpu.unattributed_s", rank_unattributed(slots) +
                                     (r.host_cpu_s - ranks_total - r.driver_cpu_s));
}

// ---- trace_spd --------------------------------------------------------
/// NAS SP.D, 64 ranks, Curie, Score-P trace (+SionLib) comparator.
void run_trace_spd(const Options& o, Result& r) {
  const int iters = o.smoke ? kSmokeIters : kTraceIters + static_cast<int>(o.seed % 3);
  nas::WorkloadParams wp{nas::Benchmark::SP, nas::ProblemClass::D, iters};
  const auto machine = net::MachineConfig::curie();
  Stopwatch sw(r);
  std::vector<RankSlot> slots(o.trace && !o.ref ? static_cast<std::size_t>(kRanks) : 0);
  mpi::ProgramMain app = nas::make_workload(wp);
  if (!slots.empty()) app = wrap_main(std::move(app), slots);
  std::vector<mpi::ProgramSpec> progs;
  progs.push_back({"SP.D", kRanks, std::move(app)});
  mpi::Runtime rt(runtime_config(machine, o.seed), std::move(progs));
  const baseline::BaselineConfig bcfg;
  std::shared_ptr<baseline::BaselineTool> tool;
  if (!o.ref) {
    tool = std::make_shared<baseline::BaselineTool>(rt, baseline::ToolKind::ScorepTrace, bcfg);
    if (o.trace) {
      rt.tools().attach(std::make_shared<TimedTool>(tool, slots));
      rt.tools().attach(std::make_shared<CountingTool>(slots));
    } else {
      rt.tools().attach(tool);
    }
  }
  sw.start_run();
  rt.run();
  sw.end_run();
  const double wall = rt.partition_walltime(0);
  if (o.ref) {
    sw.stop();
    // The network model's share of SP.D: virtual walltime over the pure
    // compute the skeleton charges, and its point-to-point volume
    // (computed from the skeleton's per-iteration shape).
    const nas::IterationShape shape = nas::iteration_shape(wp, kRanks);
    const double compute = iters * rt.machine().compute_seconds(shape.flops_per_rank);
    const double p2p = shape.p2p_bytes_per_rank * kRanks * iters;
    r.virt.num("ref_walltime_s", wall).num("compute_s", compute).num("p2p_bytes", p2p);
    r.simstats.count("net.transfers", rt.machine().total_transfers())
        .num("ref_walltime_s", wall);
    return;
  }
  const baseline::BaselineTotals bt = tool->totals();
  sw.stop();
  const std::uint64_t expect = bt.events * bcfg.trace_record_bytes;
  check(r, "trace_bytes == events * trace_record_bytes",
        bt.trace_bytes == expect && bt.events > 0, eq_detail(bt.trace_bytes, expect));
  r.attempted = bt.events;
  r.failed = bt.trace_bytes < expect ? (expect - bt.trace_bytes) / bcfg.trace_record_bytes : 0;

  r.virt.num("walltime_s", wall);
  r.simstats.count("baseline.events", bt.events)
      .count("baseline.trace_bytes", bt.trace_bytes)
      .count("net.fs_metadata_ops", bt.metadata_ops)
      .count("net.transfers", rt.machine().total_transfers())
      .num("net.bisection_busy_s", rt.machine().bisection_busy())
      .num("walltime_s", wall);

  if (!o.trace) return;
  const double hook_cpu = hook_layer(r, "baseline", slots, bt.events);
  common_layers(r, slots, 0, kRanks, hook_cpu);
  double init_fini = 0;
  for (const auto& s : slots) init_fini += s.init_cpu + s.fini_cpu;
  const double ranks_total =
      sum_ranks(slots, 0, kRanks, [](const RankSlot& s) { return s.thread_total_cpu; });
  r.layers.count("net.transfers", rt.machine().total_transfers())
      .num("net.bisection_busy_s", rt.machine().bisection_busy())
      .count("net.fs_metadata_ops", bt.metadata_ops);
  r.layers.num("baseline.init_fini_cpu_s", init_fini)
      .count("baseline.events", bt.events)
      .count("baseline.trace_bytes", bt.trace_bytes)
      .num("cpu.unattributed_s", rank_unattributed(slots) +
                                     (r.host_cpu_s - ranks_total - r.driver_cpu_s));
}

// ---- fingerprint ------------------------------------------------------
std::string cpu_model() {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line))
    if (line.rfind("model name", 0) == 0) {
      const auto colon = line.find(':');
      return colon == std::string::npos ? line : line.substr(colon + 2);
    }
  return "unknown";
}

/// CPUs this process may run on (what `nproc` prints).
int usable_cpus() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof set, &set) != 0)
    return static_cast<int>(sysconf(_SC_NPROCESSORS_ONLN));
  return CPU_COUNT(&set);
}

std::string fingerprint() {
#if defined(__clang__)
  const std::string compiler = std::string("clang ") + __clang_version__;
#elif defined(__GNUC__)
  const std::string compiler = std::string("gcc ") + __VERSION__;
#else
  const std::string compiler = "unknown";
#endif
  return Obj()
      .count("nproc", static_cast<std::uint64_t>(usable_cpus()))
      .str("cpu_model", cpu_model())
      .str("compiler", compiler)
      .str("build_type", HOSTBENCH_BUILD_TYPE)
      .boolean("obs_hooks", HOSTBENCH_OBS_HOOKS != 0)
      .render();
}

Options parse(int argc, char** argv) {
  Options o;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    auto value = [&]() -> std::string {
      if (i + 1 >= argc) throw std::invalid_argument("missing value for " + a);
      return argv[++i];
    };
    if (a == "--workload") o.workload = value();
    else if (a == "--seed") o.seed = std::stoull(value());
    else if (a == "--out-dir") o.out_dir = value();
    else if (a == "--ref") o.ref = true;
    else if (a == "--trace") o.trace = true;
    else if (a == "--smoke") o.smoke = true;
    else throw std::invalid_argument("unknown argument " + a);
  }
  return o;
}

}  // namespace

int main(int argc, char** argv) {
  Options o;
  try {
    o = parse(argc, argv);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "hostbench_driver: %s\n", e.what());
    return 2;
  }
  Result r;
  if (o.workload == "online_spc") run_online_spc(o, r);
  else if (o.workload == "stream_bulk") run_stream_bulk(o, r);
  else if (o.workload == "trace_spd") run_trace_spd(o, r);
  else {
    std::fprintf(stderr, "hostbench_driver: unknown workload '%s'\n", o.workload.c_str());
    return 2;
  }
  if (o.trace && !o.ref) r.layers.num("cpu.process_s", r.host_cpu_s).num("cpu.driver_s", r.driver_cpu_s);

  std::string checks = "[";
  bool ok = true;
  for (std::size_t i = 0; i < r.checks.size(); ++i) {
    const Check& c = r.checks[i];
    ok = ok && c.ok;
    if (i) checks += ", ";
    checks += Obj().str("name", c.name).boolean("ok", c.ok).str("detail", c.detail).render();
  }
  checks += "]";
  Obj out;
  out.str("workload", o.workload)
      .count("seed", o.seed)
      .boolean("ref", o.ref)
      .boolean("trace", o.trace)
      .raw("fingerprint", fingerprint())
      .raw("e2e", Obj()
                      .num("setup_s", r.setup_s)
                      .num("host_s", r.host_s)
                      .num("host_cpu_s", r.host_cpu_s)
                      .num("peak_rss_mb", r.peak_rss_mb)
                      .render())
      .raw("virt", r.virt.render())
      .raw("simstats", r.simstats.render())
      .raw("checks", checks)
      .count("attempted", r.attempted)
      .count("failed", r.failed)
      .raw("layers", r.layers.render());
  std::printf("%s\n", out.render().c_str());
  std::fflush(stdout);
  return ok ? 0 : 1;
}
