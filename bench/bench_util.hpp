#pragma once
/// \file bench_util.hpp
/// \brief Shared harness helpers for the figure-reproduction benches.
///
/// Every figure binary prints the paper-style rows to stdout and mirrors
/// them as CSV under bench_results/. Default configurations are scaled to
/// finish quickly on a small host; set ESP_FULL_SCALE=1 for paper-scale
/// runs.

#include <memory>
#include <string>
#include <vector>

#include "analysis/analyzer.hpp"
#include "baseline/baseline_tools.hpp"
#include "common/env.hpp"
#include "common/io_writers.hpp"
#include "common/table.hpp"
#include "common/units.hpp"
#include "instrument/online_instrument.hpp"
#include "nas/workloads.hpp"
#include "net/progress.hpp"

namespace esp::benchutil {

inline std::string results_dir() {
  const std::string dir = env_str("ESP_BENCH_DIR", "bench_results");
  ensure_directory(dir);
  return dir;
}

struct WorkloadRun {
  double app_walltime = 0;          ///< Virtual seconds, instrumented span.
  /// app_walltime net of what the opt-in progress engine absorbed off the
  /// app path; identical to app_walltime with the engine off.
  double app_walltime_net = 0;
  double absorbed = 0;              ///< Engine-absorbed virtual seconds.
  std::uint64_t events = 0;         ///< Events recorded (0 for reference).
  std::uint64_t streamed_bytes = 0; ///< Online coupling volume.
  std::uint64_t trace_bytes = 0;    ///< Baseline trace volume.
};

/// Run one workload at `nprocs` under a tool configuration.
/// `analyzer_ratio` = instrumented processes per analysis core (paper
/// writer/reader ratio); only used for OnlineCoupling. `progress`, when
/// non-null, configures the per-node progress engine explicitly;
/// otherwise the ESP_PROGRESS* environment (the same knobs Session
/// honours) drives it.
inline WorkloadRun run_workload(nas::WorkloadParams params, int nprocs,
                                baseline::ToolKind tool, int analyzer_ratio,
                                const net::MachineConfig& machine,
                                int iterations,
                                const net::ProgressConfig* progress = nullptr) {
  params.iterations = iterations;
  WorkloadRun out;
  mpi::RuntimeConfig rcfg;
  rcfg.machine = machine;
  // Skeleton work traffic is size-only (no payload bytes move at all).
  // The cap now only bounds stream-block copies at the block size, which
  // keeps event packs intact and stream blocks unframed, as recorded.
  rcfg.payload_copy_cap = 1u << 20;
  if (progress != nullptr) {
    rcfg.progress = *progress;
  } else {
    rcfg.progress.enabled = env_flag("ESP_PROGRESS", rcfg.progress.enabled);
    rcfg.progress.handoff =
        env_double("ESP_PROGRESS_HANDOFF", rcfg.progress.handoff);
    rcfg.progress.ring_depth = static_cast<int>(
        env_int("ESP_PROGRESS_RING", rcfg.progress.ring_depth));
  }

  std::vector<mpi::ProgramSpec> progs;
  progs.push_back({nas::workload_label(params.bench, params.cls), nprocs,
                   nas::make_workload(params)});

  std::shared_ptr<inst::OnlineInstrument> online;
  std::shared_ptr<baseline::BaselineTool> base;
  if (tool == baseline::ToolKind::OnlineCoupling) {
    const int n_an = std::max(1, nprocs / std::max(1, analyzer_ratio));
    an::AnalyzerConfig acfg;
    // One blackboard worker per analyzer rank: in the machine model one
    // analysis core backs one analyzer process.
    acfg.board.workers = 1;
    acfg.board.fifo_count = 4;
    progs.push_back({"analyzer", n_an, [acfg](mpi::ProcEnv& env) {
                       an::run_analyzer(env, acfg);
                     }});
  }
  mpi::Runtime rt(rcfg, std::move(progs));
  if (tool == baseline::ToolKind::OnlineCoupling) {
    online = inst::attach_online_instrumentation(rt);
  } else {
    base = baseline::attach_baseline(rt, tool);
  }
  rt.run();
  out.app_walltime = rt.partition_walltime(0);
  out.app_walltime_net = rt.partition_app_walltime(0);
  out.absorbed = rt.partition_absorbed(0);
  if (online) {
    out.events = online->totals().events;
    out.streamed_bytes = online->totals().streamed_bytes;
  }
  if (base) {
    out.events = base->totals().events;
    out.trace_bytes = base->totals().trace_bytes;
  }
  return out;
}

inline double overhead_percent(double instrumented, double reference) {
  return reference > 0 ? (instrumented - reference) / reference * 100.0 : 0.0;
}

}  // namespace esp::benchutil
