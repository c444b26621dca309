#pragma once
/// \file progress.hpp
/// \brief Per-node asynchronous progress engine — charge-attribution model.
///
/// "MPI Progress For All" (arXiv 2405.13807) identifies the lack of
/// asynchronous progression as the structural bottleneck of MPI-coupled
/// tools: stream serialization only advances inside app-triggered calls,
/// so every staging copy and every backpressure wait lands on the
/// application's critical path. The engine modelled here is the dedicated
/// progress rank each machine-model node donates to its resident ranks:
/// it drains send-ring handoffs and absorbs the serialization the app
/// would otherwise pay.
///
/// The model is *charge attribution, not reordering*. The causal
/// virtual-time schedule — block departure times, failover instants,
/// backpressure decisions, every counter the report prints — is computed
/// exactly as with the engine off; what changes is who is billed. Each
/// rank keeps a ProgressLane whose `absorbed` ledger accumulates the
/// virtual seconds a real async engine would have taken off the app path,
/// validated against a deterministic capacity model (below). App-path
/// walltime is then `final_clock - absorbed`. Because app clocks are
/// untouched, same-seed reports are byte-identical with the engine on or
/// off *by construction*; the first-order validity argument (a uniform
/// shift of the instrumentation charge does not change the contention
/// pattern in the paper's < 25 % overhead regime) is in DESIGN.md
/// "Progress engine".
///
/// Determinism: a lane is written only by its owning rank, its
/// frontier advances as a pure function of that rank's own virtual-time
/// history, and the writer share per node is a static function of the
/// partition layout (vmpi::Map::progress_share). Nothing here reads real
/// time or cross-thread mutable state.

#include <algorithm>
#include <cstdint>

namespace esp::net {

/// Engine knobs (ESP_PROGRESS* environment variables via Session).
struct ProgressConfig {
  /// Off by default: the engine is an opt-in ablation axis.
  bool enabled = false;
  /// Virtual seconds of handoff cost retained on the app per drained
  /// block (enqueue into the progress ring is not free).
  double handoff = 50e-9;
  /// Progress-ring depth in blocks: the backlog the engine may buffer
  /// before handoffs stall back onto the app path. Slack is expressed in
  /// *engine* service time (depth x share-scaled per-block service), so
  /// stalls begin exactly when the app sustains block production faster
  /// than the engine's drain rate for `ring_depth` blocks in a row.
  int ring_depth = 8;
};

/// Per-rank progress ledger. Owned by the Runtime, written exclusively by
/// the owning rank's thread — no synchronization required, and post-run
/// reads happen after the thread joined.
struct ProgressLane {
  double frontier = 0.0;   ///< Engine-core virtual-time frontier.
  double absorbed = 0.0;   ///< Virtual seconds taken off the app path.
  double stalled = 0.0;    ///< Absorption denied by ring backlog.
  std::uint64_t blocks = 0;          ///< Handoffs drained.
  std::uint64_t waits_refunded = 0;  ///< Backpressure waits overlapped.
  /// Control-plane bookkeeping (tenant attach/detach drains) attributed
  /// to the engine. Real-time racy by nature, so it is accounted but
  /// never feeds `frontier` or `absorbed` — the deterministic ledgers.
  double control_seconds = 0.0;
  std::uint64_t control_drains = 0;
};

/// Book one staged-block handoff. The app was charged [t0, t1] for the
/// staging serialization; `service` is the contention-free service time
/// of the copy (Machine::copy_service — what the engine core must spend),
/// `share` the static count of sibling writers on this node contending
/// for the node's progress core. Returns the virtual seconds absorbed
/// (credited to `lane.absorbed`); never more than the app was charged.
inline double progress_absorb_copy(ProgressLane& lane,
                                   const ProgressConfig& cfg, double t0,
                                   double t1, double service, int share) {
  const double charged = t1 - t0;
  if (charged <= 0.0 || service <= 0.0) return 0.0;
  if (share < 1) share = 1;
  // The engine core serves this rank's handoff after its own frontier,
  // at 1/share of the core (siblings interleave; static fair share).
  const double e_service = service * static_cast<double>(share);
  const double e_begin = std::max(t0, lane.frontier);
  const double e_done = e_begin + e_service;
  // Ring slack, in engine-service units: the engine may run up to
  // ring_depth blocks behind the app before handoffs stall back onto the
  // app path. Sparse writes let the frontier catch up between blocks
  // (e_begin snaps forward to t0), so a stall needs *sustained*
  // production faster than the engine's share-scaled drain rate — the
  // condition under which a real ring genuinely fills.
  const double slack = static_cast<double>(cfg.ring_depth) * e_service;
  const double stall = std::max(0.0, e_done - t1 - slack);
  double absorbed = std::min(service, charged) - cfg.handoff - stall;
  absorbed = std::clamp(absorbed, 0.0, charged);
  lane.frontier = e_done;
  lane.absorbed += absorbed;
  lane.stalled += stall;
  ++lane.blocks;
  return absorbed;
}

/// Refund a backpressure wait [t0, t1]: an engine whose frontier already
/// cleared the ring by `t` would have reclaimed the slot then, so only
/// the tail the engine was still busy for stays on the app. Returns the
/// refunded seconds (credited to `lane.absorbed`).
inline double progress_absorb_wait(ProgressLane& lane, double t0, double t1) {
  if (t1 <= t0) return 0.0;
  const double refund =
      std::clamp(t1 - std::max(t0, lane.frontier), 0.0, t1 - t0);
  if (refund > 0.0) {
    lane.absorbed += refund;
    ++lane.waits_refunded;
  }
  return refund;
}

}  // namespace esp::net
