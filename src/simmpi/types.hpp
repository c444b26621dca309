#pragma once
/// \file types.hpp
/// \brief Fundamental types of the esp::mpi message-passing runtime.
///
/// esp::mpi substitutes for the real MPI library of the paper: every rank
/// is a thread inside one OS process, data really moves between ranks, and
/// time is charged on per-rank *virtual clocks* by the calibrated machine
/// model (net::Machine). The API deliberately mirrors MPI's shape — a
/// public `MPI_`-like layer that dispatches through a PNMPI-style tool
/// chain, and a `PMPI_`-like base layer (`p*` methods) used by tools and
/// internal algorithms so interception never recurses.

#include <cstddef>
#include <cstdint>

namespace esp::mpi {

/// Wildcards, mirroring MPI_ANY_SOURCE / MPI_ANY_TAG.
inline constexpr int kAnySource = -1;
inline constexpr int kAnyTag = -1;

/// Builtin datatypes; the runtime is byte-oriented, datatypes matter only
/// to reduction operators.
enum class Datatype : std::uint8_t { Byte, Int32, Int64, Double };

constexpr std::size_t datatype_size(Datatype t) noexcept {
  switch (t) {
    case Datatype::Byte: return 1;
    case Datatype::Int32: return 4;
    case Datatype::Int64: return 8;
    case Datatype::Double: return 8;
  }
  return 1;
}

/// Builtin reduction operators.
enum class ReduceOp : std::uint8_t { Sum, Min, Max, Prod };

/// Status::error value: the peer rank died before (or while) the matched
/// operation could complete. `bytes` is 0 and no payload was delivered.
inline constexpr int kErrPeerDead = 1;

/// Completion information for a receive.
struct Status {
  int source = kAnySource;  ///< Communicator rank of the sender.
  int tag = kAnyTag;
  std::uint64_t bytes = 0;  ///< Logical bytes delivered (size-only too).
  int error = 0;            ///< 0 = success; kErrPeerDead = peer crashed.
};

/// Every interceptable entry point. Used by the tool chain and by the
/// instrumentation event model (events carry the CallKind directly).
enum class CallKind : std::uint8_t {
  Send,
  Recv,
  Isend,
  Irecv,
  Wait,
  Waitall,
  Test,
  Probe,
  Barrier,
  Bcast,
  Reduce,
  Allreduce,
  Gather,
  Allgather,
  Alltoall,
  Scan,
  CommSplit,
  CommDup,
  Init,
  Finalize,
  kCount,
};

const char* call_kind_name(CallKind k) noexcept;

/// True for the point-to-point subset (used by the topological module).
constexpr bool is_point_to_point(CallKind k) noexcept {
  return k == CallKind::Send || k == CallKind::Recv || k == CallKind::Isend ||
         k == CallKind::Irecv;
}

/// True for collective operations (Fig. 18c groups these).
constexpr bool is_collective(CallKind k) noexcept {
  switch (k) {
    case CallKind::Barrier:
    case CallKind::Bcast:
    case CallKind::Reduce:
    case CallKind::Allreduce:
    case CallKind::Gather:
    case CallKind::Allgather:
    case CallKind::Alltoall:
    case CallKind::Scan:
      return true;
    default:
      return false;
  }
}

/// True for completion calls (Fig. 18d maps time in waits).
constexpr bool is_wait(CallKind k) noexcept {
  return k == CallKind::Wait || k == CallKind::Waitall || k == CallKind::Test;
}

}  // namespace esp::mpi
