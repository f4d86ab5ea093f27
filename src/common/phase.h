// The sequential-phase capability: the compile-time encoding of the sharded
// kernel's phase discipline.
//
// The simulation alternates between shard-parallel compute phases (K worker
// threads walk disjoint node ranges; they may only read shared state and
// write shard-local scratch) and sequential exchange phases (one thread
// merges deferred effects in canonical order and mutates global state).
// Every mutation-layer function is declared ASPEN_REQUIRES_SEQUENTIAL; the
// sequential entry points (scheduler commit hooks, handler dispatch, test
// bodies driving the network directly) open a SequentialPhaseScope. Shard
// hooks (OnSampleShard / OnDeliverShard / ComputeShard) never hold the
// capability, so calling an exchange-only mutator from a shard hook fails
// to compile under clang -Wthread-safety (-Werror).
//
// The capability is phantom: acquiring it costs nothing at runtime (no
// mutex, no atomic — the phases are already serialized by the scheduler's
// fork/join structure). It exists purely so the compiler can check who is
// allowed to call what. detlint rule DL006 closes the loop from the other
// side: opening a SequentialPhaseScope inside a shard-path function body is
// a lint error, so the capability cannot be forged where it does not hold.

#ifndef ASPEN_COMMON_PHASE_H_
#define ASPEN_COMMON_PHASE_H_

#include "common/thread_annotations.h"

namespace aspen {
namespace common {

/// Phantom capability representing "this thread is executing the sequential
/// phase of the cycle" (exchange, commit, init, teardown, scenario events).
class ASPEN_CAPABILITY("sequential phase") SequentialPhase {
 public:
  constexpr SequentialPhase() = default;
  SequentialPhase(const SequentialPhase&) = delete;
  SequentialPhase& operator=(const SequentialPhase&) = delete;
};

/// The single global instance all annotations refer to.
inline constexpr SequentialPhase kSequentialPhase{};

/// RAII assertion that the current code runs in the sequential phase.
/// Opened by sequential entry points only — never inside shard hooks
/// (detlint DL006). Zero-cost: the constructor and destructor are empty.
class ASPEN_SCOPED_CAPABILITY SequentialPhaseScope {
 public:
  SequentialPhaseScope() ASPEN_ACQUIRE(kSequentialPhase) {}
  ~SequentialPhaseScope() ASPEN_RELEASE() {}

  SequentialPhaseScope(const SequentialPhaseScope&) = delete;
  SequentialPhaseScope& operator=(const SequentialPhaseScope&) = delete;
};

}  // namespace common
}  // namespace aspen

/// Declares that a function mutates exchange-phase state and may only be
/// called from the sequential phase.
#define ASPEN_REQUIRES_SEQUENTIAL \
  ASPEN_REQUIRES(::aspen::common::kSequentialPhase)

/// Data members that only the sequential phase may touch.
#define ASPEN_GUARDED_BY_SEQUENTIAL \
  ASPEN_GUARDED_BY(::aspen::common::kSequentialPhase)

#endif  // ASPEN_COMMON_PHASE_H_
