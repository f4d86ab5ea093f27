// The continuous re-optimization loop (Section 6 closed at runtime).
//
// A query's plan used to be frozen at admission: the cost model and the
// selectivity estimators ran once, up front, and the paper's 33%-divergence
// trigger was never consulted again. ReoptController is the per-query piece
// that closes the loop: it paces periodic re-estimation off the query's own
// learn ticks (so a query admitted mid-run on a shared medium re-optimizes
// on *its* clock, not the medium's), gates each pass on the divergence
// trigger, and accounts the planned migrations the executor derives from a
// pass. The executor consumes it from the scheduler's sequential
// re-optimize hook (sim::CycleParticipant::OnReoptimize), so every decision
// is made in the exchange phase with nothing in flight — which is what
// keeps migrations byte-identical across shard counts.

#ifndef ASPEN_ADAPT_REOPT_H_
#define ASPEN_ADAPT_REOPT_H_

#include <cstdint>

#include "adapt/estimator.h"
#include "workload/selectivity.h"

namespace aspen {
namespace adapt {

/// \brief Paces and gates one query's continuous re-optimization.
///
/// Tick() is called once per learn phase (after estimators ticked); the
/// controller arms itself every `interval` ticks. The executor's
/// re-optimize hook drains the armed flag with TakeDue() and runs a pass:
/// for each placement it asks ShouldReplan() whether the live estimate
/// diverged from the estimate the placement was chosen with, and only then
/// re-runs the cost model. `interval <= 0` disables the loop entirely.
class ReoptController {
 public:
  ReoptController() = default;
  ReoptController(int interval, double threshold)
      : interval_(interval), threshold_(threshold) {}

  bool enabled() const { return interval_ > 0; }
  int interval() const { return interval_; }
  double threshold() const { return threshold_; }

  /// One learn phase elapsed for this query. Arms a pass every `interval`
  /// ticks (query-local, so mid-run admission does not skew the period).
  void Tick() {
    if (!enabled()) return;
    if (++ticks_ % interval_ == 0) due_ = true;
  }

  /// True exactly once per armed period: the caller runs a pass now.
  bool TakeDue() {
    const bool due = due_;
    due_ = false;
    if (due) ++passes_;
    return due;
  }

  /// The paper's Section 6 trigger: replan a pair only when the fresh
  /// estimate diverged from the placement-time reference past the
  /// configured threshold.
  bool ShouldReplan(const workload::SelectivityParams& fresh,
                    const workload::SelectivityParams& reference) const {
    return SelectivityEstimator::Diverged(fresh, reference, threshold_);
  }

  void RecordPlanned() { ++planned_; }
  void RecordCompleted() { ++completed_; }
  void RecordAborted() { ++aborted_; }

  int64_t ticks() const { return ticks_; }
  uint64_t passes() const { return passes_; }
  uint64_t planned() const { return planned_; }
  uint64_t completed() const { return completed_; }
  uint64_t aborted() const { return aborted_; }

 private:
  int interval_ = 0;
  double threshold_ = 0.33;
  int64_t ticks_ = 0;
  bool due_ = false;
  uint64_t passes_ = 0;     ///< armed periods consumed via TakeDue()
  uint64_t planned_ = 0;    ///< migrations entered into the 3-phase protocol
  uint64_t completed_ = 0;  ///< migrations that finished all three phases
  uint64_t aborted_ = 0;    ///< migrations abandoned mid-protocol (dead site)
};

}  // namespace adapt
}  // namespace aspen

#endif  // ASPEN_ADAPT_REOPT_H_
