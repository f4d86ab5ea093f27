// The adaptive loop (Section 6 closed at runtime).
//
// Without it a query's plan is frozen at admission: the cost model and the
// selectivity estimators run once, up front, and the paper's 33%-divergence
// trigger is never consulted again. ReoptController is the per-query piece
// that closes the loop: it paces periodic re-estimation and the estimator
// counter resets off the query's own learn ticks (so a query admitted
// mid-run on a shared medium adapts on *its* clock, not the medium's),
// gates each pass on the divergence trigger, and accounts the planned
// migrations the executor derives from a pass. The executor consumes it
// from the scheduler's sequential re-optimize hook
// (sim::CycleParticipant::OnReoptimize), so every decision is made in the
// exchange phase with nothing in flight — which is what keeps migrations
// byte-identical across shard counts.

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
/// controller arms a pass every `interval` ticks and a counter reset every
/// `reset_interval` ticks. The executor's re-optimize hook drains the armed
/// pass with TakeDue() and runs it: for each placement it asks
/// ShouldReplan() whether the live estimate diverged from the estimate the
/// placement was chosen with, and only then re-runs the cost model. It then
/// drains TakeReset(), so a reset armed on the same tick as a pass clears
/// the counters only after that pass read them. `interval <= 0` disables
/// the loop entirely; `reset_interval <= 0` never resets.
class ReoptController {
 public:
  ReoptController() = default;
  ReoptController(int interval, double threshold, int reset_interval = 0)
      : interval_(interval),
        threshold_(threshold),
        reset_interval_(reset_interval) {}

  bool enabled() const { return interval_ > 0; }
  int interval() const { return interval_; }
  double threshold() const { return threshold_; }

  /// One learn phase elapsed for this query. Arms a pass every `interval`
  /// ticks and a reset every `reset_interval` ticks (query-local, so
  /// mid-run admission does not skew either period).
  void Tick() {
    if (!enabled()) return;
    ++ticks_;
    if (ticks_ % interval_ == 0) due_ = true;
    if (reset_interval_ > 0 && ticks_ % reset_interval_ == 0) {
      reset_due_ = true;
    }
  }

  /// True exactly once per armed period: the caller runs a pass now.
  bool TakeDue() {
    const bool due = due_;
    due_ = false;
    if (due) ++passes_;
    return due;
  }

  /// True exactly once per armed reset: the caller clears its estimators.
  bool TakeReset() {
    const bool due = reset_due_;
    reset_due_ = false;
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
  int reset_interval_ = 0;
  int64_t ticks_ = 0;
  bool due_ = false;
  bool reset_due_ = false;
  uint64_t passes_ = 0;     ///< armed periods consumed via TakeDue()
  uint64_t planned_ = 0;    ///< migrations entered into the 3-phase protocol
  uint64_t completed_ = 0;  ///< migrations that finished all three phases
  uint64_t aborted_ = 0;    ///< migrations abandoned mid-protocol (dead site)
};

}  // namespace adapt
}  // namespace aspen

#endif  // ASPEN_ADAPT_REOPT_H_
