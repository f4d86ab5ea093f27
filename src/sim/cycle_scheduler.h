// The shared event-driven simulation kernel.
//
// One CycleScheduler owns the clock and the phase ordering of a run:
//
//   sample   — every participant samples its sensors and submits the
//              cycle's traffic to the network
//   transmit — the network moves frames hop-by-hop until the sampling
//              interval elapses or the air goes quiet
//   deliver  — arrivals buffered during transmit are applied (join-window
//              insertion, result accounting)
//   learn    — participants run adaptation (selectivity re-estimation,
//              migration) and advance their windows
//
// Single-query execution (JoinExecutor::RunCycles on an owned network) and
// multi-query execution (SharedMedium) are both thin wrappers over this one
// loop; a participant is one query's protocol logic hosted on the kernel.
// The scheduler persists across RunCycles calls, so a run can be continued
// (RunCycles(5) twice == RunCycles(10) cycle-for-cycle, modulo the straggler
// drain performed after every call).
//
// The node space is partitioned into K contiguous id ranges (shards; node
// ids are spatially coherent, so on a grid a range is a strip of the
// deployment). K = 1 is one range run inline on the calling thread; K > 1
// runs the ranges on a WorkerPool of K - 1 workers plus the caller, both in
// Network::Step's compute phase and in the node-range passes of the sample
// and deliver phases. Every cross-range effect is merged in an order
// derived from content (node ids, message ids, mailbox positions), never
// from K or thread timing, so a run's TrafficStats, results and RNG streams
// are byte-identical for every K. See DESIGN.md ("Sharded execution").

#ifndef ASPEN_SIM_CYCLE_SCHEDULER_H_
#define ASPEN_SIM_CYCLE_SCHEDULER_H_

#include <functional>
#include <vector>

#include "common/parallel.h"
#include "common/status.h"
#include "net/network.h"

namespace aspen {
namespace sim {

/// \brief One query's protocol logic hosted on the kernel. Phase hooks are
/// invoked in registration order; `cycle` is the scheduler's clock value.
///
/// The sample and deliver phases may additionally be split by node range.
/// A participant that returns true from node_range_phases() gets, after its
/// OnSample (resp. OnDeliver) returned OK, one OnSampleShard (resp.
/// OnDeliverShard) call per shard — concurrently when K > 1, each over its
/// shard's contiguous node range [begin, end) — and then OnSampleCommit
/// (resp. OnDeliverCommit), before the scheduler moves on to the next
/// participant. OnSample/OnDeliver and the commits run on the scheduler
/// thread; a shard pass may only mutate state owned by its node range or
/// its own per-shard scratch, and the phase's outcome must not depend on
/// the shard count.
class CycleParticipant {
 public:
  virtual ~CycleParticipant() = default;

  /// Sample phase: sample producers and submit this cycle's data traffic
  /// (with node-range phases: the sequential preparation of the shard
  /// passes).
  virtual Status OnSample(int cycle) = 0;

  /// Deliver phase: apply arrivals buffered during transmit (with
  /// node-range phases: the sequential preparation of the shard passes).
  /// Also invoked once after the final straggler drain of a RunCycles call.
  virtual Status OnDeliver(int cycle) = 0;

  /// True when the node-range hooks below carry the participant's work.
  /// False (the default) means the scheduler never calls them, so a plain
  /// participant costs no pool dispatch.
  virtual bool node_range_phases() const { return false; }

  /// Node-range pass of the sample (resp. deliver) phase, and the commit
  /// that applies what the passes staged, in one canonical order.
  virtual void OnSampleShard(int /*cycle*/, int /*shard*/,
                             net::NodeId /*begin*/, net::NodeId /*end*/) {}
  virtual Status OnSampleCommit(int cycle) {
    (void)cycle;
    return Status::OK();
  }
  virtual void OnDeliverShard(int /*cycle*/, int /*shard*/,
                              net::NodeId /*begin*/, net::NodeId /*end*/) {}
  virtual Status OnDeliverCommit(int cycle) {
    (void)cycle;
    return Status::OK();
  }

  /// Re-optimize phase: runs after deliver and before learn, strictly
  /// sequential with nothing in flight (the transmit loop drained and
  /// every deliver commit applied). This is where continuous
  /// re-optimization advances planned placement migrations and — on its
  /// period — re-runs the cost model against live estimates: decisions
  /// made here see identical state for every shard count, which is what
  /// keeps migrations byte-identical. Not invoked during the straggler
  /// drain after the last cycle. Default: no-op.
  virtual Status OnReoptimize(int cycle) {
    (void)cycle;
    return Status::OK();
  }

  /// Learn phase: estimator ticks, adaptation, window advance.
  virtual Status OnLearn(int cycle) = 0;
};

/// \brief Owns the clock and drives the phase loop over one network.
class CycleScheduler {
 public:
  /// `network` must outlive the scheduler and carry no traffic yet.
  /// `sample_interval` is the number of transmission cycles available per
  /// sampling cycle. `num_shards` is clamped to [1, node count]; the
  /// network is partitioned accordingly and steps on the scheduler's pool.
  CycleScheduler(net::Network* network, int sample_interval,
                 int num_shards = 1);
  ~CycleScheduler();

  CycleScheduler(const CycleScheduler&) = delete;
  CycleScheduler& operator=(const CycleScheduler&) = delete;

  /// Registers a participant. It must outlive the scheduler (or Detach
  /// first). May be called mid-run — from inside another participant's
  /// phase hook — in which case the new participant joins the *current*
  /// phase after every earlier participant: a query admitted during the
  /// cycle-N sample phase samples at cycle N.
  void Attach(CycleParticipant* participant);

  /// Registers a participant ahead of everything already attached. Scenario
  /// dynamics (scenario::ScenarioDriver) attach here so a mutation
  /// scheduled for cycle N is applied before any query samples at cycle N,
  /// regardless of construction order. Not valid mid-run.
  void AttachFront(CycleParticipant* participant);

  /// \brief Unregisters a participant; its phase hooks stop firing. May be
  /// called mid-run (query departure): the slot is tombstoned so the
  /// in-progress phase loop skips it, and compacted at the next cycle
  /// boundary. A participant detached during the cycle-N sample phase
  /// before its own turn never samples at cycle N.
  void Detach(CycleParticipant* participant);

  /// \brief Advances the clock to `cycle` without running any phases, so a
  /// fresh run can reproduce a query admitted mid-run on a shared medium
  /// (sampling is a pure function of the cycle number). Requires
  /// cycle >= cycle() and no traffic in flight.
  void SeekTo(int cycle);

  /// \brief Runs `n` sampling cycles, then drains straggler frames (e.g.
  /// results emitted at the last cycle's end) and delivers them, so the
  /// metrics observed afterwards cover everything the run caused. May be
  /// called repeatedly to continue a run.
  Status RunCycles(int n);

  int cycle() const { return cycle_; }
  int sample_interval() const { return sample_interval_; }
  /// The number of node ranges, after clamping.
  int num_shards() const { return static_cast<int>(starts_.size()); }
  net::Network& network() { return *net_; }

 private:
  /// One participant's sample (resp. deliver) phase: the plain hook, then
  /// — for node-range participants — every shard pass and the commit.
  Status SamplePhase(CycleParticipant* p);
  Status DeliverPhase(CycleParticipant* p);
  /// Runs `p`'s sample or deliver shard pass over every node range.
  void RunShards(CycleParticipant* p, bool sample);
  /// Erases tombstones left by mid-run Detach calls.
  void Compact();

  net::Network* net_;
  int sample_interval_;
  /// Detached-mid-run slots are tombstoned (nullptr) and compacted at the
  /// next cycle boundary; phase loops iterate by index so mid-phase
  /// attaches are picked up within the same phase.
  std::vector<CycleParticipant*> participants_;
  int cycle_ = 0;
  bool dispatching_ = false;

  /// starts_[i] is the first node of shard i (starts_[0] == 0).
  std::vector<net::NodeId> starts_;
  common::WorkerPool pool_;
  /// The shard pass RunShards is running; shard_job_ reads these so one
  /// job object serves every pass (no per-call allocation).
  CycleParticipant* current_ = nullptr;
  bool current_is_sample_ = false;
  std::function<void(int)> shard_job_;
};

}  // namespace sim
}  // namespace aspen

#endif  // ASPEN_SIM_CYCLE_SCHEDULER_H_
