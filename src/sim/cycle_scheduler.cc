#include "sim/cycle_scheduler.h"

#include <algorithm>
#include <cstdint>

#include "common/logging.h"
#include "common/phase.h"

namespace aspen {
namespace sim {

namespace {

/// Balanced contiguous split: shard i starts at floor(i * n / k), with k
/// clamped to [1, num_nodes].
std::vector<net::NodeId> ComputeShardStarts(int num_nodes, int num_shards) {
  num_shards = std::max(1, std::min(num_shards, num_nodes));
  std::vector<net::NodeId> starts(num_shards);
  for (int i = 0; i < num_shards; ++i) {
    starts[i] = static_cast<net::NodeId>(
        static_cast<int64_t>(i) * num_nodes / num_shards);
  }
  return starts;
}

/// Clears a flag on scope exit, so every return path (including the
/// error returns inside the phase loops) restores it.
class FlagGuard {
 public:
  explicit FlagGuard(bool* flag) : flag_(flag) { *flag_ = true; }
  ~FlagGuard() { *flag_ = false; }
  FlagGuard(const FlagGuard&) = delete;
  FlagGuard& operator=(const FlagGuard&) = delete;

 private:
  bool* flag_;
};

}  // namespace

CycleScheduler::CycleScheduler(net::Network* network, int sample_interval,
                               int num_shards)
    : net_(network),
      sample_interval_(sample_interval),
      starts_(ComputeShardStarts(network->topology().num_nodes(), num_shards)),
      pool_(static_cast<int>(starts_.size()) - 1) {
  ASPEN_CHECK(sample_interval > 0);
  {
    // Construction happens strictly before any cycle runs.
    common::SequentialPhaseScope seq;
    net_->ConfigureSharding(starts_, &pool_);
  }
  shard_job_ = [this](int s) {
    const net::NodeId lo = starts_[s];
    const net::NodeId hi = s + 1 < this->num_shards()
                               ? starts_[s + 1]
                               : net_->topology().num_nodes();
    if (current_is_sample_) {
      current_->OnSampleShard(cycle_, s, lo, hi);
    } else {
      current_->OnDeliverShard(cycle_, s, lo, hi);
    }
  };
}

CycleScheduler::~CycleScheduler() {
  // The network outlives this scheduler but not the owned pool.
  net_->DetachShardPool();
}

void CycleScheduler::Attach(CycleParticipant* participant) {
  ASPEN_CHECK(participant != nullptr);
  participants_.push_back(participant);
}

void CycleScheduler::AttachFront(CycleParticipant* participant) {
  ASPEN_CHECK(participant != nullptr);
  // Prepending shifts indices under the phase loops; only safe between runs.
  ASPEN_CHECK(!dispatching_);
  participants_.insert(participants_.begin(), participant);
}

void CycleScheduler::Detach(CycleParticipant* participant) {
  auto it =
      std::find(participants_.begin(), participants_.end(), participant);
  ASPEN_CHECK(it != participants_.end());
  if (dispatching_) {
    // The phase loops are iterating by index; leave a tombstone they skip
    // and compact at the next cycle boundary.
    *it = nullptr;
  } else {
    participants_.erase(it);
  }
}

void CycleScheduler::SeekTo(int cycle) {
  ASPEN_CHECK(cycle >= cycle_);
  ASPEN_CHECK(!net_->HasTrafficInFlight());
  cycle_ = cycle;
}

void CycleScheduler::Compact() {
  participants_.erase(
      std::remove(participants_.begin(), participants_.end(), nullptr),
      participants_.end());
}

void CycleScheduler::RunShards(CycleParticipant* p, bool sample) {
  current_ = p;
  current_is_sample_ = sample;
  // With one shard the pool runs the single range inline on this thread.
  pool_.Run(num_shards(), shard_job_);
}

Status CycleScheduler::SamplePhase(CycleParticipant* p) {
  ASPEN_RETURN_NOT_OK(p->OnSample(cycle_));
  if (!p->node_range_phases()) return Status::OK();
  RunShards(p, /*sample=*/true);
  return p->OnSampleCommit(cycle_);
}

Status CycleScheduler::DeliverPhase(CycleParticipant* p) {
  ASPEN_RETURN_NOT_OK(p->OnDeliver(cycle_));
  if (!p->node_range_phases()) return Status::OK();
  RunShards(p, /*sample=*/false);
  return p->OnDeliverCommit(cycle_);
}

Status CycleScheduler::RunCycles(int n) {
  Compact();  // tombstones may survive an error-path return
  if (participants_.empty()) {
    return Status::FailedPrecondition("CycleScheduler has no participants");
  }
  ASPEN_CHECK(!dispatching_);
  FlagGuard in_dispatch(&dispatching_);
  // Phase loops iterate by index and re-read size(): a participant attached
  // mid-phase (query admission) is visited later in the same phase, and a
  // tombstoned one (query departure) is skipped from that instant.
  for (int i = 0; i < n; ++i) {
    for (size_t k = 0; k < participants_.size(); ++k) {
      CycleParticipant* p = participants_[k];
      if (p == nullptr) continue;
      ASPEN_RETURN_NOT_OK(SamplePhase(p));
    }
    {
      // The transmit loop runs on the scheduler thread; Step() itself forks
      // the shard compute jobs and rejoins before its exchange phase.
      common::SequentialPhaseScope seq;
      for (int s = 0; s < sample_interval_; ++s) {
        net_->Step();
        if (!net_->HasTrafficInFlight()) break;
      }
    }
    for (size_t k = 0; k < participants_.size(); ++k) {
      CycleParticipant* p = participants_[k];
      if (p == nullptr) continue;
      ASPEN_RETURN_NOT_OK(DeliverPhase(p));
    }
    // Re-optimize phase: sequential, nothing in flight — planned placement
    // migrations advance and periodic re-optimization decides here, so the
    // decisions see identical state at every shard count.
    for (size_t k = 0; k < participants_.size(); ++k) {
      CycleParticipant* p = participants_[k];
      if (p == nullptr) continue;
      ASPEN_RETURN_NOT_OK(p->OnReoptimize(cycle_));
    }
    for (size_t k = 0; k < participants_.size(); ++k) {
      CycleParticipant* p = participants_[k];
      if (p == nullptr) continue;
      ASPEN_RETURN_NOT_OK(p->OnLearn(cycle_));
    }
    ++cycle_;
    Compact();
  }
  // Straggler drain: frames still in the air after the last learn phase
  // (results emitted at the final cycle) are transmitted and delivered so
  // the metrics observed afterwards cover everything the run caused.
  {
    common::SequentialPhaseScope seq;
    net_->StepUntilQuiet(/*max_steps=*/16 * sample_interval_);
  }
  for (size_t k = 0; k < participants_.size(); ++k) {
    CycleParticipant* p = participants_[k];
    if (p == nullptr) continue;
    ASPEN_RETURN_NOT_OK(DeliverPhase(p));
  }
  return Status::OK();
}

}  // namespace sim
}  // namespace aspen
