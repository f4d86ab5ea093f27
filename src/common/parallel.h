// Persistent fork-join pool: run fn(0..n-1) on a bounded set of parked
// workers plus the caller. The sharded kernel runs its node-range phases
// on one; core::RunAveraged runs its embarrassingly parallel repetitions
// on another (each owns its workload, network and RNG, and the only shared
// object, the Topology, is immutable).

#ifndef ASPEN_COMMON_PARALLEL_H_
#define ASPEN_COMMON_PARALLEL_H_

#include <atomic>
#include <cstdint>
#include <exception>
#include <functional>
#include <thread>
#include <vector>

#include "common/mutex.h"
#include "common/thread_annotations.h"

namespace aspen {
namespace common {

/// Hardware concurrency, at least 1.
int DefaultThreadCount();

/// \brief Persistent fork-join pool for phase-structured work.
///
/// The worker threads are spawned once and parked on a condition variable
/// between jobs, so a Run() costs two wakeup/park cycles instead of thread
/// creation — cheap enough to call once per simulation phase (the sharded
/// kernel runs several Run()s per transmission cycle).
/// Run() holds the job by pointer and never copies the callable, so a
/// steady-state Run() performs no heap allocation.
class WorkerPool {
 public:
  /// Spawns `num_workers` parked threads (0 is valid: every Run() then
  /// executes inline on the caller).
  explicit WorkerPool(int num_workers);
  ~WorkerPool();

  WorkerPool(const WorkerPool&) = delete;
  WorkerPool& operator=(const WorkerPool&) = delete;

  /// Invokes `fn(i)` for every i in [0, n); the caller participates, so all
  /// n indices complete even with zero workers. Blocks until done. Not
  /// reentrant; only one Run() may be active at a time.
  ///
  /// Exception contract: a throwing fn(i) does not abort the job — every
  /// index still runs (the sharded kernel's phase barriers assume full
  /// coverage) — and the first exception recorded is rethrown on the
  /// caller's thread after the join, leaving the pool reusable.
  void Run(int n, const std::function<void(int)>& fn);

  int num_workers() const { return static_cast<int>(threads_.size()); }

 private:
  void WorkerLoop();

  /// Records the currently in-flight exception as the job's outcome if it
  /// is the first; later exceptions from the same job are dropped.
  void RecordError() ASPEN_EXCLUDES(mu_);

  Mutex mu_;
  CondVar job_ready_;
  CondVar job_done_;
  // Borrowed during Run(); never copied.
  const std::function<void(int)>* job_ ASPEN_GUARDED_BY(mu_) = nullptr;
  int job_size_ ASPEN_GUARDED_BY(mu_) = 0;
  uint64_t generation_ ASPEN_GUARDED_BY(mu_) = 0;
  std::atomic<int> next_index_{0};
  int inflight_workers_ ASPEN_GUARDED_BY(mu_) = 0;
  bool shutdown_ ASPEN_GUARDED_BY(mu_) = false;
  std::exception_ptr first_error_ ASPEN_GUARDED_BY(mu_);
  std::vector<std::thread> threads_;  // written by ctor/dtor only
};

}  // namespace common
}  // namespace aspen

#endif  // ASPEN_COMMON_PARALLEL_H_
