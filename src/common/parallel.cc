#include "common/parallel.h"

#include <atomic>
#include <thread>
#include <vector>

namespace aspen {
namespace common {

int DefaultThreadCount() {
  unsigned hw = std::thread::hardware_concurrency();
  return hw > 0 ? static_cast<int>(hw) : 1;
}

WorkerPool::WorkerPool(int num_workers) {
  threads_.reserve(num_workers > 0 ? num_workers : 0);
  for (int t = 0; t < num_workers; ++t) {
    threads_.emplace_back([this] { WorkerLoop(); });
  }
}

WorkerPool::~WorkerPool() {
  {
    MutexLock lock(&mu_);
    shutdown_ = true;
  }
  job_ready_.NotifyAll();
  for (auto& th : threads_) th.join();
}

void WorkerPool::RecordError() {
  MutexLock lock(&mu_);
  if (!first_error_) first_error_ = std::current_exception();
}

void WorkerPool::WorkerLoop() {
  uint64_t seen = 0;
  while (true) {
    const std::function<void(int)>* job;
    int size;
    {
      MutexLock lock(&mu_);
      while (!shutdown_ && generation_ == seen) job_ready_.Wait(&mu_);
      if (shutdown_) return;
      seen = generation_;
      job = job_;
      size = job_size_;
    }
    for (int i = next_index_.fetch_add(1); i < size;
         i = next_index_.fetch_add(1)) {
      try {
        (*job)(i);
      } catch (...) {
        RecordError();
      }
    }
    {
      MutexLock lock(&mu_);
      if (--inflight_workers_ == 0) job_done_.NotifyOne();
    }
  }
}

void WorkerPool::Run(int n, const std::function<void(int)>& fn) {
  if (n <= 0) return;
  if (threads_.empty() || n == 1) {
    // Inline path: exceptions propagate to the caller naturally, but later
    // indices do not run — matching the worker path's contract requires the
    // same run-everything-then-throw shape.
    std::exception_ptr err;
    for (int i = 0; i < n; ++i) {
      try {
        fn(i);
      } catch (...) {
        if (!err) err = std::current_exception();
      }
    }
    if (err) std::rethrow_exception(err);
    return;
  }
  {
    MutexLock lock(&mu_);
    job_ = &fn;
    job_size_ = n;
    next_index_.store(0, std::memory_order_relaxed);
    inflight_workers_ = static_cast<int>(threads_.size());
    ++generation_;
  }
  job_ready_.NotifyAll();
  // The caller is a peer of the workers: it drains indices too, so the job
  // finishes even if a worker is slow to wake.
  for (int i = next_index_.fetch_add(1); i < n; i = next_index_.fetch_add(1)) {
    try {
      fn(i);
    } catch (...) {
      RecordError();
    }
  }
  std::exception_ptr err;
  {
    MutexLock lock(&mu_);
    while (inflight_workers_ != 0) job_done_.Wait(&mu_);
    job_ = nullptr;
    err = first_error_;
    first_error_ = nullptr;
  }
  if (err) std::rethrow_exception(err);
}

}  // namespace common
}  // namespace aspen
