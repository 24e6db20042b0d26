#include "engine/thread_pool.h"

#include <utility>

namespace pass {

ThreadPool::ThreadPool(size_t num_threads, size_t max_in_flight)
    : num_threads_(ResolveNumThreads(num_threads)),
      max_in_flight_(max_in_flight) {
  // Workers already run while the vector fills, but they never touch
  // workers_; the lock keeps the guarded write visible to the analysis.
  MutexLock join_lock(join_mu_);
  workers_.reserve(num_threads_);
  for (size_t i = 0; i < num_threads_; ++i) {
    workers_.emplace_back([this] { WorkerLoop(); });
  }
}

ThreadPool::~ThreadPool() { Shutdown(); }

void ThreadPool::Shutdown() {
  {
    MutexLock lock(mu_);
    shutdown_ = true;
  }
  task_ready_.NotifyAll();
  slot_free_.NotifyAll();  // blocked producers wake into rejection
  // join_mu_ serializes concurrent Shutdown callers: joining the same
  // std::thread from two threads is UB, and an early-returning second
  // caller would break the "joins every worker" contract while the first
  // is still mid-join. The joinable() check makes repeat calls no-ops.
  MutexLock join_lock(join_mu_);
  for (std::thread& worker : workers_) {
    if (worker.joinable()) worker.join();
  }
}

bool ThreadPool::Submit(std::function<void()> task) {
  {
    MutexLock lock(mu_);
    while (!shutdown_ && max_in_flight_ != 0 &&
           in_flight_ >= max_in_flight_) {
      slot_free_.Wait(mu_);
    }
    if (shutdown_) return false;
    queue_.push_back(std::move(task));
    ++in_flight_;
  }
  task_ready_.NotifyOne();
  return true;
}

size_t ThreadPool::InFlight() const {
  MutexLock lock(mu_);
  return in_flight_;
}

void ThreadPool::Wait() {
  MutexLock lock(mu_);
  while (in_flight_ != 0) all_done_.Wait(mu_);
}

void ThreadPool::WorkerLoop() {
  for (;;) {
    std::function<void()> task;
    {
      MutexLock lock(mu_);
      while (!shutdown_ && queue_.empty()) task_ready_.Wait(mu_);
      if (queue_.empty()) return;  // shutdown with a drained queue
      task = std::move(queue_.front());
      queue_.pop_front();
    }
    task();
    {
      MutexLock lock(mu_);
      --in_flight_;
      if (in_flight_ == 0) all_done_.NotifyAll();
    }
    // One freed slot admits one blocked producer; a woken producer that
    // loses the slot to a newcomer waits again for the next completion.
    if (max_in_flight_ != 0) slot_free_.NotifyOne();
  }
}

}  // namespace pass
