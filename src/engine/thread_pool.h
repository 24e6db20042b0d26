#ifndef PASS_ENGINE_THREAD_POOL_H_
#define PASS_ENGINE_THREAD_POOL_H_

#include <cstddef>
#include <deque>
#include <functional>
#include <thread>
#include <vector>

#include "common/mutex.h"
#include "common/thread_annotations.h"

namespace pass {

/// Fixed-size worker pool and the serving layer's only admission gate.
/// Deliberately simple: a mutex-guarded FIFO is plenty for
/// query-granularity tasks (each task scans a sample), and the fixed size
/// is what serving layers want — the thread count is a capacity decision,
/// not a per-batch one.
///
/// Admission: the pool counts every accepted task until it has finished
/// (queued + running). With `max_in_flight` > 0, Submit blocks the
/// producer while that count is at capacity; a completion or Shutdown()
/// wakes it. 0 = unbounded, and then neither Submit nor a completion pays
/// anything for the bound.
///
/// Shutdown contract: `Shutdown()` stops admission, wakes producers
/// blocked on the bound, runs every task that was already accepted, and
/// joins the workers (the destructor calls it). Submit after Shutdown has
/// begun returns false in every build and destroys the task unrun, so a
/// layer above (QueryScheduler resolving a future with kUnavailable) turns
/// that return value into its own graceful answer.
class ThreadPool {
 public:
  /// Spawns `num_threads` workers; 0 means std::thread::hardware_concurrency.
  /// `max_in_flight` bounds accepted-but-unfinished tasks; 0 = unbounded.
  explicit ThreadPool(size_t num_threads, size_t max_in_flight = 0);
  ~ThreadPool();

  /// The single definition of the 0-means-hardware rule, shared by the
  /// constructor and by caches keyed on pool width (QueryScheduler::Shared).
  static size_t ResolveNumThreads(size_t requested) {
    if (requested != 0) return requested;
    const size_t hardware = std::thread::hardware_concurrency();
    return hardware == 0 ? 1 : hardware;
  }

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Immutable after construction, so readable without a lock even while
  /// Shutdown() joins the workers (joining mutates workers_ under join_mu_).
  size_t num_threads() const { return num_threads_; }
  size_t max_in_flight() const { return max_in_flight_; }

  /// Enqueues a task. Tasks must not throw. Blocks only while a bounded
  /// pool is at capacity. Returns true if the task was accepted, false
  /// once Shutdown() has begun (the task is destroyed without running).
  bool Submit(std::function<void()> task) EXCLUDES(mu_);

  /// Accepted tasks that have not finished yet (queued + running).
  size_t InFlight() const EXCLUDES(mu_);

  /// The drain: blocks until every accepted task, from any submitter, has
  /// finished. With concurrent submitters this is a global quiescence
  /// point, not a per-caller barrier — RunBatch and the shard fan-out
  /// wait on their own futures/latches for exactly that reason.
  void Wait() EXCLUDES(mu_);

  /// Stops admission, drains the queue, and joins every worker. Idempotent
  /// and callable exactly like the destructor (which invokes it); every
  /// caller, a concurrent second one included, returns only after the
  /// drain. After Shutdown returns, Submit returns false and Wait returns
  /// immediately.
  void Shutdown() EXCLUDES(mu_, join_mu_);

 private:
  void WorkerLoop() EXCLUDES(mu_);

  mutable Mutex mu_;
  Mutex join_mu_ ACQUIRED_AFTER(mu_);  // serializes concurrent Shutdown joins
  CondVar task_ready_;
  CondVar all_done_;
  CondVar slot_free_;  // bounded pools only: a completion frees a slot
  std::deque<std::function<void()>> queue_ GUARDED_BY(mu_);
  size_t in_flight_ GUARDED_BY(mu_) = 0;  // queued + currently running tasks
  bool shutdown_ GUARDED_BY(mu_) = false;
  const size_t num_threads_;
  const size_t max_in_flight_;
  std::vector<std::thread> workers_ GUARDED_BY(join_mu_);
};

}  // namespace pass

#endif  // PASS_ENGINE_THREAD_POOL_H_
