#ifndef PASS_SHARD_PARALLEL_SHARD_EXECUTOR_H_
#define PASS_SHARD_PARALLEL_SHARD_EXECUTOR_H_

#include <cstddef>
#include <functional>

#include "engine/thread_pool.h"

namespace pass {

/// Fans one query's per-shard work across a fixed-size thread pool and
/// blocks until every shard finished. Deliberately a *separate* pool from
/// QueryScheduler's: sharded engines answer queries from inside scheduler
/// worker threads, and queuing shard tasks behind blocked query tasks in
/// one shared pool would deadlock.
///
/// Work is index-addressed (fn(shard_index) writes its own slot), so
/// results are identical to a sequential loop regardless of scheduling.
class ParallelShardExecutor {
 public:
  /// `num_threads` = 0 means std::thread::hardware_concurrency.
  explicit ParallelShardExecutor(size_t num_threads = 0);

  /// Process-wide executor per pool size, mirroring QueryScheduler::Shared.
  /// Thread-safe; created on first use and kept for the process lifetime.
  static ParallelShardExecutor& Shared(size_t num_threads = 0);

  size_t num_threads() const { return pool_.num_threads(); }

  /// Runs fn(0) .. fn(num_shards - 1) on the pool and waits for all of
  /// them. fn must not throw; distinct indices must write disjoint state.
  /// Safe to call concurrently from multiple threads on one executor.
  void ForEachShard(size_t num_shards,
                    const std::function<void(size_t)>& fn) const;

 private:
  mutable ThreadPool pool_;
};

}  // namespace pass

#endif  // PASS_SHARD_PARALLEL_SHARD_EXECUTOR_H_
