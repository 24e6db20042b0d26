#ifndef PASS_ENGINE_BATCH_H_
#define PASS_ENGINE_BATCH_H_

#include <cstddef>
#include <vector>

#include "core/aqp_system.h"
#include "core/exact.h"
#include "core/query.h"
#include "engine/query_scheduler.h"

namespace pass {

/// Result of answering one batch. Everything is index-aligned with the
/// input query vector, so results are identical to a sequential loop no
/// matter how many threads answered the batch (every AqpSystem::Answer in
/// this repository is const and deterministic).
struct BatchResult {
  std::vector<QueryAnswer> answers;
  std::vector<double> latency_ms;  // per-query wall time (the Answer call)
  double wall_ms = 0.0;            // whole-batch wall time
  size_t num_threads = 1;

  /// Queries per second over the batch wall time.
  double Throughput() const {
    return wall_ms > 0.0 ? answers.size() / (wall_ms / 1e3) : 0.0;
  }
};

/// Per-query accuracy of a batch against ground truth, for the serving
/// metrics the benches and CI artifacts report.
struct BatchErrorSummary {
  size_t num_scored = 0;        // queries with usable non-zero truth
  double median_rel_error = 0.0;
  double p95_rel_error = 0.0;
};

/// The synchronous face of the serving layer: submits every query to
/// `scheduler` and waits on the batch's own futures, so batch answers and
/// async answers are the same bits by construction. answers[i] corresponds
/// to queries[i]. Safe to call concurrently on one scheduler: batches
/// share its workers but each call waits on (and times) only its own
/// futures. The scheduler must not be shut down and no query carries a
/// deadline, so every submission resolves with an answer (fail-fast
/// otherwise). Closed batches (the harness, the paper benches) pass
/// QueryScheduler::Shared(n).
BatchResult RunBatch(QueryScheduler& scheduler, const AqpSystem& system,
                     const std::vector<Query>& queries);

/// Scores a batch against precomputed ground truth (index-aligned).
BatchErrorSummary ScoreBatch(const BatchResult& result,
                             const std::vector<ExactResult>& truths);

/// Latency quantile over a batch, in milliseconds. q in [0, 1].
double LatencyQuantileMs(const BatchResult& result, double q);

}  // namespace pass

#endif  // PASS_ENGINE_BATCH_H_
