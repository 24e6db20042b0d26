#include "engine/batch.h"

#include <future>
#include <utility>

#include "common/macros.h"
#include "common/stopwatch.h"
#include "stats/quantile.h"

namespace pass {

BatchResult RunBatch(QueryScheduler& scheduler, const AqpSystem& system,
                     const std::vector<Query>& queries) {
  BatchResult result;
  result.num_threads = scheduler.num_threads();
  result.answers.resize(queries.size());
  result.latency_ms.resize(queries.size());

  std::vector<std::future<ScheduledAnswer>> futures;
  futures.reserve(queries.size());
  Stopwatch batch_timer;
  for (const Query& query : queries) {
    futures.push_back(scheduler.Submit(system, query));
  }
  for (size_t i = 0; i < futures.size(); ++i) {
    ScheduledAnswer scheduled = futures[i].get();
    PASS_CHECK_MSG(scheduled.status.ok(),
                   scheduled.status.ToString().c_str());
    result.answers[i] = std::move(scheduled.answer);
    result.latency_ms[i] = scheduled.run_ms;
  }
  result.wall_ms = batch_timer.ElapsedMillis();
  return result;
}

BatchErrorSummary ScoreBatch(const BatchResult& result,
                             const std::vector<ExactResult>& truths) {
  PASS_CHECK(result.answers.size() == truths.size());
  BatchErrorSummary summary;
  std::vector<double> rel_errors;
  rel_errors.reserve(truths.size());
  for (size_t i = 0; i < truths.size(); ++i) {
    if (!UsableGroundTruth(truths[i])) continue;
    rel_errors.push_back(
        RelativeError(result.answers[i].estimate.value, truths[i]));
  }
  summary.num_scored = rel_errors.size();
  if (!rel_errors.empty()) {
    summary.median_rel_error = Quantile(rel_errors, 0.5);
    summary.p95_rel_error = Quantile(rel_errors, 0.95);
  }
  return summary;
}

double LatencyQuantileMs(const BatchResult& result, double q) {
  if (result.latency_ms.empty()) return 0.0;
  return Quantile(result.latency_ms, q);
}

}  // namespace pass
