#include "harness/metrics.h"

#include <algorithm>
#include <cmath>

#include "common/macros.h"
#include "engine/batch.h"
#include "engine/exact_system.h"
#include "stats/quantile.h"

namespace pass {

std::vector<ExactResult> ComputeGroundTruth(
    const Dataset& data, const std::vector<Query>& queries) {
  const ExactSystem exact(data);
  const BatchResult batch =
      RunBatch(QueryScheduler::Shared(/*num_threads=*/0), exact, queries);
  std::vector<ExactResult> out;
  out.reserve(queries.size());
  for (const QueryAnswer& answer : batch.answers) {
    ExactResult truth;
    truth.value = answer.estimate.value;
    truth.matched = answer.matched_sample_rows;
    out.push_back(truth);
  }
  return out;
}

RunSummary EvaluateSystem(const AqpSystem& system,
                          const std::vector<Query>& queries,
                          const std::vector<ExactResult>& truths,
                          const EvalOptions& options) {
  PASS_CHECK(queries.size() == truths.size());
  RunSummary summary;
  summary.system = system.Name();
  summary.num_queries = queries.size();
  summary.costs = system.Costs();

  // One execution path: RunBatch submits every query to the shared
  // QueryScheduler and waits on the batch's own futures, so harness
  // numbers and async serving answers are the same bits.
  const BatchResult batch =
      RunBatch(QueryScheduler::Shared(options.num_threads), system, queries);

  std::vector<double> rel_errors;
  std::vector<double> ci_ratios;
  double skip_acc = 0.0;
  double ess_acc = 0.0;
  double latency_acc = 0.0;
  size_t ci_covered = 0;
  size_t hard_covered = 0;

  for (size_t i = 0; i < queries.size(); ++i) {
    const QueryAnswer& answer = batch.answers[i];
    const double latency_ms = batch.latency_ms[i];
    latency_acc += latency_ms;
    summary.max_latency_ms = std::max(summary.max_latency_ms, latency_ms);
    skip_acc += answer.SkipRate();
    ess_acc += static_cast<double>(answer.sample_rows_scanned);

    const ExactResult& truth = truths[i];
    if (!UsableGroundTruth(truth)) continue;
    ++summary.num_scored;

    rel_errors.push_back(RelativeError(answer.estimate.value, truth));
    ci_ratios.push_back(answer.estimate.HalfWidth(options.lambda) /
                        std::abs(truth.value));
    if (answer.estimate.Contains(truth.value, options.lambda)) ++ci_covered;
    if (answer.hard_lb && answer.hard_ub) {
      ++summary.hard_given;
      const double slack =
          1e-9 * (1.0 + std::abs(truth.value));  // float round-off
      if (truth.value >= *answer.hard_lb - slack &&
          truth.value <= *answer.hard_ub + slack) {
        ++hard_covered;
      }
    }
  }

  const double nq = static_cast<double>(queries.size());
  summary.mean_skip_rate = skip_acc / std::max(nq, 1.0);
  summary.mean_ess = ess_acc / std::max(nq, 1.0);
  summary.mean_latency_ms = latency_acc / std::max(nq, 1.0);
  if (!batch.latency_ms.empty()) {
    summary.p50_latency_ms = LatencyQuantileMs(batch, 0.5);
    summary.p95_latency_ms = LatencyQuantileMs(batch, 0.95);
  }
  summary.batch_qps = batch.Throughput();
  if (!rel_errors.empty()) {
    summary.median_rel_error = Median(rel_errors);
    summary.p95_rel_error = Quantile(rel_errors, 0.95);
    double acc = 0.0;
    for (const double e : rel_errors) acc += e;
    summary.mean_rel_error = acc / static_cast<double>(rel_errors.size());
    summary.ci_coverage = static_cast<double>(ci_covered) /
                          static_cast<double>(rel_errors.size());
  }
  if (!ci_ratios.empty()) summary.median_ci_ratio = Median(ci_ratios);
  summary.hard_coverage =
      summary.hard_given == 0
          ? 1.0
          : static_cast<double>(hard_covered) /
                static_cast<double>(summary.hard_given);
  return summary;
}

}  // namespace pass
