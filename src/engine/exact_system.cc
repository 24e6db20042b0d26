#include "engine/exact_system.h"

#include "core/exact.h"

namespace pass {

QueryAnswer ExactSystem::AnswerImpl(const Query& query,
                                    const AnswerOptions& options) const {
  (void)options;  // exact scans answer in full; budgets don't apply
  const ExactResult truth = ExactAnswer(*data_, query);
  QueryAnswer answer;
  answer.estimate.value = truth.value;
  answer.estimate.variance = 0.0;
  answer.exact = true;
  answer.hard_lb = truth.value;
  answer.hard_ub = truth.value;
  answer.population_rows = data_->NumRows();
  answer.sample_rows_scanned = data_->NumRows();
  answer.matched_sample_rows = truth.matched;
  return answer;
}

MultiAnswer ExactSystem::AnswerMultiImpl(const Rect& predicate,
                                         const AnswerOptions& options) const {
  (void)options;
  const ExactMultiResult truth = ExactMultiAnswer(*data_, predicate);
  MultiAnswer out;
  out.fused = true;  // deterministic answers: the zero covariance is exact
  const auto fill = [&](double value) {
    QueryAnswer answer;
    answer.estimate.value = value;
    answer.estimate.variance = 0.0;
    answer.exact = true;
    answer.hard_lb = value;
    answer.hard_ub = value;
    answer.population_rows = data_->NumRows();
    answer.sample_rows_scanned = data_->NumRows();
    answer.matched_sample_rows = truth.matched;
    return answer;
  };
  out.sum = fill(truth.sum);
  out.count = fill(static_cast<double>(truth.matched));
  out.avg = fill(truth.avg);
  return out;
}

SystemCosts ExactSystem::Costs() const {
  SystemCosts costs;
  costs.build_seconds = 0.0;  // nothing is precomputed
  costs.storage_bytes = data_->SizeBytes();
  costs.resident_bytes = data_->SizeBytes();
  return costs;
}

}  // namespace pass
