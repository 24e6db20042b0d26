#ifndef PASS_BASELINES_STRATIFIED_SAMPLING_H_
#define PASS_BASELINES_STRATIFIED_SAMPLING_H_

#include <string>
#include <vector>

#include "core/aqp_system.h"
#include "core/estimator.h"
#include "core/stratified_sample.h"
#include "geom/rect.h"
#include "storage/dataset.h"

namespace pass {

/// The ST baseline (Section 2.2 / 5.1.3): B equal-depth strata over one
/// predicate column, K/B uniform rows from each. Unlike PASS there are no
/// precomputed aggregates, so even fully-covered strata are estimated from
/// their samples; the only skipping available is of strata whose value
/// range misses the query.
class StratifiedSamplingSystem final : public AqpSystem {
 public:
  /// `strata` = B, `rate` = K / N overall, partitioned on `dim`.
  StratifiedSamplingSystem(const Dataset& data, size_t strata, double rate,
                           size_t dim, uint64_t seed,
                           EstimatorOptions options = {});

  std::string Name() const override { return "ST"; }
  SystemCosts Costs() const override;

  size_t NumStrata() const { return strata_.size(); }

 protected:
  /// Answers in full; this system has no anytime path, so the budget in
  /// `options` is ignored (SupportsBudget() stays false).
  QueryAnswer AnswerImpl(const Query& query,
                         const AnswerOptions& options) const override;

 private:
  struct Stratum {
    Rect bounds;  // tight data bounds (all predicate dims)
    uint64_t rows = 0;
    StratifiedSample sample;
    Stratum(size_t d) : sample(d) {}
  };

  std::vector<Stratum> strata_;
  uint64_t population_rows_;
  EstimatorOptions options_;
  double build_seconds_ = 0.0;
};

}  // namespace pass

#endif  // PASS_BASELINES_STRATIFIED_SAMPLING_H_
