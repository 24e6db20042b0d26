#include "baselines/uniform_sampling.h"

#include <algorithm>
#include <cmath>

#include "common/rng.h"
#include "common/stopwatch.h"
#include "stats/sampling.h"

namespace pass {

UniformSamplingSystem::UniformSamplingSystem(const Dataset& data, double rate,
                                             uint64_t seed,
                                             EstimatorOptions options)
    : sample_(data.NumPredDims()),
      population_rows_(data.NumRows()),
      options_(options) {
  Stopwatch timer;
  PASS_CHECK(rate >= 0.0 && rate <= 1.0);
  Rng rng(seed);
  const size_t n = data.NumRows();
  const size_t k = static_cast<size_t>(
      std::llround(rate * static_cast<double>(n)));
  sample_.Reserve(k);
  std::vector<double> preds(data.NumPredDims());
  for (const size_t row : SampleWithoutReplacement(n, k, &rng)) {
    for (size_t dim = 0; dim < preds.size(); ++dim) {
      preds[dim] = data.pred(dim, row);
    }
    sample_.AddRow(preds, data.agg(row));
  }
  build_seconds_ = timer.ElapsedSeconds();
}

QueryAnswer UniformSamplingSystem::AnswerImpl(
    const Query& query, const AnswerOptions& options) const {
  (void)options;  // no anytime path: answers in full
  QueryAnswer out;
  out.population_rows = population_rows_;
  out.sample_rows_scanned = sample_.size();
  const StratifiedSample::ScanResult scan = sample_.Scan(query.predicate);
  out.matched_sample_rows = scan.matched;
  const double n_pop = static_cast<double>(population_rows_);
  const double k_samp = static_cast<double>(sample_.size());
  const double fpc =
      options_.use_fpc ? FinitePopulationCorrection(n_pop, k_samp) : 1.0;

  switch (query.agg) {
    case AggregateType::kSum:
    case AggregateType::kCount: {
      const bool is_sum = query.agg == AggregateType::kSum;
      const double s =
          is_sum ? scan.sum : static_cast<double>(scan.matched);
      const double ss =
          is_sum ? scan.sum_sq : static_cast<double>(scan.matched);
      const StratumEstimate est =
          EstimateStratumSum(n_pop, k_samp, s, ss, options_.use_fpc);
      out.estimate.value = est.value;
      out.estimate.variance = est.variance;
      break;
    }
    case AggregateType::kAvg: {
      const double k = static_cast<double>(scan.matched);
      if (scan.matched == 0) {
        out.estimate = {0.0, 0.0};
        break;
      }
      if (options_.avg_mode == AvgMode::kRatio) {
        const StratumEstimate es = EstimateStratumSum(
            n_pop, k_samp, scan.sum, scan.sum_sq, options_.use_fpc);
        const StratumEstimate ec =
            EstimateStratumSum(n_pop, k_samp, k, k, options_.use_fpc);
        const double cov =
            n_pop * n_pop / k_samp *
            (scan.sum / k_samp - (scan.sum / k_samp) * (k / k_samp)) * fpc;
        const double ratio = es.value / ec.value;
        out.estimate.value = ratio;
        out.estimate.variance = std::max(
            0.0, (es.variance - 2.0 * ratio * cov + ratio * ratio *
                  ec.variance) / (ec.value * ec.value));
      } else {
        // phi = pred * (K / K_pred) * a (Section 2.1).
        out.estimate.value = scan.sum / k;
        const double v =
            (scan.sum_sq - scan.sum * scan.sum / k_samp) / (k * k);
        out.estimate.variance = std::max(0.0, v) * fpc;
      }
      break;
    }
    case AggregateType::kMin:
      out.estimate.value = scan.matched > 0 ? scan.min : 0.0;
      break;
    case AggregateType::kMax:
      out.estimate.value = scan.matched > 0 ? scan.max : 0.0;
      break;
  }
  return out;
}

SystemCosts UniformSamplingSystem::Costs() const {
  SystemCosts c;
  c.build_seconds = build_seconds_;
  c.storage_bytes = sample_.PayloadBytes();
  c.resident_bytes = sample_.SizeBytes();
  return c;
}

UniformSamplingSystem MakeScramble(const Dataset& data, double ratio,
                                   uint64_t seed, EstimatorOptions options) {
  UniformSamplingSystem system(data, ratio, seed, options);
  char buf[64];
  std::snprintf(buf, sizeof(buf), "Scramble-%.0f%%", ratio * 100.0);
  system.set_name(buf);
  return system;
}

}  // namespace pass
