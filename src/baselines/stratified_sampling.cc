#include "baselines/stratified_sampling.h"

#include <algorithm>
#include <cmath>

#include "common/rng.h"
#include "common/stopwatch.h"
#include "partition/hierarchy.h"
#include "partition/partitioner_1d.h"
#include "stats/sampling.h"

namespace pass {

StratifiedSamplingSystem::StratifiedSamplingSystem(const Dataset& data,
                                                   size_t strata, double rate,
                                                   size_t dim, uint64_t seed,
                                                   EstimatorOptions options)
    : population_rows_(data.NumRows()), options_(options) {
  Stopwatch timer;
  PASS_CHECK(strata >= 1);
  const size_t n = data.NumRows();
  const size_t d = data.NumPredDims();
  const std::vector<uint32_t> perm = data.SortedPermutation(dim);
  const auto& col = data.pred_column(dim);

  std::vector<size_t> cuts;
  for (const size_t pos : EqualDepthBoundaries(n, strata)) {
    cuts.push_back(SnapToValueChange(col, perm, pos));
  }
  std::sort(cuts.begin(), cuts.end());
  cuts.erase(std::unique(cuts.begin(), cuts.end()), cuts.end());

  const size_t budget =
      static_cast<size_t>(std::llround(rate * static_cast<double>(n)));
  const size_t num_strata = cuts.size() - 1;
  const size_t per_stratum =
      std::max<size_t>(1, (budget + num_strata - 1) / num_strata);

  Rng rng(seed);
  std::vector<double> preds(d);
  for (size_t i = 0; i + 1 < cuts.size(); ++i) {
    Stratum stratum(d);
    const RowSlice slice{cuts[i], cuts[i + 1]};
    stratum.rows = slice.second - slice.first;
    stratum.bounds = ComputeSliceBounds(data, perm, slice);
    const size_t target =
        std::min<size_t>(per_stratum, slice.second - slice.first);
    stratum.sample.Reserve(target);
    for (const size_t offset :
         SampleWithoutReplacement(slice.second - slice.first, target, &rng)) {
      const uint32_t row = perm[slice.first + offset];
      for (size_t dd = 0; dd < d; ++dd) preds[dd] = data.pred(dd, row);
      stratum.sample.AddRow(preds, data.agg(row));
    }
    strata_.push_back(std::move(stratum));
  }
  build_seconds_ = timer.ElapsedSeconds();
}

QueryAnswer StratifiedSamplingSystem::AnswerImpl(
    const Query& query, const AnswerOptions& options) const {
  (void)options;  // no anytime path: answers in full
  QueryAnswer out;
  out.population_rows = population_rows_;

  struct Hit {
    const Stratum* stratum;
    StratifiedSample::ScanResult scan;
  };
  std::vector<Hit> hits;
  uint64_t touched_rows = 0;
  for (const Stratum& s : strata_) {
    if (!query.predicate.Intersects(s.bounds)) continue;
    Hit hit{&s, s.sample.Scan(query.predicate)};
    out.sample_rows_scanned += s.sample.size();
    out.matched_sample_rows += hit.scan.matched;
    touched_rows += s.rows;
    hits.push_back(hit);
  }
  out.population_rows_skipped = population_rows_ - touched_rows;

  switch (query.agg) {
    case AggregateType::kSum:
    case AggregateType::kCount: {
      const bool is_sum = query.agg == AggregateType::kSum;
      double value = 0.0;
      double variance = 0.0;
      for (const Hit& h : hits) {
        const double s =
            is_sum ? h.scan.sum : static_cast<double>(h.scan.matched);
        const double ss =
            is_sum ? h.scan.sum_sq : static_cast<double>(h.scan.matched);
        const StratumEstimate est = EstimateStratumSum(
            static_cast<double>(h.stratum->rows),
            static_cast<double>(h.stratum->sample.size()), s, ss,
            options_.use_fpc);
        value += est.value;
        variance += est.variance;
      }
      out.estimate.value = value;
      out.estimate.variance = variance;
      break;
    }
    case AggregateType::kAvg: {
      if (options_.avg_mode == AvgMode::kRatio) {
        double a = 0.0;
        double b = 0.0;
        double var_a = 0.0;
        double var_b = 0.0;
        double cov = 0.0;
        for (const Hit& h : hits) {
          if (h.scan.matched == 0) continue;
          const double n_pop = static_cast<double>(h.stratum->rows);
          const double k_samp =
              static_cast<double>(h.stratum->sample.size());
          const double k = static_cast<double>(h.scan.matched);
          const StratumEstimate es = EstimateStratumSum(
              n_pop, k_samp, h.scan.sum, h.scan.sum_sq, options_.use_fpc);
          const StratumEstimate ec =
              EstimateStratumSum(n_pop, k_samp, k, k, options_.use_fpc);
          const double fpc =
              options_.use_fpc ? FinitePopulationCorrection(n_pop, k_samp)
                               : 1.0;
          a += es.value;
          b += ec.value;
          var_a += es.variance;
          var_b += ec.variance;
          cov += n_pop * n_pop / k_samp *
                 (h.scan.sum / k_samp -
                  (h.scan.sum / k_samp) * (k / k_samp)) *
                 fpc;
        }
        if (b <= 0.0) {
          out.estimate = {0.0, 0.0};
        } else {
          const double ratio = a / b;
          out.estimate.value = ratio;
          out.estimate.variance = std::max(
              0.0,
              (var_a - 2.0 * ratio * cov + ratio * ratio * var_b) / (b * b));
        }
      } else {
        // Paper weights: w_i = N_i / N_q over strata with matches.
        double n_q = 0.0;
        for (const Hit& h : hits) {
          if (h.scan.matched > 0) n_q += static_cast<double>(h.stratum->rows);
        }
        if (n_q <= 0.0) {
          out.estimate = {0.0, 0.0};
          break;
        }
        double value = 0.0;
        double variance = 0.0;
        for (const Hit& h : hits) {
          if (h.scan.matched == 0) continue;
          const double n_pop = static_cast<double>(h.stratum->rows);
          const double k_samp =
              static_cast<double>(h.stratum->sample.size());
          const double k = static_cast<double>(h.scan.matched);
          const double w = n_pop / n_q;
          value += (h.scan.sum / k) * w;
          double v = (h.scan.sum_sq - h.scan.sum * h.scan.sum / k_samp) /
                     (k * k);
          if (options_.use_fpc) {
            v *= FinitePopulationCorrection(n_pop, k_samp);
          }
          variance += w * w * std::max(0.0, v);
        }
        out.estimate.value = value;
        out.estimate.variance = variance;
      }
      break;
    }
    case AggregateType::kMin:
    case AggregateType::kMax: {
      const bool is_min = query.agg == AggregateType::kMin;
      bool seen = false;
      double best = 0.0;
      for (const Hit& h : hits) {
        if (h.scan.matched == 0) continue;
        const double v = is_min ? h.scan.min : h.scan.max;
        if (!seen) {
          best = v;
          seen = true;
        } else {
          best = is_min ? std::min(best, v) : std::max(best, v);
        }
      }
      out.estimate.value = seen ? best : 0.0;
      break;
    }
  }
  return out;
}

SystemCosts StratifiedSamplingSystem::Costs() const {
  SystemCosts c;
  c.build_seconds = build_seconds_;
  for (const Stratum& s : strata_) {
    c.storage_bytes += s.sample.PayloadBytes();
    c.resident_bytes += s.sample.SizeBytes();
  }
  const uint64_t meta =
      strata_.size() * (sizeof(uint64_t) + 2 * sizeof(double));
  c.storage_bytes += meta;
  c.resident_bytes += meta;
  return c;
}

}  // namespace pass
