#include <algorithm>
#include <cmath>
#include <cstdarg>
#include <cstdio>
#include <cstring>
#include <thread>

#include "bench.h"
#include "data/workload.h"
#include "stats/confidence.h"

namespace perfbench {

using pass::AggregateType;
using pass::ExactResult;
using pass::Query;
using pass::QueryAnswer;

double Quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const size_t lo = static_cast<size_t>(std::floor(pos));
  const size_t hi = std::min(lo + 1, v.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return v[lo] + (v[hi] - v[lo]) * frac;
}

size_t SchedulerThreads() {
  const size_t cores = std::max(1u, std::thread::hardware_concurrency());
  return cores > 1 ? cores - 1 : 1;
}

std::vector<Query> MixedQueries(const pass::Dataset& data, size_t count,
                                const std::vector<size_t>& dims,
                                uint64_t seed) {
  const AggregateType aggs[3] = {AggregateType::kSum, AggregateType::kCount,
                                 AggregateType::kAvg};
  std::vector<std::vector<Query>> per_agg;
  for (size_t a = 0; a < 3; ++a) {
    pass::WorkloadOptions options;
    options.agg = aggs[a];
    options.count = (count + 2 - a) / 3;
    options.template_dims = dims;
    options.seed = seed * 3 + a;
    per_agg.push_back(pass::RandomRangeQueries(data, options));
  }
  std::vector<Query> out;
  out.reserve(count);
  for (size_t i = 0; i < count; ++i) {
    out.push_back(std::move(per_agg[i % 3][i / 3]));
  }
  return out;
}

Verdict Judge(const Query& query, const QueryAnswer& answer,
              const ExactResult& truth) {
  // Covered aggregates and a row scan sum in different orders, so
  // "equal" and "contains" allow the same rounding slack the repository's
  // own hard-bound tests use.
  const double slack = 1e-9 * (1.0 + std::abs(truth.value));
  Verdict v;
  const bool additive = query.agg == AggregateType::kSum ||
                        query.agg == AggregateType::kCount;
  if (additive && answer.hard_lb && answer.hard_ub &&
      (truth.value < *answer.hard_lb - slack ||
       truth.value > *answer.hard_ub + slack)) {
    v.violation = true;
  }
  if (answer.exact && std::abs(answer.estimate.value - truth.value) > slack) {
    v.violation = true;
  }
  if (pass::UsableGroundTruth(truth)) {
    v.scored = true;
    v.rel_err = pass::RelativeError(answer.estimate.value, truth);
    v.covered = std::abs(answer.estimate.value - truth.value) <=
                answer.estimate.HalfWidth(pass::kLambda99) + slack;
  }
  return v;
}

void CheckTally::Add(const Query& query, const QueryAnswer& answer,
                     const ExactResult& truth) {
  const Verdict v = Judge(query, answer, truth);
  ++checked;
  if (v.violation) {
    ++violations;
    if (examples.size() < 3) {
      examples.push_back(Fmt(
          "%s: estimate %.17g exact=%d bounds [%.17g, %.17g] truth %.17g",
          query.ToString().c_str(), answer.estimate.value, answer.exact ? 1 : 0,
          answer.hard_lb.value_or(NAN), answer.hard_ub.value_or(NAN),
          truth.value));
    }
  }
  if (v.scored) {
    rel_errs.push_back(v.rel_err);
    if (v.covered) ++ci_covered;
  }
}

SortedOracle::SortedOracle(const pass::Dataset& data) {
  PASS_CHECK_MSG(data.NumPredDims() == 1, "SortedOracle is 1-D only");
  std::vector<std::pair<double, double>> rows(data.NumRows());
  for (size_t i = 0; i < rows.size(); ++i) {
    rows[i] = {data.pred(0, i), data.agg(i)};
  }
  std::sort(rows.begin(), rows.end());
  keys_.resize(rows.size());
  prefix_.resize(rows.size() + 1);
  // Neumaier-compensated, so a prefix difference is exact to well below
  // the oracle's comparison slack.
  long double sum = 0.0L;
  long double carry = 0.0L;
  prefix_[0] = 0.0L;
  for (size_t i = 0; i < rows.size(); ++i) {
    keys_[i] = rows[i].first;
    const long double x = rows[i].second;
    const long double t = sum + x;
    carry += std::fabs(sum) >= std::fabs(x) ? (sum - t) + x : (x - t) + sum;
    sum = t;
    prefix_[i + 1] = sum + carry;
  }
}

ExactResult SortedOracle::Answer(const Query& query) const {
  const pass::Interval& range = query.predicate.dim(0);
  ExactResult out;
  size_t first = 0;
  size_t last = 0;
  if (range.lo <= range.hi) {  // false for NaN bounds: nothing matches
    first = static_cast<size_t>(
        std::lower_bound(keys_.begin(), keys_.end(), range.lo) -
        keys_.begin());
    last = static_cast<size_t>(
        std::upper_bound(keys_.begin(), keys_.end(), range.hi) -
        keys_.begin());
  }
  out.matched = last > first ? last - first : 0;
  const double sum =
      out.matched == 0 ? 0.0 : static_cast<double>(prefix_[last] -
                                                   prefix_[first]);
  switch (query.agg) {
    case AggregateType::kSum:
      out.value = sum;
      break;
    case AggregateType::kCount:
      out.value = static_cast<double>(out.matched);
      break;
    default:  // AVG; the benchmark issues no MIN/MAX
      out.value = out.matched == 0 ? NAN
                                   : sum / static_cast<double>(out.matched);
      break;
  }
  return out;
}

namespace {

bool SameDouble(double a, double b) {
  return std::memcmp(&a, &b, sizeof(double)) == 0;
}

bool SameOptional(const std::optional<double>& a,
                  const std::optional<double>& b) {
  if (a.has_value() != b.has_value()) return false;
  return !a.has_value() || SameDouble(*a, *b);
}

}  // namespace

bool SameBits(const QueryAnswer& a, const QueryAnswer& b) {
  return SameDouble(a.estimate.value, b.estimate.value) &&
         SameDouble(a.estimate.variance, b.estimate.variance) &&
         SameOptional(a.hard_lb, b.hard_lb) &&
         SameOptional(a.hard_ub, b.hard_ub);
}

std::string Fmt(const char* format, ...) {
  char buf[1024];
  va_list args;
  va_start(args, format);
  std::vsnprintf(buf, sizeof(buf), format, args);
  va_end(args);
  return buf;
}

}  // namespace perfbench
