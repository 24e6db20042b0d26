#include "core/exact.h"

#include <limits>
#include <vector>

#include "common/macros.h"
#include "kernel/scan_kernel.h"

namespace pass {
namespace {

/// The moments one full scan yields; both public entry points share it so
/// their matched/sum arithmetic can never diverge. Produced by the same
/// branchless kernel the estimator's leaf scans use (the ground-truth
/// path deliberately runs unpruned: every dimension is tested, so exact
/// answers never depend on the leaf-box pruning invariant).
struct ScanMoments {
  uint64_t matched = 0;
  double sum = 0.0;
  double min = std::numeric_limits<double>::infinity();
  double max = -std::numeric_limits<double>::infinity();
};

ScanMoments ScanRows(const Dataset& data, const Rect& predicate,
                     AggShape shape) {
  const size_t d = data.NumPredDims();
  PASS_CHECK_MSG(predicate.NumDims() == d,
                 "query dimensionality must match the dataset");
  std::vector<ScanDim> dims(d);
  for (size_t k = 0; k < d; ++k) {
    dims[k] = ScanDim{data.pred_column(k).data(), predicate.dim(k).lo,
                      predicate.dim(k).hi};
  }
  const ScanStats s = ScanColumns(data.agg_column().data(), data.NumRows(),
                                  dims.data(), d, shape);
  return ScanMoments{s.matched, s.sum, s.min, s.max};
}

}  // namespace

ExactResult ExactAnswer(const Dataset& data, const Query& query) {
  // Only MIN/MAX read the extrema; the moments shape lets the fixed-dim
  // bodies skip the per-row compare-selects for the rest. The moments a
  // kMoments scan returns are bit-identical to kFull's.
  const AggShape shape = (query.agg == AggregateType::kMin ||
                          query.agg == AggregateType::kMax)
                             ? AggShape::kFull
                             : AggShape::kMoments;
  const ScanMoments m = ScanRows(data, query.predicate, shape);
  ExactResult out;
  out.matched = m.matched;
  switch (query.agg) {
    case AggregateType::kSum:
      out.value = m.sum;
      break;
    case AggregateType::kCount:
      out.value = static_cast<double>(out.matched);
      break;
    case AggregateType::kAvg:
      out.value = out.matched == 0
                      ? std::numeric_limits<double>::quiet_NaN()
                      : m.sum / static_cast<double>(out.matched);
      break;
    case AggregateType::kMin:
      out.value = out.matched == 0
                      ? std::numeric_limits<double>::quiet_NaN()
                      : m.min;
      break;
    case AggregateType::kMax:
      out.value = out.matched == 0
                      ? std::numeric_limits<double>::quiet_NaN()
                      : m.max;
      break;
  }
  return out;
}

ExactMultiResult ExactMultiAnswer(const Dataset& data, const Rect& predicate) {
  const ScanMoments m = ScanRows(data, predicate, AggShape::kMoments);
  ExactMultiResult out;
  out.sum = m.sum;
  out.matched = m.matched;
  out.avg = m.matched == 0 ? std::numeric_limits<double>::quiet_NaN()
                           : m.sum / static_cast<double>(m.matched);
  return out;
}

}  // namespace pass
