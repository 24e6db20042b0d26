#include "kernel/scan_kernel.h"

#include <algorithm>

namespace pass {
namespace {

// Rows per mask block. The match mask lives on the stack and is rebuilt
// per block, so the working set (mask + the block's slices of each column)
// stays cache-resident. Must be a multiple of kScanLanes so that a row's
// global stripe index (i % kScanLanes) equals its in-block index modulo
// kScanLanes — the tail loop of the final block relies on this.
constexpr size_t kBlockRows = 256;
static_assert(kBlockRows % kScanLanes == 0,
              "blocks must preserve the lane striping");

constexpr double kInf = std::numeric_limits<double>::infinity();

// When BOTH operands of an IEEE add are NaN, hardware returns whichever
// one the instruction encodes as its first source — and since C++
// addition is commutative, the compiler is free to swap operands, so no
// source ordering pins the surviving NaN's sign/payload (e.g. an input
// +NaN vs the -NaN that inf + -inf generates). The moments therefore
// leave the kernel with any NaN collapsed to the one canonical positive
// quiet NaN, which is what makes builds bit-identical across compilers
// and ISAs even on NaN-poisoned data.
double CanonicalNan(double x) {
  return x != x ? std::numeric_limits<double>::quiet_NaN() : x;
}

// Vectorization is annotation-only: PASS_SIMD_LOOP marks loops whose
// iterations are independent (per-element mask tests, per-stripe
// accumulates). It is never placed on a loop that carries a float
// dependence across iterations, so the compiler cannot reassociate any
// floating-point reduction and the PASS_SIMD=OFF build computes the exact
// same IEEE operation sequence. (The only reduction clause below is the
// integer match count, which is exact in any order.)
#if defined(PASS_SIMD)
#define PASS_SIMD_LOOP _Pragma("omp simd")
#define PASS_SIMD_COUNT(var) _Pragma(PASS_SIMD_STR(omp simd reduction(+ : var)))
#define PASS_SIMD_STR(x) #x
#else
#define PASS_SIMD_LOOP
#define PASS_SIMD_COUNT(var)
#endif

}  // namespace

bool ScanKernelVectorized() {
#if defined(PASS_SIMD)
  return true;
#else
  return false;
#endif
}

ScanStats ScanColumnsGeneric(const double* agg, size_t n,
                             const ScanDim* dims, size_t num_dims) {
  // Per-stripe accumulators as plain locals: stripe l owns rows congruent
  // to l mod kScanLanes, and the final combine folds stripes in index
  // order, which fixes the floating-point reduction tree in source.
  uint64_t matched = 0;
  double lane_sum[kScanLanes] = {};
  double lane_sum_sq[kScanLanes] = {};
  double lane_min[kScanLanes];
  double lane_max[kScanLanes];
  for (size_t l = 0; l < kScanLanes; ++l) {
    lane_min[l] = kInf;
    lane_max[l] = -kInf;
  }

  // uint32_t, not a byte mask: char arrays may legally alias the double
  // accumulators, which would force the compiler to re-read the mask
  // after every accumulator store and scalarize the loop.
  uint32_t mask[kBlockRows];
  for (size_t base = 0; base < n; base += kBlockRows) {
    const size_t len = std::min(kBlockRows, n - base);

    // Per-dim compare into the match mask. Branchless: a NaN value (or a
    // NaN bound) compares false on both sides and never matches.
    if (num_dims == 0) {
      for (size_t jj = 0; jj < len; ++jj) mask[jj] = 1;
    } else {
      {
        const double* col = dims[0].values + base;
        const double lo = dims[0].lo;
        const double hi = dims[0].hi;
        PASS_SIMD_LOOP
        for (size_t jj = 0; jj < len; ++jj) {
          mask[jj] = static_cast<uint32_t>(col[jj] >= lo) &
                     static_cast<uint32_t>(col[jj] <= hi);
        }
      }
      for (size_t k = 1; k < num_dims; ++k) {
        const double* col = dims[k].values + base;
        const double lo = dims[k].lo;
        const double hi = dims[k].hi;
        PASS_SIMD_LOOP
        for (size_t jj = 0; jj < len; ++jj) {
          mask[jj] &= static_cast<uint32_t>(col[jj] >= lo) &
                      static_cast<uint32_t>(col[jj] <= hi);
        }
      }
    }

    // The match count is an integer sum — exact in any order, so a plain
    // vector reduction is safe (and is the only reduction clause here).
    uint32_t block_matched = 0;
    PASS_SIMD_COUNT(block_matched)
    for (size_t jj = 0; jj < len; ++jj) block_matched += mask[jj];
    matched += block_matched;

    // Mask-selected accumulate, kScanLanes rows at a time; each group's
    // element l feeds stripe l. The final block's ragged tail continues
    // the same striping one row at a time (base is a multiple of
    // kBlockRows, hence of kScanLanes, so jj % kScanLanes is the row's
    // global stripe).
    const double* a = agg + base;
    size_t jj = 0;
    for (; jj + kScanLanes <= len; jj += kScanLanes) {
      PASS_SIMD_LOOP
      for (size_t l = 0; l < kScanLanes; ++l) {
        const double v = a[jj + l];
        const bool hit = mask[jj + l] != 0;
        const double sel = hit ? v : 0.0;
        lane_sum[l] += sel;
        lane_sum_sq[l] += sel * sel;
        const double cmin = hit ? v : kInf;
        lane_min[l] = cmin < lane_min[l] ? cmin : lane_min[l];
        const double cmax = hit ? v : -kInf;
        lane_max[l] = cmax > lane_max[l] ? cmax : lane_max[l];
      }
    }
    for (; jj < len; ++jj) {
      const size_t l = jj % kScanLanes;
      const double v = a[jj];
      const bool hit = mask[jj] != 0;
      const double sel = hit ? v : 0.0;
      lane_sum[l] += sel;
      lane_sum_sq[l] += sel * sel;
      const double cmin = hit ? v : kInf;
      lane_min[l] = cmin < lane_min[l] ? cmin : lane_min[l];
      const double cmax = hit ? v : -kInf;
      lane_max[l] = cmax > lane_max[l] ? cmax : lane_max[l];
    }
  }

  ScanStats out;
  out.matched = matched;
  for (size_t l = 0; l < kScanLanes; ++l) {
    out.sum += lane_sum[l];
    out.sum_sq += lane_sum_sq[l];
    out.min = lane_min[l] < out.min ? lane_min[l] : out.min;
    out.max = lane_max[l] > out.max ? lane_max[l] : out.max;
  }
  out.sum = CanonicalNan(out.sum);
  out.sum_sq = CanonicalNan(out.sum_sq);
  return out;
}

namespace {

// The fixed-dim body: ScanColumnsGeneric with the dim count a template
// parameter. The mask is integer-exact, so computing it with one fused
// per-row conjunction instead of blockwise per-dim passes cannot change a
// match bit. What must not differ is the floating-point accumulation,
// which this body replays from ScanColumnsGeneric verbatim: the same
// stripes, selects, block tail and fold order. kMinMax=false
// (AggShape::kMoments) skips the extrema compare-selects and leaves
// min/max at +inf/-inf; the moments are unaffected.
template <size_t NDims, bool kMinMax>
ScanStats ScanColumnsFixed(const double* agg, size_t n, const ScanDim* dims) {
  const double* cols[NDims];
  double lo[NDims];
  double hi[NDims];
  for (size_t k = 0; k < NDims; ++k) {
    cols[k] = dims[k].values;
    lo[k] = dims[k].lo;
    hi[k] = dims[k].hi;
  }

  uint64_t matched = 0;
  double lane_sum[kScanLanes] = {};
  double lane_sum_sq[kScanLanes] = {};
  double lane_min[kScanLanes];
  double lane_max[kScanLanes];
  for (size_t l = 0; l < kScanLanes; ++l) {
    lane_min[l] = kInf;
    lane_max[l] = -kInf;
  }

  uint32_t mask[kBlockRows];
  for (size_t base = 0; base < n; base += kBlockRows) {
    const size_t len = std::min(kBlockRows, n - base);

    // Fused per-row conjunction; the k loop unrolls and the bounds live
    // in registers. NaN values and NaN bounds never match.
    PASS_SIMD_LOOP
    for (size_t jj = 0; jj < len; ++jj) {
      uint32_t m = 1;
      for (size_t k = 0; k < NDims; ++k) {
        const double v = cols[k][base + jj];
        m &= static_cast<uint32_t>(v >= lo[k]) &
             static_cast<uint32_t>(v <= hi[k]);
      }
      mask[jj] = m;
    }

    uint32_t block_matched = 0;
    PASS_SIMD_COUNT(block_matched)
    for (size_t jj = 0; jj < len; ++jj) block_matched += mask[jj];
    matched += block_matched;

    const double* a = agg + base;
    size_t jj = 0;
    for (; jj + kScanLanes <= len; jj += kScanLanes) {
      PASS_SIMD_LOOP
      for (size_t l = 0; l < kScanLanes; ++l) {
        const double v = a[jj + l];
        const bool hit = mask[jj + l] != 0;
        const double sel = hit ? v : 0.0;
        lane_sum[l] += sel;
        lane_sum_sq[l] += sel * sel;
        if (kMinMax) {
          const double cmin = hit ? v : kInf;
          lane_min[l] = cmin < lane_min[l] ? cmin : lane_min[l];
          const double cmax = hit ? v : -kInf;
          lane_max[l] = cmax > lane_max[l] ? cmax : lane_max[l];
        }
      }
    }
    for (; jj < len; ++jj) {
      const size_t l = jj % kScanLanes;
      const double v = a[jj];
      const bool hit = mask[jj] != 0;
      const double sel = hit ? v : 0.0;
      lane_sum[l] += sel;
      lane_sum_sq[l] += sel * sel;
      if (kMinMax) {
        const double cmin = hit ? v : kInf;
        lane_min[l] = cmin < lane_min[l] ? cmin : lane_min[l];
        const double cmax = hit ? v : -kInf;
        lane_max[l] = cmax > lane_max[l] ? cmax : lane_max[l];
      }
    }
  }

  ScanStats out;
  out.matched = matched;
  for (size_t l = 0; l < kScanLanes; ++l) {
    out.sum += lane_sum[l];
    out.sum_sq += lane_sum_sq[l];
    if (kMinMax) {
      out.min = lane_min[l] < out.min ? lane_min[l] : out.min;
      out.max = lane_max[l] > out.max ? lane_max[l] : out.max;
    }
  }
  out.sum = CanonicalNan(out.sum);
  out.sum_sq = CanonicalNan(out.sum_sq);
  return out;
}

// The contested-dim switch: a compile-time body for 1..kMaxFixedDims dims,
// the generic blockwise loop for 0 and above.
template <bool kMinMax>
ScanStats ScanColumnsDispatch(const double* agg, size_t n,
                              const ScanDim* dims, size_t num_dims) {
  static_assert(kMaxFixedDims == 4, "the switch covers exactly 1..4 dims");
  switch (num_dims) {
    case 1:
      return ScanColumnsFixed<1, kMinMax>(agg, n, dims);
    case 2:
      return ScanColumnsFixed<2, kMinMax>(agg, n, dims);
    case 3:
      return ScanColumnsFixed<3, kMinMax>(agg, n, dims);
    case 4:
      return ScanColumnsFixed<4, kMinMax>(agg, n, dims);
    default:
      return ScanColumnsGeneric(agg, n, dims, num_dims);
  }
}

}  // namespace

ScanStats ScanColumns(const double* agg, size_t n, const ScanDim* dims,
                      size_t num_dims, AggShape shape) {
  return shape == AggShape::kFull
             ? ScanColumnsDispatch<true>(agg, n, dims, num_dims)
             : ScanColumnsDispatch<false>(agg, n, dims, num_dims);
}

ScanStats ScanColumnsScalarRef(const double* agg, size_t n,
                               const ScanDim* dims, size_t num_dims) {
  // Independently written against the header contract: the plain branchy
  // row-at-a-time loop the kernel replaced, with the same lane-striped
  // reduction order (every row contributes `hit ? agg : 0.0` to stripe
  // i % kScanLanes; stripes combine in index order).
  uint64_t matched = 0;
  double lane_sum[kScanLanes] = {};
  double lane_sum_sq[kScanLanes] = {};
  double lane_min[kScanLanes];
  double lane_max[kScanLanes];
  for (size_t l = 0; l < kScanLanes; ++l) {
    lane_min[l] = kInf;
    lane_max[l] = -kInf;
  }

  for (size_t i = 0; i < n; ++i) {
    bool hit = true;
    for (size_t k = 0; k < num_dims; ++k) {
      const double v = dims[k].values[i];
      if (!(v >= dims[k].lo) || !(v <= dims[k].hi)) {
        hit = false;
        break;
      }
    }
    const size_t l = i % kScanLanes;
    const double a = agg[i];
    const double sel = hit ? a : 0.0;
    matched += hit ? 1u : 0u;
    lane_sum[l] += sel;
    lane_sum_sq[l] += sel * sel;
    const double cmin = hit ? a : kInf;
    lane_min[l] = cmin < lane_min[l] ? cmin : lane_min[l];
    const double cmax = hit ? a : -kInf;
    lane_max[l] = cmax > lane_max[l] ? cmax : lane_max[l];
  }

  ScanStats out;
  out.matched = matched;
  for (size_t l = 0; l < kScanLanes; ++l) {
    out.sum += lane_sum[l];
    out.sum_sq += lane_sum_sq[l];
    out.min = lane_min[l] < out.min ? lane_min[l] : out.min;
    out.max = lane_max[l] > out.max ? lane_max[l] : out.max;
  }
  out.sum = CanonicalNan(out.sum);
  out.sum_sq = CanonicalNan(out.sum_sq);
  return out;
}

}  // namespace pass
