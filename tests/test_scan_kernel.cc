/// The scan-kernel contract (kernel/scan_kernel.h): the ScanColumns entry
/// (fixed-dim bodies for 1-4 dims), the blockwise ScanColumnsGeneric and
/// the independently written scalar reference are bit-for-bit identical
/// on arbitrary (leaf, rect) pairs — including empty leaves, all-match,
/// none-match, degenerate rects, NaN/inf values and bounds, signed zeros
/// and block-boundary lengths — active-dim pruning never changes a result
/// bit, and with the kernel under every engine, registry-wide answers stay
/// bit-identical across sharding (K ∈ {1, 2, 4}) and session resume.

#include "kernel/scan_kernel.h"

#include <cmath>
#include <cstring>
#include <limits>
#include <memory>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "core/stratified_sample.h"
#include "data/generators.h"
#include "data/workload.h"
#include "engine/engine_registry.h"
#include "geom/rect.h"
#include "tests/test_util.h"

namespace pass {
namespace {

using testing::ExpectAnswersBitIdentical;

constexpr double kInf = std::numeric_limits<double>::infinity();
constexpr double kNaN = std::numeric_limits<double>::quiet_NaN();

uint64_t Bits(double v) {
  uint64_t b = 0;
  std::memcpy(&b, &v, sizeof b);
  return b;
}

void ExpectStatsBitIdentical(const ScanStats& a, const ScanStats& b) {
  EXPECT_EQ(a.matched, b.matched);
  EXPECT_EQ(Bits(a.sum), Bits(b.sum));
  EXPECT_EQ(Bits(a.sum_sq), Bits(b.sum_sq));
  EXPECT_EQ(Bits(a.min), Bits(b.min));
  EXPECT_EQ(Bits(a.max), Bits(b.max));
}

/// One random column value: mostly ordinary doubles, with special values
/// (NaN, +/-inf, +/-0.0, exact integers) injected often enough that every
/// fuzz run exercises them.
double RandomValue(Rng* rng) {
  switch (rng->Below(16)) {
    case 0:
      return kNaN;
    case 1:
      return rng->Bernoulli(0.5) ? kInf : -kInf;
    case 2:
      return rng->Bernoulli(0.5) ? 0.0 : -0.0;
    case 3:
      return static_cast<double>(rng->UniformInt(-4, 4));
    default:
      return rng->UniformDouble(-10.0, 10.0);
  }
}

/// Moments half of the contract: all that AggShape::kMoments promises.
void ExpectMomentsBitIdentical(const ScanStats& a, const ScanStats& b) {
  EXPECT_EQ(a.matched, b.matched);
  EXPECT_EQ(Bits(a.sum), Bits(b.sum));
  EXPECT_EQ(Bits(a.sum_sq), Bits(b.sum_sq));
}

/// One random query interval: ordinary ranges plus the degenerate shapes
/// (inverted, NaN-bounded, point, signed-zero, half-infinite, everything,
/// nothing).
void RandomInterval(Rng* rng, double* lo, double* hi) {
  switch (rng->Below(10)) {
    case 0:  // inverted (matches nothing)
      *lo = 1.0;
      *hi = -1.0;
      return;
    case 1:  // NaN bound (matches nothing)
      *lo = rng->Bernoulli(0.5) ? kNaN : -10.0;
      *hi = std::isnan(*lo) ? 10.0 : kNaN;
      return;
    case 2:  // everything
      *lo = -kInf;
      *hi = kInf;
      return;
    case 3: {  // point, often an integer so it actually hits values
      const double p = static_cast<double>(rng->UniformInt(-4, 4));
      *lo = p;
      *hi = p;
      return;
    }
    case 4:  // signed-zero bounds
      *lo = rng->Bernoulli(0.5) ? -0.0 : 0.0;
      *hi = rng->Bernoulli(0.5) ? -0.0 : rng->UniformDouble(0.0, 12.0);
      return;
    case 5:  // half-infinite
      if (rng->Bernoulli(0.5)) {
        *lo = -kInf;
        *hi = rng->UniformDouble(-12.0, 12.0);
      } else {
        *lo = rng->UniformDouble(-12.0, 12.0);
        *hi = kInf;
      }
      return;
    default:
      *lo = rng->UniformDouble(-12.0, 12.0);
      *hi = rng->UniformDouble(-12.0, 12.0);
      if (*hi < *lo && rng->Bernoulli(0.75)) std::swap(*lo, *hi);
      return;
  }
}

// ---------------------------------------------------------------------------
// Randomized fuzz: ScanColumns == ScanColumnsGeneric == scalar reference
// ---------------------------------------------------------------------------

/// A row count for the fuzz: mostly short leaves (empty, sub-lane, ragged
/// tails), with lengths at and around the 256-row block and multi-block
/// leaves mixed in.
size_t RandomRowCount(Rng* rng) {
  static constexpr size_t kEdges[] = {255, 256, 257, 263, 264, 511, 512, 513};
  switch (rng->Below(10)) {
    case 0:
      return kEdges[rng->Below(sizeof(kEdges) / sizeof(kEdges[0]))];
    case 1:
      return static_cast<size_t>(rng->UniformInt(250, 600));
    default:
      return static_cast<size_t>(rng->UniformInt(0, 40));
  }
}

TEST(ScanKernel, FuzzMatchesGenericAndScalarReferenceBitForBit) {
  // d spans 0 (generic), the fixed-dim range [1, kMaxFixedDims] and two
  // counts above it (generic again); every pair runs under both shapes.
  constexpr size_t kMaxFuzzDims = 6;
  static_assert(kMaxFuzzDims > kMaxFixedDims, "fuzz must cover the fallback");
  constexpr int kPairsPerDim = 10000;
  Rng rng(0x5EEDF00Dull);
  for (size_t d = 0; d <= kMaxFuzzDims; ++d) {
    for (int iter = 0; iter < kPairsPerDim; ++iter) {
      const size_t n = RandomRowCount(&rng);
      std::vector<double> agg(n);
      for (double& a : agg) a = RandomValue(&rng);
      std::vector<std::vector<double>> cols(d, std::vector<double>(n));
      std::vector<ScanDim> dims(d);
      for (size_t k = 0; k < d; ++k) {
        for (double& v : cols[k]) v = RandomValue(&rng);
        dims[k].values = cols[k].data();
        RandomInterval(&rng, &dims[k].lo, &dims[k].hi);
      }
      const ScanStats generic =
          ScanColumnsGeneric(agg.data(), n, dims.data(), d);
      const ScanStats ref = ScanColumnsScalarRef(agg.data(), n, dims.data(), d);
      ExpectStatsBitIdentical(generic, ref);
      const ScanStats full =
          ScanColumns(agg.data(), n, dims.data(), d, AggShape::kFull);
      ExpectStatsBitIdentical(full, generic);
      ExpectStatsBitIdentical(full, ref);
      const ScanStats moments =
          ScanColumns(agg.data(), n, dims.data(), d, AggShape::kMoments);
      ExpectMomentsBitIdentical(moments, generic);
      ExpectMomentsBitIdentical(moments, ref);
      if (::testing::Test::HasFailure()) {
        FAIL() << "diverged at fuzz iteration " << iter << " (n=" << n
               << ", d=" << d << ")";
      }
    }
  }
}

// ---------------------------------------------------------------------------
// Pinned edge cases
// ---------------------------------------------------------------------------

TEST(ScanKernel, EmptyLeafMatchesNothing) {
  const ScanStats s = ScanColumns(nullptr, 0, nullptr, 0);
  EXPECT_EQ(s.matched, 0u);
  EXPECT_EQ(s.sum, 0.0);
  EXPECT_EQ(s.sum_sq, 0.0);
  EXPECT_EQ(s.min, kInf);
  EXPECT_EQ(s.max, -kInf);
}

TEST(ScanKernel, ZeroContestedDimsMatchesAllRows) {
  const std::vector<double> agg = {1.0, 2.0, 3.0};
  const ScanStats s = ScanColumns(agg.data(), agg.size(), nullptr, 0);
  EXPECT_EQ(s.matched, 3u);
  EXPECT_EQ(s.sum, 6.0);
  EXPECT_EQ(s.sum_sq, 14.0);
  EXPECT_EQ(s.min, 1.0);
  EXPECT_EQ(s.max, 3.0);
}

TEST(ScanKernel, NoneMatchOnInvertedAndNanBounds) {
  const std::vector<double> col = {0.0, 1.0, 2.0};
  const std::vector<double> agg = {5.0, 6.0, 7.0};
  for (const ScanDim dim : {ScanDim{col.data(), 3.0, -3.0},
                            ScanDim{col.data(), kNaN, 10.0},
                            ScanDim{col.data(), -10.0, kNaN}}) {
    const ScanStats s = ScanColumns(agg.data(), agg.size(), &dim, 1);
    EXPECT_EQ(s.matched, 0u);
    EXPECT_EQ(s.min, kInf);
    EXPECT_EQ(s.max, -kInf);
  }
}

TEST(ScanKernel, NanValueNeverMatches) {
  const std::vector<double> col = {1.0, kNaN, 1.0};
  const std::vector<double> agg = {10.0, 20.0, 30.0};
  const ScanDim dim{col.data(), -kInf, kInf};  // even the all-range interval
  const ScanStats s = ScanColumns(agg.data(), agg.size(), &dim, 1);
  EXPECT_EQ(s.matched, 2u);
  EXPECT_EQ(s.sum, 40.0);
}

TEST(ScanKernel, SignedZeroEqualsZero) {
  const std::vector<double> col = {-0.0, 0.0};
  const std::vector<double> agg = {1.0, 2.0};
  const ScanDim plus_zero{col.data(), 0.0, 0.0};
  const ScanDim minus_zero{col.data(), -0.0, -0.0};
  EXPECT_EQ(ScanColumns(agg.data(), 2, &plus_zero, 1).matched, 2u);
  EXPECT_EQ(ScanColumns(agg.data(), 2, &minus_zero, 1).matched, 2u);
}

TEST(ScanKernel, NanAggregateCountsButIsIgnoredByMinMax) {
  const std::vector<double> agg = {kNaN, 3.0, kNaN, 1.0};
  const ScanStats s = ScanColumns(agg.data(), agg.size(), nullptr, 0);
  EXPECT_EQ(s.matched, 4u);
  EXPECT_TRUE(std::isnan(s.sum));
  EXPECT_TRUE(std::isnan(s.sum_sq));
  // Poisoned moments leave as the one canonical quiet NaN — hardware's
  // choice of which NaN survives an add is operand-order sensitive, so the
  // kernel pins the bit pattern at the boundary.
  EXPECT_EQ(Bits(s.sum), Bits(std::numeric_limits<double>::quiet_NaN()));
  EXPECT_EQ(Bits(s.sum_sq), Bits(std::numeric_limits<double>::quiet_NaN()));
  EXPECT_EQ(s.min, 1.0);
  EXPECT_EQ(s.max, 3.0);

  // The mixed-infinity case generates x86's negative default NaN
  // internally (inf + -inf); it must leave canonicalized too.
  const std::vector<double> mixed_inf = {kInf, -kInf, kNaN};
  const ScanStats u =
      ScanColumns(mixed_inf.data(), mixed_inf.size(), nullptr, 0);
  EXPECT_EQ(Bits(u.sum), Bits(std::numeric_limits<double>::quiet_NaN()));

  const std::vector<double> all_nan = {kNaN, kNaN};
  const ScanStats t = ScanColumns(all_nan.data(), all_nan.size(), nullptr, 0);
  EXPECT_EQ(t.matched, 2u);
  EXPECT_EQ(t.min, kInf);
  EXPECT_EQ(t.max, -kInf);
}

TEST(ScanKernel, IntervalContainsPinsTheSameSemantics) {
  const Interval unit{0.0, 1.0};
  EXPECT_FALSE(unit.Contains(kNaN));
  EXPECT_TRUE(unit.Contains(-0.0));
  EXPECT_TRUE((Interval{-0.0, -0.0}).Contains(0.0));
  EXPECT_FALSE((Interval{kNaN, 1.0}).Contains(0.5));
  EXPECT_FALSE((Interval{0.0, kNaN}).Contains(0.5));
}

// ---------------------------------------------------------------------------
// Active-dim pruning: bit-identical to the unpruned scan
// ---------------------------------------------------------------------------

TEST(ScanKernel, PrunedLeafScanIsBitIdenticalToFull) {
  Rng rng(0xB0B0B0B0ull);
  for (int iter = 0; iter < 2000; ++iter) {
    const size_t d = static_cast<size_t>(rng.UniformInt(1, 4));
    const size_t n = static_cast<size_t>(rng.UniformInt(0, 80));
    StratifiedSample sample(d);
    Rect leaf_box(d);
    std::vector<double> row(d);
    for (size_t i = 0; i < n; ++i) {
      for (size_t k = 0; k < d; ++k) {
        row[k] = rng.UniformDouble(-5.0, 5.0);
        leaf_box.dim(k).Expand(row[k]);
      }
      sample.AddRow(row, rng.UniformDouble(-100.0, 100.0));
    }
    Rect query(d);
    for (size_t k = 0; k < d; ++k) {
      // Half the dims are fully covering (prunable), half contested.
      if (rng.Bernoulli(0.5)) {
        query.dim(k) = Interval{-6.0, 6.0};
      } else {
        RandomInterval(&rng, &query.dim(k).lo, &query.dim(k).hi);
      }
    }
    const StratifiedSample::ScanResult full = sample.Scan(query);
    const StratifiedSample::ScanResult pruned = sample.Scan(query, leaf_box);
    EXPECT_EQ(full.matched, pruned.matched);
    EXPECT_EQ(Bits(full.sum), Bits(pruned.sum));
    EXPECT_EQ(Bits(full.sum_sq), Bits(pruned.sum_sq));
    EXPECT_EQ(Bits(full.min), Bits(pruned.min));
    EXPECT_EQ(Bits(full.max), Bits(pruned.max));
    if (::testing::Test::HasFailure()) {
      FAIL() << "diverged at pruning iteration " << iter;
    }
  }
}

// ---------------------------------------------------------------------------
// Registry-wide bit-identity with the kernel under every engine
// ---------------------------------------------------------------------------

std::unique_ptr<AqpSystem> MakeEngine(const Dataset& data,
                                      const std::string& name,
                                      size_t num_shards) {
  EngineConfig config;
  config.sample_rate = 0.02;
  config.partitions = 16;
  config.strategy = PartitionStrategy::kEqualDepth;
  config.num_shards = num_shards;
  config.seed = 42;
  auto engine = EngineRegistry::Global().Create(name, data, config);
  PASS_CHECK_MSG(engine.ok(), engine.status().ToString().c_str());
  return std::move(engine).value();
}

TEST(ScanKernel, ShardedAnswersMatchPlainAtK1AndAreSelfConsistent) {
  const Dataset data = MakeTaxiLike(4000, /*seed=*/9);
  WorkloadOptions wl;
  wl.agg = AggregateType::kSum;
  wl.count = 8;
  wl.seed = 77;
  const std::vector<Query> queries = RandomRangeQueries(data, wl);
  const auto plain = MakeEngine(data, "pass", 1);
  const auto k1 = MakeEngine(data, "sharded_pass", 1);
  for (const Query& q : queries) {
    // K=1 sharding is a pure pass-through: bit-identical to plain.
    ExpectAnswersBitIdentical(plain->Answer(q), k1->Answer(q));
  }
  for (const size_t k : {2u, 4u}) {
    SCOPED_TRACE(k);
    const auto sharded = MakeEngine(data, "sharded_pass", k);
    for (const Query& q : queries) {
      // Deterministic at every K: two runs of the same engine agree.
      ExpectAnswersBitIdentical(sharded->Answer(q), sharded->Answer(q));
    }
  }
}

TEST(ScanKernel, ResumedSessionMatchesFreshBudgetedRun) {
  const Dataset data = MakeTaxiLike(4000, /*seed=*/9);
  for (const size_t k : {1u, 2u, 4u}) {
    SCOPED_TRACE(k);
    const auto engine = MakeEngine(data, "sharded_pass", k);
    const Rect predicate =
        testing::RangeQueryOnDim(AggregateType::kSum, data.NumPredDims(), 0,
                                 0.2, 0.8)
            .predicate;
    const auto resumed = engine->StartSession(predicate, /*seed=*/5);
    ASSERT_NE(resumed, nullptr);
    const uint64_t plan = resumed->PlanCost();
    for (const uint64_t cap : {plan / 4, plan / 2, plan}) {
      const MultiAnswer stepped = resumed->AdvanceTo(cap);
      // A fresh session advanced straight to the same cap must agree bit
      // for bit with the resumed one — the PR 6 contract, now with the
      // pruned SIMD kernel underneath.
      const auto fresh = engine->StartSession(predicate, /*seed=*/5);
      const MultiAnswer direct = fresh->AdvanceTo(cap);
      ExpectAnswersBitIdentical(stepped.sum, direct.sum);
      ExpectAnswersBitIdentical(stepped.count, direct.count);
      ExpectAnswersBitIdentical(stepped.avg, direct.avg);
    }
  }
}

}  // namespace
}  // namespace pass
