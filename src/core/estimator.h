#ifndef PASS_CORE_ESTIMATOR_H_
#define PASS_CORE_ESTIMATOR_H_

#include <cstdint>
#include <memory>
#include <optional>
#include <vector>

#include "core/aggregate_stats.h"
#include "core/answer.h"
#include "core/estimation_session.h"
#include "core/hard_bounds.h"
#include "core/partition_tree.h"
#include "core/query.h"
#include "core/stratified_sample.h"
#include "core/work_budget.h"

namespace pass {

/// How AVG queries are estimated.
enum class AvgMode {
  /// AVG = (PASS estimate of SUM) / (PASS estimate of COUNT), combining
  /// exact covered contributions with sampled partial ones; CI via the
  /// delta method with within-stratum covariance. Statistically the ratio
  /// estimator; the library default.
  kRatio,
  /// The paper's Section 2.2 / 3.3 scheme: per-stratum means combined with
  /// weights w_i = N_i / N_q, variance sum of w_i^2 * V_i(q).
  kPaperWeights,
};

class KernelCache;

/// Estimator configuration shared by the Synopsis and the baselines that
/// reuse stratified estimation.
struct EstimatorOptions {
  AvgMode avg_mode = AvgMode::kRatio;
  bool zero_variance_rule = true;  // Section 3.4, AVG only
  bool use_fpc = true;             // finite population correction

  /// Ignored: a compatibility no-op (see jit/kernel_cache.h). Every leaf
  /// scan runs through ScanColumns.
  std::shared_ptr<KernelCache> kernel_cache;
};

/// One schedulable piece of a query's sampled work: the stratified sample
/// of one partially-overlapped leaf, costed in scan units (= sample rows).
/// Zero-cost units (empty samples) always "execute" — their estimate is the
/// bounds-midpoint fallback either way.
struct WorkUnit {
  int32_t node = -1;  // partition-tree node id of the partial leaf
  uint64_t cost = 0;  // scan units = rows in the leaf's sample
};

/// The plan half of the estimation pipeline: everything the MCF walk
/// determines *before* any sample row is touched. Enumerates the partial
/// leaves as costed scan units so a serving layer can price a query
/// (total_cost), split a budget across shards proportionally, or decide to
/// answer from bounds alone — all without paying for a scan.
struct WorkPlan {
  PartitionTree::Frontier frontier;
  std::vector<WorkUnit> units;  // one per frontier.partial, same order
  uint64_t total_cost = 0;      // sum of unit costs

  /// Optional explicit spend-priority order: a permutation of indices into
  /// `units`. Empty (the default, what PlanScan emits) means execution
  /// derives the order from AnswerOptions::seed. A sharded fan-out fills
  /// it with the restriction of its global interleaved order, so each
  /// shard admits exactly the units the global budget walk chose.
  std::vector<uint32_t> priority;
};

/// Runs the MCF walk and enumerates the partial-leaf scan units. This is
/// the cheap half of query processing; AnswerOverPlan and
/// MultiAnswerOverPlan execute the plan's units up to a WorkBudget.
/// `zero_variance_as_covered` is the AVG-only zero-variance rule; every
/// other aggregate, and every fused answer, plans with it off.
WorkPlan PlanScan(const PartitionTree& tree,
                  const std::vector<StratifiedSample>& samples,
                  const Rect& predicate, bool zero_variance_as_covered);

/// Full PASS query processing (Section 3.3) over a plan from PlanScan:
/// exact partial aggregation over covered nodes, stratified sample
/// estimation over partially-overlapped leaves, CLT confidence interval,
/// and deterministic hard bounds. `samples[leaf_id]` is the stratified
/// sample of the leaf with that id. The plan must be PlanScan's result for
/// this predicate with the rule flag this query uses.
///
/// Anytime: the plan's units are spent only up to `answer_options.budget`,
/// in the deterministic priority order derived from `answer_options.seed`
/// (or the plan's explicit one). Unscanned leaves contribute the
/// bounds-midpoint fallback (the one sample-less leaves always used), so
/// every budget level yields a valid answer whose interval tightens as the
/// budget grows; `truncated` reports whether anything was left unscanned.
/// Under AvgMode::kPaperWeights an unscanned leaf drops out of the AVG
/// weights exactly like a no-match leaf always has; the ratio mode (the
/// default) keeps full population mass at every budget.
QueryAnswer AnswerOverPlan(const PartitionTree& tree,
                           const std::vector<StratifiedSample>& samples,
                           WorkPlan plan, const Query& query,
                           const EstimatorOptions& opts,
                           const AnswerOptions& answer_options);

/// Fused multi-aggregate query processing over a rule-OFF plan: ONE MCF
/// walk and ONE scan of each partial leaf's sample produce SUM, COUNT and
/// AVG together, with the exactly computed Cov(SUM, COUNT). The rule-OFF
/// frontier is the one the per-aggregate SUM/COUNT paths use, which is
/// what makes those answers bit-identical to per-aggregate AnswerOverPlan
/// calls and the covariance exact. AVG is the ratio of the fused
/// SUM/COUNT with the delta-method variance over that covariance.
///
/// The fused AVG is *always* this ratio estimator — the mergeable
/// sampling-algebra form, and the only one a covariance is meaningful
/// for. EstimatorOptions::avg_mode applies to the per-aggregate path
/// only: under AvgMode::kPaperWeights, Answer(kAvg) and the fused avg are
/// different estimators by design (exactly as the sharded AVG merge has
/// always been ratio-combined regardless of the per-shard mode).
///
/// Same budget/seed semantics as AnswerOverPlan. SUM, COUNT and AVG
/// truncate together (they share the one frontier and the one execution
/// set), so the fused covariance stays exact over whatever was scanned.
MultiAnswer MultiAnswerOverPlan(const PartitionTree& tree,
                                const std::vector<StratifiedSample>& samples,
                                WorkPlan plan, const Rect& predicate,
                                const EstimatorOptions& opts,
                                const AnswerOptions& answer_options);

/// Opens a resumable fused estimation over a rule-OFF plan. A one-shot
/// answer and a session run the same plan walk — the one-shot paths
/// advance it once — so AdvanceTo answers are bit-identical to
/// MultiAnswerOverPlan on the same plan with the same seed and
/// `budget.max_scan_units` equal to the cumulative cap. The tree and
/// samples must outlive the session.
std::unique_ptr<EstimationSession> StartTreeSession(
    const PartitionTree& tree, const std::vector<StratifiedSample>& samples,
    WorkPlan plan, Rect predicate, const EstimatorOptions& opts,
    uint64_t seed);

/// One sampled stratum of a query: `population` rows represented by a
/// uniform sample of `sample_size` rows, over which the query's predicate
/// matched the moments in `scan`. A stratum without sample evidence
/// (sample_size 0: an empty sample, or one a work budget left unscanned)
/// falls back to the midpoint of its deterministic SUM/COUNT contribution
/// bounds from `stats`, the stratum's exact aggregates; with no `stats` it
/// contributes nothing.
struct SampledStratum {
  double population = 0.0;
  double sample_size = 0.0;
  StratifiedSample::ScanResult scan;
  const AggregateStats* stats = nullptr;
};

/// Everything a query's estimate is assembled from besides its hard
/// bounds: the exact aggregates of what it covers, one stratum per sampled
/// part, and the extremes its matched sample rows showed. PASS passes its
/// covered nodes and one stratum per partial leaf; US one stratum over the
/// table; ST the strata the predicate intersects; AQP++ and KD-US their
/// covered partitions plus one uniform "gap" stratum.
struct SampledSide {
  AggregateStats covered;
  std::vector<SampledStratum> strata;
  std::optional<double> observed_min;
  std::optional<double> observed_max;

  /// Sets observed_min/observed_max from the strata with matched rows.
  void ObserveExtremes();
};

/// The one estimate assembly of every sampling engine (Section 3.3):
/// exact covered aggregates plus one stratum estimator per sampled
/// stratum. SUM and COUNT add the strata; AVG is their ratio with the
/// delta-method variance over the exact Cov(SUM, COUNT) under
/// AvgMode::kRatio, or the paper's per-stratum weights under
/// kPaperWeights; MIN/MAX report the best covered or observed value. With
/// no evidence of a matching tuple, AVG, MIN and MAX report the midpoint
/// of `hard` when it is valid, else 0.
Estimate EstimateFromStrata(AggregateType agg, const SampledSide& side,
                            const HardBounds& hard,
                            const EstimatorOptions& opts);

/// The delta-method ratio SUM/COUNT given Cov(SUM, COUNT). With no
/// evidence of a matching tuple (count <= 0) it reports the midpoint of
/// `hard` if valid, else 0.
Estimate RatioEstimate(const Estimate& sum, const Estimate& count, double cov,
                       const HardBounds& hard);

/// Per-stratum SUM estimate: the value and variance one stratum adds.
struct StratumEstimate {
  double value = 0.0;
  double variance = 0.0;
};

/// SUM estimator for one stratum of population size `n_pop` from a uniform
/// sample of size `k_samp` in which the matched tuples have sum `s` and
/// sum of squares `ss`. COUNT is the special case s = ss = matched.
StratumEstimate EstimateStratumSum(double n_pop, double k_samp, double s,
                                   double ss, bool use_fpc);

}  // namespace pass

#endif  // PASS_CORE_ESTIMATOR_H_
