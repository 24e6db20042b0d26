#include "core/estimator.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <limits>
#include <numeric>

#include "common/macros.h"
#include "common/rng.h"
#include "core/hard_bounds.h"

namespace pass {
namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

double Fpc(double n_pop, double k_samp, bool enabled) {
  if (!enabled) return 1.0;
  return FinitePopulationCorrection(n_pop, k_samp);
}

/// Whether a stratum's sampled moments may enter an estimate. A stratum
/// without them gets the deterministic fallback instead.
bool HasScan(const SampledStratum& p) { return p.sample_size > 0.0; }

/// Everything one MCF walk plus one (possibly budget-limited) pass over
/// the partial-leaf samples yields. Every aggregate estimate below is a
/// pure function of this, so a fused SUM/COUNT/AVG answer costs exactly
/// one of these. `side.covered` merges the covered and 0-variance nodes;
/// `side.strata` holds one stratum per partial leaf, in frontier order,
/// whose sample_size stays 0 until the leaf is scanned.
struct FrontierScan {
  PartitionTree::Frontier frontier;
  SampledSide side;
  QueryAnswer base;  // shared diagnostics; estimate and bounds left empty
};

using SoftDeadline = std::optional<std::chrono::steady_clock::time_point>;

/// The unit cap of a budget; no cap admits every unit.
uint64_t UnitCap(const WorkBudget& budget) {
  return budget.max_scan_units.value_or(std::numeric_limits<uint64_t>::max());
}

/// One execution of a WorkPlan: the FrontierScan a query assembles from,
/// grown monotonically along the plan's spend-priority order. A one-shot
/// answer advances it once; a resumable session advances it per call.
/// Both therefore admit and scan the same units for the same cumulative
/// cap, and assemble from identical state — the resume-equals-restart
/// contract holds by construction.
///
/// The tree, samples and predicate are referenced and must outlive it.
class PlanExecution {
 public:
  PlanExecution(const PartitionTree& tree,
                const std::vector<StratifiedSample>& samples, WorkPlan plan,
                const Rect& predicate, uint64_t seed)
      : tree_(tree),
        samples_(samples),
        predicate_(predicate),
        seed_(seed),
        plan_cost_(plan.total_cost),
        units_(std::move(plan.units)),
        order_(std::move(plan.priority)) {
    fs_.frontier = std::move(plan.frontier);
    PASS_DCHECK(units_.size() == fs_.frontier.partial.size());
    PASS_DCHECK(order_.empty() || order_.size() == units_.size());

    QueryAnswer& out = fs_.base;
    const PartitionTree::Frontier& frontier = fs_.frontier;
    out.covered_nodes = static_cast<uint32_t>(frontier.covered.size() +
                                              frontier.zero_var.size());
    out.partial_leaves = static_cast<uint32_t>(frontier.partial.size());
    out.nodes_visited = frontier.nodes_visited;
    if (tree.root() >= 0) {
      out.population_rows = tree.node(tree.root()).stats.count;
    }

    // Rows the synopsis never has to look at: everything outside the
    // partial leaves (covered partitions are answered from aggregates;
    // disjoint ones are skipped by the index walk).
    uint64_t partial_rows = 0;
    for (const int32_t id : frontier.partial) {
      partial_rows += tree.node(id).stats.count;
    }
    out.population_rows_skipped = out.population_rows - partial_rows;
    out.exact = frontier.partial.empty() && frontier.zero_var.empty();
    out.scan_units_planned = plan_cost_;

    // Exact side: merge covered aggregates; 0-variance nodes contribute
    // their constant value with their full cardinality (the paper's rule).
    for (const int32_t id : frontier.covered) {
      fs_.side.covered.Merge(tree.node(id).stats);
    }
    for (const int32_t id : frontier.zero_var) {
      fs_.side.covered.Merge(tree.node(id).stats);
    }

    fs_.side.strata.resize(frontier.partial.size());
    for (size_t u = 0; u < units_.size(); ++u) {
      SampledStratum& p = fs_.side.strata[u];
      p.stats = &tree.node(units_[u].node).stats;
      p.population = static_cast<double>(p.stats->count);
      // Zero-cost units (empty samples) are admitted at every budget
      // level — they do no work — so the walk below meters nonzero units
      // only.
      if (units_[u].cost == 0) ScanUnit(u);
    }
  }

  /// Admits whole units in spend order while the cumulative cost still
  /// fits `cap`, and STOPS at the first nonzero-cost unit that does not
  /// (partial scans of one leaf's sample would bias the stratum
  /// estimator, so a unit is all-or-nothing). The prefix-stop rule trades
  /// a little budget utilization for monotonicity: the admitted set at a
  /// smaller cap is a prefix — hence a subset — of the admitted set at a
  /// larger one, which is what lets a session resume from its checkpoint
  /// and still match a fresh run bit for bit. A smaller cap than already
  /// spent scans nothing. `soft_deadline` is checked between unit scans
  /// in spend order; once it has passed, the walk stops — a unit scan is
  /// never torn.
  void AdvanceTo(uint64_t cap, SoftDeadline soft_deadline) {
    if (used_ == plan_cost_) return;  // every unit already scanned
    if (cap >= plan_cost_ && !soft_deadline.has_value()) {
      // Every unit is admitted whatever the order: scan the rest in
      // frontier order and never build the spend order.
      for (size_t u = 0; u < units_.size(); ++u) {
        if (units_[u].cost > 0 && !HasScan(fs_.side.strata[u])) ScanUnit(u);
      }
      used_ = plan_cost_;
      return;
    }
    if (order_.empty()) {
      // No explicit priority (a sharded fan-out's global-order
      // restriction): a seed-deterministic shuffle, built on first use.
      order_.resize(units_.size());
      std::iota(order_.begin(), order_.end(), uint32_t{0});
      Rng rng(seed_);
      rng.Shuffle(&order_);
    }
    for (; cursor_ < order_.size(); ++cursor_) {
      const uint32_t u = order_[cursor_];
      const uint64_t cost = units_[u].cost;
      if (cost == 0) continue;  // scanned up front
      if (used_ + cost > cap) break;
      if (soft_deadline.has_value() &&
          std::chrono::steady_clock::now() > *soft_deadline) {
        break;
      }
      ScanUnit(u);
      used_ += cost;
    }
  }

  /// Rebuilds the scan-dependent diagnostics in frontier order — so
  /// estimates never depend on the order units were scanned in — and
  /// returns the state every estimator below is a pure function of.
  const FrontierScan& Assemble() {
    QueryAnswer& out = fs_.base;
    out.sample_rows_scanned = used_;
    out.truncated = used_ < plan_cost_;
    out.matched_sample_rows = 0;
    for (const SampledStratum& p : fs_.side.strata) {
      out.matched_sample_rows += p.scan.matched;
    }
    fs_.side.ObserveExtremes();
    return fs_;
  }

  uint64_t PlanCost() const { return plan_cost_; }
  uint64_t UnitsScanned() const { return used_; }

 private:
  void ScanUnit(size_t u) {
    SampledStratum& p = fs_.side.strata[u];
    const PartitionTree::Node& n = tree_.node(units_[u].node);
    const StratifiedSample& sample = samples_[static_cast<size_t>(n.leaf_id)];
    // Active-dim pruning: the leaf's tight bounding box proves dims the
    // query fully covers, so the kernel tests contested dims only.
    // Bit-identical to the unpruned scan (see StratifiedSample::Scan).
    p.scan = sample.Scan(predicate_, n.data_bounds);
    p.sample_size = static_cast<double>(units_[u].cost);
  }

  const PartitionTree& tree_;
  const std::vector<StratifiedSample>& samples_;
  const Rect& predicate_;
  const uint64_t seed_;
  const uint64_t plan_cost_;
  std::vector<WorkUnit> units_;
  std::vector<uint32_t> order_;  // spend-priority order of units_
  size_t cursor_ = 0;            // next candidate in order_
  uint64_t used_ = 0;            // units admitted so far
  FrontierScan fs_;
};

/// Hard bounds need the 0-variance nodes on the *partial* side (their
/// matched cardinality is unknown even though their value is constant).
HardBounds BoundsFor(const PartitionTree& tree, const FrontierScan& fs,
                     AggregateType agg) {
  std::vector<int32_t> bound_partials = fs.frontier.partial;
  bound_partials.insert(bound_partials.end(), fs.frontier.zero_var.begin(),
                        fs.frontier.zero_var.end());
  return ComputeHardBounds(tree, fs.frontier.covered, bound_partials, agg,
                           fs.side.observed_min, fs.side.observed_max);
}

void SetHardBounds(const HardBounds& hard, QueryAnswer* out) {
  if (!hard.valid) return;
  out->hard_lb = hard.lb;
  out->hard_ub = hard.ub;
}

/// SUM/COUNT estimate: exact covered contribution plus one stratum
/// estimator per stratum with sample evidence. A stratum without it falls
/// back to the midpoint of its deterministic contribution bounds, with
/// the variance of a uniform distribution over that range.
Estimate AdditiveEstimate(const SampledSide& side, bool is_sum,
                          bool use_fpc) {
  Estimate out;
  double value =
      is_sum ? side.covered.sum : static_cast<double>(side.covered.count);
  double variance = 0.0;
  for (const SampledStratum& p : side.strata) {
    if (!HasScan(p)) {
      if (p.stats == nullptr) continue;
      const AggregateStats& s = *p.stats;
      const double cnt = static_cast<double>(s.count);
      double lo;
      double hi;
      if (is_sum) {
        lo = (s.max <= 0.0) ? s.sum : cnt * std::min(0.0, s.min);
        hi = (s.min >= 0.0) ? s.sum : cnt * std::max(0.0, s.max);
      } else {
        lo = 0.0;
        hi = cnt;
      }
      value += 0.5 * (lo + hi);
      variance += (hi - lo) * (hi - lo) / 12.0;
      continue;
    }
    const double s =
        is_sum ? p.scan.sum : static_cast<double>(p.scan.matched);
    const double ss =
        is_sum ? p.scan.sum_sq : static_cast<double>(p.scan.matched);
    const StratumEstimate est =
        EstimateStratumSum(p.population, p.sample_size, s, ss, use_fpc);
    value += est.value;
    variance += est.variance;
  }
  out.value = value;
  out.variance = variance;
  return out;
}

/// Exact Cov(SUM estimator, COUNT estimator), summed over the independent
/// strata: per stratum n²·Cov_sample(φ·a, φ)/k·fpc, where E[(φa)·φ] =
/// E[φa] because the match indicator φ is 0/1. Covered aggregates are
/// deterministic (no covariance); strata without sample evidence use
/// independent midpoint fallbacks for SUM and COUNT and contribute 0.
double SumCountCovariance(const SampledSide& side, bool use_fpc) {
  double cov = 0.0;
  for (const SampledStratum& p : side.strata) {
    if (!HasScan(p)) continue;
    const double k = static_cast<double>(p.scan.matched);
    const double mean_x = p.scan.sum / p.sample_size;
    const double mean_y = k / p.sample_size;
    const double cov_sample = p.scan.sum / p.sample_size - mean_x * mean_y;
    cov += p.population * p.population * cov_sample / p.sample_size *
           Fpc(p.population, p.sample_size, use_fpc);
  }
  return cov;
}

/// The paper's Section 2.2 / 3.3 AVG: per-stratum means combined with
/// weights w_i = N_i / N_q over the covered aggregates and the strata
/// with at least one matched sample row (a stratum without sample
/// evidence drops out of the weights), variance sum of w_i² · V_i(q).
Estimate PaperWeightsAvg(const SampledSide& side, const HardBounds& hard,
                         bool use_fpc) {
  double n_q = static_cast<double>(side.covered.count);
  for (const SampledStratum& p : side.strata) {
    if (p.scan.matched > 0) n_q += p.population;
  }
  if (n_q <= 0.0) {
    return hard.valid ? MidpointOverBounds(hard.lb, hard.ub) : Estimate{};
  }
  double value = side.covered.count > 0
                     ? side.covered.Mean() *
                           (static_cast<double>(side.covered.count) / n_q)
                     : 0.0;
  double variance = 0.0;
  for (const SampledStratum& p : side.strata) {
    if (p.scan.matched == 0) continue;
    const double k = static_cast<double>(p.scan.matched);
    const double w = p.population / n_q;
    value += (p.scan.sum / k) * w;
    // V_i(q) = (ss - s^2/K) / k^2 (Section 4.2.1 via phi scaling).
    double v =
        (p.scan.sum_sq - p.scan.sum * p.scan.sum / p.sample_size) / (k * k);
    v = std::max(v, 0.0) * Fpc(p.population, p.sample_size, use_fpc);
    variance += w * w * v;
  }
  return {value, variance};
}

/// MIN/MAX point estimate: the best value among the covered aggregates
/// (their extrema are attained by matching tuples) and the matched sample
/// rows. No CLT interval; the hard bounds carry the uncertainty.
Estimate ExtremumEstimate(const SampledSide& side, bool is_min,
                          const HardBounds& hard) {
  double best = is_min ? kInf : -kInf;
  if (side.covered.count > 0) {
    best = is_min ? side.covered.min : side.covered.max;
  }
  if (is_min && side.observed_min) best = std::min(best, *side.observed_min);
  if (!is_min && side.observed_max) best = std::max(best, *side.observed_max);
  if (best == kInf || best == -kInf) {
    // Nothing observed: report the midpoint of the hard bounds.
    best = hard.valid ? 0.5 * (hard.lb + hard.ub) : 0.0;
  }
  return {best, 0.0};
}

/// The fused SUM/COUNT/AVG assembly over a (possibly partially) scanned
/// frontier — a pure function of the FrontierScan, shared by the one-shot
/// fused path and the resumable session so their answers are the same
/// bits whenever their scan state is.
MultiAnswer MultiFromFrontier(const PartitionTree& tree,
                              const FrontierScan& fs,
                              const EstimatorOptions& opts) {
  MultiAnswer out;
  out.fused = true;
  out.sum = fs.base;
  out.count = fs.base;
  out.avg = fs.base;

  const HardBounds sum_hard = BoundsFor(tree, fs, AggregateType::kSum);
  const HardBounds count_hard = BoundsFor(tree, fs, AggregateType::kCount);
  const HardBounds avg_hard = BoundsFor(tree, fs, AggregateType::kAvg);
  SetHardBounds(sum_hard, &out.sum);
  SetHardBounds(count_hard, &out.count);
  SetHardBounds(avg_hard, &out.avg);

  out.sum.estimate =
      EstimateFromStrata(AggregateType::kSum, fs.side, sum_hard, opts);
  out.count.estimate =
      EstimateFromStrata(AggregateType::kCount, fs.side, count_hard, opts);
  out.sum_count_cov = SumCountCovariance(fs.side, opts.use_fpc);
  out.avg.estimate = RatioEstimate(out.sum.estimate, out.count.estimate,
                                   out.sum_count_cov, avg_hard);
  return out;
}

/// The tree-backed EstimationSession: the one-shot paths' PlanExecution,
/// advanced once per call instead of once in total, with no deadline.
class TreeSession final : public EstimationSession {
 public:
  TreeSession(const PartitionTree& tree,
              const std::vector<StratifiedSample>& samples, WorkPlan plan,
              Rect predicate, const EstimatorOptions& opts, uint64_t seed)
      : tree_(tree),
        predicate_(std::move(predicate)),
        opts_(opts),
        run_(tree, samples, std::move(plan), predicate_, seed) {}

  MultiAnswer AdvanceTo(uint64_t max_scan_units) override {
    run_.AdvanceTo(max_scan_units, std::nullopt);
    return MultiFromFrontier(tree_, run_.Assemble(), opts_);
  }

  uint64_t PlanCost() const override { return run_.PlanCost(); }
  uint64_t UnitsScanned() const override { return run_.UnitsScanned(); }

 private:
  const PartitionTree& tree_;
  const Rect predicate_;  // referenced by run_, so declared before it
  const EstimatorOptions opts_;
  PlanExecution run_;
};

}  // namespace

WorkPlan PlanScan(const PartitionTree& tree,
                  const std::vector<StratifiedSample>& samples,
                  const Rect& predicate, bool zero_variance_as_covered) {
  WorkPlan plan;
  plan.frontier = tree.ComputeMcf(predicate, zero_variance_as_covered);
  plan.units.reserve(plan.frontier.partial.size());
  for (const int32_t id : plan.frontier.partial) {
    const PartitionTree::Node& n = tree.node(id);
    PASS_CHECK_MSG(n.leaf_id >= 0, "partial node is not a finalized leaf");
    WorkUnit unit;
    unit.node = id;
    unit.cost = samples[static_cast<size_t>(n.leaf_id)].size();
    plan.total_cost += unit.cost;
    plan.units.push_back(unit);
  }
  return plan;
}

StratumEstimate EstimateStratumSum(double n_pop, double k_samp, double s,
                                   double ss, bool use_fpc) {
  StratumEstimate out;
  if (k_samp <= 0.0 || n_pop <= 0.0) return out;
  const double mean_phi = s / k_samp;                  // E[pred*a]
  double var_phi = ss / k_samp - mean_phi * mean_phi;  // Var(pred*a)
  var_phi = std::max(var_phi, 0.0);
  out.value = n_pop * mean_phi;
  out.variance =
      n_pop * n_pop * var_phi / k_samp * Fpc(n_pop, k_samp, use_fpc);
  return out;
}

void SampledSide::ObserveExtremes() {
  observed_min.reset();
  observed_max.reset();
  for (const SampledStratum& p : strata) {
    if (p.scan.matched == 0) continue;
    observed_min = observed_min ? std::min(*observed_min, p.scan.min)
                                : p.scan.min;
    observed_max = observed_max ? std::max(*observed_max, p.scan.max)
                                : p.scan.max;
  }
}

Estimate RatioEstimate(const Estimate& sum, const Estimate& count, double cov,
                       const HardBounds& hard) {
  if (count.value <= 0.0) {
    return hard.valid ? MidpointOverBounds(hard.lb, hard.ub) : Estimate{};
  }
  const double ratio = sum.value / count.value;
  const double var =
      (sum.variance - 2.0 * ratio * cov + ratio * ratio * count.variance) /
      (count.value * count.value);
  return {ratio, std::max(var, 0.0)};
}

Estimate EstimateFromStrata(AggregateType agg, const SampledSide& side,
                            const HardBounds& hard,
                            const EstimatorOptions& opts) {
  switch (agg) {
    case AggregateType::kSum:
    case AggregateType::kCount:
      return AdditiveEstimate(side, agg == AggregateType::kSum, opts.use_fpc);
    case AggregateType::kAvg:
      if (opts.avg_mode == AvgMode::kPaperWeights) {
        return PaperWeightsAvg(side, hard, opts.use_fpc);
      }
      // The ratio of the additive SUM and COUNT estimators with their
      // exact covariance — so a stratum without sample evidence falls
      // back to the same bounds midpoint the SUM/COUNT paths use instead
      // of silently dropping known population mass.
      return RatioEstimate(AdditiveEstimate(side, true, opts.use_fpc),
                           AdditiveEstimate(side, false, opts.use_fpc),
                           SumCountCovariance(side, opts.use_fpc), hard);
    case AggregateType::kMin:
    case AggregateType::kMax:
      return ExtremumEstimate(side, agg == AggregateType::kMin, hard);
  }
  return {};
}

QueryAnswer AnswerOverPlan(const PartitionTree& tree,
                           const std::vector<StratifiedSample>& samples,
                           WorkPlan plan, const Query& query,
                           const EstimatorOptions& opts,
                           const AnswerOptions& answer_options) {
  PlanExecution run(tree, samples, std::move(plan), query.predicate,
                    answer_options.seed);
  run.AdvanceTo(UnitCap(answer_options.budget),
                answer_options.budget.soft_deadline);
  const FrontierScan& fs = run.Assemble();

  QueryAnswer out = fs.base;
  const HardBounds hard = BoundsFor(tree, fs, query.agg);
  SetHardBounds(hard, &out);
  out.estimate = EstimateFromStrata(query.agg, fs.side, hard, opts);
  return out;
}

MultiAnswer MultiAnswerOverPlan(const PartitionTree& tree,
                                const std::vector<StratifiedSample>& samples,
                                WorkPlan plan, const Rect& predicate,
                                const EstimatorOptions& opts,
                                const AnswerOptions& answer_options) {
  PlanExecution run(tree, samples, std::move(plan), predicate,
                    answer_options.seed);
  run.AdvanceTo(UnitCap(answer_options.budget),
                answer_options.budget.soft_deadline);
  return MultiFromFrontier(tree, run.Assemble(), opts);
}

std::unique_ptr<EstimationSession> StartTreeSession(
    const PartitionTree& tree, const std::vector<StratifiedSample>& samples,
    WorkPlan plan, Rect predicate, const EstimatorOptions& opts,
    uint64_t seed) {
  return std::make_unique<TreeSession>(tree, samples, std::move(plan),
                                       std::move(predicate), opts, seed);
}

}  // namespace pass
