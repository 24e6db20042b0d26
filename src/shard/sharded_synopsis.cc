#include "shard/sharded_synopsis.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <utility>

#include "common/rng.h"
#include "core/answer_merge.h"

namespace pass {

void ShardedSynopsis::Add(Synopsis synopsis) {
  shards_.push_back(std::make_unique<Synopsis>(std::move(synopsis)));
}

uint64_t ShardedSynopsis::NumRows() const {
  uint64_t total = 0;
  for (const auto& shard : shards_) total += shard->NumRows();
  return total;
}

namespace {

/// One work unit's coordinates in the global cross-shard spend order.
struct GlobalUnit {
  uint32_t shard = 0;
  uint32_t unit = 0;  // index into that shard's plan.units
  uint64_t cost = 0;
};

/// A checkpoint in the global cross-shard spend order. The order
/// concatenates every shard's units shard-major (shard ascending, unit
/// order within) and applies one seed-deterministic shuffle — the same
/// Shuffle a single synopsis performs over its own unit indices, so the
/// permutation depends only on the unit count and the seed. Each shard's
/// plan gets its slice of that order as WorkPlan::priority.
///
/// AdvanceTo is the estimator's prefix-stop rule along the order: whole
/// nonzero units are admitted while they fit the cumulative cap and the
/// walk stops at the first that does not (zero-cost units are free and
/// always admitted — they add nothing to any allocation). That rule makes
/// the per-shard allocations componentwise monotone in the cap and their
/// sum never exceed it. A restriction of the global prefix order is itself
/// a prefix order, so a shard-local walk at the shard's allocation admits
/// exactly the globally chosen units — now, or resumed from a smaller cap.
struct GlobalWalk {
  GlobalWalk(std::vector<WorkPlan>* plans, uint64_t seed)
      : alloc(plans->size(), 0) {
    size_t num_units = 0;
    for (const WorkPlan& plan : *plans) num_units += plan.units.size();
    order.reserve(num_units);
    for (size_t s = 0; s < plans->size(); ++s) {
      const std::vector<WorkUnit>& units = (*plans)[s].units;
      for (size_t u = 0; u < units.size(); ++u) {
        GlobalUnit g;
        g.shard = static_cast<uint32_t>(s);
        g.unit = static_cast<uint32_t>(u);
        g.cost = units[u].cost;
        order.push_back(g);
        total += g.cost;
      }
    }
    Rng rng(seed);
    rng.Shuffle(&order);
    for (WorkPlan& plan : *plans) plan.priority.reserve(plan.units.size());
    for (const GlobalUnit& g : order) {
      (*plans)[g.shard].priority.push_back(g.unit);
    }
  }

  void AdvanceTo(uint64_t cap) {
    while (cursor < order.size()) {
      const GlobalUnit& g = order[cursor];
      if (g.cost > 0) {
        if (used + g.cost > cap) break;
        used += g.cost;
        alloc[g.shard] += g.cost;
      }
      ++cursor;
    }
  }

  std::vector<GlobalUnit> order;
  std::vector<uint64_t> alloc;  // per-shard admitted cost so far
  uint64_t total = 0;           // every shard's plan cost
  size_t cursor = 0;            // next candidate in order
  uint64_t used = 0;            // units admitted so far
};

/// Resumable estimation across shards: the global walk of a budgeted
/// fan-out, advancing one member session per shard to the allocation the
/// walk grants it. Because the members scan precisely the units a fresh
/// budgeted fan-out would admit at the same cumulative budget and seed,
/// the merged answer is bit-identical to that fresh run at every
/// AdvanceTo.
class ShardedSession final : public EstimationSession {
 public:
  ShardedSession(std::vector<std::unique_ptr<EstimationSession>> members,
                 GlobalWalk walk)
      : members_(std::move(members)), walk_(std::move(walk)) {}

  MultiAnswer AdvanceTo(uint64_t max_scan_units) override {
    walk_.AdvanceTo(max_scan_units);
    std::vector<MultiAnswer> parts(members_.size());
    for (size_t i = 0; i < members_.size(); ++i) {
      parts[i] = members_[i]->AdvanceTo(walk_.alloc[i]);
    }
    return MergeShardMulti(parts);
  }

  uint64_t PlanCost() const override { return walk_.total; }
  uint64_t UnitsScanned() const override { return walk_.used; }

 private:
  std::vector<std::unique_ptr<EstimationSession>> members_;
  GlobalWalk walk_;
};

/// Every shard's rule-OFF plan of `predicate`: one MCF walk per shard.
std::vector<WorkPlan> PlanShards(
    const std::vector<std::unique_ptr<Synopsis>>& shards,
    const Rect& predicate) {
  std::vector<WorkPlan> plans;
  plans.reserve(shards.size());
  for (const auto& shard : shards) plans.push_back(shard->PlanFor(predicate));
  return plans;
}

}  // namespace

uint64_t ShardedSynopsis::PlanScanCost(const Rect& predicate) const {
  uint64_t total = 0;
  for (const auto& shard : shards_) total += shard->PlanScanCost(predicate);
  return total;
}

std::vector<uint64_t> ShardedSynopsis::SplitBudget(const Rect& predicate,
                                                   uint64_t budget,
                                                   uint64_t seed) const {
  PASS_CHECK_MSG(!shards_.empty(), "sharded synopsis has no shards");
  std::vector<WorkPlan> plans = PlanShards(shards_, predicate);
  GlobalWalk walk(&plans, seed);
  walk.AdvanceTo(budget);
  return walk.alloc;
}

ShardedSynopsis::FanOut ShardedSynopsis::PrepareFanOut(
    const Rect& predicate, const AnswerOptions& options) const {
  const size_t k = shards_.size();
  FanOut out;
  out.options.resize(k);
  if (options.budget.max_scan_units.has_value()) {
    // Global interleaved admission: price every shard (the one walk per
    // shard, executed by the shard later), decide which units the whole
    // budget buys across all shards, then hand each shard its exact
    // admitted cost plus its slice of the global order, so the fan-out
    // scans precisely the globally chosen set.
    out.plans = PlanShards(shards_, predicate);
    GlobalWalk walk(&out.plans, options.seed);
    walk.AdvanceTo(*options.budget.max_scan_units);
    for (size_t i = 0; i < k; ++i) {
      out.options[i].budget.max_scan_units = walk.alloc[i];
    }
  }
  for (size_t i = 0; i < k; ++i) {
    out.options[i].budget.soft_deadline = options.budget.soft_deadline;
    // Decorrelated, shard-stable streams (the builder's seed convention);
    // admission ignores these whenever an explicit priority is attached.
    out.options[i].seed = options.seed + i * 7919;
  }
  return out;
}

WorkPlan ShardedSynopsis::FanOut::TakePlan(const Synopsis& shard, size_t i,
                                           const Rect& predicate) {
  return plans.empty() ? shard.PlanFor(predicate) : std::move(plans[i]);
}

QueryAnswer ShardedSynopsis::AnswerImpl(const Query& query,
                                        const AnswerOptions& options) const {
  PASS_CHECK_MSG(!shards_.empty(), "sharded synopsis has no shards");
  // One shard needs no merging: delegate, keeping the answer bit-identical
  // to the plain synopsis (including the AVG estimator path).
  if (shards_.size() == 1) return shards_[0]->Answer(query, options);
  if (query.agg == AggregateType::kAvg) {
    // One fused evaluation per shard (one MCF walk + one leaf scan each)
    // carrying the exact SUM/COUNT covariance into the ratio merge.
    return AnswerMulti(query.predicate, options).avg;
  }
  FanOut fan = PrepareFanOut(query.predicate, options);
  std::vector<QueryAnswer> parts(shards_.size());
  ForEachShard([&](size_t i) {
    const Synopsis& shard = *shards_[i];
    parts[i] = shard.AnswerOverPlan(fan.TakePlan(shard, i, query.predicate),
                                    query, fan.options[i]);
  });
  return MergeShardAnswers(query.agg, parts);
}

MultiAnswer ShardedSynopsis::AnswerMultiImpl(
    const Rect& predicate, const AnswerOptions& options) const {
  PASS_CHECK_MSG(!shards_.empty(), "sharded synopsis has no shards");
  if (shards_.size() == 1) return shards_[0]->AnswerMulti(predicate, options);
  FanOut fan = PrepareFanOut(predicate, options);
  std::vector<MultiAnswer> parts(shards_.size());
  ForEachShard([&](size_t i) {
    const Synopsis& shard = *shards_[i];
    parts[i] = shard.AnswerMultiOverPlan(fan.TakePlan(shard, i, predicate),
                                         predicate, fan.options[i]);
  });
  return MergeShardMulti(parts);
}

std::unique_ptr<EstimationSession> ShardedSynopsis::StartSessionImpl(
    const Rect& predicate, uint64_t seed) const {
  PASS_CHECK_MSG(!shards_.empty(), "sharded synopsis has no shards");
  if (shards_.size() == 1) return shards_[0]->StartSession(predicate, seed);

  std::vector<WorkPlan> plans = PlanShards(shards_, predicate);
  GlobalWalk walk(&plans, seed);
  std::vector<std::unique_ptr<EstimationSession>> members;
  members.reserve(plans.size());
  for (size_t i = 0; i < plans.size(); ++i) {
    members.push_back(shards_[i]->StartSessionOverPlan(std::move(plans[i]),
                                                       predicate,
                                                       seed + i * 7919));
  }
  return std::make_unique<ShardedSession>(std::move(members), std::move(walk));
}

SystemCosts ShardedSynopsis::Costs() const {
  SystemCosts total;
  for (const auto& shard : shards_) {
    const SystemCosts c = shard->Costs();
    total.build_seconds += c.build_seconds;
    total.storage_bytes += c.storage_bytes;
    total.resident_bytes += c.resident_bytes;
  }
  return total;
}

Result<ShardedSynopsis> BuildShardedSynopsis(
    const Dataset& data, const ShardedBuildOptions& options) {
  const ShardPlanner planner(options.shard);
  Result<std::vector<Dataset>> shards = planner.Split(data);
  if (!shards.ok()) return shards.status();

  const double n = static_cast<double>(data.NumRows());
  ShardedSynopsis sharded;
  for (size_t s = 0; s < shards->size(); ++s) {
    const Dataset& shard_data = (*shards)[s];
    if (shard_data.NumRows() == 0) continue;  // contributes nothing
    const double fraction = static_cast<double>(shard_data.NumRows()) / n;
    BuildOptions shard_options = options.base;
    // Fair-total split: leaves and stored-sample budget proportional to
    // the shard's row share (sample_rate is per-row, so it already is).
    shard_options.num_leaves = std::max<size_t>(
        1, static_cast<size_t>(
               std::lround(static_cast<double>(options.base.num_leaves) *
                           fraction)));
    if (options.base.sample_budget.has_value()) {
      shard_options.sample_budget = std::max<size_t>(
          1, static_cast<size_t>(std::lround(
                 static_cast<double>(*options.base.sample_budget) *
                 fraction)));
    }
    // Distinct per-shard streams; shard 0 keeps the base seed so K=1
    // reproduces the unsharded build bit for bit.
    shard_options.seed = options.base.seed + s * 7919;
    Result<Synopsis> built = BuildSynopsis(shard_data, shard_options);
    if (!built.ok()) return built.status();
    sharded.Add(std::move(built).value());
  }
  if (sharded.NumShards() == 0) {
    return Status::FailedPrecondition("every shard is empty");
  }
  char name[64];
  std::snprintf(name, sizeof(name), "Sharded-PASS[%zux %s]",
                sharded.NumShards(),
                ShardStrategyName(options.shard.strategy));
  sharded.set_name(name);
  return sharded;
}

}  // namespace pass
