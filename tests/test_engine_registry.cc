#include "engine/engine_registry.h"

#include <algorithm>
#include <cmath>
#include <memory>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "core/exact.h"
#include "data/generators.h"
#include "engine/exact_system.h"

namespace pass {
namespace {

const std::vector<std::string>& BuiltinNames() {
  static const std::vector<std::string>* names = new std::vector<std::string>{
      "agg_uniform", "ensemble",   "exact",      "pass",
      "sharded_pass", "spn",       "stratified", "uniform"};
  return *names;
}

Dataset SmokeData() { return MakeUniform(4000, /*seed=*/11, 1.0, 2.0); }

Query SmokeQuery() {
  return MakeRangeQuery(AggregateType::kSum, 0.2, 0.8);
}

TEST(EngineRegistry, ListsEveryBuiltinEngine) {
  const std::vector<std::string> names = EngineRegistry::Global().Names();
  for (const std::string& name : BuiltinNames()) {
    EXPECT_NE(std::find(names.begin(), names.end(), name), names.end())
        << "missing builtin engine: " << name;
    EXPECT_TRUE(EngineRegistry::Global().Contains(name));
  }
}

TEST(EngineRegistry, EveryBuiltinConstructsAndAnswers) {
  const Dataset data = SmokeData();
  const Query query = SmokeQuery();
  const ExactResult truth = ExactAnswer(data, query);
  ASSERT_GT(truth.matched, 0u);

  EngineConfig config;
  config.sample_rate = 0.05;
  config.partitions = 16;
  for (const std::string& name : BuiltinNames()) {
    auto engine = EngineRegistry::Global().Create(name, data, config);
    ASSERT_TRUE(engine.ok()) << name << ": " << engine.status().ToString();
    ASSERT_NE(*engine, nullptr);
    EXPECT_FALSE((*engine)->Name().empty());

    const QueryAnswer answer = (*engine)->Answer(query);
    EXPECT_TRUE(std::isfinite(answer.estimate.value)) << name;
    // Smoke accuracy: every method should land in the right ballpark on
    // this easy uniform workload (exact must be spot on).
    const double rel =
        std::abs(answer.estimate.value - truth.value) / truth.value;
    if (name == "exact") {
      EXPECT_DOUBLE_EQ(answer.estimate.value, truth.value);
      EXPECT_TRUE(answer.exact);
    } else {
      EXPECT_LT(rel, 0.5) << name << " answered " << answer.estimate.value
                          << " vs truth " << truth.value;
    }
  }
}

// Ranges 0.05% of a column wide leave most sample-based answers without a
// matched sample row. Whatever an engine falls back to then, an answer
// that carries hard bounds must estimate inside them. COUNT, AVG, MIN and
// MAX estimates are checked always; a SUM estimate only without matched
// sample rows, since a stratum's sampled N_i·Σa/k_i may exceed its
// partition's total.
TEST(EngineRegistry, EstimatesStayInsideTheirHardBounds) {
  const Dataset data = MakeTaxiLike(20000, /*seed=*/9);
  EngineConfig config;
  config.sample_rate = 0.002;
  config.partitions = 16;
  const std::vector<double>& col = data.pred_column(0);
  const double lo = *std::min_element(col.begin(), col.end());
  const double hi = *std::max_element(col.begin(), col.end());
  const double width = 0.0005 * (hi - lo);
  Rng rng(/*seed=*/21);
  std::vector<Rect> ranges;
  for (int i = 0; i < 100; ++i) {
    const double start = rng.UniformDouble(lo, hi - width);
    Rect r = Rect::All(data.NumPredDims());
    r.dim(0) = Interval{start, start + width};
    ranges.push_back(r);
  }
  for (const std::string& name : BuiltinNames()) {
    auto engine = EngineRegistry::Global().Create(name, data, config);
    ASSERT_TRUE(engine.ok()) << name << ": " << engine.status().ToString();
    for (const AggregateType agg :
         {AggregateType::kSum, AggregateType::kCount, AggregateType::kAvg,
          AggregateType::kMin, AggregateType::kMax}) {
      size_t bounded = 0;
      size_t outside = 0;
      for (const Rect& range : ranges) {
        const QueryAnswer answer = (*engine)->Answer(Query{agg, range});
        if (!answer.hard_lb || !answer.hard_ub) continue;
        if (agg == AggregateType::kSum && answer.matched_sample_rows > 0) {
          continue;
        }
        ++bounded;
        const double slack = 1e-9 * (1.0 + std::abs(*answer.hard_lb) +
                                     std::abs(*answer.hard_ub));
        if (answer.estimate.value < *answer.hard_lb - slack ||
            answer.estimate.value > *answer.hard_ub + slack) {
          ++outside;
        }
      }
      EXPECT_EQ(outside, 0u) << name << " " << AggregateName(agg) << ": "
                             << outside << " of " << bounded
                             << " bounded answers lie outside their bounds";
    }
  }
}

TEST(EngineRegistry, UnknownNameIsNotFound) {
  const Dataset data = SmokeData();
  auto engine =
      EngineRegistry::Global().Create("no-such-engine", data, EngineConfig{});
  ASSERT_FALSE(engine.ok());
  EXPECT_EQ(engine.status().code(), StatusCode::kNotFound);
}

TEST(EngineRegistry, InvalidConfigIsRejected) {
  const Dataset data = SmokeData();
  EngineConfig config;
  config.sample_rate = 0.0;
  for (const std::string& name : BuiltinNames()) {
    auto engine = EngineRegistry::Global().Create(name, data, config);
    ASSERT_FALSE(engine.ok()) << name;
    EXPECT_EQ(engine.status().code(), StatusCode::kInvalidArgument) << name;
  }
}

TEST(EngineRegistry, OutOfRangeDimIsRejected) {
  const Dataset data = SmokeData();  // 1 predicate dimension
  EngineConfig config;
  config.dim = 5;
  for (const std::string name : {"stratified", "agg_uniform"}) {
    auto engine = EngineRegistry::Global().Create(name, data, config);
    ASSERT_FALSE(engine.ok()) << name;
    EXPECT_EQ(engine.status().code(), StatusCode::kInvalidArgument) << name;
  }
}

TEST(EngineRegistry, ShardedPassHonorsShardCount) {
  const Dataset data = SmokeData();
  EngineConfig config;
  config.sample_rate = 0.05;
  config.partitions = 16;
  config.num_shards = 4;
  auto engine = EngineRegistry::Global().Create("sharded_pass", data, config);
  ASSERT_TRUE(engine.ok()) << engine.status().ToString();
  EXPECT_NE((*engine)->Name().find("4x"), std::string::npos)
      << (*engine)->Name();

  config.num_shards = 0;
  auto bad = EngineRegistry::Global().Create("sharded_pass", data, config);
  ASSERT_FALSE(bad.ok());
  EXPECT_EQ(bad.status().code(), StatusCode::kInvalidArgument);
}

TEST(EngineRegistry, EnsembleRejectsOutOfRangeTemplateDim) {
  const Dataset data = SmokeData();  // 1 predicate dimension
  EngineConfig config;
  config.sample_rate = 0.05;
  config.partitions = 16;
  config.ensemble_templates = {{0}, {3}};
  auto engine = EngineRegistry::Global().Create("ensemble", data, config);
  ASSERT_FALSE(engine.ok());
  EXPECT_EQ(engine.status().code(), StatusCode::kInvalidArgument);
}

TEST(EngineRegistry, EmptyDatasetIsRejected) {
  const Dataset empty("agg", {"c1"});
  auto engine =
      EngineRegistry::Global().Create("uniform", empty, EngineConfig{});
  ASSERT_FALSE(engine.ok());
  EXPECT_EQ(engine.status().code(), StatusCode::kFailedPrecondition);
}

TEST(EngineRegistry, CustomRegistrationIsCreatable) {
  EngineRegistry registry;
  registry.Register("custom-exact",
                    [](const Dataset& data, const EngineConfig&)
                        -> Result<std::unique_ptr<AqpSystem>> {
                      return std::unique_ptr<AqpSystem>(new ExactSystem(data));
                    });
  EXPECT_TRUE(registry.Contains("custom-exact"));
  EXPECT_FALSE(registry.Contains("exact"));  // fresh registry, no builtins

  const Dataset data = SmokeData();
  auto engine = registry.Create("custom-exact", data, EngineConfig{});
  ASSERT_TRUE(engine.ok());
  EXPECT_EQ((*engine)->Name(), "Exact");
}

}  // namespace
}  // namespace pass
