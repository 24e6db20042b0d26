/// RunBatch, the synchronous face of the serving layer, and the ThreadPool
/// underneath every QueryScheduler.

#include "engine/batch.h"

#include <memory>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "data/generators.h"
#include "data/workload.h"
#include "engine/engine_registry.h"
#include "engine/query_scheduler.h"
#include "engine/thread_pool.h"
#include "tests/test_util.h"

namespace pass {
namespace {

std::unique_ptr<AqpSystem> FixedSeedEngine(const Dataset& data,
                                           const std::string& name) {
  EngineConfig config;
  config.sample_rate = 0.05;
  config.partitions = 16;
  config.seed = 42;
  auto engine = EngineRegistry::Global().Create(name, data, config);
  PASS_CHECK_MSG(engine.ok(), engine.status().ToString().c_str());
  return std::move(engine).value();
}

std::vector<Query> FixedWorkload(const Dataset& data, size_t count) {
  WorkloadOptions options;
  options.agg = AggregateType::kSum;
  options.count = count;
  options.seed = 1234;
  return RandomRangeQueries(data, options);
}

/// Answers must be bit-for-bit identical to the sequential loop: the
/// scheduler only changes *where* a query runs, never what it computes.
void ExpectIdentical(const QueryAnswer& got, const QueryAnswer& want,
                     size_t index) {
  SCOPED_TRACE("query " + std::to_string(index));
  testing::ExpectAnswersBitIdentical(got, want);
}

void CheckMatchesSequential(const std::string& engine_name,
                            size_t num_threads, size_t num_queries) {
  const Dataset data = MakeUniform(5000, /*seed=*/21, 1.0, 2.0);
  const std::unique_ptr<AqpSystem> engine = FixedSeedEngine(data, engine_name);
  const std::vector<Query> queries = FixedWorkload(data, num_queries);

  std::vector<QueryAnswer> sequential;
  sequential.reserve(queries.size());
  for (const Query& q : queries) sequential.push_back(engine->Answer(q));

  QueryScheduler scheduler(num_threads);
  const BatchResult batch = RunBatch(scheduler, *engine, queries);
  ASSERT_EQ(batch.answers.size(), queries.size());
  ASSERT_EQ(batch.latency_ms.size(), queries.size());
  for (size_t i = 0; i < queries.size(); ++i) {
    ExpectIdentical(batch.answers[i], sequential[i], i);
    EXPECT_GE(batch.latency_ms[i], 0.0);
  }
  EXPECT_GE(batch.wall_ms, 0.0);
}

TEST(RunBatch, SingleThreadMatchesSequential) {
  CheckMatchesSequential("pass", /*num_threads=*/1, /*num_queries=*/60);
}

TEST(RunBatch, MultiThreadMatchesSequential) {
  CheckMatchesSequential("pass", /*num_threads=*/4, /*num_queries=*/60);
}

TEST(RunBatch, OversubscribedMatchesSequential) {
  // Far more threads than queries: most workers stay idle, results are
  // still index-aligned and identical.
  CheckMatchesSequential("pass", /*num_threads=*/16, /*num_queries=*/5);
}

TEST(RunBatch, HardwareConcurrencyMatchesSequential) {
  CheckMatchesSequential("uniform", /*num_threads=*/0, /*num_queries=*/80);
}

TEST(RunBatch, EveryBuiltinEngineIsThreadConsistent) {
  for (const std::string& name : EngineRegistry::Global().Names()) {
    CheckMatchesSequential(name, /*num_threads=*/8, /*num_queries=*/24);
  }
}

TEST(RunBatch, ConcurrentBatchesOnOneSchedulerAreIndependent) {
  const Dataset data = MakeUniform(5000, /*seed=*/21, 1.0, 2.0);
  const std::unique_ptr<AqpSystem> engine = FixedSeedEngine(data, "pass");
  const std::vector<Query> queries_a = FixedWorkload(data, 40);
  WorkloadOptions options;
  options.agg = AggregateType::kSum;
  options.count = 40;
  options.seed = 4321;
  const std::vector<Query> queries_b = RandomRangeQueries(data, options);

  std::vector<QueryAnswer> want_a, want_b;
  for (const Query& q : queries_a) want_a.push_back(engine->Answer(q));
  for (const Query& q : queries_b) want_b.push_back(engine->Answer(q));

  QueryScheduler scheduler(4);
  BatchResult got_a, got_b;
  std::thread runner_a(
      [&] { got_a = RunBatch(scheduler, *engine, queries_a); });
  std::thread runner_b(
      [&] { got_b = RunBatch(scheduler, *engine, queries_b); });
  runner_a.join();
  runner_b.join();

  ASSERT_EQ(got_a.answers.size(), queries_a.size());
  ASSERT_EQ(got_b.answers.size(), queries_b.size());
  for (size_t i = 0; i < queries_a.size(); ++i) {
    ExpectIdentical(got_a.answers[i], want_a[i], i);
  }
  for (size_t i = 0; i < queries_b.size(); ++i) {
    ExpectIdentical(got_b.answers[i], want_b[i], i);
  }
}

TEST(RunBatch, EmptyBatch) {
  const Dataset data = MakeUniform(1000, /*seed=*/3, 1.0, 2.0);
  const std::unique_ptr<AqpSystem> engine = FixedSeedEngine(data, "uniform");
  QueryScheduler scheduler(4);
  const BatchResult result = RunBatch(scheduler, *engine, {});
  EXPECT_TRUE(result.answers.empty());
  EXPECT_EQ(result.Throughput(), 0.0);
  EXPECT_EQ(LatencyQuantileMs(result, 0.5), 0.0);
}

TEST(RunBatch, ScoreAgainstGroundTruth) {
  const Dataset data = MakeUniform(5000, /*seed=*/9, 1.0, 2.0);
  const std::unique_ptr<AqpSystem> exact = FixedSeedEngine(data, "exact");
  const std::vector<Query> queries = FixedWorkload(data, 40);
  std::vector<ExactResult> truths;
  for (const Query& q : queries) truths.push_back(ExactAnswer(data, q));

  QueryScheduler scheduler(4);
  const BatchResult result = RunBatch(scheduler, *exact, queries);
  const BatchErrorSummary summary = ScoreBatch(result, truths);
  EXPECT_GT(summary.num_scored, 0u);
  EXPECT_DOUBLE_EQ(summary.median_rel_error, 0.0);
  EXPECT_DOUBLE_EQ(summary.p95_rel_error, 0.0);
}

TEST(ThreadPool, ZeroMeansHardwareConcurrency) {
  ThreadPool pool(0);
  EXPECT_GE(pool.num_threads(), 1u);
}

TEST(ThreadPool, WaitWithNoTasksReturns) {
  ThreadPool pool(2);
  pool.Wait();  // must not deadlock
}

TEST(ThreadPool, RunsEveryTaskExactlyOnce) {
  ThreadPool pool(4);
  constexpr size_t kTasks = 1000;
  std::vector<int> hits(kTasks, 0);
  for (size_t i = 0; i < kTasks; ++i) {
    pool.Submit([&hits, i] { ++hits[i]; });
  }
  pool.Wait();
  for (size_t i = 0; i < kTasks; ++i) {
    EXPECT_EQ(hits[i], 1) << "task " << i;
  }
}

}  // namespace
}  // namespace pass
