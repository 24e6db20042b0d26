/// Sharded serving tour: split one dataset across K PASS synopses, answer
/// the same workload through the "sharded_pass" engine at growing shard
/// counts, and watch the merge algebra at work — merged estimates, summed
/// variances, combined hard bounds, and bit-identical answers between the
/// sequential and parallel per-shard paths.
///
/// The workload is served through the QueryScheduler (submit all futures,
/// wait all), so the sweep exercises the same async core a server
/// front-end uses, nested over the per-shard fan-out pool.
///
/// Usage: sharded_serving [rows] [queries] [max_shards]

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "common/parse.h"
#include "data/generators.h"
#include "data/workload.h"
#include "engine/batch.h"
#include "engine/engine_registry.h"
#include "engine/query_scheduler.h"
#include "harness/metrics.h"
#include "harness/table_printer.h"
#include "shard/sharded_synopsis.h"

namespace {

size_t ParseArg(const char* arg, const char* name, size_t min, size_t max) {
  const std::optional<size_t> value = pass::ParseNonNegative(arg, max);
  if (!value || *value < min) {
    std::fprintf(stderr,
                 "invalid %s \"%s\" (expected an integer in [%zu, %zu])\n"
                 "usage: sharded_serving [rows] [queries] [max_shards]\n",
                 name, arg, min, max);
    std::exit(2);
  }
  return *value;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace pass;

  const size_t rows =
      argc > 1 ? ParseArg(argv[1], "rows", 1000, 100'000'000) : 300'000;
  const size_t num_queries =
      argc > 2 ? ParseArg(argv[2], "queries", 1, 1'000'000) : 200;
  const size_t max_shards =
      argc > 3 ? ParseArg(argv[3], "max_shards", 1, 1024) : 8;

  const Dataset data = MakeTaxiDatetime(rows, /*seed=*/77);
  WorkloadOptions wl;
  wl.agg = AggregateType::kSum;
  wl.count = num_queries;
  const std::vector<Query> queries = RandomRangeQueries(data, wl);
  const std::vector<ExactResult> truths = ComputeGroundTruth(data, queries);

  EngineConfig config;
  config.sample_rate = 0.005;
  config.partitions = 64;
  QueryScheduler& scheduler = QueryScheduler::Shared(/*num_threads=*/0);

  std::printf(
      "sharding %zu rows, serving %zu queries per shard count "
      "(%zu scheduler threads, %zu shard threads)\n\n",
      data.NumRows(), queries.size(), scheduler.num_threads(),
      ParallelShardExecutor::Shared().num_threads());

  // 1) The sweep: same budget, more shards, served asynchronously —
  //    RunBatch submits every query as a future, then waits on them all.
  TablePrinter table({"shards", "build_s", "p50_ms", "p95_ms",
                      "median_rel_err", "batch_qps"});
  for (size_t k = 1; k <= max_shards; k *= 2) {
    config.num_shards = k;
    auto engine =
        EngineRegistry::Global().Create("sharded_pass", data, config);
    if (!engine.ok()) {
      std::fprintf(stderr, "sharded_pass: %s\n",
                   engine.status().ToString().c_str());
      return 1;
    }
    const BatchResult batch = RunBatch(scheduler, **engine, queries);
    const BatchErrorSummary err = ScoreBatch(batch, truths);
    table.AddRow({std::to_string(k),
                  FormatDouble((*engine)->Costs().build_seconds, 3),
                  FormatDouble(LatencyQuantileMs(batch, 0.5), 4),
                  FormatDouble(LatencyQuantileMs(batch, 0.95), 4),
                  FormatDouble(err.median_rel_error, 4),
                  FormatDouble(batch.Throughput(), 6)});
  }
  table.Print();

  // 2) One merged answer under the microscope.
  config.num_shards = std::max<size_t>(2, max_shards / 2);
  auto engine =
      EngineRegistry::Global().Create("sharded_pass", data, config);
  if (!engine.ok()) return 1;
  const Query q = queries.front();
  const QueryAnswer merged = (*engine)->Answer(q);
  const ExactResult truth = truths.front();
  std::printf("\nquery: %s\n", q.ToString().c_str());
  std::printf("truth:           %.6g\n", truth.value);
  std::printf("merged estimate: %.6g  (99%% CI half-width %.6g)\n",
              merged.estimate.value, merged.estimate.HalfWidth(kLambda99));
  if (merged.hard_lb && merged.hard_ub) {
    std::printf("merged hard bounds: [%.6g, %.6g]\n", *merged.hard_lb,
                *merged.hard_ub);
  }
  std::printf("skip rate across shards: %.1f%%\n", 100.0 * merged.SkipRate());

  // 3) Scheduling never changes an answer: per-shard fan-out vs. a
  //    sequential shard loop are bit-for-bit identical.
  auto* sharded = dynamic_cast<ShardedSynopsis*>(engine->get());
  if (sharded != nullptr) {
    sharded->set_executor(nullptr);  // sequential per-shard loop
    const QueryAnswer sequential = sharded->Answer(q);
    std::printf("sequential == parallel answer: %s\n",
                sequential.estimate.value == merged.estimate.value &&
                        sequential.estimate.variance ==
                            merged.estimate.variance
                    ? "yes (bit-identical)"
                    : "NO — report a bug");
  }
  return 0;
}
