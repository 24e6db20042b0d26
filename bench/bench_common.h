#ifndef PASS_BENCH_BENCH_COMMON_H_
#define PASS_BENCH_BENCH_COMMON_H_

/// Shared scaffolding for the paper-reproduction bench binaries. Every
/// binary prints the same rows/series the corresponding paper table/figure
/// reports; EXPERIMENTS.md records paper-vs-measured.
///
/// Scale: datasets/query counts default to container-friendly sizes
/// (~100-300k rows, a few hundred queries). Set PASS_BENCH_SCALE=10 to
/// approach the paper's scale (3M/1.4M/7.7M rows, 2000 queries).

#include <cstdio>
#include <cstdlib>
#include <memory>
#include <string>
#include <vector>

#include "baselines/agg_plus_uniform.h"
#include "baselines/spn.h"
#include "baselines/stratified_sampling.h"
#include "baselines/uniform_sampling.h"
#include "common/parse.h"
#include "core/exact.h"
#include "data/generators.h"
#include "data/workload.h"
#include "engine/batch.h"
#include "engine/engine_registry.h"
#include "harness/metrics.h"
#include "harness/table_printer.h"
#include "partition/builder.h"

namespace pass::bench {

inline double Scale() {
  const char* env = std::getenv("PASS_BENCH_SCALE");
  if (env == nullptr) return 1.0;
  const double s = std::atof(env);
  return s > 0.0 ? s : 1.0;
}

inline size_t Scaled(size_t base) {
  return static_cast<size_t>(static_cast<double>(base) * Scale());
}

// Dataset sizes at scale 1 (paper sizes / ~15).
inline size_t IntelRows() { return Scaled(200'000); }
inline size_t InstaRows() { return Scaled(100'000); }
inline size_t TaxiRows() { return Scaled(300'000); }
inline size_t AdversarialRows() { return Scaled(200'000); }
inline size_t NumQueries() { return Scaled(400); }

/// The paper's fixed experiment parameters (Section 5.1.3).
inline constexpr double kSampleRate = 0.005;
inline constexpr size_t kPartitions = 64;
inline constexpr double kLambda = 2.576;  // 99% CI

/// Workload evaluation runs through RunBatch; PASS_EVAL_THREADS
/// picks the pool size (default 1 = the paper's sequential measurements,
/// 0 = hardware concurrency).
inline size_t EvalThreads() {
  const char* env = std::getenv("PASS_EVAL_THREADS");
  if (env == nullptr) return 1;
  // Unparseable, negative, overflowing, or absurd values fall back to the
  // sequential default rather than silently enabling full concurrency.
  return ParseNonNegative(env, kMaxThreadArg).value_or(1);
}

inline EvalOptions EvalOpts(double lambda) {
  EvalOptions options;
  options.lambda = lambda;
  options.num_threads = EvalThreads();
  return options;
}

/// Constructs a registered engine or aborts the bench binary on failure.
inline std::unique_ptr<AqpSystem> MustMakeEngine(const std::string& name,
                                                 const Dataset& data,
                                                 const EngineConfig& config) {
  Result<std::unique_ptr<AqpSystem>> result =
      EngineRegistry::Global().Create(name, data, config);
  PASS_CHECK_MSG(result.ok(), result.status().ToString().c_str());
  return std::move(result).value();
}

struct NamedDataset {
  std::string name;
  Dataset data;
};

inline std::vector<NamedDataset> RealLikeDatasets() {
  std::vector<NamedDataset> out;
  out.push_back({"Intel", MakeIntelLike(IntelRows())});
  out.push_back({"Insta", MakeInstacartLike(InstaRows())});
  out.push_back({"NYC", MakeTaxiDatetime(TaxiRows())});
  return out;
}

inline BuildOptions PassDefaults(size_t partitions = kPartitions,
                                 double rate = kSampleRate,
                                 AggregateType optimize_for =
                                     AggregateType::kSum) {
  BuildOptions options;
  options.num_leaves = partitions;
  options.sample_rate = rate;
  options.optimize_for = optimize_for;
  options.opt_sample_size = 10'000;
  return options;
}

inline Synopsis MustBuildSynopsis(const Dataset& data,
                                  const BuildOptions& options) {
  Result<Synopsis> result = BuildSynopsis(data, options);
  PASS_CHECK_MSG(result.ok(), result.status().ToString().c_str());
  return std::move(result).value();
}

/// PASS in the paper's BSS mode: the stored sample budget is a multiple of
/// what uniform sampling stores at `base_rate`.
inline Synopsis BuildPassBss(const Dataset& data, double multiple,
                             double base_rate = kSampleRate,
                             size_t partitions = kPartitions,
                             AggregateType optimize_for =
                                 AggregateType::kSum) {
  BuildOptions options = PassDefaults(partitions, base_rate, optimize_for);
  options.sample_budget = static_cast<size_t>(
      multiple * base_rate * static_cast<double>(data.NumRows()));
  Synopsis s = MustBuildSynopsis(data, options);
  char name[64];
  std::snprintf(name, sizeof(name), "PASS-BSS%.0fx", multiple);
  s.set_name(name);
  return s;
}

/// PASS in the paper's ESS mode: the sampling budget is calibrated so the
/// *mean effective sample size* (rows scanned per query) matches what
/// uniform sampling scans at `base_rate`. Thanks to data skipping this
/// stores more samples than US while scanning fewer per query.
inline Synopsis BuildPassEss(const Dataset& data,
                             const std::vector<Query>& workload,
                             double base_rate = kSampleRate,
                             size_t partitions = kPartitions,
                             AggregateType optimize_for =
                                 AggregateType::kSum) {
  const double target_ess =
      base_rate * static_cast<double>(data.NumRows());
  BuildOptions options = PassDefaults(partitions, base_rate, optimize_for);
  options.sample_budget = static_cast<size_t>(target_ess);
  Synopsis s = MustBuildSynopsis(data, options);
  // One calibration round: measure mean ESS on a workload prefix, then
  // rescale the stored budget.
  const size_t probe = std::min<size_t>(workload.size(), 50);
  double ess = 0.0;
  for (size_t i = 0; i < probe; ++i) {
    ess += static_cast<double>(s.Answer(workload[i]).sample_rows_scanned);
  }
  ess /= static_cast<double>(probe);
  if (ess > 1.0) {
    options.sample_budget = static_cast<size_t>(
        static_cast<double>(*options.sample_budget) * target_ess / ess);
    s = MustBuildSynopsis(data, options);
  }
  s.set_name("PASS-ESS");
  return s;
}

inline std::string Pct(double fraction, int precision = 3) {
  return FormatPercent(fraction, precision);
}

}  // namespace pass::bench

#endif  // PASS_BENCH_BENCH_COMMON_H_
