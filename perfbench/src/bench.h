// Shared pieces of the layer-resolved PASS benchmark: options, the report
// every workload fills in, timing and percentile helpers, query
// generation and the correctness oracle.
#ifndef PERFBENCH_BENCH_H_
#define PERFBENCH_BENCH_H_

#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

#include "core/answer.h"
#include "core/exact.h"
#include "core/query.h"
#include "storage/dataset.h"

namespace perfbench {

struct Options {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string span_path;  // where the traced run writes its spans
};

/// One metric as printed: name, value and unit. `count` is the number of
/// samples behind a percentile or mean (0 when not a sample statistic).
struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
  uint64_t count = 0;
};

/// What a workload hands back to main: the metrics of its mode, the
/// operation tally behind error_rate, and free-form report lines.
struct Report {
  uint64_t attempted = 0;
  uint64_t failed = 0;
  std::vector<Metric> metrics;
  std::vector<std::string> lines;

  void Add(const std::string& name, double value, const std::string& unit,
           uint64_t count = 0) {
    metrics.push_back({name, value, unit, count});
  }
  void Line(const std::string& line) { lines.push_back(line); }
};

inline int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// Linear-interpolated quantile (q in [0, 1]) of `v`; 0 for an empty set.
double Quantile(std::vector<double> v, double q);

/// Worker threads of the serving scheduler: every core but the one the
/// load generator runs on.
size_t SchedulerThreads();

/// Deadline-free SUM, COUNT and AVG range queries, interleaved in that
/// order, drawn by RandomRangeQueries over `dims` from `seed`.
std::vector<pass::Query> MixedQueries(const pass::Dataset& data, size_t count,
                                      const std::vector<size_t>& dims,
                                      uint64_t seed);

/// The paper's oracle applied to one answer against exact truth.
struct Verdict {
  bool violation = false;  // SUM/COUNT bounds miss, or `exact` is wrong
  bool scored = false;     // truth usable for a relative error
  double rel_err = 0.0;
  bool covered = false;  // 99% CI contains the truth
};
Verdict Judge(const pass::Query& query, const pass::QueryAnswer& answer,
              const pass::ExactResult& truth);

/// Accumulates verdicts over the checked answers of a run.
struct CheckTally {
  uint64_t checked = 0;     // answers judged
  uint64_t violations = 0;  // answers the oracle rejects
  uint64_t ci_covered = 0;  // scored answers whose CI holds the truth
  std::vector<double> rel_errs;  // one per scored answer
  std::vector<std::string> examples;  // first few violations, for the log

  void Add(const pass::Query& query, const pass::QueryAnswer& answer,
           const pass::ExactResult& truth);
  double Coverage() const {
    return rel_errs.empty() ? 0.0
                            : static_cast<double>(ci_covered) /
                                  static_cast<double>(rel_errs.size());
  }
};

/// Exact SUM/COUNT/AVG over the one predicate column of a 1-D dataset,
/// from a sorted copy and compensated prefix sums: O(log n) per query, so
/// a large checked set stays cheap on a table that keeps growing. Same
/// inclusive bounds as ExactAnswer.
class SortedOracle {
 public:
  explicit SortedOracle(const pass::Dataset& data);
  pass::ExactResult Answer(const pass::Query& query) const;

 private:
  std::vector<double> keys_;          // predicate values, ascending
  std::vector<long double> prefix_;   // prefix_[i]: sum of first i aggregates
};

/// True when two answers agree bit for bit on estimate, variance and both
/// hard bounds (including which bounds are present).
bool SameBits(const pass::QueryAnswer& a, const pass::QueryAnswer& b);

/// The workload names, in the order the benchmark documents them.
const std::vector<std::string>& WorkloadNames();

/// Runs `opts.workload` (one of WorkloadNames()) and reports it.
Report RunWorkload(const Options& opts);

std::string Fmt(const char* format, ...)
    __attribute__((format(printf, 1, 2)));

}  // namespace perfbench

#endif  // PERFBENCH_BENCH_H_
