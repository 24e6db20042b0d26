// The four workloads. Each builds its engine, computes exact truth for a
// fixed checked subset of its queries, warms up, and then runs one
// measured window: untraced (end-to-end metrics) or, with --trace 1, an
// untraced reference window followed by a traced one (per-layer metrics).
#include <sched.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <condition_variable>
#include <fstream>
#include <functional>
#include <limits>
#include <memory>
#include <mutex>
#include <thread>
#include <unordered_map>

#include "bench.h"
#include "cache/cached_system.h"
#include "common/rng.h"
#include "core/synopsis.h"
#include "data/generators.h"
#include "engine/engine_registry.h"
#include "engine/query_scheduler.h"
#include "jit/kernel_cache.h"
#include "partition/builder.h"
#include "shard/parallel_shard_executor.h"
#include "trace.h"

namespace perfbench {
namespace {

using pass::AqpSystem;
using pass::Dataset;
using pass::ExactResult;
using pass::Query;
using pass::QueryAnswer;

// Sizes. The exact-tier capacity is the library default (4096); the
// repeat pool is four times that, so a Zipf stream keeps evicting.
// Datasets are fixed stand-ins for the paper's tables; --seed draws the
// queries and the inserted rows.
constexpr uint64_t kTaxiSeed = 3;
constexpr size_t kTaxiRows = 300'000;
constexpr int kSetupReps = 8;      // builds behind one setup_s (~0.2 s each)
constexpr int kScanSetupReps = 4;  // scan_heavy's build takes ~1 s
constexpr size_t kScanRows = 3'000'000;
constexpr size_t kRepeatPool = 16'384;
constexpr double kZipfExponent = 1.0;
// Closed loops: submissions in flight. A fan-out query puts four shard
// tasks on the pool, so two in flight keep its threads busy without
// stacking more runnable threads than cores.
constexpr size_t kRepeatOutstanding = 4;
constexpr size_t kFanoutOutstanding = 2;
// Timing metrics are medians over sub-windows of this length in which the
// host stole at most kQuietSteal of the CPU (see MedianOfQuietest).
constexpr double kSubWindowSeconds = 0.25;
constexpr double kQuietSteal = 0.01;
constexpr size_t kServeChecked = 4'096;
constexpr size_t kFanoutWarmQueries = 20'000;
constexpr double kFanoutQueriesPerSecond = 80'000;
constexpr double kMaxQueriesPerSecond = 600'000;  // window slot capacity
constexpr size_t kScanPool = 16'384;
constexpr size_t kScanChecked = 2'048;
// Raised from the 0.5% default until the leaf scans are the largest self
// time of the traced run.
constexpr double kScanSampleRate = 0.02;
constexpr size_t kIngestPool = 4'096;
constexpr size_t kIngestChecked = kIngestPool;
constexpr size_t kIngestOracleChecks = 16;
constexpr size_t kIngestWrites = 32;    // rows per write batch
constexpr size_t kIngestQueries = 96;   // queries between write batches
constexpr size_t kFreshRows = 1 << 18;  // rows cycled through the inserts
// Single-threaded windows move to the next core every few milliseconds.
constexpr uint64_t kScanRotateEvery = 128;   // queries
constexpr uint64_t kIngestRotateEvery = 64;  // rounds
constexpr size_t kMaxTraced = 50'000;   // traced operations kept per run
constexpr size_t kSpanFileRequests = 2'000;

double Seconds(int64_t ns) { return static_cast<double>(ns) / 1e9; }

/// The VM's cumulative CPU time and the part of it the host stole (the
/// steal column of /proc/stat), in ticks. On a shared host, steal is the
/// noise that moves timings from run to run: a sub-window or a build in
/// which the host took CPUs away runs slower for reasons outside the
/// program.
struct HostCpu {
  uint64_t steal = 0;
  uint64_t total = 0;

  static HostCpu Now() {
    HostCpu c;
    std::ifstream in("/proc/stat");
    std::string cpu;
    uint64_t v[8] = {};
    if (in >> cpu >> v[0] >> v[1] >> v[2] >> v[3] >> v[4] >> v[5] >> v[6] >>
        v[7]) {
      c.steal = v[7];
      for (const uint64_t x : v) c.total += x;
    }
    return c;
  }
  /// Share of the CPU time between `before` and this reading that was
  /// stolen; 0 without counters.
  double StealSince(const HostCpu& before) const {
    return total > before.total ? static_cast<double>(steal - before.steal) /
                                      static_cast<double>(total - before.total)
                                : 0.0;
  }
};

/// Timing metrics are taken over the samples (sub-windows, or setup
/// builds) in which the host stole the least CPU: the median of `values`
/// over the entries whose `steal` is at most kQuietSteal, or at most the
/// lowest tenth of the steal shares when fewer are that quiet. On a quiet
/// host that keeps every sample. The rule looks only at steal, never at
/// the values, and every sample is printed.
double MedianOfQuietest(const std::vector<double>& values,
                        const std::vector<double>& steal) {
  if (values.empty()) return 0.0;
  std::vector<double> sorted = steal;
  std::sort(sorted.begin(), sorted.end());
  const double limit =
      std::max(kQuietSteal, sorted[(sorted.size() - 1) / 10]);
  std::vector<double> kept;
  for (size_t i = 0; i < values.size(); ++i) {
    if (steal[i] <= limit) kept.push_back(values[i]);
  }
  return Quantile(kept, 0.5);
}

/// Wall time of each step of a run, for the report.
class Phases {
 public:
  void Mark(const char* name) {
    const int64_t now = NowNs();
    text_ += Fmt("%s%s %.3f s", text_.empty() ? "" : ", ", name,
                 Seconds(now - last_));
    last_ = now;
  }
  std::string Line() const { return "phases: " + text_; }

 private:
  int64_t last_ = NowNs();
  std::string text_;
};

/// Moves the calling thread to the next CPU it may run on every `every`
/// ticks, and restores its affinity when destroyed. A single-threaded
/// window otherwise runs wherever the OS first put it, and the noise on
/// that one core (a neighbour's memory traffic on a shared host) decides
/// the whole run; rotating samples every core, which steadies the
/// run-to-run medians. Threads started while it pins inherit the pin, so
/// thread pools must exist before one is created.
class CoreRotator {
 public:
  explicit CoreRotator(uint64_t every) : every_(every) {
    CPU_ZERO(&original_);
    if (sched_getaffinity(0, sizeof(original_), &original_) != 0) return;
    for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu) {
      if (CPU_ISSET(cpu, &original_)) cpus_.push_back(cpu);
    }
  }
  ~CoreRotator() {
    if (!cpus_.empty()) sched_setaffinity(0, sizeof(original_), &original_);
  }
  CoreRotator(const CoreRotator&) = delete;
  CoreRotator& operator=(const CoreRotator&) = delete;

  void Tick() {
    if (cpus_.size() < 2 || ++ticks_ % every_ != 0) return;
    cpu_set_t one;
    CPU_ZERO(&one);
    CPU_SET(cpus_[next_++ % cpus_.size()], &one);
    sched_setaffinity(0, sizeof(one), &one);
  }

 private:
  const uint64_t every_;
  cpu_set_t original_;
  std::vector<int> cpus_;
  size_t next_ = 0;
  uint64_t ticks_ = 0;
};

/// Construction times of one run and the host steal during each.
struct SetupTimes {
  std::vector<double> seconds;
  std::vector<double> steal;
  double Median() const { return MedianOfQuietest(seconds, steal); }
  std::string Detail() const {
    std::string out = "setup builds (s / host steal):";
    for (size_t i = 0; i < seconds.size(); ++i) {
      out += Fmt(" %.4f/%.1f%%", seconds[i], 100.0 * steal[i]);
    }
    return out;
  }
};

/// Constructs an engine `reps` times into `*out`, keeping the last one,
/// and records each construction time. Tearing down the previous engine
/// is not timed. setup_s comes from several such builds, each on the next
/// core, half of them before the warm-up and half after the window: a
/// single sub-second build, or a burst of them, only samples the host of
/// that moment.
template <typename T, typename Build>
void TimedSetup(int reps, T* out, Build build, SetupTimes* times) {
  CoreRotator rotator(1);
  for (int i = 0; i < reps; ++i) {
    *out = T();
    rotator.Tick();
    const HostCpu cpu = HostCpu::Now();
    const int64_t t0 = NowNs();
    *out = build();
    times->seconds.push_back(Seconds(NowNs() - t0));
    times->steal.push_back(HostCpu::Now().StealSince(cpu));
  }
}

std::unique_ptr<AqpSystem> MustCreate(const std::string& name,
                                      const Dataset& data,
                                      const pass::EngineConfig& config) {
  auto built = pass::EngineRegistry::Global().Create(name, data, config);
  PASS_CHECK_MSG(built.ok(), built.status().ToString().c_str());
  return std::move(built).value();
}

/// Exact answers to the first `count` queries, by full scans spread over
/// every core (they run before or between measured windows, never during
/// one).
std::vector<ExactResult> Truths(const Dataset& data,
                                const std::vector<Query>& queries,
                                size_t count) {
  std::vector<ExactResult> out(std::min(count, queries.size()));
  std::atomic<size_t> next{0};
  const auto work = [&] {
    for (size_t i = next++; i < out.size(); i = next++) {
      out[i] = pass::ExactAnswer(data, queries[i]);
    }
  };
  std::vector<std::thread> threads;
  for (unsigned t = 1; t < std::thread::hardware_concurrency(); ++t) {
    threads.emplace_back(work);
  }
  work();
  for (std::thread& t : threads) t.join();
  return out;
}

/// Checks answers to the first `truths.size()` pool queries. Every
/// answer is judged against the oracle; the first answer to each checked
/// query also gives that query's relative error and CI coverage. Safe to
/// call from scheduler workers.
class Checker {
 public:
  Checker(const std::vector<Query>* pool, std::vector<ExactResult> truths)
      : pool_(pool),
        truths_(std::move(truths)),
        first_(truths_.size()),
        verdicts_(truths_.size()) {}

  bool Checked(size_t index) const { return index < truths_.size(); }

  /// Returns false when the answer violates the oracle.
  bool Check(size_t index, const QueryAnswer& answer) {
    const Verdict v = Judge((*pool_)[index], answer, truths_[index]);
    if (!first_[index].exchange(true)) verdicts_[index] = v;
    judged_.fetch_add(1, std::memory_order_relaxed);
    if (v.violation) {
      // Only the log examples need the lock; scores come from verdicts_.
      CheckTally one;
      one.Add((*pool_)[index], answer, truths_[index]);
      std::lock_guard<std::mutex> lock(mu_);
      ++violations_;
      if (examples_.size() < 3) examples_.push_back(one.examples.front());
    }
    return !v.violation;
  }

  /// Relative errors and coverage of the checked queries answered so far;
  /// violations of every judged answer.
  CheckTally Tally() const {
    CheckTally t;
    t.checked = judged_.load();
    {
      std::lock_guard<std::mutex> lock(mu_);
      t.violations = violations_;
      t.examples = examples_;
    }
    for (size_t i = 0; i < verdicts_.size(); ++i) {
      if (!first_[i].load() || !verdicts_[i].scored) continue;
      t.rel_errs.push_back(verdicts_[i].rel_err);
      if (verdicts_[i].covered) ++t.ci_covered;
    }
    return t;
  }

 private:
  const std::vector<Query>* pool_;
  std::vector<ExactResult> truths_;
  std::vector<std::atomic<bool>> first_;
  std::vector<Verdict> verdicts_;
  std::atomic<uint64_t> judged_{0};
  mutable std::mutex mu_;
  uint64_t violations_ = 0;           // guarded by mu_
  std::vector<std::string> examples_;  // guarded by mu_
};

/// Latencies are kept as nanoseconds in 32 bits (saturating at ~4.3 s):
/// millions of them fit in a few megabytes.
uint32_t ClampNs(int64_t ns) {
  return static_cast<uint32_t>(std::clamp<int64_t>(
      ns, 0, std::numeric_limits<uint32_t>::max()));
}

std::vector<double> ToUs(const std::vector<uint32_t>& ns) {
  std::vector<double> out;
  out.reserve(ns.size());
  for (const uint32_t x : ns) out.push_back(x / 1e3);
  return out;
}

/// Where the sub-windows of a measured window begin. The window is cut
/// into spans of kSubWindowSeconds; the timing metrics come from the
/// sub-windows the host disturbed least (MedianOfQuietest), so a burst
/// of noise from the rest of the host moves a few sub-windows, not the
/// result.
class Timeline {
 public:
  struct Mark {
    uint64_t ops = 0;      // operations issued before this point
    uint64_t queries = 0;  // of which queries
    int64_t ns = 0;
    HostCpu cpu;
  };

  void Start(int64_t now, double seconds) {
    count_ = std::max<size_t>(1, std::lround(seconds / kSubWindowSeconds));
    span_ns_ = static_cast<int64_t>(seconds * 1e9) /
               static_cast<int64_t>(count_);
    marks_.assign(1, At(0, 0, now));
  }
  /// Called before an operation is issued, with the counts so far.
  void Observe(uint64_t ops, uint64_t queries, int64_t now) {
    const int64_t next = marks_.front().ns +
                         static_cast<int64_t>(marks_.size()) * span_ns_;
    if (marks_.size() < count_ && now >= next) {
      marks_.push_back(At(ops, queries, now));
    }
  }
  void Finish(uint64_t ops, uint64_t queries, int64_t now) {
    marks_.push_back(At(ops, queries, now));
  }
  const std::vector<Mark>& marks() const { return marks_; }
  double Seconds() const {
    return perfbench::Seconds(marks_.back().ns - marks_.front().ns);
  }

 private:
  static Mark At(uint64_t ops, uint64_t queries, int64_t now) {
    return Mark{ops, queries, now, HostCpu::Now()};
  }

  size_t count_ = 1;
  int64_t span_ns_ = 0;
  std::vector<Mark> marks_;
};

/// Per-operation latencies of one window in nanoseconds, written by
/// operation sequence number so scheduler workers never share a slot.
struct Window {
  explicit Window(size_t capacity) : latency_ns(capacity, 0) {}
  std::vector<uint32_t> latency_ns;
  uint64_t issued = 0;
  Timeline timeline;
  std::atomic<uint64_t> failed{0};

  void Record(uint64_t seq, int64_t ns) { latency_ns[seq] = ClampNs(ns); }
};

/// A long stream of distinct queries kept compactly (the bounds of every
/// dim and the aggregate), generated chunk by chunk: serve_fanout needs
/// over a million of them, which as Query objects would take ~150 MB.
class QueryStream {
 public:
  QueryStream(const Dataset& data, size_t count, uint64_t seed)
      : dims_(data.NumPredDims()) {
    constexpr size_t kChunk = 1 << 16;
    for (uint64_t k = 0; size() < count; ++k) {
      const size_t n = std::min(kChunk, count - size());
      for (const Query& q : MixedQueries(data, n, {0}, seed + k * 104729)) {
        aggs_.push_back(q.agg);
        for (size_t d = 0; d < dims_; ++d) {
          bounds_.push_back(q.predicate.dim(d));
        }
      }
    }
  }
  size_t size() const { return aggs_.size(); }
  Query Get(size_t i) const {
    Query q;
    q.agg = aggs_[i];
    q.predicate = pass::Rect(dims_);
    for (size_t d = 0; d < dims_; ++d) {
      q.predicate.dim(d) = bounds_[i * dims_ + d];
    }
    return q;
  }

 private:
  size_t dims_;
  std::vector<pass::AggregateType> aggs_;
  std::vector<pass::Interval> bounds_;
};

/// Closed loop: one submitter keeps `in_flight` queries submitted to
/// `scheduler`, drawing query indices from `next`, until `seconds` elapse
/// or `window->latency_ns` is full, then waits for the stragglers. `done`
/// runs on the worker that answered, right after the answer.
using DoneFn = std::function<void(uint64_t seq, uint32_t index,
                                  pass::ScheduledAnswer& answer,
                                  int64_t submitted, int64_t completed)>;

using QueryAt = std::function<Query(uint32_t index)>;

void ClosedLoop(pass::QueryScheduler* scheduler, size_t in_flight,
                const AqpSystem& system, const QueryAt& query_at,
                const std::function<uint32_t()>& next, double seconds,
                Window* window, const DoneFn& done) {
  std::mutex mu;
  std::condition_variable cv;
  size_t outstanding = 0;
  const int64_t start = NowNs();
  const int64_t stop = start + static_cast<int64_t>(seconds * 1e9);
  const size_t capacity = window->latency_ns.size();
  window->timeline.Start(start, seconds);
  uint64_t seq = 0;
  for (int64_t now = start; seq < capacity && now < stop; now = NowNs()) {
    window->timeline.Observe(seq, seq, now);
    {
      std::unique_lock<std::mutex> lock(mu);
      cv.wait(lock, [&] { return outstanding < in_flight; });
      ++outstanding;
    }
    const uint32_t index = next();
    Query query = query_at(index);
    const uint64_t my_seq = seq++;
    const int64_t submitted = NowNs();
    scheduler->Submit(
        system, std::move(query), pass::SubmitOptions{},
        [&, my_seq, index, submitted](pass::ScheduledAnswer answer) {
          const int64_t completed = NowNs();
          window->Record(my_seq, completed - submitted);
          if (!answer.status.ok()) window->failed.fetch_add(1);
          if (done) done(my_seq, index, answer, submitted, completed);
          std::lock_guard<std::mutex> lock(mu);
          --outstanding;
          cv.notify_one();  // under the lock: the loop may return after
        });
  }
  std::unique_lock<std::mutex> lock(mu);
  cv.wait(lock, [&] { return outstanding == 0; });
  window->issued = seq;
  window->timeline.Finish(seq, seq, NowNs());
}

std::function<uint32_t()> ZipfStream(const pass::ZipfTable* table,
                                      uint64_t seed) {
  auto rng = std::make_shared<pass::Rng>(seed);
  return [table, rng] {
    return static_cast<uint32_t>(table->Sample(rng.get()) - 1);
  };
}

std::function<uint32_t()> SequentialStream(uint32_t first, uint32_t size) {
  auto next = std::make_shared<uint32_t>(0);
  return [first, size, next] { return first + ((*next)++ % size); };
}

void AddCheckLines(const CheckTally& tally, Report* report) {
  report->Line(Fmt("checked answers %llu, oracle violations %llu, scored "
                   "%zu",
                   static_cast<unsigned long long>(tally.checked),
                   static_cast<unsigned long long>(tally.violations),
                   tally.rel_errs.size()));
  for (const std::string& e : tally.examples) {
    report->Line("violation: " + e);
  }
}

/// The timing metrics of one window: per sub-window, the query p50, the
/// query p99 and the operations per second, each reduced with
/// MedianOfQuietest.
struct Timing {
  double p50_us = 0.0;
  double p99_us = 0.0;
  double ops_per_s = 0.0;
  uint64_t queries = 0;
  uint64_t ops = 0;
  std::string detail;  // the per-sub-window values, for the report
};

Timing TimeWindow(const std::vector<uint32_t>& query_ns,
                  const Timeline& timeline) {
  std::vector<double> p50, p99, rate, steal;
  const std::vector<Timeline::Mark>& marks = timeline.marks();
  Timing t;
  t.detail = "sub-windows (p50 us / p99 us / ops per s / host steal):";
  for (size_t i = 0; i + 1 < marks.size(); ++i) {
    const Timeline::Mark& a = marks[i];
    const Timeline::Mark& b = marks[i + 1];
    if (b.queries == a.queries || b.ns == a.ns) continue;
    std::vector<double> us;
    us.reserve(b.queries - a.queries);
    for (uint64_t q = a.queries; q < b.queries; ++q) {
      us.push_back(query_ns[q] / 1e3);
    }
    p50.push_back(Quantile(us, 0.5));
    p99.push_back(Quantile(us, 0.99));
    rate.push_back(static_cast<double>(b.ops - a.ops) / Seconds(b.ns - a.ns));
    steal.push_back(b.cpu.StealSince(a.cpu));
    t.detail += Fmt(" %.3f/%.3f/%.0f/%.1f%%", p50.back(), p99.back(),
                    rate.back(), 100.0 * steal.back());
  }
  t.p50_us = MedianOfQuietest(p50, steal);
  t.p99_us = MedianOfQuietest(p99, steal);
  t.ops_per_s = MedianOfQuietest(rate, steal);
  t.queries = marks.back().queries;
  t.ops = marks.back().ops;
  return t;
}

/// The end-to-end metrics every workload reports, in BENCHMARK.json order.
void AddEndToEnd(Report* report, const SetupTimes& setup,
                 const Timing& timing, const CheckTally& tally,
                 const pass::SystemCosts& costs) {
  report->Add("setup_s", setup.Median(), "s");
  report->Line(setup.Detail());
  report->Add("query_p50_us", timing.p50_us, "us", timing.queries);
  report->Add("query_p99_us", timing.p99_us, "us", timing.queries);
  report->Add("ops_per_s", timing.ops_per_s, "1/s", timing.ops);
  report->Line(timing.detail);
  report->Add("rel_err_p50", Quantile(tally.rel_errs, 0.5), "ratio",
              tally.rel_errs.size());
  report->Add("ci_coverage", tally.Coverage(), "ratio",
              tally.rel_errs.size());
  report->Add("resident_mb",
              static_cast<double>(costs.resident_bytes) / (1024.0 * 1024.0),
              "MB");
}

pass::CacheStats Delta(const pass::CacheStats& after,
                       const pass::CacheStats& before) {
  pass::CacheStats d = after;
  d.exact_hits -= before.exact_hits;
  d.exact_misses -= before.exact_misses;
  d.node_hits -= before.node_hits;
  d.node_misses -= before.node_misses;
  d.evictions -= before.evictions;
  d.invalidations -= before.invalidations;
  return d;
}

std::string CacheLine(const char* when, const pass::CacheStats& s) {
  return Fmt("cache %s: exact entries %zu, node entries %zu, hits %llu, "
             "misses %llu, evictions %llu, invalidations %llu",
             when, s.exact_entries, s.node_entries,
             static_cast<unsigned long long>(s.exact_hits),
             static_cast<unsigned long long>(s.exact_misses),
             static_cast<unsigned long long>(s.evictions),
             static_cast<unsigned long long>(s.invalidations));
}

void WriteSpanFile(const Options& opts,
                   const std::vector<RequestTrace>& requests,
                   Report* report) {
  report->Line(WriteSpans(opts.span_path, requests, kSpanFileRequests)
                   ? "spans of the first " +
                         std::to_string(kSpanFileRequests) +
                         " traced operations: " + opts.span_path
                   : "could not write spans to " + opts.span_path);
}

void AddTraceSummary(const TraceSummary& summary, Report* report) {
  for (const Metric& m : summary.metrics) report->metrics.push_back(m);
  for (const std::string& line : summary.lines) report->Line(line);
}

// ---------------------------------------------------------------------------
// serve_repeat and serve_fanout: scheduled, behind the exact-tier cache.
// ---------------------------------------------------------------------------

struct ServeSpec {
  std::string engine;
  size_t num_shards = 1;
  bool zipf = false;  // Zipf repeats over a pool, else a never-repeating stream
  size_t outstanding = kRepeatOutstanding;  // closed-loop submissions
};

Report RunServe(const Options& opts, const ServeSpec& spec) {
  Report report;
  Phases phases;
  const Dataset data = pass::MakeTaxiDatetime(kTaxiRows, kTaxiSeed);
  phases.Mark("data");
  pass::EngineConfig config;
  config.cache.enabled = true;
  config.num_shards = spec.num_shards;
  const auto build = [&] { return MustCreate(spec.engine, data, config); };
  // The registry starts the shared shard pool on first use; start it
  // here, unpinned, before the pinned setup builds.
  pass::ParallelShardExecutor::Shared();
  SetupTimes setup_times;
  std::unique_ptr<AqpSystem> engine;
  TimedSetup(opts.trace ? 1 : kSetupReps / 2, &engine, build, &setup_times);
  phases.Mark("setup");
  const auto* cached = dynamic_cast<const pass::CachedSystem*>(engine.get());
  PASS_CHECK(cached != nullptr);
  const pass::SemanticAnswerCache& cache = cached->cache();

  // Query streams. Zipf: ranks index a pool of distinct queries and the
  // hottest ranks are the checked ones. Fan-out: a long stream of fresh
  // queries, warm-up first; the window's first queries are checked.
  const double window_s = opts.trace ? opts.seconds / 2 : opts.seconds;
  const size_t warm_count = spec.zipf ? 0 : kFanoutWarmQueries;
  std::vector<Query> pool;  // the Zipf pool, or the fan-out's checked head
  std::unique_ptr<QueryStream> stream;
  QueryAt warm_query;
  QueryAt window_query;
  size_t stream_size = kRepeatPool;  // window queries available
  if (spec.zipf) {
    pool = MixedQueries(data, kRepeatPool, {0}, opts.seed * 7919 + 1);
    warm_query = window_query = [&](uint32_t i) { return pool[i]; };
  } else {
    stream = std::make_unique<QueryStream>(
        data,
        warm_count + static_cast<size_t>(opts.seconds *
                                         kFanoutQueriesPerSecond),
        opts.seed * 7919 + 1);
    stream_size = stream->size() - warm_count;
    warm_query = [&](uint32_t i) { return stream->Get(i); };
    window_query = [&](uint32_t i) { return stream->Get(warm_count + i); };
    for (uint32_t i = 0; i < kServeChecked; ++i) {
      pool.push_back(window_query(i));
    }
  }
  Checker checks(&pool, Truths(data, pool, kServeChecked));
  phases.Mark("queries+truth");

  pass::QueryScheduler scheduler(SchedulerThreads());
  pass::ZipfTable zipf(kRepeatPool, kZipfExponent);

  // Warm-up: lazy set-up (page-ins, kernel-cache compiles) and, for
  // repeats, the answer cache's hot set.
  {
    Window warm(spec.zipf ? kMaxQueriesPerSecond : warm_count);
    const auto next = spec.zipf ? ZipfStream(&zipf, opts.seed + 17)
                                : SequentialStream(0, warm_count);
    ClosedLoop(&scheduler, spec.outstanding, *engine, warm_query, next,
               spec.zipf ? std::min(1.0, opts.seconds / 5) : 60.0, &warm,
               nullptr);
  }
  phases.Mark("warm-up");
  const pass::CacheStats at_start = cache.Stats();
  report.Line(CacheLine("at window start", at_start));

  // Untraced window.
  Window window(static_cast<size_t>(
      window_s * (spec.zipf ? kMaxQueriesPerSecond : kFanoutQueriesPerSecond)));
  const auto next =
      spec.zipf ? ZipfStream(&zipf, opts.seed + 29)
                : SequentialStream(0, static_cast<uint32_t>(stream_size));
  std::atomic<uint64_t> violations{0};
  ClosedLoop(&scheduler, spec.outstanding, *engine, window_query, next,
             window_s, &window,
             [&](uint64_t, uint32_t index, pass::ScheduledAnswer& a, int64_t,
                 int64_t) {
               if (a.status.ok() && checks.Checked(index) &&
                   !checks.Check(index, a.answer)) {
                 violations.fetch_add(1);
               }
             });
  phases.Mark("window");
  const pass::CacheStats at_end = cache.Stats();
  const pass::CacheStats delta = Delta(at_end, at_start);
  report.Line(CacheLine("over the window", delta));
  if (window.issued == window.latency_ns.size() ||
      (!spec.zipf && window.issued >= stream_size)) {
    report.Line("note: the query stream ran out before the window closed");
  }
  const Timing timing = TimeWindow(window.latency_ns, window.timeline);
  const CheckTally tally = checks.Tally();
  AddCheckLines(tally, &report);
  report.attempted += window.issued;
  report.failed += window.failed.load() + violations.load();
  report.Line(Fmt("window: %llu queries in %.3f s; scheduler workers %zu, "
                  "submitter threads 1 with %zu outstanding, shard pool "
                  "threads %zu",
                  static_cast<unsigned long long>(window.issued),
                  window.timeline.Seconds(), scheduler.num_threads(),
                  spec.outstanding,
                  spec.num_shards > 1
                      ? pass::ParallelShardExecutor::Shared().num_threads()
                      : 0));

  if (!opts.trace) {
    const pass::SystemCosts costs = engine->Costs();
    std::unique_ptr<AqpSystem> spare;
    TimedSetup(kSetupReps / 2, &spare, build, &setup_times);
    phases.Mark("setup");
    AddEndToEnd(&report, setup_times, timing, tally, costs);
    report.Line(phases.Line());
    return report;
  }

  // Traced window: the same loop, answered by the benchmark-side system.
  TracedSystem traced(*engine, data);
  std::vector<RequestTrace> requests(kMaxTraced);
  Window traced_window(kMaxTraced);
  const auto traced_next =
      spec.zipf ? ZipfStream(&zipf, opts.seed + 31)
                : SequentialStream(static_cast<uint32_t>(window.issued),
                                   static_cast<uint32_t>(stream_size -
                                                         window.issued));
  const pass::CacheStats traced_start = cache.Stats();
  ClosedLoop(&scheduler, spec.outstanding, traced, window_query, traced_next,
             window_s, &traced_window,
             [&](uint64_t seq, uint32_t index, pass::ScheduledAnswer& a,
                 int64_t submitted, int64_t completed) {
               RequestTrace t = TakeLastTrace();
               t.id = seq;
               t.query_index = index;
               t.start_ns = submitted;
               t.end_ns = completed;
               t.queue_us = a.queue_ms * 1e3;
               t.run_us = a.run_ms * 1e3;
               requests[seq] = std::move(t);
             });
  requests.resize(traced_window.issued);
  const pass::CacheStats traced_delta = Delta(cache.Stats(), traced_start);

  // Bit identity against the engine with its cache bypassed, after the
  // window so the reference answers do not perturb it.
  uint64_t mismatches = 0;
  std::unordered_map<uint32_t, QueryAnswer> reference;
  for (const RequestTrace& r : requests) {
    auto it = reference.find(r.query_index);
    if (it == reference.end()) {
      it = reference
               .emplace(r.query_index,
                        traced.Uncached().Answer(window_query(r.query_index)))
               .first;
    }
    if (!SameBits(r.answer, it->second)) ++mismatches;
  }
  report.attempted += traced_window.issued;
  report.failed += traced_window.failed.load() + mismatches;
  report.Line(Fmt("traced answers bit-identical to untraced: %llu of %llu",
                  static_cast<unsigned long long>(requests.size() - mismatches),
                  static_cast<unsigned long long>(requests.size())));

  // partition.build_s: one more traced construction of the same engine.
  std::unique_ptr<AqpSystem> rebuilt;
  const int64_t b0 = NowNs();
  rebuilt = MustCreate(spec.engine, data, config);
  const double build_s = Seconds(NowNs() - b0);
  rebuilt.reset();

  SummaryInputs in;
  in.scheduled = true;
  in.cache_delta = traced_delta;
  in.build_s = build_s;
  in.untraced_p50_us = timing.p50_us;
  const TraceSummary summary = Summarize(requests, in);
  AddTraceSummary(summary, &report);
  if (spec.zipf) {
    const double share = summary.Share("engine") + summary.Share("cache");
    const bool ok = share >= std::max({summary.Share("shard"),
                                       summary.Share("core"),
                                       summary.Share("kernel")});
    report.Line(Fmt("stress check (engine+cache is the largest self time): "
                    "%s, engine+cache %.1f%%",
                    ok ? "yes" : "no", 100.0 * share));
  } else {
    const double share = summary.Share("shard") + summary.Share("core");
    const bool ok = share >= std::max({summary.Share("engine"),
                                       summary.Share("cache"),
                                       summary.Share("kernel")});
    report.Line(Fmt("stress check (shard+core is the largest self time): "
                    "%s, shard+core %.1f%%",
                    ok ? "yes" : "no", 100.0 * share));
  }
  WriteSpanFile(opts, requests, &report);
  return report;
}

// ---------------------------------------------------------------------------
// scan_heavy: direct Answer, one thread, no scheduler, no cache.
// ---------------------------------------------------------------------------

Report RunScanHeavy(const Options& opts) {
  Report report;
  Phases phases;
  const Dataset data = pass::MakeTaxiLike(kScanRows, kTaxiSeed)
                           .WithPredDims(3);
  phases.Mark("data");
  pass::EngineConfig config;
  config.partitions = 256;
  config.sample_rate = kScanSampleRate;
  const auto build = [&] { return MustCreate("pass", data, config); };
  SetupTimes setup_times;
  std::unique_ptr<AqpSystem> engine;
  TimedSetup(opts.trace ? 1 : kScanSetupReps / 2, &engine, build,
             &setup_times);
  phases.Mark("setup");
  const std::vector<Query> pool =
      MixedQueries(data, kScanPool, {0, 1, 2}, opts.seed * 7919 + 3);
  Checker checks(&pool, Truths(data, pool, kScanChecked));
  phases.Mark("queries+truth");

  // Warm-up: one pass over the pool compiles every kernel and pages in
  // every sample.
  for (const Query& q : pool) engine->Answer(q);
  phases.Mark("warm-up");

  const double window_s = opts.trace ? opts.seconds / 2 : opts.seconds;
  Window window(static_cast<size_t>(window_s * 200'000) + 1024);
  uint64_t violations = 0;
  uint32_t index = 0;
  CoreRotator rotator(kScanRotateEvery);
  const int64_t start = NowNs();
  const int64_t stop = start + static_cast<int64_t>(window_s * 1e9);
  window.timeline.Start(start, window_s);
  for (int64_t now = start;
       window.issued < window.latency_ns.size() && now < stop;
       now = NowNs()) {
    window.timeline.Observe(window.issued, window.issued, now);
    rotator.Tick();
    const int64_t t0 = NowNs();
    const QueryAnswer a = engine->Answer(pool[index]);
    const int64_t t1 = NowNs();
    window.Record(window.issued++, t1 - t0);
    if (checks.Checked(index) && !checks.Check(index, a)) ++violations;
    index = (index + 1) % kScanPool;
  }
  window.timeline.Finish(window.issued, window.issued, NowNs());
  phases.Mark("window");
  const Timing timing = TimeWindow(window.latency_ns, window.timeline);
  const CheckTally tally = checks.Tally();
  AddCheckLines(tally, &report);
  report.attempted += window.issued;
  report.failed += violations;
  report.Line(Fmt("window: %llu queries in %.3f s on 1 thread (no scheduler, "
                  "no cache); sample rate %.3f, %zu leaves",
                  static_cast<unsigned long long>(window.issued),
                  window.timeline.Seconds(), config.sample_rate,
                  config.partitions));
  if (!opts.trace) {
    const pass::SystemCosts costs = engine->Costs();
    std::unique_ptr<AqpSystem> spare;
    TimedSetup(kScanSetupReps / 2, &spare, build, &setup_times);
    phases.Mark("setup");
    AddEndToEnd(&report, setup_times, timing, tally, costs);
    report.Line(phases.Line());
    return report;
  }

  TracedSystem traced(*engine, data);
  std::vector<RequestTrace> requests;
  requests.reserve(kMaxTraced);
  uint64_t mismatches = 0;
  const int64_t traced_stop = NowNs() + static_cast<int64_t>(window_s * 1e9);
  while (requests.size() < kMaxTraced && NowNs() < traced_stop) {
    rotator.Tick();
    const int64_t t0 = NowNs();
    const QueryAnswer a = traced.Answer(pool[index]);
    const int64_t t1 = NowNs();
    RequestTrace t = TakeLastTrace();
    t.id = requests.size();
    t.query_index = index;
    t.start_ns = t0;
    t.end_ns = t1;
    if (!SameBits(a, engine->Answer(pool[index]))) ++mismatches;
    requests.push_back(std::move(t));
    index = (index + 1) % kScanPool;
  }
  report.attempted += requests.size();
  report.failed += mismatches;
  report.Line(Fmt("traced answers bit-identical to untraced: %llu of %zu",
                  static_cast<unsigned long long>(requests.size() - mismatches),
                  requests.size()));
  const int64_t b0 = NowNs();
  engine = MustCreate("pass", data, config);
  SummaryInputs in;
  in.build_s = Seconds(NowNs() - b0);
  in.untraced_p50_us = timing.p50_us;
  const TraceSummary summary = Summarize(requests, in);
  AddTraceSummary(summary, &report);
  const bool ok = summary.Share("kernel") >=
                  std::max({summary.Share("engine"), summary.Share("cache"),
                            summary.Share("shard"), summary.Share("core")});
  report.Line(Fmt("stress check (kernel is the largest self time): %s, "
                  "kernel %.1f%% at sample rate %.3f",
                  ok ? "yes" : "no", 100.0 * summary.Share("kernel"),
                  config.sample_rate));
  WriteSpanFile(opts, requests, &report);
  return report;
}

// ---------------------------------------------------------------------------
// ingest_mixed: write batches alternating with Zipf-repeated queries.
// ---------------------------------------------------------------------------

struct IngestEngine {
  std::unique_ptr<pass::CachedSystem> system;
  pass::Synopsis* synopsis = nullptr;  // owned by `system`; takes inserts
  double build_s = 0.0;                // the BuildSynopsis call alone
};

IngestEngine BuildIngestEngine(const Dataset& data) {
  pass::BuildOptions options;
  // The kernel cache the registry would install for a jit-enabled engine.
  options.estimator.kernel_cache =
      std::make_shared<pass::KernelCache>(pass::JitConfig{});
  const int64_t t0 = NowNs();
  auto built = pass::BuildSynopsis(data, options);
  const double build_s = Seconds(NowNs() - t0);
  PASS_CHECK_MSG(built.ok(), built.status().ToString().c_str());
  auto synopsis = std::make_unique<pass::Synopsis>(std::move(built).value());
  IngestEngine out;
  out.build_s = build_s;
  out.synopsis = synopsis.get();
  pass::CacheConfig cache;
  cache.enabled = true;
  out.system = std::make_unique<pass::CachedSystem>(std::move(synopsis), data,
                                                    cache);
  return out;
}

Report RunIngestMixed(const Options& opts) {
  Report report;
  Phases phases;
  Dataset data = pass::MakeTaxiDatetime(kTaxiRows, kTaxiSeed);
  const Dataset fresh = pass::MakeTaxiDatetime(kFreshRows, opts.seed);
  phases.Mark("data");
  // The window grows `data`; later setup builds use this copy of it.
  const Dataset initial = data;
  SetupTimes setup_times;
  IngestEngine engine;
  TimedSetup(opts.trace ? 1 : kSetupReps / 2, &engine,
             [&] { return BuildIngestEngine(data); }, &setup_times);
  phases.Mark("setup");
  const std::vector<Query> pool =
      MixedQueries(data, kIngestPool, {0}, opts.seed * 7919 + 5);
  pass::ZipfTable zipf(kIngestPool, kZipfExponent);
  pass::Rng rng(opts.seed + 41);
  const pass::SemanticAnswerCache& cache = engine.system->cache();

  size_t fresh_next = 0;
  CheckTally tally;
  // Checkpoints answer the checked queries through the engine against the
  // grown dataset, with the clock paused. They run at the end of a round:
  // the next round's writes flush whatever they cached.
  uint64_t oracle_disagreements = 0;
  const auto checkpoint = [&] {
    const SortedOracle oracle(data);
    // The sorted oracle is itself checked against full scans.
    const std::vector<ExactResult> scanned =
        Truths(data, pool, kIngestOracleChecks);
    for (size_t i = 0; i < scanned.size(); ++i) {
      const ExactResult fast = oracle.Answer(pool[i]);
      if (fast.matched != scanned[i].matched ||
          std::abs(fast.value - scanned[i].value) >
              1e-9 * (1.0 + std::abs(scanned[i].value))) {
        ++oracle_disagreements;
      }
    }
    for (size_t i = 0; i < kIngestChecked; ++i) {
      tally.Add(pool[i], engine.system->Answer(pool[i]),
                oracle.Answer(pool[i]));
    }
  };

  struct Phase {
    std::vector<uint32_t> query_ns;
    std::vector<uint32_t> write_ns;
    Timeline timeline;  // on the clock that excludes checkpoint pauses
    uint64_t write_failures = 0;
  };
  // One phase of rounds. `traced` answers and writes through the span
  // recorder when non-null.
  const auto run_phase = [&](double seconds, bool check,
                             const TracedSystem* traced,
                             std::vector<RequestTrace>* requests,
                             uint64_t* mismatches) {
    Phase phase;
    int64_t paused = 0;
    const int64_t start = NowNs();
    uint64_t phase_rounds = 0;
    uint64_t next_checkpoint = 1;
    CoreRotator rotator(kIngestRotateEvery);
    phase.timeline.Start(0, seconds);
    for (int64_t active = 0;
         Seconds(active) < seconds &&
         (requests == nullptr || requests->size() < kMaxTraced);
         active = NowNs() - start - paused) {
      phase.timeline.Observe(phase.query_ns.size() + phase.write_ns.size(),
                             phase.query_ns.size(), active);
      rotator.Tick();
      for (size_t w = 0; w < kIngestWrites; ++w) {
        const size_t row = fresh_next++ % kFreshRows;
        const std::vector<double> preds = {fresh.pred(0, row)};
        const double agg = fresh.agg(row);
        RequestTrace t;
        t.is_write = true;
        const int64_t t0 = NowNs();
        bool ok = true;
        if (traced != nullptr) {
          const int32_t ins = t.Open(SpanKind::kPartitionInsert, -1);
          ok = engine.synopsis->Insert(preds, agg);
          t.Close(ins);
          const int32_t app = t.Open(SpanKind::kStorageAppend, -1);
          data.AddRow(preds, agg);
          t.Close(app);
        } else {
          ok = engine.synopsis->Insert(preds, agg);
          data.AddRow(preds, agg);
        }
        const int64_t t1 = NowNs();
        if (!ok) ++phase.write_failures;
        phase.write_ns.push_back(ClampNs(t1 - t0));
        if (traced != nullptr) {
          t.id = requests->size();
          t.start_ns = t0;
          t.end_ns = t1;
          requests->push_back(std::move(t));
        }
      }
      for (size_t q = 0; q < kIngestQueries; ++q) {
        const uint32_t index = static_cast<uint32_t>(zipf.Sample(&rng) - 1);
        const int64_t t0 = NowNs();
        const AqpSystem& system =
            traced != nullptr ? static_cast<const AqpSystem&>(*traced)
                              : *engine.system;
        system.Answer(pool[index]);
        const int64_t t1 = NowNs();
        phase.query_ns.push_back(ClampNs(t1 - t0));
        if (traced != nullptr) {
          RequestTrace t = TakeLastTrace();
          t.id = requests->size();
          t.query_index = index;
          t.start_ns = t0;
          t.end_ns = t1;
          const int64_t r0 = NowNs();
          if (!SameBits(t.answer, traced->Uncached().Answer(pool[index]))) {
            ++*mismatches;
          }
          paused += NowNs() - r0;
          requests->push_back(std::move(t));
        }
      }
      ++phase_rounds;
      if (check && phase_rounds == next_checkpoint) {
        const int64_t c0 = NowNs();
        checkpoint();
        paused += NowNs() - c0;
        next_checkpoint *= 100;
      }
    }
    const int64_t end = NowNs();
    if (check) checkpoint();
    phase.timeline.Finish(phase.query_ns.size() + phase.write_ns.size(),
                          phase.query_ns.size(), end - start - paused);
    return phase;
  };

  // Warm-up: the same rounds, unchecked.
  run_phase(std::min(1.0, opts.seconds / 5), false, nullptr, nullptr, nullptr);
  phases.Mark("warm-up");
  const pass::CacheStats at_start = cache.Stats();
  report.Line(CacheLine("at window start", at_start));
  const size_t rows_at_start = data.NumRows();
  const double window_s = opts.trace ? opts.seconds / 2 : opts.seconds;
  const Phase phase = run_phase(window_s, true, nullptr, nullptr, nullptr);
  phases.Mark("window+checkpoints");
  report.Line(CacheLine("over the window", Delta(cache.Stats(), at_start)));
  AddCheckLines(tally, &report);
  const Timing timing = TimeWindow(phase.query_ns, phase.timeline);
  const std::vector<double> write_us = ToUs(phase.write_ns);
  report.attempted += timing.ops + tally.checked;
  report.failed +=
      phase.write_failures + tally.violations + oracle_disagreements;
  if (oracle_disagreements > 0) {
    report.Line(Fmt("sorted oracle disagreed with full scans %llu times",
                    static_cast<unsigned long long>(oracle_disagreements)));
  }
  report.Line(Fmt("window: %zu queries and %zu writes in %.3f s on 1 thread; "
                  "rows %zu -> %zu; insert_p50_us %.4f (n=%zu)",
                  phase.query_ns.size(), write_us.size(),
                  phase.timeline.Seconds(),
                  rows_at_start, data.NumRows(),
                  Quantile(write_us, 0.5), write_us.size()));
  if (!opts.trace) {
    const pass::SystemCosts costs = engine.system->Costs();
    IngestEngine spare;
    TimedSetup(kSetupReps / 2, &spare,
               [&] { return BuildIngestEngine(initial); }, &setup_times);
    phases.Mark("setup");
    AddEndToEnd(&report, setup_times, timing, tally, costs);
    report.Line(phases.Line());
    return report;
  }

  TracedSystem traced(*engine.system, data);
  std::vector<RequestTrace> requests;
  requests.reserve(kMaxTraced);
  uint64_t mismatches = 0;
  const pass::CacheStats traced_start = cache.Stats();
  run_phase(window_s, false, &traced, &requests, &mismatches);
  const pass::CacheStats traced_delta = Delta(cache.Stats(), traced_start);
  size_t traced_queries = 0;
  for (const RequestTrace& r : requests) traced_queries += r.is_write ? 0 : 1;
  report.attempted += requests.size();
  report.failed += mismatches;
  report.Line(Fmt("traced answers bit-identical to untraced: %llu of %zu",
                  static_cast<unsigned long long>(traced_queries - mismatches),
                  traced_queries));
  SummaryInputs in;
  in.cache_delta = traced_delta;
  in.build_s = engine.build_s;
  in.untraced_p50_us = timing.p50_us;
  const TraceSummary summary = Summarize(requests, in);
  AddTraceSummary(summary, &report);
  report.Line(Fmt("stress check (partition+storage take a measured share of "
                  "write time): %s, %.1f%%",
                  summary.write_share > 0.0 ? "yes" : "no",
                  100.0 * summary.write_share));
  WriteSpanFile(opts, requests, &report);
  return report;
}

}  // namespace

const std::vector<std::string>& WorkloadNames() {
  static const std::vector<std::string> names = {
      "serve_repeat", "serve_fanout", "scan_heavy", "ingest_mixed"};
  return names;
}

Report RunWorkload(const Options& opts) {
  if (opts.workload == "serve_repeat") {
    return RunServe(opts, {"pass", 1, true, kRepeatOutstanding});
  }
  if (opts.workload == "serve_fanout") {
    return RunServe(opts, {"sharded_pass", 4, false, kFanoutOutstanding});
  }
  if (opts.workload == "scan_heavy") return RunScanHeavy(opts);
  return RunIngestMixed(opts);
}

}  // namespace perfbench
