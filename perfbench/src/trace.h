// Benchmark-side tracing. Spans are recorded around calls into each
// layer's public functions, from the benchmark's own files only: the
// library is not instrumented. A traced query is answered by
// TracedSystem, which drives the same public functions an engine calls,
// in the engine's order, so its answers are bit-identical to the
// engine's and its spans say where the time of that program went.
#ifndef PERFBENCH_TRACE_H_
#define PERFBENCH_TRACE_H_

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "bench.h"
#include "cache/semantic_answer_cache.h"
#include "core/aqp_system.h"
#include "core/synopsis.h"
#include "shard/sharded_synopsis.h"

namespace perfbench {

enum class SpanKind : uint8_t {
  kEngineRun,        // TracedSystem::Answer, as the scheduler calls it
  kCacheVersion,     // EnsureVersion + key canonicalization
  kCacheProbe,       // exact-tier Lookup
  kCacheFill,        // exact-tier Insert after a miss
  kShardFanout,      // ParallelShardExecutor::ForEachShard (or the inline loop)
  kShardTask,        // one shard's work inside the fan-out
  kShardMerge,       // MergeShardAnswers / MergeShardMulti
  kCorePlan,         // Synopsis::PlanFor (the MCF walk)
  kCoreAnswer,       // Synopsis::AnswerOverPlan / AnswerMultiOverPlan
  kCoreAnswerWhole,  // Synopsis::Answer (walk + scans + assembly)
  kKernelScan,       // StratifiedSample::Scan on one partial leaf
  kPartitionInsert,  // Synopsis::Insert
  kStorageAppend,    // Dataset::AddRow
};

const char* SpanName(SpanKind kind);

struct Span {
  int64_t start_ns = 0;
  int64_t end_ns = 0;
  int32_t parent = -1;  // index into the request's spans; -1: the request
  SpanKind kind = SpanKind::kEngineRun;
  uint16_t shard = 0;
  int64_t Duration() const { return end_ns - start_ns; }
};

/// Everything recorded for one traced operation.
struct RequestTrace {
  uint64_t id = 0;
  std::vector<Span> spans;
  int64_t start_ns = 0;  // the benchmark issued the operation
  int64_t end_ns = 0;    // its answer was in hand
  double queue_us = 0.0;  // ScheduledAnswer::queue_ms, scheduled runs only
  double run_us = 0.0;    // ScheduledAnswer::run_ms, scheduled runs only
  bool is_write = false;
  bool cache_hit = false;
  bool computed = false;  // the synopsis answered (no cache hit)
  uint64_t kernel_rows = 0;     // sample rows the kernel spans scanned
  uint64_t kernel_matched = 0;  // rows they matched (keeps the scans live)
  uint32_t query_index = 0;
  pass::QueryAnswer answer;  // as returned, for the bit-identity check

  int32_t Open(SpanKind kind, int32_t parent) {
    Span s;
    s.kind = kind;
    s.parent = parent;
    s.start_ns = NowNs();
    spans.push_back(s);
    return static_cast<int32_t>(spans.size() - 1);
  }
  void Close(int32_t index) {
    spans[static_cast<size_t>(index)].end_ns = NowNs();
  }
};

/// The trace of the last answer TracedSystem produced on this thread.
/// QueryScheduler runs a task's completion callback on the worker that
/// answered it, right after the answer, so a callback picks up its own
/// query's trace here; direct callers do so after Answer returns.
RequestTrace TakeLastTrace();

/// An AqpSystem that answers like `engine` (a bare pass / sharded_pass
/// engine, or one behind a CachedSystem) through the engine's public
/// functions, recording a span around each call:
///   cache probe (EnsureVersion, Lookup) -> on a miss, per shard through
///   the engine's own ParallelShardExecutor: PlanFor, AnswerOverPlan ->
///   merge -> cache fill (Insert).
/// Kernel spans re-scan the plan's partial leaves with the estimator's
/// leaf box and kernel cache after AnswerOverPlan; that duplicate work is
/// tracing overhead and the analysis keeps it out of every layer's share.
class TracedSystem final : public pass::AqpSystem {
 public:
  explicit TracedSystem(const pass::AqpSystem& engine,
                        const pass::Dataset& data);

  bool SupportsBudget() const override { return engine_->SupportsBudget(); }
  std::string Name() const override { return engine_->Name(); }
  pass::SystemCosts Costs() const override { return engine_->Costs(); }
  const pass::SemanticAnswerCache* AnswerCache() const override {
    return cache_;
  }
  const pass::KernelCache* ScanKernelCache() const override {
    return engine_->ScanKernelCache();
  }

  /// The engine with its answer cache bypassed: the reference every
  /// traced answer must match bit for bit (the cache decorator is
  /// transparent by contract).
  const pass::AqpSystem& Uncached() const { return *uncached_; }

 protected:
  pass::QueryAnswer AnswerImpl(
      const pass::Query& query,
      const pass::AnswerOptions& options) const override;

 private:
  pass::QueryAnswer AnswerSynopsis(const pass::Synopsis& synopsis,
                                   const pass::Query& query,
                                   RequestTrace* trace, int32_t parent,
                                   pass::MultiAnswer* multi) const;
  pass::QueryAnswer AnswerSharded(const pass::Query& query,
                                  RequestTrace* trace, int32_t parent) const;

  const pass::AqpSystem* engine_;
  const pass::AqpSystem* uncached_;
  const pass::Dataset* data_;
  pass::SemanticAnswerCache* cache_ = nullptr;
  const pass::Synopsis* synopsis_ = nullptr;
  const pass::ShardedSynopsis* sharded_ = nullptr;
};

/// What the per-layer summary needs besides the spans.
struct SummaryInputs {
  bool scheduled = false;      // queries went through a QueryScheduler
  pass::CacheStats cache_delta;  // engine cache counters over the window
  double build_s = 0.0;          // the traced synopsis build
  double untraced_p50_us = 0.0;  // query_p50_us of the untraced window
};

/// Per-layer numbers distilled from a traced window.
struct TraceSummary {
  std::vector<Metric> metrics;  // every per-layer metric, in a fixed order
  std::vector<std::string> lines;
  std::vector<std::pair<std::string, double>> shares;  // layer self-time share
  double write_share = 0.0;  // partition+storage share of write time
  double Share(const std::string& layer) const;
};

/// Analyzes the traced operations of one window. Query requests feed the
/// engine, cache, shard, core and kernel numbers; writes feed partition
/// and storage. A layer that a workload does not cross reports 0.
TraceSummary Summarize(const std::vector<RequestTrace>& requests,
                       const SummaryInputs& in);

/// Writes the spans of the first `max_requests` operations as JSON lines.
bool WriteSpans(const std::string& path,
                const std::vector<RequestTrace>& requests,
                size_t max_requests);

}  // namespace perfbench

#endif  // PERFBENCH_TRACE_H_
