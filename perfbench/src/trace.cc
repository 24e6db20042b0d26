#include "trace.h"

#include <algorithm>
#include <cstdio>
#include <map>
#include <utility>

#include "cache/cached_system.h"
#include "core/answer_merge.h"

namespace perfbench {

using pass::MultiAnswer;
using pass::Query;
using pass::QueryAnswer;
using pass::Synopsis;

const char* SpanName(SpanKind kind) {
  switch (kind) {
    case SpanKind::kEngineRun:
      return "engine.run";
    case SpanKind::kCacheVersion:
      return "cache.version";
    case SpanKind::kCacheProbe:
      return "cache.probe";
    case SpanKind::kCacheFill:
      return "cache.fill";
    case SpanKind::kShardFanout:
      return "shard.fanout";
    case SpanKind::kShardTask:
      return "shard.task";
    case SpanKind::kShardMerge:
      return "shard.merge";
    case SpanKind::kCorePlan:
      return "core.plan";
    case SpanKind::kCoreAnswer:
      return "core.answer";
    case SpanKind::kCoreAnswerWhole:
      return "core.answer_whole";
    case SpanKind::kKernelScan:
      return "kernel.scan";
    case SpanKind::kPartitionInsert:
      return "partition.insert";
    case SpanKind::kStorageAppend:
      return "storage.append";
  }
  return "?";
}

namespace {
thread_local RequestTrace tls_last_trace;
}  // namespace

RequestTrace TakeLastTrace() {
  RequestTrace out = std::move(tls_last_trace);
  tls_last_trace = RequestTrace();
  return out;
}

TracedSystem::TracedSystem(const pass::AqpSystem& engine,
                           const pass::Dataset& data)
    : engine_(&engine), uncached_(&engine), data_(&data) {
  if (const auto* cached = dynamic_cast<const pass::CachedSystem*>(&engine)) {
    cache_ = &cached->cache();
    uncached_ = &cached->inner();
  }
  synopsis_ = dynamic_cast<const Synopsis*>(uncached_);
  sharded_ = dynamic_cast<const pass::ShardedSynopsis*>(uncached_);
  if (sharded_ != nullptr && sharded_->NumShards() == 1) {
    // One shard is answered by that shard, unmerged.
    synopsis_ = &sharded_->shard(0);
    sharded_ = nullptr;
  }
  PASS_CHECK_MSG(synopsis_ != nullptr || sharded_ != nullptr,
                 "traced runs need a pass or sharded_pass engine");
}

QueryAnswer TracedSystem::AnswerImpl(const Query& query,
                                     const pass::AnswerOptions& options) const {
  PASS_CHECK_MSG(options.budget.Unlimited(), "traced runs are deadline-free");
  RequestTrace trace;
  const int32_t run = trace.Open(SpanKind::kEngineRun, -1);
  // The CachedSystem order: re-stamp the dataset version, probe the exact
  // tier, compute on a miss, fill.
  pass::Rect canonical;
  QueryAnswer answer;
  if (cache_ != nullptr) {
    const int32_t version = trace.Open(SpanKind::kCacheVersion, run);
    cache_->EnsureVersion(data_->version());
    canonical = query.predicate.Canonical();
    trace.Close(version);
    const int32_t probe = trace.Open(SpanKind::kCacheProbe, run);
    std::optional<QueryAnswer> hit = cache_->Lookup(canonical, query.agg);
    trace.Close(probe);
    if (hit) {
      answer = *hit;
      trace.cache_hit = true;
    }
  }
  if (!trace.cache_hit) {
    answer = sharded_ != nullptr
                 ? AnswerSharded(query, &trace, run)
                 : AnswerSynopsis(*synopsis_, query, &trace, run, nullptr);
    trace.computed = true;
    if (cache_ != nullptr) {
      const int32_t fill = trace.Open(SpanKind::kCacheFill, run);
      cache_->Insert(canonical, query.agg, answer);
      trace.Close(fill);
    }
  }
  trace.Close(run);
  trace.answer = answer;
  tls_last_trace = std::move(trace);
  return answer;
}

QueryAnswer TracedSystem::AnswerSynopsis(const Synopsis& synopsis,
                                         const Query& query,
                                         RequestTrace* trace, int32_t parent,
                                         MultiAnswer* multi) const {
  std::vector<int32_t> partial;
  QueryAnswer answer;
  if (multi == nullptr && query.agg == pass::AggregateType::kAvg &&
      synopsis.options().zero_variance_rule) {
    // Per-aggregate AVG walks with the zero-variance rule, a frontier
    // PlanFor (rule off) does not produce, and AnswerOverPlan rejects
    // AVG under the rule. Synopsis::Answer is the public call that runs
    // it; a rule-on walk of the same tree times the walk and gives the
    // kernel spans their leaves (the analysis treats that walk as a
    // duplicate, like the kernel re-scans).
    const int32_t plan = trace->Open(SpanKind::kCorePlan, parent);
    pass::PartitionTree::Frontier frontier =
        synopsis.tree().ComputeMcf(query.predicate, true);
    trace->Close(plan);
    partial = std::move(frontier.partial);
    const int32_t whole = trace->Open(SpanKind::kCoreAnswerWhole, parent);
    answer = synopsis.Answer(query);
    trace->Close(whole);
  } else {
    const int32_t plan_span = trace->Open(SpanKind::kCorePlan, parent);
    pass::WorkPlan plan = synopsis.PlanFor(query.predicate);
    trace->Close(plan_span);
    partial = plan.frontier.partial;
    const int32_t answer_span = trace->Open(SpanKind::kCoreAnswer, parent);
    if (multi != nullptr) {
      *multi = synopsis.AnswerMultiOverPlan(std::move(plan), query.predicate,
                                            {});
      answer = multi->avg;
    } else {
      answer = synopsis.AnswerOverPlan(std::move(plan), query, {});
    }
    trace->Close(answer_span);
  }
  // The estimator scans each partial leaf's sample against the query with
  // the leaf's data box and the engine's kernel cache; so do these.
  pass::KernelCache* kernels = synopsis.options().kernel_cache.get();
  uint64_t matched = 0;
  for (const int32_t id : partial) {
    const pass::PartitionTree::Node& node = synopsis.tree().node(id);
    const pass::StratifiedSample& sample =
        synopsis.leaf_sample(static_cast<size_t>(node.leaf_id));
    const int32_t scan = trace->Open(SpanKind::kKernelScan, parent);
    matched += sample.Scan(query.predicate, node.data_bounds, kernels).matched;
    trace->Close(scan);
    trace->kernel_rows += sample.size();
  }
  trace->kernel_matched += matched;
  return answer;
}

QueryAnswer TracedSystem::AnswerSharded(const Query& query,
                                        RequestTrace* trace,
                                        int32_t parent) const {
  // ShardedSynopsis answers AVG as the AVG of the fused per-shard merge,
  // everything else with per-aggregate shard answers.
  const size_t k = sharded_->NumShards();
  const bool fused = query.agg == pass::AggregateType::kAvg;
  std::vector<QueryAnswer> parts(fused ? 0 : k);
  std::vector<MultiAnswer> multis(fused ? k : 0);
  std::vector<RequestTrace> shard_traces(k);
  const auto answer_shard = [&](size_t i) {
    RequestTrace& t = shard_traces[i];
    const int32_t task = t.Open(SpanKind::kShardTask, -1);
    QueryAnswer a = AnswerSynopsis(sharded_->shard(i), query, &t, task,
                                   fused ? &multis[i] : nullptr);
    if (!fused) parts[i] = std::move(a);
    t.Close(task);
  };
  const int32_t fanout = trace->Open(SpanKind::kShardFanout, parent);
  if (const pass::ParallelShardExecutor* executor = sharded_->executor()) {
    executor->ForEachShard(k, answer_shard);
  } else {
    for (size_t i = 0; i < k; ++i) answer_shard(i);
  }
  trace->Close(fanout);
  for (size_t i = 0; i < k; ++i) {
    const int32_t offset = static_cast<int32_t>(trace->spans.size());
    for (Span s : shard_traces[i].spans) {
      s.parent = s.parent < 0 ? fanout : s.parent + offset;
      s.shard = static_cast<uint16_t>(i);
      trace->spans.push_back(s);
    }
    trace->kernel_rows += shard_traces[i].kernel_rows;
    trace->kernel_matched += shard_traces[i].kernel_matched;
  }
  const int32_t merge = trace->Open(SpanKind::kShardMerge, parent);
  QueryAnswer out = fused ? pass::MergeShardMulti(multis).avg
                          : pass::MergeShardAnswers(query.agg, parts);
  trace->Close(merge);
  return out;
}

namespace {

double Us(int64_t ns) { return static_cast<double>(ns) / 1e3; }

/// Total length covered by `intervals`, overlaps counted once.
int64_t UnionLength(std::vector<std::pair<int64_t, int64_t>> intervals) {
  std::sort(intervals.begin(), intervals.end());
  int64_t total = 0;
  int64_t cur_lo = 0;
  int64_t cur_hi = 0;
  bool open = false;
  for (const auto& [lo, hi] : intervals) {
    if (!open || lo > cur_hi) {
      if (open) total += cur_hi - cur_lo;
      cur_lo = lo;
      cur_hi = hi;
      open = true;
    } else {
      cur_hi = std::max(cur_hi, hi);
    }
  }
  if (open) total += cur_hi - cur_lo;
  return total;
}

const char* kLayers[] = {"engine", "cache", "shard", "core", "kernel"};

}  // namespace

TraceSummary Summarize(const std::vector<RequestTrace>& requests,
                       const SummaryInputs& in) {
  std::vector<double> queue, tax, probe, fill, fanout_self, straggler, merge,
      plan, assemble, kernel_per_query, insert, append, e2e;
  double nodes = 0.0, covered = 0.0, partials = 0.0, rows_scanned = 0.0;
  uint64_t computed = 0, kernel_rows = 0, writes = 0;
  int64_t kernel_ns_total = 0, unaccounted_ns = 0, e2e_ns_total = 0;
  int64_t write_ns = 0, write_layer_ns = 0;
  std::map<std::string, double> self_ns;  // layer -> summed self time

  for (const RequestTrace& r : requests) {
    const int64_t total = r.end_ns - r.start_ns;
    if (r.is_write) {
      ++writes;
      write_ns += total;
      for (const Span& s : r.spans) {
        if (s.kind == SpanKind::kPartitionInsert) {
          insert.push_back(Us(s.Duration()));
        } else if (s.kind == SpanKind::kStorageAppend) {
          append.push_back(Us(s.Duration()));
        }
        write_layer_ns += s.Duration();
      }
      continue;
    }
    e2e.push_back(Us(total));
    e2e_ns_total += total;
    if (in.scheduled) {
      queue.push_back(r.queue_us);
      tax.push_back(Us(total) - r.run_us);
    }
    // Children of each span, and the per-parent kernel and plan time the
    // derived assembly time subtracts.
    const size_t n = r.spans.size();
    std::vector<int64_t> child_ns(n, 0), kernel_ns(n, 0), plan_ns(n, 0);
    std::vector<std::vector<std::pair<int64_t, int64_t>>> tasks(n);
    int64_t run_children_ns = 0;
    int64_t query_kernel_ns = 0;
    for (const Span& s : r.spans) {
      if (s.parent < 0) continue;
      const size_t p = static_cast<size_t>(s.parent);
      child_ns[p] += s.Duration();
      if (r.spans[p].kind == SpanKind::kEngineRun) {
        run_children_ns += s.Duration();
      }
      if (s.kind == SpanKind::kKernelScan) {
        kernel_ns[p] += s.Duration();
        query_kernel_ns += s.Duration();
      }
      if (s.kind == SpanKind::kCorePlan) plan_ns[p] += s.Duration();
      if (s.kind == SpanKind::kShardTask) {
        tasks[p].push_back({s.start_ns, s.end_ns});
      }
    }
    const double queue_ns = r.queue_us * 1e3;
    unaccounted_ns += total - static_cast<int64_t>(queue_ns) - run_children_ns;

    double engine = static_cast<double>(total - run_children_ns);
    double cache = 0.0, shard = 0.0, core = 0.0, kernel = 0.0;
    for (size_t i = 0; i < n; ++i) {
      const Span& s = r.spans[i];
      const double d = static_cast<double>(s.Duration());
      const int64_t sibling_kernel =
          s.parent < 0 ? 0 : kernel_ns[static_cast<size_t>(s.parent)];
      switch (s.kind) {
        case SpanKind::kEngineRun:
          break;
        case SpanKind::kCacheVersion:
          cache += d;
          break;
        case SpanKind::kCacheProbe:
          probe.push_back(Us(s.Duration()));
          cache += d;
          break;
        case SpanKind::kCacheFill:
          fill.push_back(Us(s.Duration()));
          cache += d;
          break;
        case SpanKind::kShardFanout: {
          const int64_t self = s.Duration() - UnionLength(tasks[i]);
          fanout_self.push_back(Us(self));
          shard += static_cast<double>(self);
          std::vector<double> durations;
          for (const auto& [lo, hi] : tasks[i]) {
            durations.push_back(static_cast<double>(hi - lo));
          }
          const double med = Quantile(durations, 0.5);
          if (med > 0.0) {
            straggler.push_back(
                *std::max_element(durations.begin(), durations.end()) / med);
          }
          break;
        }
        case SpanKind::kShardTask:
          shard += d - static_cast<double>(child_ns[i]);
          break;
        case SpanKind::kShardMerge:
          merge.push_back(Us(s.Duration()));
          shard += d;
          break;
        case SpanKind::kCorePlan:
          plan.push_back(Us(s.Duration()));
          core += d;
          break;
        case SpanKind::kCoreAnswer: {
          const int64_t a = s.Duration() - sibling_kernel;
          assemble.push_back(Us(a));
          core += static_cast<double>(a);
          break;
        }
        case SpanKind::kCoreAnswerWhole: {
          // The whole answer repeats the walk timed by its sibling plan.
          const int64_t a = s.Duration() - sibling_kernel -
                            plan_ns[static_cast<size_t>(s.parent)];
          assemble.push_back(Us(a));
          core += static_cast<double>(a);
          break;
        }
        case SpanKind::kKernelScan:
          kernel += d;
          break;
        case SpanKind::kPartitionInsert:
        case SpanKind::kStorageAppend:
          break;
      }
    }
    self_ns["engine"] += engine;
    self_ns["cache"] += cache;
    self_ns["shard"] += shard;
    self_ns["core"] += core;
    self_ns["kernel"] += kernel;
    if (r.computed) {
      ++computed;
      kernel_per_query.push_back(Us(query_kernel_ns));
      kernel_ns_total += query_kernel_ns;
      kernel_rows += r.kernel_rows;
      nodes += r.answer.nodes_visited;
      covered += r.answer.covered_nodes;
      partials += r.answer.partial_leaves;
      rows_scanned += static_cast<double>(r.answer.sample_rows_scanned);
    }
  }

  TraceSummary out;
  const auto add = [&](const char* name, double value, const char* unit,
                       size_t count) {
    out.metrics.push_back({name, value, unit, count});
  };
  const auto p50 = [](const std::vector<double>& v) {
    return Quantile(v, 0.5);
  };
  const auto per = [](double sum, uint64_t count) {
    return count == 0 ? 0.0 : sum / static_cast<double>(count);
  };
  const pass::CacheStats& c = in.cache_delta;
  const uint64_t probes = c.exact_hits + c.exact_misses;
  add("engine.queue_us_p50", p50(queue), "us", queue.size());
  add("engine.tax_us_p50", p50(tax), "us", tax.size());
  add("cache.hit_ratio",
      probes == 0 ? 0.0
                  : static_cast<double>(c.exact_hits) /
                        static_cast<double>(probes),
      "ratio", probes);
  add("cache.probe_us_p50", p50(probe), "us", probe.size());
  add("cache.fill_us_p50", p50(fill), "us", fill.size());
  add("cache.evictions", static_cast<double>(c.evictions), "count", 0);
  add("cache.invalidations", static_cast<double>(c.invalidations), "count",
      0);
  add("shard.fanout_us_p50", p50(fanout_self), "us", fanout_self.size());
  add("shard.straggler_ratio", p50(straggler), "ratio", straggler.size());
  add("shard.merge_us_p50", p50(merge), "us", merge.size());
  add("core.plan_us_p50", p50(plan), "us", plan.size());
  add("core.assemble_us_p50", p50(assemble), "us", assemble.size());
  add("core.nodes_visited_mean", per(nodes, computed), "count", computed);
  add("core.covered_nodes_mean", per(covered, computed), "count", computed);
  add("core.partial_leaves_mean", per(partials, computed), "count",
      computed);
  add("kernel.scan_us_p50", p50(kernel_per_query), "us",
      kernel_per_query.size());
  add("kernel.rows_scanned_mean", per(rows_scanned, computed), "count",
      computed);
  const double kernel_s = static_cast<double>(kernel_ns_total) / 1e9;
  add("kernel.rows_per_s",
      kernel_s > 0.0 ? static_cast<double>(kernel_rows) / kernel_s : 0.0,
      "1/s", kernel_rows);
  add("partition.build_s", in.build_s, "s", 0);
  add("partition.insert_us_p50", p50(insert), "us", insert.size());
  add("storage.append_us_p50", p50(append), "us", append.size());
  const double traced_p50 = p50(e2e);
  add("trace.overhead_pct",
      in.untraced_p50_us > 0.0
          ? 100.0 * (traced_p50 - in.untraced_p50_us) / in.untraced_p50_us
          : 0.0,
      "%", e2e.size());
  add("trace.unaccounted_pct",
      e2e_ns_total > 0 ? 100.0 * static_cast<double>(unaccounted_ns) /
                             static_cast<double>(e2e_ns_total)
                       : 0.0,
      "%", e2e.size());

  double self_total = 0.0;
  for (const char* layer : kLayers) self_total += self_ns[layer];
  std::string line = "self time per query by layer (share of summed self "
                     "time; kernel re-scans excluded):";
  const double queries = static_cast<double>(e2e.size());
  for (const char* layer : kLayers) {
    const double share = self_total > 0.0 ? self_ns[layer] / self_total : 0.0;
    out.shares.push_back({layer, share});
    line += Fmt(" %s %.3f us (%.1f%%)", layer,
                queries > 0 ? self_ns[layer] / queries / 1e3 : 0.0,
                100.0 * share);
  }
  if (!e2e.empty()) out.lines.push_back(line);
  out.lines.push_back(Fmt(
      "traced queries %zu (computed %llu, cache hits %zu); traced "
      "query_p50_us %.3f vs untraced %.3f",
      e2e.size(), static_cast<unsigned long long>(computed),
      e2e.size() - static_cast<size_t>(computed), traced_p50,
      in.untraced_p50_us));
  out.lines.push_back(Fmt(
      "kernel.rows_per_s base: %llu sample rows over %.6f s of kernel "
      "spans; core.assemble_us is derived (answer span minus its kernel "
      "spans)",
      static_cast<unsigned long long>(kernel_rows), kernel_s));
  if (writes > 0) {
    out.write_share =
        write_ns > 0 ? static_cast<double>(write_layer_ns) /
                           static_cast<double>(write_ns)
                     : 0.0;
    out.lines.push_back(Fmt(
        "traced writes %llu: partition+storage spans cover %.1f%% of write "
        "time",
        static_cast<unsigned long long>(writes), 100.0 * out.write_share));
  }
  return out;
}

double TraceSummary::Share(const std::string& layer) const {
  for (const auto& [name, share] : shares) {
    if (name == layer) return share;
  }
  return 0.0;
}

bool WriteSpans(const std::string& path,
                const std::vector<RequestTrace>& requests,
                size_t max_requests) {
  FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  const int64_t t0 = requests.empty() ? 0 : requests.front().start_ns;
  const size_t limit = std::min(max_requests, requests.size());
  for (size_t i = 0; i < limit; ++i) {
    const RequestTrace& r = requests[i];
    std::fprintf(f,
                 "{\"req\":%llu,\"span\":-1,\"parent\":null,\"name\":\"%s\","
                 "\"start_ns\":%lld,\"end_ns\":%lld,\"queue_us\":%.3f,"
                 "\"cache_hit\":%s}\n",
                 static_cast<unsigned long long>(r.id),
                 r.is_write ? "write" : "query",
                 static_cast<long long>(r.start_ns - t0),
                 static_cast<long long>(r.end_ns - t0), r.queue_us,
                 r.cache_hit ? "true" : "false");
    for (size_t s = 0; s < r.spans.size(); ++s) {
      const Span& span = r.spans[s];
      std::fprintf(f,
                   "{\"req\":%llu,\"span\":%zu,\"parent\":%d,\"name\":\"%s\","
                   "\"shard\":%u,\"start_ns\":%lld,\"end_ns\":%lld}\n",
                   static_cast<unsigned long long>(r.id), s, span.parent,
                   SpanName(span.kind), static_cast<unsigned>(span.shard),
                   static_cast<long long>(span.start_ns - t0),
                   static_cast<long long>(span.end_ns - t0));
    }
  }
  return std::fclose(f) == 0;
}

}  // namespace perfbench
