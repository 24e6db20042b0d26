#include "engine/query_scheduler.h"

#include <algorithm>
#include <map>
#include <memory>
#include <utility>

#include "common/macros.h"
#include "common/mutex.h"
#include "stats/confidence.h"

namespace pass {
namespace {

using SteadyClock = std::chrono::steady_clock;

double MillisBetween(SteadyClock::time_point from, SteadyClock::time_point to) {
  return std::chrono::duration<double, std::milli>(to - from).count();
}

}  // namespace

/// One admitted submission. Heap-allocated and owned by the pool closure:
/// the submitting thread may abandon its future (or passed only a
/// callback), so the task cannot live on the submitter's stack.
struct QueryScheduler::Task {
  const AqpSystem* system = nullptr;
  Query query;
  uint64_t ticket = 0;
  SteadyClock::time_point admitted;
  std::optional<SteadyClock::time_point> deadline;
  std::optional<StoppingCondition> until;
  AdmissionPolicy admission = AdmissionPolicy::kAlwaysAnswer;
  std::promise<ScheduledAnswer> promise;  // unused when `done` is set
  Callback done;

  /// Resolves the submission through its callback or else its future.
  void Resolve(ScheduledAnswer result) {
    if (done) {
      done(std::move(result));
    } else {
      promise.set_value(std::move(result));
    }
  }
  /// Resolves a submission that never ran with `status`.
  void Reject(Status status) {
    ScheduledAnswer result;
    result.status = std::move(status);
    Resolve(std::move(result));
  }
};

namespace {

/// A stopping condition Submit can honour: `confidence` strictly inside
/// (0, 1) — LambdaForConfidence maps 0 to a zero and negative levels to a
/// negative multiplier, so any width would "meet" the target at the
/// zero-budget answer — and a non-NaN, non-negative target width.
Status ValidateStoppingCondition(const StoppingCondition& condition) {
  if (!(condition.confidence > 0.0 && condition.confidence < 1.0)) {
    return Status::InvalidArgument(
        "StoppingCondition::confidence must lie strictly inside (0, 1)");
  }
  if (!(condition.target_ci_width >= 0.0)) {
    return Status::InvalidArgument(
        "StoppingCondition::target_ci_width must be >= 0 and not NaN");
  }
  return Status::Ok();
}

}  // namespace

QueryScheduler::QueryScheduler(const SchedulerOptions& options)
    : calibration_(options.calibration),
      unit_cost_ms_(options.calibration.initial_unit_cost_ms),
      overhead_ms_(options.calibration.initial_overhead_ms),
      pool_(options.num_threads, options.max_in_flight) {}

QueryScheduler::QueryScheduler(size_t num_threads)
    : QueryScheduler(SchedulerOptions{num_threads, /*max_in_flight=*/0, {}}) {}

QueryScheduler& QueryScheduler::Shared(size_t num_threads) {
  // Normalize before keying the cache so Shared(0) and an explicit
  // Shared(hardware_concurrency) share one pool.
  num_threads = ThreadPool::ResolveNumThreads(num_threads);
  static Mutex* mu = new Mutex();
  static auto* schedulers =
      new std::map<size_t, std::unique_ptr<QueryScheduler>>();
  MutexLock lock(*mu);
  std::unique_ptr<QueryScheduler>& scheduler = (*schedulers)[num_threads];
  if (scheduler == nullptr) {
    scheduler = std::make_unique<QueryScheduler>(num_threads);
  }
  return *scheduler;
}

std::future<ScheduledAnswer> QueryScheduler::Submit(
    const AqpSystem& system, Query query, const SubmitOptions& options) {
  return SubmitInternal(system, std::move(query), options, /*done=*/nullptr);
}

void QueryScheduler::Submit(const AqpSystem& system, Query query,
                            const SubmitOptions& options, Callback done) {
  PASS_CHECK(done != nullptr);
  (void)SubmitInternal(system, std::move(query), options, std::move(done));
}

std::future<ScheduledAnswer> QueryScheduler::SubmitInternal(
    const AqpSystem& system, Query query, const SubmitOptions& options,
    Callback done) {
  auto task = std::make_unique<Task>();
  task->system = &system;
  task->query = std::move(query);
  task->until = options.until;
  task->admission = options.admission;
  task->done = std::move(done);
  std::future<ScheduledAnswer> future;
  if (task->done == nullptr) future = task->promise.get_future();

  if (options.until) {
    Status valid = ValidateStoppingCondition(*options.until);
    if (!valid.ok()) {
      task->Reject(std::move(valid));
      return future;
    }
  }

  // Admission control: shed before consuming a queue slot when even the
  // zero-budget answer could not make the deadline (the whole relative
  // deadline is below the calibrated fixed per-query overhead). The same
  // check runs again at dispatch with the queue wait spent.
  if (options.admission == AdmissionPolicy::kRejectInfeasible &&
      options.deadline && system.SupportsBudget()) {
    const double deadline_ms =
        std::chrono::duration<double, std::milli>(*options.deadline).count();
    if (deadline_ms <= CalibratedOverheadMs()) {
      task->Reject(Status::DeadlineExceeded(
          "deadline below the calibrated zero-budget overhead; rejected at "
          "admission"));
      return future;
    }
  }

  // Admission is stamped before the pool's backpressure wait, so a bounded
  // scheduler's deadline and queue_ms include time spent blocked there.
  task->ticket = next_ticket_.fetch_add(1, std::memory_order_relaxed) + 1;
  task->admitted = SteadyClock::now();
  if (options.deadline) task->deadline = task->admitted + *options.deadline;

  Task* raw = task.release();
  if (!pool_.Submit([this, raw] { RunTask(raw); })) {
    // Shut down: the pool destroyed the closure unrun, so the task is
    // still ours to resolve, here on the submitting thread.
    task.reset(raw);
    task->Reject(
        Status::Unavailable("QueryScheduler is shut down; query rejected"));
  }
  return future;
}

namespace {

/// Observations from runs that scanned fewer units than this are ignored:
/// run_ms includes the fixed per-query overhead (MCF walk, split, merge),
/// so a small-unit run reports a per-unit cost inflated by orders of
/// magnitude. Feeding those back would ratchet the EWMA upward and shrink
/// every later grant — a positive feedback that collapses sustained
/// tight-deadline traffic to zero-budget answers. Above this many units
/// the fixed overhead amortizes into the noise.
constexpr uint64_t kMinUnitsToCalibrate = 64;

/// Scan throughput of one run (0 when nothing was scanned or the clock
/// read 0). Surfaced in ScheduledAnswer next to the EWMA the same
/// (run_ms, units) observation feeds, so operators can sanity-check the
/// learned per-unit cost against the kernel's actual rows/sec.
double RowsPerSec(uint64_t rows, double run_ms) {
  return rows > 0 && run_ms > 0.0
             ? static_cast<double>(rows) * 1e3 / run_ms
             : 0.0;
}

}  // namespace

double QueryScheduler::CalibratedUnitCostMs() const {
  MutexLock lock(calibration_mu_);
  return unit_cost_ms_;
}

double QueryScheduler::CalibratedOverheadMs() const {
  MutexLock lock(calibration_mu_);
  return overhead_ms_;
}

void QueryScheduler::ObserveUnitCost(double run_ms, uint64_t units) {
  if (!(run_ms > 0.0)) return;
  MutexLock lock(calibration_mu_);
  if (units >= kMinUnitsToCalibrate) {
    const double observed = run_ms / static_cast<double>(units);
    unit_cost_ms_ += calibration_.ewma_alpha * (observed - unit_cost_ms_);
  }
  // The per-query overhead floor learns from every run, including the
  // small-unit ones the per-unit EWMA must ignore: whatever the units
  // cannot explain at the current per-unit cost is fixed overhead.
  const double observed_overhead =
      std::max(run_ms - static_cast<double>(units) * unit_cost_ms_, 0.0);
  overhead_ms_ += calibration_.ewma_alpha * (observed_overhead - overhead_ms_);
}

void QueryScheduler::RunTask(Task* raw) {
  std::unique_ptr<Task> task(raw);
  const SteadyClock::time_point dispatched = SteadyClock::now();

  ScheduledAnswer result;
  result.ticket = task->ticket;
  result.queue_ms = MillisBetween(task->admitted, dispatched);
  const bool budgetable = task->system->SupportsBudget();
  const bool anytime = task->deadline && budgetable;
  const bool progressive = task->until && budgetable;
  bool infeasible = false;
  if (anytime && task->admission == AdmissionPolicy::kRejectInfeasible) {
    // Dispatch-time re-check of the admission gate: the queue wait may
    // have eaten the margin that existed at admission.
    const double remaining_ms = dispatched < *task->deadline
                                    ? MillisBetween(dispatched, *task->deadline)
                                    : 0.0;
    infeasible = remaining_ms <= CalibratedOverheadMs();
  }
  if (task->deadline && dispatched > *task->deadline && !anytime) {
    // Expired while queued on a system that cannot truncate: the query is
    // never run, so an overloaded scheduler sheds the work itself, not
    // just the answer.
    result.status = Status::DeadlineExceeded(
        "deadline expired before the query was dispatched");
  } else if (infeasible) {
    result.status = Status::DeadlineExceeded(
        "remaining time below the calibrated zero-budget overhead; query "
        "shed at dispatch");
  } else if (progressive) {
    RunProgressive(task.get(), &result);
  } else if (anytime) {
    // Deadline-to-budget conversion: grant whatever the remaining time
    // buys at the calibrated per-unit cost (zero for a query that expired
    // in the queue — it still gets the pure bounds-midpoint answer), with
    // the deadline itself as the soft cutoff against miscalibration.
    AnswerOptions options;
    uint64_t granted = 0;
    if (dispatched < *task->deadline) {
      const double remaining_ms = MillisBetween(dispatched, *task->deadline);
      // Floor the learned cost at 1ns/unit so a degenerate calibration
      // (zero initial cost, runaway alpha) cannot blow the quotient up,
      // and saturate the double->uint64_t conversion: casting a value
      // beyond the target range is UB (UBSan float-cast-overflow).
      const double unit_cost_ms = std::max(CalibratedUnitCostMs(), 1e-6);
      const double raw =
          remaining_ms * calibration_.safety_factor / unit_cost_ms;
      constexpr double kMaxGrant = 9e18;  // < 2^63, safely castable
      granted = static_cast<uint64_t>(std::min(std::max(raw, 0.0),
                                               kMaxGrant));
      options.budget.soft_deadline = *task->deadline;
    }
    options.budget.max_scan_units = granted;
    // Any scheduler-level randomness must derive from the ticket (see
    // ScheduledAnswer::ticket): here, the budget's spend-priority seed.
    options.seed = task->ticket;
    AnswerOnce(*task, options, &result);
    result.budget_total = granted;
    result.budget_used = result.answer.sample_rows_scanned;
  } else {
    AnswerOnce(*task, AnswerOptions{}, &result);
  }
  result.total_ms = MillisBetween(task->admitted, SteadyClock::now());
  task->Resolve(std::move(result));
}

namespace {

/// The member of a fused MultiAnswer that a progressive submission
/// refines; null for aggregates without a fused resumable path (only
/// SUM/COUNT/AVG have one).
QueryAnswer MultiAnswer::*FusedComponent(AggregateType agg) {
  switch (agg) {
    case AggregateType::kSum:
      return &MultiAnswer::sum;
    case AggregateType::kCount:
      return &MultiAnswer::count;
    case AggregateType::kAvg:
      return &MultiAnswer::avg;
    default:
      return nullptr;
  }
}

}  // namespace

void QueryScheduler::RunProgressive(Task* task, ScheduledAnswer* result) {
  const StoppingCondition& condition = *task->until;
  const double lambda = LambdaForConfidence(condition.confidence);
  QueryAnswer MultiAnswer::*const component =
      FusedComponent(task->query.agg);
  const SteadyClock::time_point started = SteadyClock::now();

  std::unique_ptr<EstimationSession> session;
  if (component != nullptr) {
    // Ticket-derived seed, like the anytime path (see ScheduledAnswer).
    session = task->system->StartSession(task->query.predicate, task->ticket);
  }
  if (session == nullptr) {
    // No resumable path for this aggregate/system: answer once, in full.
    // The submission still resolves normally, just without refinements.
    AnswerOnce(*task, AnswerOptions{}, result);
    return;
  }

  const uint64_t plan = session->PlanCost();
  const uint64_t step =
      condition.min_step_units > 0
          ? condition.min_step_units
          : std::max<uint64_t>(64, plan / 16);

  // The refinement ladder: 0, step, 2*step, 4*step, ... Zero first — the
  // bounds-only answer is free and sometimes already tight enough; then
  // doubling keeps the total number of reassemblies logarithmic in the
  // plan while each AdvanceTo scans only the delta units.
  uint64_t cap = 0;
  uint32_t refinements = 0;
  while (true) {
    const MultiAnswer multi = session->AdvanceTo(cap);
    const QueryAnswer& answer = multi.*component;
    const bool tight =
        condition.target_ci_width > 0.0 &&
        answer.estimate.HalfWidth(lambda) <= condition.target_ci_width;
    const bool out_of_time =
        task->deadline && SteadyClock::now() >= *task->deadline;
    const bool final_step = tight || out_of_time || session->Exhausted();

    result->answer = answer;
    result->budget_total = std::min(cap, plan);
    result->budget_used = session->UnitsScanned();
    result->refinements = refinements;
    result->is_final = final_step;
    if (final_step) break;

    if (task->done) {
      // Stream the intermediate answer; only the final one resolves the
      // submission (and is the only one a future ever sees).
      ScheduledAnswer intermediate = *result;
      const SteadyClock::time_point now = SteadyClock::now();
      intermediate.run_ms = MillisBetween(started, now);
      intermediate.total_ms = MillisBetween(task->admitted, now);
      intermediate.scan_rows_per_sec =
          RowsPerSec(intermediate.budget_used, intermediate.run_ms);
      task->done(intermediate);
    }
    cap = cap == 0 ? step : cap * 2;
    ++refinements;
  }
  result->run_ms = MillisBetween(started, SteadyClock::now());
  result->scan_rows_per_sec =
      RowsPerSec(result->budget_used, result->run_ms);
  ObserveUnitCost(result->run_ms, result->budget_used);
}

void QueryScheduler::AnswerOnce(const Task& task, const AnswerOptions& options,
                                ScheduledAnswer* result) {
  const SteadyClock::time_point started = SteadyClock::now();
  result->answer = task.system->Answer(task.query, options);
  result->run_ms = MillisBetween(started, SteadyClock::now());
  result->scan_rows_per_sec =
      RowsPerSec(result->answer.sample_rows_scanned, result->run_ms);
  // Every budget-capable system reports the scan units it consumed, so
  // deadline-free traffic warms the deadline-pricing EWMA too.
  if (task.system->SupportsBudget()) {
    ObserveUnitCost(result->run_ms, result->answer.sample_rows_scanned);
  }
}

}  // namespace pass
