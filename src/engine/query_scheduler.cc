#include "engine/query_scheduler.h"

#include <algorithm>
#include <limits>
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
/// callback), so the task cannot live on the submitter's stack the way
/// BatchExecutor's old per-batch latch state did.
struct QueryScheduler::Task {
  const AqpSystem* system = nullptr;
  Query query;
  uint64_t ticket = 0;
  SteadyClock::time_point admitted;
  std::optional<SteadyClock::time_point> deadline;
  std::optional<StoppingCondition> until;
  AdmissionPolicy admission = AdmissionPolicy::kAlwaysAnswer;
  bool want_future = false;
  std::promise<ScheduledAnswer> promise;
  Callback done;
};

QueryScheduler::QueryScheduler(const SchedulerOptions& options)
    : max_in_flight_(options.max_in_flight),
      calibration_(options.calibration),
      unit_cost_ms_(options.calibration.initial_unit_cost_ms),
      overhead_ms_(options.calibration.initial_overhead_ms),
      pool_(options.num_threads) {}

QueryScheduler::QueryScheduler(size_t num_threads)
    : QueryScheduler(SchedulerOptions{num_threads, /*max_in_flight=*/0, {}}) {}

QueryScheduler::~QueryScheduler() { Shutdown(); }

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

size_t QueryScheduler::InFlight() const {
  MutexLock lock(mu_);
  return in_flight_;
}

std::future<ScheduledAnswer> QueryScheduler::Submit(
    const AqpSystem& system, Query query, const SubmitOptions& options) {
  return SubmitInternal(system, std::move(query), options, /*done=*/nullptr,
                        /*want_future=*/true);
}

void QueryScheduler::Submit(const AqpSystem& system, Query query,
                            const SubmitOptions& options, Callback done) {
  PASS_CHECK(done != nullptr);
  (void)SubmitInternal(system, std::move(query), options, std::move(done),
                       /*want_future=*/false);
}

std::future<ScheduledAnswer> QueryScheduler::AnswerUntil(
    const AqpSystem& system, Query query, const StoppingCondition& condition,
    const SubmitOptions& options) {
  SubmitOptions progressive = options;
  progressive.until = condition;
  return SubmitInternal(system, std::move(query), progressive,
                        /*done=*/nullptr, /*want_future=*/true);
}

void QueryScheduler::AnswerUntil(const AqpSystem& system, Query query,
                                 const StoppingCondition& condition,
                                 const SubmitOptions& options, Callback done) {
  PASS_CHECK(done != nullptr);
  SubmitOptions progressive = options;
  progressive.until = condition;
  (void)SubmitInternal(system, std::move(query), progressive, std::move(done),
                       /*want_future=*/false);
}

std::future<ScheduledAnswer> QueryScheduler::SubmitInternal(
    const AqpSystem& system, Query query, const SubmitOptions& options,
    Callback done, bool want_future) {
  auto task = std::make_unique<Task>();
  task->system = &system;
  task->query = std::move(query);
  task->until = options.until;
  task->admission = options.admission;
  task->want_future = want_future;
  task->done = std::move(done);
  std::future<ScheduledAnswer> future;
  if (want_future) future = task->promise.get_future();

  // Admission control: shed before consuming a queue slot when even the
  // zero-budget answer could not make the deadline (the whole relative
  // deadline is below the calibrated fixed per-query overhead). The same
  // check runs again at dispatch with the queue wait spent.
  if (options.admission == AdmissionPolicy::kRejectInfeasible &&
      options.deadline && system.SupportsBudget()) {
    const double deadline_ms =
        std::chrono::duration<double, std::milli>(*options.deadline).count();
    if (deadline_ms <= CalibratedOverheadMs()) {
      ScheduledAnswer result;
      result.status = Status::DeadlineExceeded(
          "deadline below the calibrated zero-budget overhead; rejected at "
          "admission");
      if (task->want_future) task->promise.set_value(result);
      if (task->done) task->done(std::move(result));
      return future;
    }
  }

  bool rejected = false;
  {
    MutexLock lock(mu_);
    // Backpressure: a bounded scheduler blocks the producer until a slot
    // frees. Shutdown unblocks every waiting producer into rejection.
    if (max_in_flight_ > 0) {
      while (!shutdown_ && in_flight_ >= max_in_flight_) {
        slot_free_.Wait(mu_);
      }
    }
    if (shutdown_) {
      rejected = true;
    } else {
      task->ticket = ++next_ticket_;
      task->admitted = SteadyClock::now();
      if (options.deadline) {
        task->deadline = task->admitted + *options.deadline;
      }
      ++in_flight_;
    }
  }

  if (rejected) {
    ScheduledAnswer result;
    result.status =
        Status::Unavailable("QueryScheduler is shut down; query rejected");
    if (task->want_future) task->promise.set_value(result);
    if (task->done) task->done(std::move(result));
    return future;
  }

  Task* raw = task.release();
  const bool accepted = pool_.Submit([this, raw] { RunTask(raw); });
  // Admission is gated by shutdown_ above and Shutdown() drains before the
  // pool ever stops, so the pool can never have refused the task.
  PASS_CHECK(accepted);
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
  if (const SemanticAnswerCache* cache = task->system->AnswerCache()) {
    result.cache_enabled = true;
    result.cache = cache->Stats();
  }

  if (task->want_future) task->promise.set_value(result);
  if (task->done) task->done(std::move(result));

  {
    MutexLock lock(mu_);
    --in_flight_;
  }
  // Wakes both backpressured producers and Drain()/Shutdown() waiters.
  slot_free_.NotifyAll();
}

namespace {

/// The aggregate of a fused MultiAnswer that a progressive submission
/// refines. Only SUM/COUNT/AVG have a fused resumable path.
const QueryAnswer* FusedComponent(const MultiAnswer& multi,
                                  AggregateType agg) {
  switch (agg) {
    case AggregateType::kSum:
      return &multi.sum;
    case AggregateType::kCount:
      return &multi.count;
    case AggregateType::kAvg:
      return &multi.avg;
    default:
      return nullptr;
  }
}

}  // namespace

void QueryScheduler::RunProgressive(Task* task, ScheduledAnswer* result) {
  const StoppingCondition& condition = *task->until;
  const double lambda = LambdaForConfidence(condition.confidence);
  const AggregateType agg = task->query.agg;
  const SteadyClock::time_point started = SteadyClock::now();

  std::unique_ptr<EstimationSession> session;
  const bool fused = agg == AggregateType::kSum ||
                     agg == AggregateType::kCount ||
                     agg == AggregateType::kAvg;
  if (fused) {
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
    const QueryAnswer& answer = *FusedComponent(multi, agg);
    const bool tight =
        condition.target_ci_width > 0.0 &&
        answer.estimate.HalfWidth(lambda) <= condition.target_ci_width;
    const bool out_of_time =
        task->deadline && SteadyClock::now() >= *task->deadline;
    const bool final_step = tight || out_of_time || session->Exhausted();

    result->answer = answer;
    result->budget_total = std::min(cap, plan);
    result->budget_used = session->UnitsScanned();
    result->truncated = answer.truncated;
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
  result->truncated = result->answer.truncated;
  result->scan_rows_per_sec =
      RowsPerSec(result->answer.sample_rows_scanned, result->run_ms);
  // Every budget-capable system reports the scan units it consumed, so
  // deadline-free traffic warms the deadline-pricing EWMA too.
  if (task.system->SupportsBudget()) {
    ObserveUnitCost(result->run_ms, result->answer.sample_rows_scanned);
  }
}

void QueryScheduler::Drain() {
  MutexLock lock(mu_);
  while (in_flight_ != 0) slot_free_.Wait(mu_);
}

void QueryScheduler::Shutdown() {
  {
    MutexLock lock(mu_);
    shutdown_ = true;
  }
  slot_free_.NotifyAll();  // release producers blocked on backpressure
  // Always drain — even on a repeat call — so *every* caller returns only
  // once in-flight work is done. Shutdown is the teardown fence callers
  // rely on before destroying the engines they submitted, so a concurrent
  // second caller must not return early while queries still run.
  Drain();
}

}  // namespace pass
