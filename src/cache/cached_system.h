#ifndef PASS_CACHE_CACHED_SYSTEM_H_
#define PASS_CACHE_CACHED_SYSTEM_H_

#include <memory>
#include <string>

#include "cache/semantic_answer_cache.h"
#include "core/aqp_system.h"
#include "storage/dataset.h"

namespace pass {

/// The decorator the registry wraps an engine in when EngineConfig::cache
/// is enabled: a transparent AqpSystem that serves repeat predicates from
/// the exact-match tier and flushes it when the dataset-version stamp
/// moves.
///
/// Transparency is the contract: Name/Costs/SupportsBudget forward
/// unchanged, and every answer is bit-identical to the bare engine's at
/// the same seed and budget. The exact tier therefore only participates
/// in unbudgeted answers — with an unlimited budget an answer is a
/// deterministic function of the predicate alone — while budgeted and
/// deadline answers always reach the inner engine (their bits depend on
/// budget and seed, which the key deliberately omits).
///
/// Lifetime: the wrapped dataset must outlive this system (same rule as
/// the registry's bare engines).
///
/// Thread safety: this decorator holds no lock of its own, deliberately
/// — all shared mutable state lives in cache_, whose every entry point
/// locks internally (SemanticAnswerCache's annotated SharedMutex), and
/// the inner engine is immutable after construction. Adding state here
/// means adding a common/mutex.h wrapper plus GUARDED_BY, not an
/// unannotated member (the naked-mutex lint rule holds that line).
class CachedSystem final : public AqpSystem {
 public:
  CachedSystem(std::unique_ptr<AqpSystem> inner, const Dataset& data,
               const CacheConfig& config);

  // AqpSystem (all forwarding — the wrapper is invisible to callers):
  bool SupportsBudget() const override { return inner_->SupportsBudget(); }
  std::string Name() const override { return inner_->Name(); }
  SystemCosts Costs() const override { return inner_->Costs(); }
  const SemanticAnswerCache* AnswerCache() const override { return &cache_; }

  SemanticAnswerCache& cache() const { return cache_; }
  const AqpSystem& inner() const { return *inner_; }

 protected:
  QueryAnswer AnswerImpl(const Query& query,
                         const AnswerOptions& options) const override;
  MultiAnswer AnswerMultiImpl(const Rect& predicate,
                              const AnswerOptions& options) const override;
  /// Sessions refine under explicit budgets, so they bypass the exact
  /// tier.
  std::unique_ptr<EstimationSession> StartSessionImpl(
      const Rect& predicate, uint64_t seed) const override;

 private:
  mutable SemanticAnswerCache cache_;
  std::unique_ptr<AqpSystem> inner_;
  const Dataset* data_;
};

}  // namespace pass

#endif  // PASS_CACHE_CACHED_SYSTEM_H_
