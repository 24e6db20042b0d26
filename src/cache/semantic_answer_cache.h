#ifndef PASS_CACHE_SEMANTIC_ANSWER_CACHE_H_
#define PASS_CACHE_SEMANTIC_ANSWER_CACHE_H_

#include <atomic>
#include <chrono>
#include <cstdint>
#include <deque>
#include <optional>
#include <unordered_map>

#include "cache/cache_config.h"
#include "common/mutex.h"
#include "common/thread_annotations.h"
#include "core/answer.h"
#include "core/query.h"
#include "geom/rect.h"

namespace pass {

/// One snapshot of the cache's counters, cheap enough to copy onto every
/// ScheduledAnswer. Counters are cumulative since construction (or the
/// last explicit reset); per-query deltas are the caller's subtraction.
struct CacheStats {
  uint64_t exact_hits = 0;    // whole answers served from the exact tier
  uint64_t exact_misses = 0;  // exact-tier probes that fell through
  uint64_t evictions = 0;     // capacity evictions
  uint64_t invalidations = 0; // dataset-version flushes
  size_t exact_entries = 0;   // resident whole answers (single + multi)
  /// Always 0: compatibility no-ops left from the retired covered-node
  /// tier (see jit/kernel_cache.h for the other retired names).
  uint64_t node_hits = 0;
  uint64_t node_misses = 0;
  size_t node_entries = 0;
};

/// The semantic answer cache behind EngineConfig::cache: an exact-match
/// tier of whole QueryAnswer / MultiAnswer values keyed by (canonical
/// predicate rectangle, aggregate). Only unbudgeted answers enter it: with
/// an unlimited budget an answer is a deterministic function of the
/// predicate alone (the seed only orders work the budget might exclude),
/// so a hit replays the exact bits a fresh evaluation would produce.
/// Budgeted and deadline answers bypass the cache entirely.
///
/// The tier flushes when the dataset-version stamp changes
/// (EnsureVersion), is size-bound with FIFO eviction, and serves
/// concurrent readers under a shared lock.
class SemanticAnswerCache final {
 public:
  explicit SemanticAnswerCache(const CacheConfig& config);

  /// Exact tier. `canonical` must be Rect::Canonical() of the predicate
  /// (the caller canonicalizes once and reuses the rect for the insert).
  std::optional<QueryAnswer> Lookup(const Rect& canonical,
                                    AggregateType agg) const EXCLUDES(mu_);
  void Insert(const Rect& canonical, AggregateType agg,
              const QueryAnswer& answer) EXCLUDES(mu_);
  std::optional<MultiAnswer> LookupMulti(const Rect& canonical) const
      EXCLUDES(mu_);
  void InsertMulti(const Rect& canonical, const MultiAnswer& answer)
      EXCLUDES(mu_);

  /// Stamps the dataset version, flushing the cache when it changed
  /// since the last call (counted in CacheStats::invalidations). The
  /// first call only records the stamp. Returns true when a flush ran.
  bool EnsureVersion(uint64_t version) EXCLUDES(mu_);

  /// Unconditionally empties the cache (counters are kept).
  void Flush() EXCLUDES(mu_);

  CacheStats Stats() const EXCLUDES(mu_);
  const CacheConfig& config() const { return config_; }

 private:
  struct ExactKey {
    Rect rect;  // canonical form
    int8_t agg = 0;
    uint64_t hash = 0;  // precomputed CanonicalHash of `rect`
    bool operator==(const ExactKey& other) const {
      return agg == other.agg && rect == other.rect;
    }
  };
  struct ExactKeyHash {
    size_t operator()(const ExactKey& key) const {
      return static_cast<size_t>(key.hash * 31u +
                                 static_cast<uint64_t>(key.agg));
    }
  };
  template <typename Answer>
  struct Entry {
    Answer answer;
    std::chrono::steady_clock::time_point inserted;
  };
  template <typename Answer>
  using ExactMap = std::unordered_map<ExactKey, Entry<Answer>, ExactKeyHash>;

  static ExactKey MakeKey(const Rect& canonical, AggregateType agg);
  bool Expired(std::chrono::steady_clock::time_point inserted) const;
  /// The lock is taken at the public entries and these run under it
  /// (REQUIRES, not internal locking): passing the guarded maps by
  /// reference into a helper that locks privately hides the access from
  /// the analysis — exactly the pattern -Wthread-safety-reference exists
  /// to reject.
  template <typename Answer>
  std::optional<Answer> LookupLocked(const ExactMap<Answer>& map,
                                     const ExactKey& key) const
      REQUIRES_SHARED(mu_);
  template <typename Answer>
  void InsertLocked(ExactMap<Answer>* map, std::deque<ExactKey>* fifo,
                    ExactKey key, const Answer& answer) REQUIRES(mu_);
  void FlushLocked() REQUIRES(mu_);

  const CacheConfig config_;

  mutable SharedMutex mu_;
  ExactMap<QueryAnswer> single_ GUARDED_BY(mu_);
  ExactMap<MultiAnswer> multi_ GUARDED_BY(mu_);
  std::deque<ExactKey> single_fifo_ GUARDED_BY(mu_);
  std::deque<ExactKey> multi_fifo_ GUARDED_BY(mu_);
  std::optional<uint64_t> dataset_version_ GUARDED_BY(mu_);

  mutable std::atomic<uint64_t> exact_hits_{0};
  mutable std::atomic<uint64_t> exact_misses_{0};
  std::atomic<uint64_t> evictions_{0};
  std::atomic<uint64_t> invalidations_{0};
};

}  // namespace pass

#endif  // PASS_CACHE_SEMANTIC_ANSWER_CACHE_H_
