#ifndef PASS_PARTITION_ENSEMBLE_H_
#define PASS_PARTITION_ENSEMBLE_H_

#include <memory>
#include <string>
#include <vector>

#include "core/synopsis.h"
#include "partition/builder.h"

namespace pass {

/// Section 4.5's multi-template extension: "To handle multiple predicate
/// column sets, we construct different trees based on statistics from the
/// workload." A SynopsisEnsemble owns one PASS synopsis per expected query
/// template and routes each incoming query to the member whose partition
/// dimensions best match the query's constrained dimensions (every member
/// can answer every query — the workload-shift property — so routing is a
/// pure accuracy optimization).
class SynopsisEnsemble final : public AqpSystem {
 public:
  SynopsisEnsemble() = default;

  /// Adds a member built over `partition_dims`. Members must all summarize
  /// the same dataset.
  void Add(Synopsis synopsis, std::vector<size_t> partition_dims);

  size_t NumMembers() const { return members_.size(); }

  /// Index of the member a query with these constrained dims routes to.
  /// Score: shared partition dims count double; unused partition dims
  /// (which only dilute the partitioning budget) subtract one.
  size_t RouteIndex(const Rect& predicate) const;

  // AqpSystem:
  bool SupportsBudget() const override { return true; }
  std::string Name() const override { return "PASS-Ensemble"; }
  SystemCosts Costs() const override;

  const Synopsis& member(size_t i) const {
    PASS_DCHECK(i < members_.size());
    return *members_[i].synopsis;
  }

 protected:
  // AqpSystem hooks (reached through the public non-virtual entry points).
  // Routing is budget-free (it only scores partition dims), so options —
  // and session seeds — forward unchanged to the routed member: the whole
  // budget is spent where the query actually runs.
  QueryAnswer AnswerImpl(const Query& query,
                         const AnswerOptions& options) const override;
  /// Fused: routes by predicate (like Answer) and delegates to the chosen
  /// member's one-walk multi-aggregate path.
  MultiAnswer AnswerMultiImpl(const Rect& predicate,
                              const AnswerOptions& options) const override;
  /// Resumable: the session pins the routed member.
  std::unique_ptr<EstimationSession> StartSessionImpl(
      const Rect& predicate, uint64_t seed) const override;

 private:
  struct Member {
    std::unique_ptr<Synopsis> synopsis;
    std::vector<size_t> dims;
  };
  std::vector<Member> members_;
};

/// Builds one member per template over the same dataset with shared base
/// options; each member gets `base.num_leaves` leaves and an equal share of
/// the sampling budget (so the ensemble's total budget matches a single
/// synopsis built with `num_templates * base` budgets — the fair-total
/// configuration used in the workload experiments).
Result<SynopsisEnsemble> BuildEnsemble(
    const Dataset& data, const std::vector<std::vector<size_t>>& templates,
    BuildOptions base);

}  // namespace pass

#endif  // PASS_PARTITION_ENSEMBLE_H_
