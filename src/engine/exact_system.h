#ifndef PASS_ENGINE_EXACT_SYSTEM_H_
#define PASS_ENGINE_EXACT_SYSTEM_H_

#include <string>

#include "core/aqp_system.h"
#include "storage/dataset.h"

namespace pass {

/// Full-scan ground truth behind the AqpSystem interface, so the engine
/// registry (and anything batch-shaped built on it) can treat "no
/// approximation" as just another method. The dataset must outlive the
/// system; nothing is copied.
///
/// Not an anytime system (SupportsBudget() stays false): a full scan has
/// no bounds-midpoint fallback for skipped work, so a budget in the
/// options is ignored — answer in full, never truncate — and the
/// scheduler sheds an over-deadline exact query rather than budgeting it.
class ExactSystem final : public AqpSystem {
 public:
  explicit ExactSystem(const Dataset& data) : data_(&data) {}

  std::string Name() const override { return "Exact"; }
  SystemCosts Costs() const override;

 protected:
  QueryAnswer AnswerImpl(const Query& query,
                         const AnswerOptions& options) const override;
  /// Fused: SUM, COUNT and AVG from one full scan instead of three.
  MultiAnswer AnswerMultiImpl(const Rect& predicate,
                              const AnswerOptions& options) const override;

 private:
  const Dataset* data_;
};

}  // namespace pass

#endif  // PASS_ENGINE_EXACT_SYSTEM_H_
