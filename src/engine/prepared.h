#ifndef MAGIC_ENGINE_PREPARED_H_
#define MAGIC_ENGINE_PREPARED_H_

#include "engine/compiled_plan.h"

namespace magic {

/// A compiled query form (paper, Section 4): "If we choose a different
/// query with the same query form, then the same magic predicates, magic
/// predicate-definitions, and modified rules will result, but the seed will
/// be specific to the query."
///
/// Prepare() compiles the binding pattern of an exemplar query once — for
/// *any* strategy — into an immutable CompiledPlan whose universe overlay
/// holds everything compilation declared; Answer() then serves any instance
/// of the form by instantiating only the seed. Because the plan (and the
/// base Universe underneath it) is never written after Prepare, Answer is
/// concurrently callable for every strategy, including top-down (whose
/// adornment used to mutate the shared Universe at request time).
class PreparedQueryForm {
 public:
  /// Compiles the query form of `exemplar` (its binding pattern; the actual
  /// constants are ignored) under `options.strategy`. All strategies are
  /// accepted; base-predicate queries are rejected (they need no plan).
  static Result<PreparedQueryForm> Prepare(const Program& program,
                                           const Query& exemplar,
                                           const EngineOptions& options = {});

  /// Answers one instance: `bound_values` are the constants for the bound
  /// positions of the form, in position order.
  QueryAnswer Answer(const std::vector<TermId>& bound_values,
                     const Database& db) const;

  /// Resource-bounded instance: enforces `limits` during the evaluation
  /// (it aborts as soon as the row limit, deadline, or cancellation fires)
  /// and streams each distinct answer tuple to `sink` as it is derived.
  /// `admitted` anchors the deadline (defaults to entry time) so a serving
  /// layer can charge queue wait against it.
  QueryAnswer Answer(const std::vector<TermId>& bound_values,
                     const Database& db, const QueryLimits& limits,
                     const AnswerSink& sink = {},
                     std::optional<std::chrono::steady_clock::time_point>
                         admitted = std::nullopt) const;

  /// The adornment of the compiled form (e.g. "bf").
  const Adornment& adornment() const { return plan_->adornment; }

  /// The queried predicate.
  PredId pred() const { return plan_->exemplar.goal.pred; }

  /// The compiled strategy.
  Strategy strategy() const { return plan_->strategy; }

  /// Number of bound positions, i.e. the arity of Answer's `bound_values`.
  size_t bound_arity() const { return plan_->bound_positions.size(); }

  /// The rewritten program evaluated for every instance (rewriting
  /// strategies only; empty for naive/semi-naive/top-down plans).
  const RewrittenProgram& rewritten() const { return plan_->rewritten; }

  /// The underlying immutable plan (shared, never written after Prepare).
  const CompiledPlan& plan() const { return *plan_; }

 private:
  PreparedQueryForm() = default;

  std::shared_ptr<const CompiledPlan> plan_;
};

}  // namespace magic

#endif  // MAGIC_ENGINE_PREPARED_H_
