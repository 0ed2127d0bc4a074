#ifndef MAGIC_ENGINE_PREPARED_H_
#define MAGIC_ENGINE_PREPARED_H_

#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "engine/query_engine.h"
#include "eval/join_program.h"

namespace magic {

/// A compiled query form (paper, Section 4): "If we choose a different
/// query with the same query form, then the same magic predicates, magic
/// predicate-definitions, and modified rules will result, but the seed will
/// be specific to the query."
///
/// Drabent's correctness proof (arXiv:1012.2299) treats the transformed
/// program as a pure function of (program, query form); a prepared form is
/// that function's value, for *every* strategy, including the
/// non-rewriting ones. Prepare() runs all universe-mutating work — top-down
/// adornment and the rewrites' symbol/predicate declarations — exactly
/// once, into a form-local Universe overlay: the base Universe is frozen
/// underneath it, and term ids stay comparable with the EDB because the
/// overlay shares the base's internally synchronized TermArena. Answer()
/// then serves any instance of the form by instantiating only the seed.
/// The compiled state is immutable and shared by copies of the form, so
/// Answer is const, side-effect-free on shared state, and concurrently
/// callable for every strategy.
class PreparedQueryForm {
 public:
  /// Compiles the query form of `exemplar` (its binding pattern; the actual
  /// constants are ignored) under `options.strategy`. All strategies are
  /// accepted. This is the one place that tells base from derived: a
  /// base-predicate query compiles to a *selection* plan (no rules, no
  /// JoinProgram; strategy and sip do not apply), whose Answer scans the
  /// relation through the same projector and collector as every form.
  /// With `options.static_safety_check`, a form the Section 10 analysis
  /// proves divergent fails here with an Unsafe status.
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
  /// layer can charge queue wait against it. All per-request state is
  /// scratch local to the call.
  QueryAnswer Answer(const std::vector<TermId>& bound_values,
                     const Database& db, const QueryLimits& limits,
                     const AnswerSink& sink = {},
                     std::optional<std::chrono::steady_clock::time_point>
                         admitted = std::nullopt) const;

  /// The adornment of the compiled form (e.g. "bf").
  const Adornment& adornment() const { return plan_->adornment; }

  /// The queried predicate.
  PredId pred() const { return plan_->exemplar.goal.pred; }

  /// The compiled strategy (for a selection, the one it was asked under,
  /// which does not apply).
  Strategy strategy() const { return plan_->strategy; }

  /// The name every answer of this form carries: StrategyName(strategy()),
  /// or kSelectionName for a selection.
  const std::string& strategy_name() const { return plan_->strategy_name; }

  /// strategy_name() of a selection form.
  static constexpr const char* kSelectionName = "selection";

  /// Number of bound positions, i.e. the arity of Answer's `bound_values`.
  size_t bound_arity() const { return plan_->bound_positions.size(); }

  /// The rewritten program evaluated for every instance (rewriting
  /// strategies only; empty for naive/semi-naive/top-down plans and
  /// selections).
  const RewrittenProgram& rewritten() const { return plan_->rewritten; }

  /// The evaluated program's rules, printed once at compile time; indexed
  /// like every answer's per-rule `profile`. Empty for a selection.
  const std::vector<std::string>& rule_labels() const {
    return plan_->rule_labels;
  }

  /// The form's Universe overlay (frozen base + form-local declarations).
  const Universe& universe() const { return *plan_->universe; }

 private:
  /// Everything Prepare() computes; never written afterwards.
  struct Plan {
    std::shared_ptr<Universe> universe;
    Strategy strategy = Strategy::kSupplementaryMagic;
    std::string strategy_name;
    /// Answer() instantiates the exemplar's bound positions per request.
    Query exemplar;
    Adornment adornment;
    /// Bound argument positions, ascending; Answer()'s `bound_values` pair
    /// up with these.
    std::vector<int> bound_positions;
    EvalOptions eval_options;
    /// The Section 10 verdict, when EngineOptions::static_safety_check.
    std::string safety_note;

    // Set by plan kind: rewriting plans set `rewritten` and `join_program`,
    // naive/semi-naive plans `join_program`, kTopDown plans `adorned`; a
    // selection (a base-predicate query) sets none and scans the query
    // predicate's relation.
    /// Rewriting strategies: P^mg/P^c/..., evaluated bottom-up from a
    /// per-instance seed.
    RewrittenProgram rewritten;
    /// kTopDown: the adorned program, evaluated QSQR-style.
    std::optional<AdornedProgram> adorned;
    std::vector<std::string> rule_labels;
    /// Bottom-up plans: the evaluated program (the rewritten one, or the
    /// original for naive/semi-naive) compiled once into slot-addressed
    /// join programs (eval/join_program.h).
    std::shared_ptr<const JoinProgram> join_program;
  };

  PreparedQueryForm() = default;

  std::shared_ptr<const Plan> plan_;
};

}  // namespace magic

#endif  // MAGIC_ENGINE_PREPARED_H_
