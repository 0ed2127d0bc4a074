#ifndef MAGIC_ENGINE_COMPILED_PLAN_H_
#define MAGIC_ENGINE_COMPILED_PLAN_H_

#include <memory>
#include <optional>
#include <vector>

#include "engine/query_engine.h"
#include "eval/join_program.h"

namespace magic {

/// The immutable compile-time artifact of one query form under one
/// strategy — for *every* strategy, including the non-rewriting ones.
///
/// Drabent's correctness proof (arXiv:1012.2299) treats the transformed
/// program as a pure function of (program, query form); this struct is that
/// function's value. Compile() runs all universe-mutating work — top-down
/// adornment and the rewrites' symbol/predicate declarations — exactly once,
/// into a plan-local Universe overlay (`universe`): the base Universe is
/// frozen underneath it, adorned/magic predicates live only in the overlay,
/// and term ids stay comparable with the EDB because the overlay shares the
/// base's internally synchronized TermArena.
///
/// Everything here is immutable after Compile(), so Answer() is const,
/// side-effect-free on shared state, and concurrently callable for every
/// strategy — which is what lets a serving layer run naive/semi-naive/
/// top-down instances under the same shared lock as the rewriting ones.
struct CompiledPlan {
  /// The plan's Universe overlay (frozen base + plan-local extension
  /// tables). Every artifact below resolves its symbol/predicate ids
  /// through this universe.
  std::shared_ptr<Universe> universe;
  Strategy strategy = Strategy::kSupplementaryMagic;
  /// The exemplar whose binding pattern was compiled; Answer() instantiates
  /// its bound positions per request.
  Query exemplar;
  Adornment adornment;
  /// Bound argument positions, ascending; Answer()'s `bound_values` pair up
  /// with these.
  std::vector<int> bound_positions;
  EvalOptions eval_options;

  // Exactly one artifact is populated, by strategy family:
  /// Rewriting strategies: the rewritten program P^mg/P^c/... evaluated
  /// bottom-up from a per-instance seed.
  RewrittenProgram rewritten;
  /// kTopDown: the adorned program evaluated QSQR-style, seeded from the
  /// instance's bound arguments.
  std::optional<AdornedProgram> adorned;
  /// kNaiveBottomUp / kSemiNaiveBottomUp: the original program, rebound to
  /// the plan universe, evaluated to fixpoint and filtered per instance.
  std::optional<Program> original;
  /// The evaluated program's rules, printed once at compile time; indexed
  /// like the engines' per-rule profiles, so Answer() can attach labelled
  /// fixpoint profiles without re-rendering rules per request.
  std::vector<std::string> rule_labels;
  /// Bottom-up strategies (original and rewritten programs): the evaluated
  /// program's rules compiled once into slot-addressed join programs, so
  /// per-request evaluation skips both rule analysis and the interpretive
  /// per-row term walk (eval/join_program.h). Null for kTopDown and for
  /// provenance-tracking plans, which Answer() routes to the interpreter.
  std::shared_ptr<const JoinProgram> join_program;

  /// Compiles the query form of `exemplar` (its binding pattern; the
  /// constants are ignored) under `options.strategy`. Accepts every
  /// strategy; rejects base-predicate queries (they need no plan).
  static Result<std::shared_ptr<const CompiledPlan>> Compile(
      const Program& program, const Query& exemplar,
      const EngineOptions& options);

  /// Evaluates one instance of the form. `bound_values` are the constants
  /// for `bound_positions`, in order. All per-request state (the instance
  /// query, projector, collector, evaluation tables) is scratch local to
  /// this call; the plan itself is never written, so any number of Answer
  /// calls may run concurrently against one plan.
  QueryAnswer Answer(const std::vector<TermId>& bound_values,
                     const Database& db, const QueryLimits& limits,
                     const AnswerSink& sink = {},
                     std::optional<std::chrono::steady_clock::time_point>
                         admitted = std::nullopt) const;
};

}  // namespace magic

#endif  // MAGIC_ENGINE_COMPILED_PLAN_H_
