#ifndef MAGIC_EVAL_TOPDOWN_H_
#define MAGIC_EVAL_TOPDOWN_H_

#include <unordered_map>

#include "core/adorn.h"
#include "eval/evaluator.h"
#include "storage/database.h"

namespace magic {

/// Statistics of a top-down run, phrased in the vocabulary of Section 9:
/// `queries` generated (condition (2) of a sip strategy) and `answers`
/// computed (condition (1)).
struct TopDownStats {
  uint64_t passes = 0;
  uint64_t queries = 0;  // total distinct subqueries over all predicates
  uint64_t answers = 0;  // total distinct facts over all predicates
  double seconds = 0.0;
};

struct TopDownResult {
  Status status;
  /// Set when an EvalControl condition stopped the run early; the partial
  /// tables are a sound prefix of the fixpoint.
  StopReason stop_reason = StopReason::kNone;
  /// Per adorned predicate: the set of subqueries (tuples over the bound
  /// positions). Comparable one-to-one with the magic predicates of P^mg
  /// (Theorem 9.1).
  std::unordered_map<PredId, Relation> queries;
  /// Per adorned predicate: all facts derived while answering them.
  /// Comparable with the adorned relations computed by P^mg.
  std::unordered_map<PredId, Relation> answers;
  TopDownStats stats;
  /// Per-rule work profile, indexed like the adorned program's rule list
  /// (`evals` counts (rule, subquery) attempts whose head unified,
  /// `delta_rows` counts subqueries the rule generated).
  std::vector<RuleProfile> rule_profiles;
};

/// A memoizing top-down evaluator in the QSQR / extension-table style: the
/// canonical *sip strategy* of Section 9. Subqueries are (adorned predicate,
/// bound-argument tuple) pairs; rules are evaluated along their sips; answer
/// and query tables grow to a simultaneous fixpoint (repeated passes handle
/// recursion).
///
/// Used as the baseline for the sip-optimality experiments: Theorem 9.1 says
/// bottom-up GMS generates exactly the queries and facts this strategy must
/// generate.
class TopDownEngine {
 public:
  explicit TopDownEngine(EvalOptions options = {}) : options_(options) {}

  /// `control`, when non-null, supplies per-run stop conditions; its
  /// `sink_pred`/`on_fact` hook observes new facts of that adorned
  /// predicate's *answer* table.
  TopDownResult Run(const AdornedProgram& adorned, const Database& edb,
                    const EvalControl* control = nullptr) const;

  /// Per-instance entry: evaluates the (immutable, compiled-once) adorned
  /// program seeded from `instance` — a query of the exemplar's form with
  /// its own constants at the bound positions. `adorned` is read-only and
  /// the run touches no mutable Universe state (terms intern through the
  /// internally synchronized arena), so concurrent Runs over one shared
  /// AdornedProgram are safe.
  TopDownResult Run(const AdornedProgram& adorned, const Query& instance,
                    const Database& edb,
                    const EvalControl* control = nullptr) const;

 private:
  EvalOptions options_;
};

}  // namespace magic

#endif  // MAGIC_EVAL_TOPDOWN_H_
