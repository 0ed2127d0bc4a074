#ifndef MAGIC_EVAL_JOIN_PROGRAM_H_
#define MAGIC_EVAL_JOIN_PROGRAM_H_

#include <span>
#include <unordered_map>
#include <vector>

#include "ast/program.h"
#include "eval/evaluator.h"
#include "storage/database.h"

namespace magic {

/// A Prepare-time compilation of a Program's rules into slot-addressed
/// join programs, so the fixpoint hot loop does none of the per-row work
/// the generic interpreter re-derives per candidate tuple:
///
///   - every rule's variables are numbered into dense slots, so bindings
///     live in a flat TermId frame (kInvalidTerm = unbound) instead of a
///     hash-map Substitution;
///   - every body-literal argument is classified ONCE into an ArgStep —
///     probe-key part (constant / statically-bound slot / ground-able
///     compound) or per-row action (bind slot / check repeated slot /
///     generic structural match) — instead of SubstituteGround+MatchTerm
///     per argument per row;
///   - predicates are compacted: IDB relations and semi-naive watermarks
///     become dense arrays indexed by `dense`, EDB relations resolve once
///     per run into a flat handle table, so the loop never touches an
///     unordered_map.
///
/// Classification is static because bottom-up join order is the written
/// body order and a matched literal grounds all of its variables: at
/// literal i, exactly the variables of literals 0..i-1 are bound. The
/// compiled programs preserve the interpreter's semantics exactly (same
/// probes, same delta windows, same stop conditions); the differential
/// property test holds the two paths equal on randomized programs.
///
/// A JoinProgram is immutable after Compile and borrows nothing from the
/// Program it was compiled from except term/predicate ids, which resolve
/// through the Universe passed to RunJoinProgram — it can therefore live
/// in a PreparedQueryForm's compiled state and serve concurrent
/// evaluations.

/// How one argument position participates in the join.
enum class ArgOp : uint8_t {
  kConst,      // ground term: contributes its id to the probe key
  kBoundSlot,  // variable statically bound by an earlier literal: key part
  kSubstKey,   // compound/affine over statically-bound variables: grounded
               // via SubstituteGroundSlots at literal entry, key part
  kBindSlot,   // first occurrence of a variable: bind slot from the column
  kCheckSlot,  // repeat of a variable first bound earlier in THIS literal
  kMatch,      // compound/affine with an unbound variable: generic
               // MatchTermSlots fallback (binds through the trail)
};

struct ArgStep {
  ArgOp op;
  uint8_t col = 0;             // argument/column position in the literal
  int slot = -1;               // kBoundSlot/kBindSlot/kCheckSlot
  TermId term = kInvalidTerm;  // kConst/kSubstKey/kMatch: the pattern
};

/// One body literal, compiled: a static probe mask, the steps that build
/// the probe key (in column order), and the steps applied per candidate
/// row for the unmasked columns (in column order).
struct LiteralStep {
  PredId pred = kInvalidPred;
  int dense = -1;  // dense IDB index, or -1 for EDB literals
  int edb = -1;    // dense EDB handle index, or -1 for IDB literals
  bool is_idb = false;
  uint64_t mask = 0;
  std::vector<ArgStep> key_steps;
  std::vector<ArgStep> post_steps;
};

struct RuleProgram {
  PredId head_pred = kInvalidPred;
  int head_dense = -1;
  /// Head tuple construction, one step per head argument (kConst,
  /// kBoundSlot, or kSubstKey for compound/affine heads).
  std::vector<ArgStep> head_steps;
  std::vector<LiteralStep> body;
  std::vector<int> idb_positions;  // body positions reading IDB relations
  int num_slots = 0;
  /// Variable -> slot, consulted only by the kMatch/kSubstKey fallbacks
  /// (the fast-path steps carry their slot numbers directly).
  std::unordered_map<SymbolId, int> slots;
};

struct JoinProgram {
  std::vector<RuleProgram> rules;
  /// Dense IDB index -> predicate (head predicates, then extra seed
  /// predicates); `dense` is the inverse.
  std::vector<PredId> idb_preds;
  std::unordered_map<PredId, int> dense;
  /// Dense EDB handle index -> predicate (resolved against the Database
  /// once per run).
  std::vector<PredId> edb_preds;
  /// Range-restriction verdict, computed once here so the runner's check
  /// is a Status read (first offending rule wins, like the interpreter).
  Status range_status;

  /// Compiles `program`. `extra_idb_preds` are predicates that will
  /// receive seed facts at run time without being head predicates (magic
  /// seeds of non-recursive queries): body literals reading them must be
  /// classified IDB, exactly as the interpreter classifies seed
  /// predicates.
  static JoinProgram Compile(const Program& program,
                             std::span<const PredId> extra_idb_preds = {});
};

/// The range-restriction check both evaluators share: every head variable
/// (including variables under affine terms) must occur in the body.
Status CheckRangeRestrictedRule(const Universe& u, const Rule& rule,
                                int rule_index);

/// Runs `jp` to fixpoint over `edb` + `seeds` with the interpreter's exact
/// semantics (delta windows, stop conditions, budgets, RuleProfile
/// counters). Steady-state joins are allocation-free: bindings live in a
/// flat frame, probe keys and candidate-row scratch are per-level buffers
/// reused across calls, and non-self literals iterate index buckets
/// through Relation::Cursor without materializing row vectors.
/// Provenance is not supported here (Evaluator::Run routes
/// track_provenance to the interpreter).
EvalResult RunJoinProgram(const JoinProgram& jp, const Universe& u,
                          const Database& edb,
                          const std::vector<Fact>& seeds,
                          const EvalOptions& options,
                          const EvalControl* control);

}  // namespace magic

#endif  // MAGIC_EVAL_JOIN_PROGRAM_H_
