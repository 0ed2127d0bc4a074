#ifndef MAGIC_EVAL_EVALUATOR_H_
#define MAGIC_EVAL_EVALUATOR_H_

#include <atomic>
#include <chrono>
#include <functional>
#include <optional>
#include <span>
#include <unordered_map>
#include <vector>

#include "ast/program.h"
#include "eval/provenance.h"
#include "obs/trace.h"
#include "storage/database.h"
#include "util/status.h"

namespace magic {

/// Options for bottom-up fixpoint evaluation.
struct EvalOptions {
  /// Semi-naive (delta-driven) vs naive (recompute everything each round).
  bool seminaive = true;
  /// Budgets that make divergent programs (counting over cyclic data, naive
  /// evaluation of non-range-restricted rules) observable instead of fatal.
  uint64_t max_facts = 10'000'000;
  uint64_t max_iterations = 1'000'000;
  /// Record one derivation (rule + body facts) per derived fact, enabling
  /// ExplainFact to print the paper's derivation trees. Costs memory.
  bool track_provenance = false;
};

/// Why an evaluation stopped before reaching its natural fixpoint.
enum class StopReason {
  kNone,       // ran to fixpoint (or a budget; see the result's status)
  kSink,       // EvalControl::on_fact returned false (caller got enough)
  kDeadline,   // EvalControl::deadline passed
  kCancelled,  // EvalControl::cancel was set
};

/// Per-run stop conditions and the answer-sink hook. All members are
/// optional; a default-constructed EvalControl never stops anything. The
/// struct is borrowed for the duration of Run and must outlive it.
///
/// This is what makes resource-bounded serving sound: bottom-up evaluation
/// only ever derives facts that are true in the fixpoint, so stopping at an
/// arbitrary point yields a correct *prefix* of the answers (per-seed
/// independence of magic instances; Drabent, arXiv:1012.2299).
struct EvalControl {
  /// Predicate whose newly inserted facts are streamed to `on_fact`
  /// (typically the rewritten program's answer predicate).
  PredId sink_pred = kInvalidPred;
  /// Called once per new (deduplicated) fact of `sink_pred`, with the full
  /// tuple, in derivation order. Return false to stop evaluation (the
  /// result's stop_reason becomes kSink).
  std::function<bool(std::span<const TermId>)> on_fact;
  /// Absolute wall-clock deadline; polled once per fixpoint round and every
  /// few thousand join probes.
  std::optional<std::chrono::steady_clock::time_point> deadline;
  /// Cooperative cancellation flag, polled alongside the deadline. Owned by
  /// the caller; may be set from any thread.
  const std::atomic<bool>* cancel = nullptr;
  /// Observability hook: when non-null, the engine records its fixpoint
  /// span (Stage::kFixpoint) here. Borrowed; single-request ownership —
  /// see obs/trace.h for the (lack of a) synchronization contract.
  obs::Trace* trace = nullptr;
};

/// Polls `control`'s cancellation flag and deadline (in that order, so a
/// cancelled request reports kCancelled even when its deadline has also
/// passed). Returns kNone when evaluation may continue. Shared by the
/// bottom-up and top-down engines.
StopReason PollEvalControl(const EvalControl* control);

/// Work counters for one evaluation. `join_probes` counts candidate-tuple
/// match attempts and is the paper's proxy for "duplicated work" when
/// comparing GMS against GSMS (Section 5).
struct EvalStats {
  uint64_t iterations = 0;
  uint64_t rule_firings = 0;     // full body matches (incl. duplicates)
  uint64_t new_facts = 0;
  uint64_t duplicate_facts = 0;
  uint64_t join_probes = 0;
  double seconds = 0.0;
};

/// Per-rule slice of the fixpoint's work, indexed by the rule's position
/// in the evaluated program. The same shape serves both engines: for
/// bottom-up, `evals` counts (rule, delta-position) evaluations and
/// `delta_rows` sums the delta-window sizes those evaluations consumed;
/// for top-down, `evals` counts rule attempts against pending subqueries
/// and `delta_rows` counts the subqueries the rule generated. This is the
/// per-rule evidence the magic-sets literature keeps asking for: which
/// rewritten rules pay for themselves on a given workload.
struct RuleProfile {
  uint64_t evals = 0;
  uint64_t firings = 0;
  uint64_t new_facts = 0;
  uint64_t duplicate_facts = 0;
  uint64_t join_probes = 0;
  uint64_t delta_rows = 0;
};

/// Result of a bottom-up evaluation: the derived relations (IDB) and stats.
/// `status` is ResourceExhausted when a budget was hit; the partial IDB is
/// still returned so benches can report divergence behaviour.
struct EvalResult {
  Status status;
  std::unordered_map<PredId, Relation> idb;
  EvalStats stats;
  /// Set when an EvalControl condition stopped the run early; the partial
  /// IDB is a sound prefix of the fixpoint.
  StopReason stop_reason = StopReason::kNone;
  /// Populated when EvalOptions::track_provenance is set.
  ProvenanceMap provenance;
  /// Per-rule work profile, indexed like the program's rule list. Always
  /// populated: the increments ride counters the fixpoint already
  /// maintains, so the marginal cost is an index into a small vector.
  std::vector<RuleProfile> rule_profiles;

  size_t FactCount(PredId pred) const {
    auto it = idb.find(pred);
    return it == idb.end() ? 0 : it->second.size();
  }
  size_t TotalFacts() const {
    size_t total = 0;
    for (const auto& [pred, rel] : idb) total += rel.size();
    return total;
  }
};

struct JoinProgram;

/// Bottom-up evaluation (paper, Section 1.1): start from the database and
/// empty derived predicates, repeatedly apply all rules until fixpoint.
///
/// Derived predicates are the program's head predicates plus the predicates
/// of `seeds` (the magic/counting seed facts produced from the query).
/// Everything else reads from `edb`.
///
/// Two implementations share the exact same semantics (delta windows, stop
/// conditions, budgets, profiles): the compiled path (eval/join_program.h)
/// runs rules as slot-addressed JoinPrograms with allocation-free joins,
/// and the generic interpreter remains as the reference implementation and
/// the provenance path. Run() picks the compiled path unless the run needs
/// provenance; callers holding a pre-compiled JoinProgram (a
/// PreparedQueryForm) use the JoinProgram overload and skip per-run
/// compilation entirely.
class Evaluator {
 public:
  explicit Evaluator(EvalOptions options = {}) : options_(options) {}

  /// `control`, when non-null, supplies per-run stop conditions (answer
  /// sink, deadline, cancellation) checked during the fixpoint. Compiles
  /// the program's JoinProgram on the fly (routing to RunInterpreted when
  /// options track provenance).
  EvalResult Run(const Program& program, const Database& edb,
                 const std::vector<Fact>& seeds = {},
                 const EvalControl* control = nullptr) const;

  /// Runs a pre-compiled JoinProgram (see PreparedQueryForm, which
  /// compiles one per bottom-up form at Prepare time). `u` must be the
  /// universe the program was compiled against.
  EvalResult Run(const JoinProgram& join_program, const Universe& u,
                 const Database& edb, const std::vector<Fact>& seeds = {},
                 const EvalControl* control = nullptr) const;

  /// The generic interpreter: the differential-test reference and the only
  /// path that records provenance (track_provenance).
  EvalResult RunInterpreted(const Program& program, const Database& edb,
                            const std::vector<Fact>& seeds = {},
                            const EvalControl* control = nullptr) const;

 private:
  EvalOptions options_;
};

}  // namespace magic

#endif  // MAGIC_EVAL_EVALUATOR_H_
