#ifndef MAGIC_ENGINE_QUERY_ENGINE_H_
#define MAGIC_ENGINE_QUERY_ENGINE_H_

#include <atomic>
#include <chrono>
#include <functional>
#include <memory>
#include <optional>
#include <set>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "analysis/safety.h"
#include "core/counting.h"
#include "core/magic_sets.h"
#include "core/semijoin.h"
#include "core/sup_counting.h"
#include "core/supplementary.h"
#include "eval/evaluator.h"
#include "eval/topdown.h"
#include "util/status.h"

namespace magic {

/// Every query evaluation strategy the library implements. The rewriting
/// strategies are the paper's contribution; the others are the substrate
/// baselines it argues against/with.
enum class Strategy {
  kNaiveBottomUp,          // Section 1's strawman
  kSemiNaiveBottomUp,      // delta-driven bottom-up on the original program
  kMagic,                  // Section 4 (GMS)
  kSupplementaryMagic,     // Section 5 (GSMS)
  kCounting,               // Section 6 (GC)
  kSupplementaryCounting,  // Section 7 (GSC)
  kCountingSemijoin,       // GC + Section 8 optimizations
  kSupCountingSemijoin,    // GSC + Section 8 optimizations
  kTopDown,                // QSQR-style sip strategy (Section 9's baseline)
};

std::string StrategyName(Strategy strategy);

/// Inverse of StrategyName; both read one shared name table, so the CLI and
/// the library cannot drift apart. Returns nullopt for unknown names.
std::optional<Strategy> StrategyFromName(const std::string& name);

/// The canonical (strategy, name) table, for CLI help text and iteration.
std::span<const std::pair<Strategy, const char*>> StrategyNames();

/// True for the strategies that compile a query form (adorn + rewrite);
/// naive/semi-naive/top-down evaluate the original program instead.
bool IsRewritingStrategy(Strategy strategy);

struct EngineOptions {
  Strategy strategy = Strategy::kSupplementaryMagic;
  /// Sip strategy name, resolved by MakeSipStrategy: "full", "chain",
  /// "head-only", "empty", "greedy".
  std::string sip = "full";
  GuardMode guard_mode = GuardMode::kProp42;
  EvalOptions eval;
  /// Run the Section 10 static checks when a form compiles, and refuse
  /// forms the analysis proves divergent (counting with a cyclic argument
  /// graph) with an Unsafe status.
  bool static_safety_check = false;
  /// Attach the rewritten program's text to the answer (for explain output).
  bool explain = false;
};

/// Per-request resource bounds. A default-constructed QueryLimits means
/// "run to fixpoint", which is what the legacy Answer/Run entry points do.
struct QueryLimits {
  /// Stop after this many distinct answer tuples (0 = unlimited). Hitting
  /// the limit is not an error: the answer's status stays OK and its
  /// outcome becomes kTruncated.
  uint64_t row_limit = 0;
  /// Wall-clock evaluation budget, anchored when the request is admitted
  /// (so queue wait counts against it in QueryService).
  std::optional<std::chrono::milliseconds> deadline;
  /// Per-request override of EvalOptions::max_facts.
  std::optional<uint64_t> max_facts;
  /// Cooperative cancellation: set to true (from any thread) to abort the
  /// evaluation; the answer's outcome becomes kCancelled.
  std::shared_ptr<std::atomic<bool>> cancel;
  /// Internal observability hook (set by QueryService, not by clients):
  /// when non-null the evaluation records its fixpoint span here. Borrowed
  /// for the duration of the run; single-request ownership.
  obs::Trace* trace = nullptr;
};

// AnswerStatus (how one request ended, beyond its Status) lives in
// util/status.h now: it is one axis of the unified
// outcome <-> wire-code <-> exit-code table every serving surface shares.

/// Streaming hook: called once per distinct answer tuple (projected onto
/// the query's free positions), in derivation order, from the evaluating
/// thread. Return false to stop evaluation early (outcome kTruncated).
/// When a request supplies a sink, the answer's `tuples` are left empty —
/// the tuples went to the sink; materializing a second sorted copy would
/// defeat the point of streaming.
using AnswerSink = std::function<bool(const std::vector<TermId>&)>;

/// One rule's slice of a fixpoint profile, with the rule rendered in the
/// program the engine actually evaluated (the rewritten/adorned program
/// for those strategies — the per-rule evidence of what the rewrite paid).
struct RuleProfileEntry {
  std::string rule;
  RuleProfile counts;
};

/// The result of answering one query.
struct QueryAnswer {
  Status status;
  /// How the request ended; refines `status` with the limit outcomes.
  AnswerStatus outcome = AnswerStatus::kOk;
  /// True when the answer was served from the cross-query AnswerCache
  /// without any evaluation; `eval_stats`/`total_facts` are zero then (no
  /// fixpoint ran), which keeps "work done" metrics honest.
  bool from_cache = false;
  /// Answer tuples over the query's free positions, sorted and deduplicated.
  std::vector<std::vector<TermId>> tuples;
  /// Bottom-up statistics (empty for the top-down strategy).
  EvalStats eval_stats;
  /// Top-down statistics (kTopDown only).
  TopDownStats topdown_stats;
  /// Total facts in the evaluated program's IDB (relevant-fact metric).
  size_t total_facts = 0;
  /// Per-rule fixpoint profile of the evaluated program (empty for
  /// base-predicate selections and cache hits).
  std::vector<RuleProfileEntry> profile;
  /// The rewritten program, printed, when EngineOptions::explain is set.
  std::string rewritten_text;
  std::string safety_note;
  std::string strategy_name;

  bool truncated() const { return outcome == AnswerStatus::kTruncated; }
};

/// One-shot facade: every query compiles its own form
/// (PreparedQueryForm::Prepare, which makes a base-predicate query a
/// selection) and answers its bound values through it, with the evaluated
/// program's text attached when EngineOptions::explain is set.
class QueryEngine {
 public:
  explicit QueryEngine(EngineOptions options = {}) : options_(options) {}

  QueryAnswer Run(const Program& program, const Query& query,
                  const Database& db) const;

  /// Resource-bounded run: enforces `limits` during evaluation (all
  /// strategies, including naive/semi-naive/top-down) and streams each
  /// distinct answer to `sink` as it is derived. `admitted` anchors the
  /// deadline (defaults to entry time).
  QueryAnswer Run(const Program& program, const Query& query,
                  const Database& db, const QueryLimits& limits,
                  const AnswerSink& sink = {},
                  std::optional<std::chrono::steady_clock::time_point>
                      admitted = std::nullopt) const;

  /// Rewrites an adorned program under any of the rewriting strategies
  /// (exposed for tests and benchmarks that inspect the programs).
  static Result<RewrittenProgram> Rewrite(const AdornedProgram& adorned,
                                          Strategy strategy,
                                          GuardMode guard_mode);

 private:
  EngineOptions options_;
};

/// The row filter + projection behind every answer extraction, reusable one
/// row at a time so answer sinks can stream during evaluation instead of
/// scanning after it: decides whether one stored tuple belongs to `query`'s
/// instance and projects it onto the query's free positions.
class AnswerProjector {
 public:
  /// Rows of `rewritten.answer_pred` (index fields must be zero, surviving
  /// bound columns must match the instance constants, and columns of a
  /// repeated free variable must agree).
  static AnswerProjector ForRewritten(const Universe& u,
                                      const RewrittenProgram& rewritten,
                                      const Query& query);
  /// Rows of the query predicate itself (direct evaluation / top-down
  /// answer tables): bound positions must match the instance constants,
  /// and positions of a repeated free variable must agree.
  static AnswerProjector ForDirect(const Universe& u, const Query& query);

  /// Returns true and fills `*out` (cleared first) when `tuple` is an
  /// answer row of this instance.
  bool Project(std::span<const TermId> tuple,
               std::vector<TermId>* out) const;

  /// The projections of `rel`'s answer rows, sorted and deduplicated.
  std::vector<std::vector<TermId>> ProjectAll(const Relation& rel) const;

  /// Length of every projected tuple (the query's free positions).
  size_t arity() const { return free_columns_.size(); }

 private:
  AnswerProjector() = default;

  /// Leading columns that must equal a specific term (a counting rewrite's
  /// index fields, pinned to the seed's level 0).
  std::vector<std::pair<int, TermId>> required_;
  /// (column, constant) checks for the instance's bound arguments.
  std::vector<std::pair<int, TermId>> bound_checks_;
  /// (column, column) pairs that must hold the same term: each later
  /// occurrence of a repeated free variable against its first occurrence,
  /// so anc(X,X) keeps only the diagonal.
  std::vector<std::pair<int, int>> equal_columns_;
  /// Columns of the stored tuple holding the query's free positions.
  std::vector<int> free_columns_;
};

/// Accumulates distinct projected answers during one evaluation: dedups,
/// enforces QueryLimits::row_limit, and forwards each new tuple to an
/// optional user sink. Accept() is the EvalControl::on_fact payload.
class AnswerCollector {
 public:
  AnswerCollector(uint64_t row_limit, const AnswerSink* sink)
      : row_limit_(row_limit), sink_(sink) {}

  /// Returns false when evaluation should stop (row limit reached, or the
  /// user sink asked to stop).
  bool Accept(std::vector<TermId> tuple);

  bool truncated() const { return truncated_; }
  size_t size() const { return seen_.size(); }

  /// The collected answers; std::set iteration order is already the sorted
  /// order AnswerProjector::ProjectAll produces.
  std::vector<std::vector<TermId>> TakeSorted();

 private:
  uint64_t row_limit_;
  const AnswerSink* sink_;
  std::set<std::vector<TermId>> seen_;
  bool truncated_ = false;
};

/// Builds the EvalControl::on_fact hook that filters rows through
/// `projector` and accumulates the projections in `collector`. Both are
/// captured by reference and must outlive the evaluation.
std::function<bool(std::span<const TermId>)> MakeAnswerHook(
    const AnswerProjector& projector, AnswerCollector& collector);

/// Maps an evaluation's stop reason (plus whether the collector hit its row
/// limit) onto the answer-level outcome classification.
AnswerStatus ClassifyOutcome(StopReason stop, const Status& status);

}  // namespace magic

#endif  // MAGIC_ENGINE_QUERY_ENGINE_H_
