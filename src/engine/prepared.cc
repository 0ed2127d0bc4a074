#include "engine/prepared.h"

#include <algorithm>

#include "ast/printer.h"

namespace magic {

Result<PreparedQueryForm> PreparedQueryForm::Prepare(
    const Program& program, const Query& exemplar,
    const EngineOptions& options) {
  if (Status st = CheckQueryArgs(*program.universe(), exemplar); !st.ok()) {
    return st;
  }

  auto plan = std::make_shared<Plan>();
  // All compilation output (adorned/magic/supplementary predicate
  // declarations, mangled symbol names, fresh variables) lands in this
  // overlay; the base universe underneath is frozen and shared.
  plan->universe =
      std::make_shared<Universe>(std::shared_ptr<const Universe>(
          program.universe()));
  plan->strategy = options.strategy;
  plan->strategy_name = StrategyName(options.strategy);
  plan->exemplar = exemplar;
  plan->eval_options = options.eval;
  const Universe& u = *plan->universe;

  // The input rules re-bound to the plan universe: every id they carry is a
  // base id, which the overlay resolves identically.
  Program plan_program(plan->universe);
  plan_program.rules() = program.rules();
  // The program Answer() evaluates bottom-up; null for selections (a
  // base-predicate query evaluates nothing) and for kTopDown.
  const Program* evaluated = nullptr;

  if (!program.IsHeadPredicate(exemplar.goal.pred)) {
    plan->strategy_name = kSelectionName;
    plan->adornment = QueryAdornment(u, exemplar);
  } else if (options.strategy == Strategy::kNaiveBottomUp ||
             options.strategy == Strategy::kSemiNaiveBottomUp) {
    plan->adornment = QueryAdornment(u, exemplar);
    plan->eval_options.seminaive =
        options.strategy == Strategy::kSemiNaiveBottomUp;
    evaluated = &plan_program;
  } else {
    std::unique_ptr<SipStrategy> sip = MakeSipStrategy(options.sip);
    if (sip == nullptr) {
      return Status::InvalidArgument("unknown sip strategy: " + options.sip);
    }
    Result<AdornedProgram> adorned = Adorn(plan_program, exemplar, *sip);
    if (!adorned.ok()) return adorned.status();
    if (options.static_safety_check) {
      const bool counting =
          options.strategy == Strategy::kCounting ||
          options.strategy == Strategy::kSupplementaryCounting ||
          options.strategy == Strategy::kCountingSemijoin ||
          options.strategy == Strategy::kSupCountingSemijoin;
      SafetyReport report = counting ? CheckCountingSafety(*adorned)
                                     : CheckMagicSafety(*adorned);
      plan->safety_note =
          SafetyVerdictName(report.verdict) + ": " + report.explanation;
      if (report.verdict == SafetyVerdict::kUnsafeCountingCycle) {
        return Status::Unsafe(plan->safety_note);
      }
    }
    plan->adornment = adorned->query_adornment;
    if (options.strategy == Strategy::kTopDown) {
      plan->adorned = std::move(*adorned);
    } else {
      Result<RewrittenProgram> rewritten = QueryEngine::Rewrite(
          *adorned, options.strategy, options.guard_mode);
      if (!rewritten.ok()) return rewritten.status();
      plan->rewritten = std::move(*rewritten);
      evaluated = &plan->rewritten.program;
    }
  }

  for (size_t i = 0; i < exemplar.goal.args.size(); ++i) {
    if (plan->adornment.bound(i)) {
      plan->bound_positions.push_back(static_cast<int>(i));
    }
  }

  // Print the evaluated program's rules once, at compile time, so the
  // per-request profile path never touches the printer.
  const Program* labelled =
      plan->adorned.has_value() ? &plan->adorned->program : evaluated;
  if (labelled != nullptr) {
    plan->rule_labels.reserve(labelled->rules().size());
    for (const Rule& rule : labelled->rules()) {
      plan->rule_labels.push_back(RuleToString(u, rule));
    }
  }

  // Bottom-up strategies: compile the evaluated program's join programs
  // once, here, so Answer() never re-analyzes rules. Seed predicates are
  // known at compile time (the rewrite's seed template), which is what
  // lets literal IDB/EDB classification be static.
  if (evaluated != nullptr) {
    std::vector<PredId> seed_preds;
    if (plan->rewritten.seed.has_value()) {
      seed_preds.push_back(plan->rewritten.seed->pred);
    }
    plan->join_program = std::make_shared<const JoinProgram>(
        JoinProgram::Compile(*evaluated, seed_preds));
  }
  PreparedQueryForm form;
  form.plan_ = std::move(plan);
  return form;
}

QueryAnswer PreparedQueryForm::Answer(const std::vector<TermId>& bound_values,
                                      const Database& db) const {
  return Answer(bound_values, db, QueryLimits{});
}

QueryAnswer PreparedQueryForm::Answer(
    const std::vector<TermId>& bound_values, const Database& db,
    const QueryLimits& limits, const AnswerSink& sink,
    std::optional<std::chrono::steady_clock::time_point> admitted) const {
  const Plan& p = *plan_;
  QueryAnswer answer;
  answer.strategy_name = p.strategy_name;
  answer.safety_note = p.safety_note;
  if (bound_values.size() != p.bound_positions.size()) {
    answer.status = Status::InvalidArgument(
        "query form " + p.adornment.ToString() + " takes " +
        std::to_string(p.bound_positions.size()) + " bound value(s), got " +
        std::to_string(bound_values.size()));
    answer.outcome = AnswerStatus::kError;
    return answer;
  }
  const Universe& u = *p.universe;
  // Per-request scratch: the instance query and everything derived from it.
  Query instance = p.exemplar;
  for (size_t i = 0; i < bound_values.size(); ++i) {
    if (!u.terms().IsGround(bound_values[i])) {
      answer.status =
          Status::InvalidArgument("bound values must be ground terms");
      answer.outcome = AnswerStatus::kError;
      return answer;
    }
    instance.goal.args[static_cast<size_t>(p.bound_positions[i])] =
        bound_values[i];
  }

  EvalOptions instance_options = p.eval_options;
  if (limits.max_facts.has_value()) {
    instance_options.max_facts = *limits.max_facts;
  }
  // `hooked` = the evaluation streams answers through the collector hook
  // (limits that stop early, or a sink). `controlled` additionally covers
  // trace-only requests: they need the EvalControl carrier for the
  // fixpoint span, but keep the hook-free extraction path — tracing must
  // not change how answers are produced.
  const bool hooked = limits.row_limit != 0 || limits.deadline.has_value() ||
                      limits.cancel != nullptr || static_cast<bool>(sink);
  const bool controlled = hooked || limits.trace != nullptr;
  AnswerCollector collector(limits.row_limit, sink ? &sink : nullptr);
  EvalControl control;
  if (limits.deadline.has_value()) {
    control.deadline =
        admitted.value_or(std::chrono::steady_clock::now()) + *limits.deadline;
  }
  if (limits.cancel != nullptr) control.cancel = limits.cancel.get();
  control.trace = limits.trace;

  // Answer rows are filtered and projected by one projector: as they are
  // derived when hooked (so the fixpoint stops the moment the caller has
  // enough), otherwise once over the answer relation after the fixpoint.
  const bool selection = p.join_program == nullptr && !p.adorned.has_value();
  const bool rewriting = !selection && IsRewritingStrategy(p.strategy);
  const PredId answer_pred = rewriting ? p.rewritten.answer_pred
                             : p.adorned.has_value() ? p.adorned->query_pred
                                                     : instance.goal.pred;
  const AnswerProjector projector =
      rewriting ? AnswerProjector::ForRewritten(u, p.rewritten, instance)
                : AnswerProjector::ForDirect(u, instance);
  if (hooked) {
    control.sink_pred = answer_pred;
    control.on_fact = MakeAnswerHook(projector, collector);
  }
  const EvalControl* ctl = controlled ? &control : nullptr;
  auto finish = [&](const Relation* answers, StopReason stop,
                    const std::vector<RuleProfile>& rules) {
    if (hooked) {
      if (!sink) answer.tuples = collector.TakeSorted();
    } else if (answers != nullptr) {
      answer.tuples = projector.ProjectAll(*answers);
    }
    answer.outcome = ClassifyOutcome(stop, answer.status);
    const size_t n = std::min(p.rule_labels.size(), rules.size());
    answer.profile.reserve(n);
    for (size_t i = 0; i < n; ++i) {
      answer.profile.push_back(RuleProfileEntry{p.rule_labels[i], rules[i]});
    }
  };
  auto find = [&](const std::unordered_map<PredId, Relation>& tables) {
    auto it = tables.find(answer_pred);
    return it == tables.end() ? nullptr : &it->second;
  };

  if (selection) {
    // The query predicate's stored rows are the answers: when hooked they
    // stream through the collector (polling the control every 4096 rows,
    // so a deadline or cancel stops the scan), otherwise ProjectAll
    // extracts them in one pass.
    const Relation* rel = db.Find(answer_pred);
    const uint64_t scan_start =
        limits.trace != nullptr ? obs::Trace::NowNs() : 0;
    StopReason stop = PollEvalControl(ctl);
    for (size_t row = 0; hooked && stop == StopReason::kNone &&
                         rel != nullptr && row < rel->size();
         ++row) {
      if ((row & 0xFFF) == 0xFFF) stop = PollEvalControl(ctl);
      if (stop == StopReason::kNone && !control.on_fact(rel->Row(row))) {
        stop = StopReason::kSink;
      }
    }
    if (stop == StopReason::kDeadline) {
      answer.status = Status::DeadlineExceeded("selection deadline exceeded");
    } else if (stop == StopReason::kCancelled) {
      answer.status = Status::Cancelled("selection cancelled");
    }
    finish(rel, stop, {});
    if (limits.trace != nullptr) {
      limits.trace->Record(obs::Stage::kFixpoint, scan_start,
                           obs::Trace::NowNs());
    }
    return answer;
  }
  if (p.adorned.has_value()) {
    TopDownEngine engine(instance_options);
    TopDownResult result = engine.Run(*p.adorned, instance, db, ctl);
    answer.status = result.status;
    answer.topdown_stats = result.stats;
    answer.total_facts = result.stats.answers;
    finish(find(result.answers), result.stop_reason, result.rule_profiles);
    return answer;
  }
  std::vector<Fact> seeds;
  if (rewriting) seeds = MakeSeeds(p.rewritten, instance, u);
  EvalResult result = Evaluator(instance_options)
                          .Run(*p.join_program, u, db, seeds, ctl);
  answer.status = result.status;
  answer.eval_stats = result.stats;
  answer.total_facts = result.TotalFacts();
  finish(find(result.idb), result.stop_reason, result.rule_profiles);
  return answer;
}

}  // namespace magic
