#include "engine/compiled_plan.h"

#include <algorithm>

#include "ast/printer.h"
#include "util/check.h"

namespace magic {

namespace {

/// Pairs the compile-time rule labels with one run's per-rule counters.
void FillPlanProfile(const std::vector<std::string>& labels,
                     const std::vector<RuleProfile>& profiles,
                     QueryAnswer* answer) {
  const size_t n = std::min(labels.size(), profiles.size());
  answer->profile.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    answer->profile.push_back(RuleProfileEntry{labels[i], profiles[i]});
  }
}

}  // namespace

Result<std::shared_ptr<const CompiledPlan>> CompiledPlan::Compile(
    const Program& program, const Query& exemplar,
    const EngineOptions& options) {
  if (exemplar.goal.pred == kInvalidPred) {
    return Status::InvalidArgument("query has no predicate");
  }
  if (!program.IsHeadPredicate(exemplar.goal.pred)) {
    return Status::InvalidArgument(
        "query predicate is not derived by the program; base-predicate "
        "queries are answered directly from the database");
  }

  auto plan = std::make_shared<CompiledPlan>();
  // All compilation output (adorned/magic/supplementary predicate
  // declarations, mangled symbol names, fresh variables) lands in this
  // overlay; the base universe underneath is frozen and shared.
  plan->universe =
      std::make_shared<Universe>(std::shared_ptr<const Universe>(
          program.universe()));
  plan->strategy = options.strategy;
  plan->exemplar = exemplar;
  plan->eval_options = options.eval;

  // The input rules re-bound to the plan universe: every id they carry is a
  // base id, which the overlay resolves identically.
  Program plan_program(plan->universe);
  plan_program.rules() = program.rules();

  const Universe& u = *plan->universe;
  switch (options.strategy) {
    case Strategy::kNaiveBottomUp:
    case Strategy::kSemiNaiveBottomUp: {
      plan->adornment = QueryAdornment(u, exemplar);
      plan->eval_options.seminaive =
          options.strategy == Strategy::kSemiNaiveBottomUp;
      plan->original = std::move(plan_program);
      break;
    }
    case Strategy::kTopDown: {
      std::unique_ptr<SipStrategy> sip = MakeSipStrategy(options.sip);
      if (sip == nullptr) {
        return Status::InvalidArgument("unknown sip strategy: " + options.sip);
      }
      Result<AdornedProgram> adorned = Adorn(plan_program, exemplar, *sip);
      if (!adorned.ok()) return adorned.status();
      plan->adornment = adorned->query_adornment;
      plan->adorned = std::move(*adorned);
      break;
    }
    default: {
      std::unique_ptr<SipStrategy> sip = MakeSipStrategy(options.sip);
      if (sip == nullptr) {
        return Status::InvalidArgument("unknown sip strategy: " + options.sip);
      }
      Result<AdornedProgram> adorned = Adorn(plan_program, exemplar, *sip);
      if (!adorned.ok()) return adorned.status();
      Result<RewrittenProgram> rewritten = QueryEngine::Rewrite(
          *adorned, options.strategy, options.guard_mode);
      if (!rewritten.ok()) return rewritten.status();
      plan->adornment = adorned->query_adornment;
      plan->rewritten = std::move(*rewritten);
      break;
    }
  }

  for (size_t i = 0; i < exemplar.goal.args.size(); ++i) {
    if (plan->adornment.bound(i)) {
      plan->bound_positions.push_back(static_cast<int>(i));
    }
  }

  // Print the evaluated program's rules once, at compile time, so the
  // per-request profile path never touches the printer.
  const Program& evaluated = plan->original.has_value() ? *plan->original
                             : plan->adorned.has_value()
                                 ? plan->adorned->program
                                 : plan->rewritten.program;
  plan->rule_labels.reserve(evaluated.rules().size());
  for (const Rule& rule : evaluated.rules()) {
    plan->rule_labels.push_back(RuleToString(u, rule));
  }

  // Bottom-up strategies: compile the evaluated program's join programs
  // once, here, so Answer() never re-analyzes rules. Seed predicates are
  // known at compile time (the rewrite's seed template), which is what
  // lets literal IDB/EDB classification be static. Provenance-tracking
  // plans keep the interpreter (it owns the match-trace machinery).
  if (!plan->eval_options.track_provenance &&
      options.strategy != Strategy::kTopDown) {
    std::vector<PredId> seed_preds;
    if (!plan->original.has_value() && plan->rewritten.seed.has_value()) {
      seed_preds.push_back(plan->rewritten.seed->pred);
    }
    const Program& bottom_up =
        plan->original.has_value() ? *plan->original : plan->rewritten.program;
    plan->join_program = std::make_shared<const JoinProgram>(
        JoinProgram::Compile(bottom_up, seed_preds));
  }
  return std::shared_ptr<const CompiledPlan>(std::move(plan));
}

QueryAnswer CompiledPlan::Answer(
    const std::vector<TermId>& bound_values, const Database& db,
    const QueryLimits& limits, const AnswerSink& sink,
    std::optional<std::chrono::steady_clock::time_point> admitted) const {
  QueryAnswer answer;
  answer.strategy_name = IsRewritingStrategy(strategy)
                             ? rewritten.strategy_name
                             : StrategyName(strategy);
  if (bound_values.size() != bound_positions.size()) {
    answer.status = Status::InvalidArgument(
        "query form " + adornment.ToString() + " takes " +
        std::to_string(bound_positions.size()) + " bound value(s), got " +
        std::to_string(bound_values.size()));
    answer.outcome = AnswerStatus::kError;
    return answer;
  }
  const Universe& u = *universe;
  // Per-request scratch: the instance query and everything derived from it.
  Query instance = exemplar;
  for (size_t i = 0; i < bound_values.size(); ++i) {
    if (!u.terms().IsGround(bound_values[i])) {
      answer.status =
          Status::InvalidArgument("bound values must be ground terms");
      answer.outcome = AnswerStatus::kError;
      return answer;
    }
    instance.goal.args[static_cast<size_t>(bound_positions[i])] =
        bound_values[i];
  }

  EvalOptions instance_options = eval_options;
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

  switch (strategy) {
    case Strategy::kNaiveBottomUp:
    case Strategy::kSemiNaiveBottomUp: {
      AnswerProjector projector = AnswerProjector::ForDirect(u, instance);
      if (hooked) {
        control.sink_pred = instance.goal.pred;
        control.on_fact = MakeAnswerHook(projector, collector);
      }
      Evaluator evaluator(instance_options);
      EvalResult result =
          join_program != nullptr
              ? evaluator.Run(*join_program, u, db, {},
                              controlled ? &control : nullptr)
              : evaluator.Run(*original, db, {},
                              controlled ? &control : nullptr);
      answer.status = result.status;
      answer.eval_stats = result.stats;
      answer.total_facts = result.TotalFacts();
      if (hooked) {
        if (!sink) answer.tuples = collector.TakeSorted();
      } else {
        auto it = result.idb.find(instance.goal.pred);
        answer.tuples = ExtractDirectAnswers(
            u, instance, it == result.idb.end() ? nullptr : &it->second);
      }
      answer.outcome = ClassifyOutcome(result.stop_reason, answer.status);
      FillPlanProfile(rule_labels, result.rule_profiles, &answer);
      return answer;
    }
    case Strategy::kTopDown: {
      AnswerProjector projector = AnswerProjector::ForDirect(u, instance);
      if (hooked) {
        control.sink_pred = adorned->query_pred;
        control.on_fact = MakeAnswerHook(projector, collector);
      }
      TopDownEngine engine(instance_options);
      TopDownResult result =
          engine.Run(*adorned, instance, db, controlled ? &control : nullptr);
      answer.status = result.status;
      answer.topdown_stats = result.stats;
      answer.total_facts = result.stats.answers;
      if (hooked) {
        if (!sink) answer.tuples = collector.TakeSorted();
      } else {
        auto it = result.answers.find(adorned->query_pred);
        answer.tuples = ExtractDirectAnswers(
            u, instance, it == result.answers.end() ? nullptr : &it->second);
      }
      answer.outcome = ClassifyOutcome(result.stop_reason, answer.status);
      FillPlanProfile(rule_labels, result.rule_profiles, &answer);
      return answer;
    }
    default:
      break;  // rewriting strategies, below
  }

  std::vector<Fact> seeds = MakeSeeds(rewritten, instance, u);
  Evaluator evaluator(instance_options);
  auto run_rewritten = [&](const EvalControl* ctl) {
    return join_program != nullptr
               ? evaluator.Run(*join_program, u, db, seeds, ctl)
               : evaluator.Run(rewritten.program, db, seeds, ctl);
  };
  if (!controlled) {
    EvalResult result = run_rewritten(nullptr);
    answer.status = result.status;
    answer.eval_stats = result.stats;
    answer.total_facts = result.TotalFacts();
    answer.tuples = ExtractAnswers(u, rewritten, instance, result);
    answer.outcome = ClassifyOutcome(result.stop_reason, answer.status);
    FillPlanProfile(rule_labels, result.rule_profiles, &answer);
    return answer;
  }

  // Bounded/streaming path: filter and project answer rows as they are
  // derived, so the fixpoint aborts the moment the caller has enough.
  // (Trace-only controlled runs skip the hook and extract afterwards.)
  AnswerProjector projector =
      AnswerProjector::ForRewritten(u, rewritten, instance);
  if (hooked) {
    control.sink_pred = rewritten.answer_pred;
    control.on_fact = MakeAnswerHook(projector, collector);
  }
  EvalResult result = run_rewritten(&control);
  answer.status = result.status;
  answer.eval_stats = result.stats;
  answer.total_facts = result.TotalFacts();
  if (hooked) {
    if (!sink) answer.tuples = collector.TakeSorted();
  } else {
    answer.tuples = ExtractAnswers(u, rewritten, instance, result);
  }
  answer.outcome = ClassifyOutcome(result.stop_reason, answer.status);
  FillPlanProfile(rule_labels, result.rule_profiles, &answer);
  return answer;
}

}  // namespace magic
