#include "eval/evaluator.h"

#include <algorithm>

#include "eval/join_program.h"
#include "eval/matcher.h"
#include "util/check.h"
#include "util/stopwatch.h"

namespace magic {

namespace {

/// Evaluation-time view of one body literal.
struct LiteralPlan {
  const Literal* literal = nullptr;
  bool idb = false;  // reads a derived relation
};

struct RulePlan {
  const Rule* rule = nullptr;
  std::vector<LiteralPlan> body;
  std::vector<int> idb_positions;  // body positions reading IDB relations
};

}  // namespace

StopReason PollEvalControl(const EvalControl* control) {
  if (control == nullptr) return StopReason::kNone;
  if (control->cancel != nullptr &&
      control->cancel->load(std::memory_order_relaxed)) {
    return StopReason::kCancelled;
  }
  if (control->deadline.has_value() &&
      std::chrono::steady_clock::now() >= *control->deadline) {
    return StopReason::kDeadline;
  }
  return StopReason::kNone;
}

EvalResult Evaluator::Run(const Program& program, const Database& edb,
                          const std::vector<Fact>& seeds,
                          const EvalControl* control) const {
  // Provenance recording needs the interpreter's per-literal match trace.
  if (options_.track_provenance) {
    return RunInterpreted(program, edb, seeds, control);
  }
  std::vector<PredId> seed_preds;
  for (const Fact& seed : seeds) {
    if (std::find(seed_preds.begin(), seed_preds.end(), seed.pred) ==
        seed_preds.end()) {
      seed_preds.push_back(seed.pred);
    }
  }
  JoinProgram jp = JoinProgram::Compile(program, seed_preds);
  return RunJoinProgram(jp, program.u(), edb, seeds, options_, control);
}

EvalResult Evaluator::Run(const JoinProgram& join_program, const Universe& u,
                          const Database& edb,
                          const std::vector<Fact>& seeds,
                          const EvalControl* control) const {
  return RunJoinProgram(join_program, u, edb, seeds, options_, control);
}

EvalResult Evaluator::RunInterpreted(const Program& program,
                                     const Database& edb,
                                     const std::vector<Fact>& seeds,
                                     const EvalControl* control) const {
  EvalResult result;
  result.status = Status::OK();
  Stopwatch watch;
  const uint64_t trace_start =
      control != nullptr && control->trace != nullptr ? obs::Trace::NowNs()
                                                      : 0;
  const Universe& u = program.u();

  StopReason stop = StopReason::kNone;
  auto control_stop = [&]() -> bool {
    StopReason polled = PollEvalControl(control);
    if (polled == StopReason::kNone) return false;
    stop = polled;
    return true;
  };

  // Determine the IDB: head predicates plus seed predicates.
  std::vector<PredId> idb_preds = program.HeadPredicates();
  for (const Fact& seed : seeds) {
    if (std::find(idb_preds.begin(), idb_preds.end(), seed.pred) ==
        idb_preds.end()) {
      idb_preds.push_back(seed.pred);
    }
  }
  for (PredId pred : idb_preds) {
    result.idb.try_emplace(pred, u.predicates().info(pred).arity);
  }
  auto is_idb = [&result](PredId pred) {
    return result.idb.find(pred) != result.idb.end();
  };

  for (size_t i = 0; i < program.rules().size(); ++i) {
    Status st =
        CheckRangeRestrictedRule(u, program.rules()[i], static_cast<int>(i));
    if (!st.ok()) {
      result.status = st;
      return result;
    }
  }

  // Load seeds.
  for (const Fact& seed : seeds) {
    Relation& rel = result.idb.at(seed.pred);
    for (TermId arg : seed.args) {
      MAGIC_CHECK_MSG(u.terms().IsGround(arg), "seed facts must be ground");
    }
    if (rel.Insert(seed.args)) ++result.stats.new_facts;
  }

  // Compile rule plans.
  std::vector<RulePlan> plans;
  plans.reserve(program.rules().size());
  for (const Rule& rule : program.rules()) {
    RulePlan plan;
    plan.rule = &rule;
    for (size_t i = 0; i < rule.body.size(); ++i) {
      LiteralPlan lp;
      lp.literal = &rule.body[i];
      lp.idb = is_idb(rule.body[i].pred);
      if (lp.idb) plan.idb_positions.push_back(static_cast<int>(i));
      plan.body.push_back(lp);
    }
    plans.push_back(std::move(plan));
  }
  result.rule_profiles.resize(plans.size());

  // Watermarks for semi-naive deltas: prev = IDB size before the previous
  // round's insertions became visible, cur = size at the start of this round.
  std::unordered_map<PredId, size_t> prev_size;
  std::unordered_map<PredId, size_t> cur_size;
  for (PredId pred : idb_preds) {
    prev_size[pred] = 0;
    cur_size[pred] = result.idb.at(pred).size();  // seeds are round-0 deltas
  }

  Substitution subst;
  std::vector<uint32_t> candidates;
  bool budget_hit = false;

  // Evaluates `plan` with literal `delta_pos` (or -1) restricted to the
  // delta rows; returns false if a budget was exhausted.
  std::vector<FactRef> match_trace;
  auto eval_rule = [&](const RulePlan& plan, int delta_pos,
                       int rule_index) -> bool {
    const Rule& rule = *plan.rule;
    subst.Clear();
    if (options_.track_provenance) {
      match_trace.assign(plan.body.size(), FactRef{});
    }

    // Resolve, per literal, the relation and visible row range.
    struct View {
      const Relation* rel = nullptr;
      size_t from = 0;
      size_t to = 0;
    };
    std::vector<View> views(plan.body.size());
    for (size_t i = 0; i < plan.body.size(); ++i) {
      const LiteralPlan& lp = plan.body[i];
      View view;
      if (lp.idb) {
        view.rel = &result.idb.at(lp.literal->pred);
        int pos = static_cast<int>(i);
        if (!options_.seminaive || delta_pos < 0) {
          view.from = 0;
          view.to = cur_size.at(lp.literal->pred);
        } else if (pos == delta_pos) {
          view.from = prev_size.at(lp.literal->pred);
          view.to = cur_size.at(lp.literal->pred);
        } else if (pos < delta_pos) {
          view.from = 0;
          view.to = cur_size.at(lp.literal->pred);
        } else {
          view.from = 0;
          view.to = prev_size.at(lp.literal->pred);
        }
      } else {
        view.rel = edb.Find(lp.literal->pred);
        view.from = 0;
        view.to = view.rel == nullptr ? 0 : view.rel->size();
      }
      views[i] = view;
    }

    // Per-rule profile: deltas of the run-wide counters across this
    // evaluation, so the profile costs nothing inside the join itself.
    RuleProfile& profile = result.rule_profiles[rule_index];
    ++profile.evals;
    if (delta_pos >= 0) {
      profile.delta_rows += views[delta_pos].to - views[delta_pos].from;
    }
    const uint64_t firings_before = result.stats.rule_firings;
    const uint64_t new_before = result.stats.new_facts;
    const uint64_t dup_before = result.stats.duplicate_facts;
    const uint64_t probes_before = result.stats.join_probes;

    // Recursive backtracking join over the body in written (sip) order.
    std::vector<TermId> key;
    std::vector<TermId> head_tuple;
    auto fire_head = [&]() -> bool {
      head_tuple.clear();
      for (TermId arg : rule.head.args) {
        TermId ground = SubstituteGround(u, arg, subst);
        MAGIC_CHECK_MSG(ground != kInvalidTerm,
                        "non-ground head after body match");
        head_tuple.push_back(ground);
      }
      ++result.stats.rule_firings;
      Relation& rel = result.idb.at(rule.head.pred);
      if (rel.Insert(head_tuple)) {
        ++result.stats.new_facts;
        if (options_.track_provenance) {
          FactRef ref{rule.head.pred,
                      static_cast<uint32_t>(rel.size() - 1), false};
          result.provenance.emplace(ref,
                                    Justification{rule_index, match_trace});
        }
        if (control != nullptr && rule.head.pred == control->sink_pred &&
            control->on_fact && !control->on_fact(head_tuple)) {
          stop = StopReason::kSink;
          return false;
        }
      } else {
        ++result.stats.duplicate_facts;
      }
      // The budget covers both branches: a duplicate-heavy evaluation must
      // stop at max_facts too, not only after a new fact.
      if (result.stats.new_facts + result.stats.duplicate_facts >
          options_.max_facts) {
        return false;
      }
      return true;
    };

    auto join = [&](auto&& self, size_t i) -> bool {
      if (i == plan.body.size()) return fire_head();
      const Literal& lit = *plan.body[i].literal;
      const View& view = views[i];
      if (view.rel == nullptr || view.from >= view.to) return true;

      // Build the index key from arguments that are ground under subst.
      uint64_t mask = 0;
      key.clear();
      for (size_t a = 0; a < lit.args.size(); ++a) {
        TermId ground = SubstituteGround(u, lit.args[a], subst);
        if (ground != kInvalidTerm) {
          mask |= uint64_t{1} << a;
          key.push_back(ground);
        }
      }

      std::vector<uint32_t> rows;
      view.rel->Probe(mask, key, view.from, view.to, &rows);
      for (uint32_t row : rows) {
        ++result.stats.join_probes;
        if ((result.stats.join_probes & 0xFFF) == 0 && control_stop()) {
          return false;
        }
        size_t mark = subst.Mark();
        std::span<const TermId> tuple = view.rel->Row(row);
        bool matched = true;
        for (size_t a = 0; a < lit.args.size(); ++a) {
          if (mask & (uint64_t{1} << a)) continue;  // verified by the probe
          if (!MatchTerm(u, lit.args[a], tuple[a], &subst)) {
            matched = false;
            break;
          }
        }
        if (matched) {
          if (options_.track_provenance) {
            match_trace[i] = FactRef{lit.pred, row, !plan.body[i].idb};
          }
          if (!self(self, i + 1)) return false;
        }
        subst.UndoTo(mark);
      }
      return true;
    };
    const bool ok = join(join, 0);
    profile.firings += result.stats.rule_firings - firings_before;
    profile.new_facts += result.stats.new_facts - new_before;
    profile.duplicate_facts += result.stats.duplicate_facts - dup_before;
    profile.join_probes += result.stats.join_probes - probes_before;
    return ok;
  };

  // Fixpoint loop.
  while (true) {
    if (control_stop()) break;
    if (result.stats.iterations >= options_.max_iterations) {
      budget_hit = true;
      break;
    }
    ++result.stats.iterations;
    uint64_t facts_before = result.stats.new_facts;
    bool ok = true;

    for (size_t p = 0; p < plans.size(); ++p) {
      const RulePlan& plan = plans[p];
      const int rule_index = static_cast<int>(p);
      if (!options_.seminaive) {
        ok = eval_rule(plan, -1, rule_index);
        if (!ok) break;
        continue;
      }
      if (plan.idb_positions.empty()) {
        // No derived body literal: fires with the EDB only; evaluate in the
        // first round only (nothing it reads ever changes).
        if (result.stats.iterations == 1) {
          ok = eval_rule(plan, -1, rule_index);
          if (!ok) break;
        }
        continue;
      }
      for (int delta_pos : plan.idb_positions) {
        // Skip delta positions with an empty delta.
        PredId pred = plan.body[delta_pos].literal->pred;
        if (prev_size.at(pred) == cur_size.at(pred)) continue;
        ok = eval_rule(plan, delta_pos, rule_index);
        if (!ok) break;
      }
      if (!ok) break;
    }

    if (!ok) {
      budget_hit = true;
      break;
    }

    // Advance watermarks: this round's insertions become the next deltas.
    bool any_new = result.stats.new_facts > facts_before;
    for (PredId pred : idb_preds) {
      prev_size[pred] = cur_size[pred];
      cur_size[pred] = result.idb.at(pred).size();
    }
    if (!any_new) break;
  }

  // An EvalControl stop takes precedence over the budget classification:
  // eval_rule also returns false for control stops, which would otherwise
  // read as budget_hit.
  result.stop_reason = stop;
  if (stop == StopReason::kDeadline) {
    result.status = Status::DeadlineExceeded(
        "evaluation deadline exceeded after " +
        std::to_string(result.stats.new_facts) + " facts, " +
        std::to_string(result.stats.iterations) + " iterations");
  } else if (stop == StopReason::kCancelled) {
    result.status = Status::Cancelled("evaluation cancelled");
  } else if (stop == StopReason::kNone && budget_hit) {
    result.status = Status::ResourceExhausted(
        "evaluation budget exhausted after " +
        std::to_string(result.stats.new_facts) + " facts, " +
        std::to_string(result.stats.iterations) + " iterations");
  }
  result.stats.seconds = watch.ElapsedSeconds();
  if (control != nullptr && control->trace != nullptr) {
    control->trace->Record(obs::Stage::kFixpoint, trace_start,
                           obs::Trace::NowNs());
  }
  return result;
}

}  // namespace magic
