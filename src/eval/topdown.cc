#include "eval/topdown.h"

#include "eval/matcher.h"
#include "util/check.h"
#include "util/stopwatch.h"

namespace magic {

TopDownResult TopDownEngine::Run(const AdornedProgram& adorned,
                                 const Database& edb,
                                 const EvalControl* control) const {
  return Run(adorned, adorned.query, edb, control);
}

TopDownResult TopDownEngine::Run(const AdornedProgram& adorned,
                                 const Query& instance, const Database& edb,
                                 const EvalControl* control) const {
  TopDownResult result;
  result.status = Status::OK();
  Stopwatch watch;
  const uint64_t trace_start =
      control != nullptr && control->trace != nullptr ? obs::Trace::NowNs()
                                                      : 0;
  const Universe& u = *adorned.program.universe();
  result.rule_profiles.resize(adorned.program.rules().size());

  // Deadline/cancellation polling, shared with the bottom-up evaluator.
  StopReason stop = StopReason::kNone;
  uint64_t poll = 0;
  auto control_stop = [&]() -> bool {
    StopReason polled = PollEvalControl(control);
    if (polled == StopReason::kNone) return false;
    stop = polled;
    return true;
  };

  // Query and answer tables for every adorned (derived) predicate.
  std::vector<PredId> derived = adorned.program.HeadPredicates();
  for (PredId pred : derived) {
    const PredicateInfo& info = u.predicates().info(pred);
    result.queries.try_emplace(
        pred, static_cast<uint32_t>(info.adornment.bound_count()));
    result.answers.try_emplace(pred, info.arity);
  }
  auto is_derived = [&](PredId pred) {
    return result.answers.find(pred) != result.answers.end();
  };

  // Seed with the given query instance (the only per-instance input; the
  // adorned program itself is shared and immutable).
  {
    std::vector<TermId> seed = QueryBoundArgs(u, instance);
    result.queries.at(adorned.query_pred).Insert(seed);
  }

  uint64_t total = 1;
  bool budget_hit = false;
  Substitution subst;

  // Run-wide work counters; per-rule attribution takes deltas of these
  // around each solve() call (solve is per-rule, so the deltas are exact).
  uint64_t body_matches = 0;
  uint64_t answers_inserted = 0;
  uint64_t answer_duplicates = 0;
  uint64_t subqueries_inserted = 0;

  // Solves the body of `rule` from literal `i` under `subst`; on a complete
  // match, derives the head into the answer table. Returns false when a
  // budget is exhausted.
  auto solve = [&](auto&& self, const Rule& rule, size_t i,
                   bool* changed) -> bool {
    if (i == rule.body.size()) {
      std::vector<TermId> head_tuple;
      for (TermId arg : rule.head.args) {
        TermId ground = SubstituteGround(u, arg, subst);
        if (ground == kInvalidTerm) return true;  // non-ground head: skip
        head_tuple.push_back(ground);
      }
      ++body_matches;
      Relation& rel = result.answers.at(rule.head.pred);
      if (rel.Insert(head_tuple)) {
        ++answers_inserted;
        *changed = true;
        if (control != nullptr && rule.head.pred == control->sink_pred &&
            control->on_fact && !control->on_fact(head_tuple)) {
          stop = StopReason::kSink;
          return false;
        }
        if (++total > options_.max_facts) return false;
      } else {
        ++answer_duplicates;
      }
      return true;
    }
    const Literal& lit = rule.body[i];
    const Relation* rel = nullptr;
    if (is_derived(lit.pred)) {
      // Generate the subquery this sip strategy is obliged to ask
      // (condition (2) of Section 9), then read matching answers.
      const Adornment& a = u.predicates().info(lit.pred).adornment;
      std::vector<TermId> bound_tuple;
      for (size_t p = 0; p < lit.args.size(); ++p) {
        if (p < a.size() && a.bound(p)) {
          TermId ground = SubstituteGround(u, lit.args[p], subst);
          MAGIC_CHECK_MSG(ground != kInvalidTerm,
                          "sip order left a bound argument unbound");
          bound_tuple.push_back(ground);
        }
      }
      if (result.queries.at(lit.pred).Insert(bound_tuple)) {
        ++subqueries_inserted;
        *changed = true;
        if (++total > options_.max_facts) return false;
      }
      rel = &result.answers.at(lit.pred);
    } else {
      rel = edb.Find(lit.pred);
      if (rel == nullptr) return true;
    }

    uint64_t mask = 0;
    std::vector<TermId> key;
    for (size_t a = 0; a < lit.args.size(); ++a) {
      TermId ground = SubstituteGround(u, lit.args[a], subst);
      if (ground != kInvalidTerm) {
        mask |= uint64_t{1} << a;
        key.push_back(ground);
      }
    }
    std::vector<uint32_t> rows;
    rel->Probe(mask, key, 0, rel->size(), &rows);
    for (uint32_t row : rows) {
      if ((++poll & 0xFFF) == 0 && control_stop()) return false;
      size_t mark = subst.Mark();
      std::span<const TermId> tuple = rel->Row(row);
      bool matched = true;
      for (size_t a = 0; a < lit.args.size(); ++a) {
        if (mask & (uint64_t{1} << a)) continue;
        if (!MatchTerm(u, lit.args[a], tuple[a], &subst)) {
          matched = false;
          break;
        }
      }
      if (matched && !self(self, rule, i + 1, changed)) return false;
      subst.UndoTo(mark);
    }
    return true;
  };

  // Repeat passes until the query/answer tables stop growing (QSQR's outer
  // fixpoint handles recursion).
  bool changed = true;
  while (changed) {
    if (control_stop()) break;
    if (result.stats.passes >= options_.max_iterations) {
      budget_hit = true;
      break;
    }
    ++result.stats.passes;
    changed = false;
    bool ok = true;
    for (PredId pred : derived) {
      const Adornment& head_ad = u.predicates().info(pred).adornment;
      Relation& queries = result.queries.at(pred);
      for (size_t qrow = 0; qrow < queries.size() && ok; ++qrow) {
        // Copy: the relation may grow (and reallocate) during solving.
        std::vector<TermId> qtuple(queries.Row(qrow).begin(),
                                   queries.Row(qrow).end());
        for (int ri : adorned.program.RulesFor(pred)) {
          const Rule& rule = adorned.program.rules()[ri];
          subst.Clear();
          // Unify the head's bound arguments with the subquery constants.
          bool head_ok = true;
          size_t k = 0;
          for (size_t p = 0; p < rule.head.args.size(); ++p) {
            if (p < head_ad.size() && head_ad.bound(p)) {
              if (!MatchTerm(u, rule.head.args[p], qtuple[k++], &subst)) {
                head_ok = false;
                break;
              }
            }
          }
          if (!head_ok) continue;
          const uint64_t matches_before = body_matches;
          const uint64_t answers_before = answers_inserted;
          const uint64_t dup_before = answer_duplicates;
          const uint64_t subqueries_before = subqueries_inserted;
          const uint64_t probes_before = poll;
          const bool solved = solve(solve, rule, 0, &changed);
          RuleProfile& profile = result.rule_profiles[ri];
          ++profile.evals;
          profile.firings += body_matches - matches_before;
          profile.new_facts += answers_inserted - answers_before;
          profile.duplicate_facts += answer_duplicates - dup_before;
          profile.join_probes += poll - probes_before;
          profile.delta_rows += subqueries_inserted - subqueries_before;
          if (!solved) {
            ok = false;
            break;
          }
        }
      }
      if (!ok) break;
    }
    if (!ok) {
      budget_hit = true;
      break;
    }
  }

  for (PredId pred : derived) {
    result.stats.queries += result.queries.at(pred).size();
    result.stats.answers += result.answers.at(pred).size();
  }
  result.stop_reason = stop;
  if (stop == StopReason::kDeadline) {
    result.status = Status::DeadlineExceeded(
        "top-down deadline exceeded after " + std::to_string(total) +
        " queries+facts");
  } else if (stop == StopReason::kCancelled) {
    result.status = Status::Cancelled("top-down evaluation cancelled");
  } else if (stop == StopReason::kNone && budget_hit) {
    result.status = Status::ResourceExhausted(
        "top-down budget exhausted after " + std::to_string(total) +
        " queries+facts");
  }
  result.stats.seconds = watch.ElapsedSeconds();
  if (control != nullptr && control->trace != nullptr) {
    control->trace->Record(obs::Stage::kFixpoint, trace_start,
                           obs::Trace::NowNs());
  }
  return result;
}

}  // namespace magic
