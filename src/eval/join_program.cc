#include "eval/join_program.h"

#include <algorithm>

#include "eval/matcher.h"
#include "storage/relation.h"
#include "util/check.h"
#include "util/stopwatch.h"

namespace magic {

Status CheckRangeRestrictedRule(const Universe& u, const Rule& rule,
                                int rule_index) {
  std::vector<SymbolId> body_vars;
  for (const Literal& lit : rule.body) {
    AppendLiteralVariables(u, lit, &body_vars);
  }
  std::vector<SymbolId> head_vars = LiteralVariables(u, rule.head);
  for (SymbolId v : head_vars) {
    if (std::find(body_vars.begin(), body_vars.end(), v) == body_vars.end()) {
      return Status::InvalidArgument(
          "rule " + std::to_string(rule_index) +
          " is not range restricted (head variable '" + u.symbols().Name(v) +
          "' unbound); bottom-up evaluation would be unsafe");
    }
  }
  return Status::OK();
}

namespace {

/// Collects the variables of one term (descending through compound and
/// affine structure), preserving first-occurrence order.
void AppendTermVariables(const Universe& u, TermId term,
                         std::vector<SymbolId>* out) {
  const TermView t = u.terms().Get(term);
  if (t.ground) return;
  switch (t.kind) {
    case TermKind::kVariable:
      out->push_back(t.symbol);
      return;
    case TermKind::kCompound:
    case TermKind::kAffine: {
      for (TermId child : t.children) AppendTermVariables(u, child, out);
      return;
    }
    default:
      return;
  }
}

/// Per-slot boundness during classification: promoted kThisLiteral ->
/// kEarlier after each literal (a matched literal grounds its variables).
enum class Bound : uint8_t { kNo, kEarlier, kThisLiteral };

}  // namespace

JoinProgram JoinProgram::Compile(const Program& program,
                                 std::span<const PredId> extra_idb_preds) {
  const Universe& u = program.u();
  JoinProgram jp;
  for (PredId pred : program.HeadPredicates()) {
    if (jp.dense.try_emplace(pred, static_cast<int>(jp.idb_preds.size()))
            .second) {
      jp.idb_preds.push_back(pred);
    }
  }
  for (PredId pred : extra_idb_preds) {
    if (jp.dense.try_emplace(pred, static_cast<int>(jp.idb_preds.size()))
            .second) {
      jp.idb_preds.push_back(pred);
    }
  }

  jp.range_status = Status::OK();
  for (size_t i = 0; i < program.rules().size(); ++i) {
    Status st =
        CheckRangeRestrictedRule(u, program.rules()[i], static_cast<int>(i));
    if (!st.ok()) {
      jp.range_status = st;
      break;
    }
  }

  std::unordered_map<PredId, int> edb_dense;
  jp.rules.reserve(program.rules().size());
  for (const Rule& rule : program.rules()) {
    RuleProgram rp;
    rp.head_pred = rule.head.pred;
    rp.head_dense = jp.dense.at(rule.head.pred);

    std::vector<Bound> bound;  // indexed by slot
    auto slot_of = [&](SymbolId var) -> int {
      auto [it, inserted] = rp.slots.try_emplace(var, rp.num_slots);
      if (inserted) {
        ++rp.num_slots;
        bound.push_back(Bound::kNo);
      }
      return it->second;
    };

    for (size_t i = 0; i < rule.body.size(); ++i) {
      const Literal& lit = rule.body[i];
      LiteralStep st;
      st.pred = lit.pred;
      auto dit = jp.dense.find(lit.pred);
      if (dit != jp.dense.end()) {
        st.is_idb = true;
        st.dense = dit->second;
        rp.idb_positions.push_back(static_cast<int>(i));
      } else {
        auto [eit, inserted] =
            edb_dense.try_emplace(lit.pred, static_cast<int>(jp.edb_preds.size()));
        if (inserted) jp.edb_preds.push_back(lit.pred);
        st.edb = eit->second;
      }

      for (size_t a = 0; a < lit.args.size(); ++a) {
        const TermId arg = lit.args[a];
        const TermView t = u.terms().Get(arg);
        ArgStep step;
        step.col = static_cast<uint8_t>(a);
        if (t.ground) {
          step.op = ArgOp::kConst;
          step.term = arg;
          st.mask |= uint64_t{1} << a;
          st.key_steps.push_back(step);
        } else if (t.kind == TermKind::kVariable) {
          const int slot = slot_of(t.symbol);
          step.slot = slot;
          if (bound[slot] == Bound::kEarlier) {
            step.op = ArgOp::kBoundSlot;
            st.mask |= uint64_t{1} << a;
            st.key_steps.push_back(step);
          } else if (bound[slot] == Bound::kThisLiteral) {
            step.op = ArgOp::kCheckSlot;
            st.post_steps.push_back(step);
          } else {
            step.op = ArgOp::kBindSlot;
            bound[slot] = Bound::kThisLiteral;
            st.post_steps.push_back(step);
          }
        } else {  // compound / affine
          std::vector<SymbolId> vars;
          AppendTermVariables(u, arg, &vars);
          bool all_earlier = true;
          for (SymbolId v : vars) {
            const int slot = slot_of(v);
            if (bound[slot] != Bound::kEarlier) all_earlier = false;
          }
          step.term = arg;
          if (all_earlier) {
            // Ground at literal entry (the interpreter's dynamic mask
            // reaches the same verdict every row; here it is static).
            step.op = ArgOp::kSubstKey;
            st.mask |= uint64_t{1} << a;
            st.key_steps.push_back(step);
          } else {
            step.op = ArgOp::kMatch;
            st.post_steps.push_back(step);
            for (SymbolId v : vars) {
              const int slot = rp.slots.at(v);
              if (bound[slot] == Bound::kNo) bound[slot] = Bound::kThisLiteral;
            }
          }
        }
      }
      // The literal matched => all of its variables are ground.
      for (Bound& b : bound) {
        if (b == Bound::kThisLiteral) b = Bound::kEarlier;
      }
      rp.body.push_back(std::move(st));
    }

    rp.head_steps.reserve(rule.head.args.size());
    for (size_t a = 0; a < rule.head.args.size(); ++a) {
      const TermId arg = rule.head.args[a];
      const TermView t = u.terms().Get(arg);
      ArgStep step;
      step.col = static_cast<uint8_t>(a);
      if (t.ground) {
        step.op = ArgOp::kConst;
        step.term = arg;
      } else if (t.kind == TermKind::kVariable) {
        // slot_of also covers head-only variables of non-range-restricted
        // rules: their slot stays unbound and the runner's ground check
        // fires, matching the interpreter.
        step.op = ArgOp::kBoundSlot;
        step.slot = slot_of(t.symbol);
      } else {
        step.op = ArgOp::kSubstKey;
        step.term = arg;
        std::vector<SymbolId> vars;
        AppendTermVariables(u, arg, &vars);
        for (SymbolId v : vars) slot_of(v);
      }
      rp.head_steps.push_back(step);
    }

    jp.rules.push_back(std::move(rp));
  }
  return jp;
}

EvalResult RunJoinProgram(const JoinProgram& jp, const Universe& u,
                          const Database& edb,
                          const std::vector<Fact>& seeds,
                          const EvalOptions& options,
                          const EvalControl* control) {
  EvalResult result;
  result.status = Status::OK();
  Stopwatch watch;
  const uint64_t trace_start =
      control != nullptr && control->trace != nullptr ? obs::Trace::NowNs()
                                                      : 0;

  StopReason stop = StopReason::kNone;
  auto control_stop = [&]() -> bool {
    StopReason polled = PollEvalControl(control);
    if (polled == StopReason::kNone) return false;
    stop = polled;
    return true;
  };

  if (!jp.range_status.ok()) {
    result.status = jp.range_status;
    return result;
  }

  for (PredId pred : jp.idb_preds) {
    result.idb.try_emplace(pred, u.predicates().info(pred).arity);
  }
  // Load seeds. A seed predicate outside the compiled dense set still gets
  // a relation (callers pass seed predicates to Compile, so no compiled
  // literal reads it — it only contributes to the result's fact counts).
  for (const Fact& seed : seeds) {
    auto it = result.idb.find(seed.pred);
    if (it == result.idb.end()) {
      it = result.idb
               .try_emplace(seed.pred, u.predicates().info(seed.pred).arity)
               .first;
    }
    for (TermId arg : seed.args) {
      MAGIC_CHECK_MSG(u.terms().IsGround(arg), "seed facts must be ground");
    }
    if (it->second.Insert(seed.args)) ++result.stats.new_facts;
  }

  // Dense run-time tables: relation handles and semi-naive watermarks,
  // indexed by the compiled predicate index — the fixpoint loop never
  // touches an unordered_map. (Map node stability keeps the pointers valid
  // across the extra try_emplaces above.)
  const size_t npreds = jp.idb_preds.size();
  std::vector<Relation*> idb_rel(npreds);
  std::vector<size_t> prev(npreds, 0);
  std::vector<size_t> cur(npreds, 0);
  for (size_t i = 0; i < npreds; ++i) {
    idb_rel[i] = &result.idb.at(jp.idb_preds[i]);
    cur[i] = idb_rel[i]->size();  // seeds are round-0 deltas
  }
  std::vector<const Relation*> edb_rel(jp.edb_preds.size());
  for (size_t i = 0; i < jp.edb_preds.size(); ++i) {
    edb_rel[i] = edb.Find(jp.edb_preds[i]);
  }

  result.rule_profiles.resize(jp.rules.size());

  // Shared scratch, allocated once per run and reused across every rule
  // evaluation: the steady-state join loop performs no heap allocation.
  size_t max_slots = 0;
  size_t max_body = 0;
  for (const RuleProgram& rp : jp.rules) {
    max_slots = std::max(max_slots, static_cast<size_t>(rp.num_slots));
    max_body = std::max(max_body, rp.body.size());
  }
  std::vector<TermId> frame(max_slots, kInvalidTerm);
  std::vector<int> trail;
  std::vector<TermId> head_tuple;
  struct LevelScratch {
    const Relation* rel = nullptr;
    size_t from = 0;
    size_t to = 0;
    std::vector<TermId> key;      // probe key, rebuilt per literal entry
    std::vector<uint32_t> rows;   // copy-out rows for self literals
  };
  std::vector<LevelScratch> levels(max_body);

  bool budget_hit = false;

  auto eval_rule = [&](const RuleProgram& rp, int delta_pos,
                       int rule_index) -> bool {
    std::fill(frame.begin(), frame.begin() + rp.num_slots, kInvalidTerm);
    trail.clear();
    SlotFrame sf{frame.data(), &rp.slots, &trail};

    // Resolve, per literal, the relation and visible row window.
    for (size_t i = 0; i < rp.body.size(); ++i) {
      const LiteralStep& st = rp.body[i];
      LevelScratch& level = levels[i];
      if (st.is_idb) {
        level.rel = idb_rel[st.dense];
        const int pos = static_cast<int>(i);
        if (!options.seminaive || delta_pos < 0) {
          level.from = 0;
          level.to = cur[st.dense];
        } else if (pos == delta_pos) {
          level.from = prev[st.dense];
          level.to = cur[st.dense];
        } else if (pos < delta_pos) {
          level.from = 0;
          level.to = cur[st.dense];
        } else {
          level.from = 0;
          level.to = prev[st.dense];
        }
      } else {
        level.rel = edb_rel[st.edb];
        level.from = 0;
        level.to = level.rel == nullptr ? 0 : level.rel->size();
      }
    }

    // Per-rule profile: deltas of the run-wide counters across this
    // evaluation, so the profile costs nothing inside the join itself.
    RuleProfile& profile = result.rule_profiles[rule_index];
    ++profile.evals;
    if (delta_pos >= 0) {
      profile.delta_rows += levels[delta_pos].to - levels[delta_pos].from;
    }
    const uint64_t firings_before = result.stats.rule_firings;
    const uint64_t new_before = result.stats.new_facts;
    const uint64_t dup_before = result.stats.duplicate_facts;
    const uint64_t probes_before = result.stats.join_probes;

    auto fire_head = [&]() -> bool {
      head_tuple.clear();
      for (const ArgStep& hs : rp.head_steps) {
        TermId ground;
        switch (hs.op) {
          case ArgOp::kConst:
            ground = hs.term;
            break;
          case ArgOp::kBoundSlot:
            ground = frame[hs.slot];
            break;
          default:
            ground = SubstituteGroundSlots(u, hs.term, sf);
            break;
        }
        MAGIC_CHECK_MSG(ground != kInvalidTerm,
                        "non-ground head after body match");
        head_tuple.push_back(ground);
      }
      ++result.stats.rule_firings;
      Relation& rel = *idb_rel[rp.head_dense];
      if (rel.Insert(head_tuple)) {
        ++result.stats.new_facts;
        if (control != nullptr && rp.head_pred == control->sink_pred &&
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
          options.max_facts) {
        return false;
      }
      return true;
    };

    auto join = [&](auto&& self, size_t i) -> bool {
      if (i == rp.body.size()) return fire_head();
      const LiteralStep& st = rp.body[i];
      LevelScratch& level = levels[i];
      if (level.rel == nullptr || level.from >= level.to) return true;

      level.key.clear();
      for (const ArgStep& ks : st.key_steps) {
        switch (ks.op) {
          case ArgOp::kConst:
            level.key.push_back(ks.term);
            break;
          case ArgOp::kBoundSlot:
            level.key.push_back(frame[ks.slot]);
            break;
          default: {  // kSubstKey
            TermId ground = SubstituteGroundSlots(u, ks.term, sf);
            // Ungroundable (affine over a non-integer binding): no row can
            // match — the interpreter reaches the same verdict row by row.
            if (ground == kInvalidTerm) return true;
            level.key.push_back(ground);
            break;
          }
        }
      }

      // Returns false to abort the whole rule evaluation.
      auto try_row = [&](uint32_t row) -> bool {
        ++result.stats.join_probes;
        if ((result.stats.join_probes & 0xFFF) == 0 && control_stop()) {
          return false;
        }
        const size_t mark = trail.size();
        std::span<const TermId> tuple = level.rel->Row(row);
        bool matched = true;
        for (const ArgStep& ps : st.post_steps) {
          const TermId col_val = tuple[ps.col];
          if (ps.op == ArgOp::kBindSlot) {
            frame[ps.slot] = col_val;
            trail.push_back(ps.slot);
          } else if (ps.op == ArgOp::kCheckSlot) {
            if (frame[ps.slot] != col_val) {
              matched = false;
              break;
            }
          } else {  // kMatch
            if (!MatchTermSlots(u, ps.term, col_val, sf)) {
              matched = false;
              break;
            }
          }
        }
        if (matched) {
          // `tuple` must not be used past this point: a self literal's
          // relation may reallocate its rows when fire_head inserts.
          if (!self(self, i + 1)) return false;  // abort, no undo
        }
        while (trail.size() > mark) {
          frame[trail.back()] = kInvalidTerm;
          trail.pop_back();
        }
        return true;
      };

      // A literal reading the rule's own head relation sees inserts land
      // mid-evaluation (outside its window, but index buckets may be
      // extended/rehashed by a deeper probe of the same relation), so it
      // iterates a copied row list; every other relation is stable for the
      // whole rule evaluation and streams through the cursor with no
      // materialization.
      const bool self_lit = st.is_idb && st.pred == rp.head_pred;
      if (self_lit && st.mask != 0) {
        level.rows.clear();
        level.rel->Probe(st.mask, level.key, level.from, level.to,
                         &level.rows);
        for (uint32_t row : level.rows) {
          if (!try_row(row)) return false;
        }
      } else {
        Relation::Cursor cursor =
            level.rel->OpenProbe(st.mask, level.key, level.from, level.to);
        for (uint32_t row = cursor.Next(); row != Relation::Cursor::kDone;
             row = cursor.Next()) {
          if (!try_row(row)) return false;
        }
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

  // Fixpoint loop (same rounds, windows, and stop semantics as the
  // interpreter).
  while (true) {
    if (control_stop()) break;
    if (result.stats.iterations >= options.max_iterations) {
      budget_hit = true;
      break;
    }
    ++result.stats.iterations;
    const uint64_t facts_before = result.stats.new_facts;
    bool ok = true;

    for (size_t r = 0; r < jp.rules.size(); ++r) {
      const RuleProgram& rp = jp.rules[r];
      const int rule_index = static_cast<int>(r);
      if (!options.seminaive) {
        ok = eval_rule(rp, -1, rule_index);
        if (!ok) break;
        continue;
      }
      if (rp.idb_positions.empty()) {
        // No derived body literal: fires with the EDB only; evaluate in the
        // first round only (nothing it reads ever changes).
        if (result.stats.iterations == 1) {
          ok = eval_rule(rp, -1, rule_index);
          if (!ok) break;
        }
        continue;
      }
      for (int delta_pos : rp.idb_positions) {
        const int dense = rp.body[delta_pos].dense;
        if (prev[dense] == cur[dense]) continue;  // empty delta
        ok = eval_rule(rp, delta_pos, rule_index);
        if (!ok) break;
      }
      if (!ok) break;
    }

    if (!ok) {
      budget_hit = true;
      break;
    }

    // Advance watermarks: this round's insertions become the next deltas.
    const bool any_new = result.stats.new_facts > facts_before;
    for (size_t i = 0; i < npreds; ++i) {
      prev[i] = cur[i];
      cur[i] = idb_rel[i]->size();
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
