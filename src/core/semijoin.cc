#include "core/semijoin.h"

#include <algorithm>
#include <map>
#include <set>
#include <string>

#include "util/check.h"

namespace magic {

namespace {

/// A (literal, argument) slot within one rule; literal index -1 is the head.
struct Slot {
  int literal = 0;
  int arg = 0;
  bool operator<(const Slot& other) const {
    return literal != other.literal ? literal < other.literal
                                    : arg < other.arg;
  }
  bool operator==(const Slot&) const = default;
};

uint32_t IndexFieldsOf(const Universe& u, PredId pred) {
  return u.predicates().info(pred).index_fields;
}

bool IsIndexedDerived(const Universe& u, PredId pred) {
  const PredicateInfo& info = u.predicates().info(pred);
  return info.kind == PredKind::kDerived && info.index_fields == 3;
}

/// All slots in `rule` (skipping index arguments) where variable `v` occurs.
std::vector<Slot> VarSlots(const Universe& u, const Rule& rule, SymbolId v) {
  std::vector<Slot> slots;
  auto scan = [&](const Literal& lit, int lit_index) {
    uint32_t skip = IndexFieldsOf(u, lit.pred);
    for (size_t a = skip; a < lit.args.size(); ++a) {
      if (u.terms().ContainsVariable(lit.args[a], v)) {
        slots.push_back(Slot{lit_index, static_cast<int>(a)});
      }
    }
  };
  scan(rule.head, -1);
  for (size_t i = 0; i < rule.body.size(); ++i) {
    scan(rule.body[i], static_cast<int>(i));
  }
  return slots;
}

/// Variables in the non-index arguments of `lit`.
std::vector<SymbolId> NonIndexVars(const Universe& u, const Literal& lit) {
  std::vector<SymbolId> vars;
  uint32_t skip = IndexFieldsOf(u, lit.pred);
  for (size_t a = skip; a < lit.args.size(); ++a) {
    u.terms().AppendVariables(lit.args[a], &vars);
  }
  return vars;
}

/// Working context over a CountingProgram.
class Optimizer {
 public:
  Optimizer(CountingProgram* cp, SemijoinStats* stats)
      : cp_(*cp), u_(*cp->rewritten.program.universe()), stats_(stats) {}

  Status Run() {
    bool changed = true;
    while (changed) {
      changed = false;
      if (Lemma81Pass()) changed = true;
      if (BlockPass()) changed = true;
      if (RetrimSupplementaries()) changed = true;
    }
    return FinalCheck();
  }

 private:
  std::vector<Rule>& rules() { return cp_.rewritten.program.rules(); }

  /// Bound argument slots of an indexed literal: 3 + j for each kept
  /// position j that the predicate's adornment marks bound.
  std::vector<int> BoundArgSlots(PredId pred) const {
    const PredicateInfo& info = u_.predicates().info(pred);
    const std::vector<int>& kept = cp_.kept_positions.at(pred);
    std::vector<int> out;
    for (size_t j = 0; j < kept.size(); ++j) {
      if (info.adornment.bound(static_cast<size_t>(kept[j]))) {
        out.push_back(3 + static_cast<int>(j));
      }
    }
    return out;
  }

  /// Union of arc tails into `occ` of the sip of adorned rule `ar`.
  std::vector<int> ArcTailUnion(int ar, int occ) const {
    const Rule& adorned_rule = cp_.adorned.program.rules()[ar];
    std::vector<int> members;
    for (const SipArc& arc : adorned_rule.sip->arcs) {
      if (arc.target != occ) continue;
      for (int m : arc.tail) {
        if (std::find(members.begin(), members.end(), m) == members.end()) {
          members.push_back(m);
        }
      }
    }
    return members;
  }

  /// Indices of the body literals of rule `rc` that stand for the tail N of
  /// the arc(s) into the occurrence represented by body literal `lb`.
  std::vector<int> PresentNLiterals(int rc, int lb) const {
    const CountingRuleMeta& meta = cp_.meta[rc];
    const CountingLiteralMeta& lm = meta.body[lb];
    if (lm.occurrence < 0 || meta.adorned_rule < 0) return {};
    std::vector<int> members = ArcTailUnion(meta.adorned_rule, lm.occurrence);
    if (members.empty()) return {};
    bool has_ph =
        std::find(members.begin(), members.end(), kSipHead) != members.end();
    std::vector<int> result;
    for (size_t b = 0; b < meta.body.size(); ++b) {
      if (static_cast<int>(b) == lb) continue;
      const CountingLiteralMeta& bm = meta.body[b];
      if (bm.is_cnt_of_head && has_ph) {
        result.push_back(static_cast<int>(b));
      } else if (bm.is_supp) {
        // A supplementary literal stores the prefix join, which subsumes
        // every tail member (p_h and earlier occurrences).
        result.push_back(static_cast<int>(b));
      } else if (bm.occurrence >= 0 &&
                 std::find(members.begin(), members.end(), bm.occurrence) !=
                     members.end()) {
        result.push_back(static_cast<int>(b));
      }
    }
    return result;
  }

  /// True if every occurrence of `v` in `rule` lies in `allowed`.
  bool Confined(const Rule& rule, SymbolId v,
                const std::set<Slot>& allowed) const {
    for (const Slot& slot : VarSlots(u_, rule, v)) {
      if (allowed.find(slot) == allowed.end()) return false;
    }
    return true;
  }

  /// All non-index slots of body literal `b`.
  void AddLiteralSlots(const Rule& rule, int b, std::set<Slot>* allowed) const {
    const Literal& lit = rule.body[b];
    uint32_t skip = IndexFieldsOf(u_, lit.pred);
    for (size_t a = skip; a < lit.args.size(); ++a) {
      allowed->insert(Slot{b, static_cast<int>(a)});
    }
  }

  // ---- Lemma 8.1 ----------------------------------------------------------

  bool Lemma81Pass() {
    bool changed = false;
    for (size_t rc = 0; rc < rules().size(); ++rc) {
      bool rule_changed = true;
      while (rule_changed) {
        rule_changed = false;
        Rule& rule = rules()[rc];
        CountingRuleMeta& meta = cp_.meta[rc];
        for (size_t lb = 0; lb < rule.body.size(); ++lb) {
          const CountingLiteralMeta& lm = meta.body[lb];
          if (lm.is_cnt_guard || lm.is_supp || lm.is_cnt_of_head) continue;
          if (lm.occurrence < 0) continue;
          if (!IsIndexedDerived(u_, rule.body[lb].pred)) continue;
          std::vector<int> n_lits =
              PresentNLiterals(static_cast<int>(rc), static_cast<int>(lb));
          if (n_lits.empty()) continue;

          // Condition: every variable of the N literals occurs only within
          // the N literals or in bound arguments of the target.
          std::set<Slot> allowed;
          for (int b : n_lits) AddLiteralSlots(rule, b, &allowed);
          for (int arg : BoundArgSlots(rule.body[lb].pred)) {
            allowed.insert(Slot{static_cast<int>(lb), arg});
          }
          std::vector<SymbolId> n_vars;
          for (int b : n_lits) {
            for (SymbolId v : NonIndexVars(u_, rule.body[b])) {
              if (std::find(n_vars.begin(), n_vars.end(), v) == n_vars.end()) {
                n_vars.push_back(v);
              }
            }
          }
          bool pass = true;
          for (SymbolId v : n_vars) {
            if (!Confined(rule, v, allowed)) {
              pass = false;
              break;
            }
          }
          if (!pass) continue;

          DeleteBodyLiterals(static_cast<int>(rc), n_lits);
          changed = true;
          rule_changed = true;
          break;  // body indices shifted; rescan this rule
        }
      }
    }
    return changed;
  }

  // ---- Theorem 8.3 --------------------------------------------------------

  bool BlockPass() {
    bool changed = false;
    for (const std::vector<PredId>& block : IndexedBlocks()) {
      if (TryBlock(block)) changed = true;
    }
    return changed;
  }

  /// SCCs of the indexed predicates under "head depends on body" edges.
  std::vector<std::vector<PredId>> IndexedBlocks() const {
    std::vector<PredId> preds;
    for (const auto& [adorned, indexed] : cp_.indexed_of) {
      preds.push_back(indexed);
    }
    std::sort(preds.begin(), preds.end());
    auto index_of = [&](PredId p) -> int {
      auto it = std::lower_bound(preds.begin(), preds.end(), p);
      if (it == preds.end() || *it != p) return -1;
      return static_cast<int>(it - preds.begin());
    };
    const size_t n = preds.size();
    std::vector<std::vector<bool>> reach(n, std::vector<bool>(n, false));
    for (const Rule& rule : cp_.rewritten.program.rules()) {
      int h = index_of(rule.head.pred);
      if (h < 0) continue;
      for (const Literal& lit : rule.body) {
        int b = index_of(lit.pred);
        if (b >= 0) reach[h][b] = true;
      }
    }
    for (size_t k = 0; k < n; ++k) {
      for (size_t i = 0; i < n; ++i) {
        if (!reach[i][k]) continue;
        for (size_t j = 0; j < n; ++j) {
          if (reach[k][j]) reach[i][j] = true;
        }
      }
    }
    std::vector<bool> used(n, false);
    std::vector<std::vector<PredId>> blocks;
    for (size_t i = 0; i < n; ++i) {
      if (used[i]) continue;
      std::vector<PredId> block = {preds[i]};
      used[i] = true;
      for (size_t j = i + 1; j < n; ++j) {
        if (!used[j] && reach[i][j] && reach[j][i]) {
          block.push_back(preds[j]);
          used[j] = true;
        }
      }
      blocks.push_back(std::move(block));
    }
    return blocks;
  }

  bool TryBlock(const std::vector<PredId>& block) {
    auto in_block = [&](PredId p) {
      return std::find(block.begin(), block.end(), p) != block.end();
    };
    // Anything to drop?
    bool any_bound = false;
    for (PredId p : block) {
      if (!BoundArgSlots(p).empty()) any_bound = true;
    }
    if (!any_bound) return false;

    // Deletions to perform on success: rule -> N-literal body indices.
    std::map<int, std::set<int>> deletions;

    for (size_t rc = 0; rc < rules().size(); ++rc) {
      const Rule& rule = rules()[rc];
      const bool head_in_block = in_block(rule.head.pred);
      std::set<Slot> head_bound_slots;
      if (head_in_block) {
        for (int arg : BoundArgSlots(rule.head.pred)) {
          head_bound_slots.insert(Slot{-1, arg});
        }
      }
      for (size_t lb = 0; lb < rule.body.size(); ++lb) {
        const Literal& lit = rule.body[lb];
        if (!in_block(lit.pred)) continue;
        const CountingLiteralMeta& lm = cp_.meta[rc].body[lb];
        if (lm.is_cnt_guard) continue;  // guards mirror their literal
        std::vector<int> bound_slots = BoundArgSlots(lit.pred);
        if (bound_slots.empty()) continue;
        std::vector<int> n_lits =
            PresentNLiterals(static_cast<int>(rc), static_cast<int>(lb));

        // Condition (1): bound-argument variables of the block literal are
        // confined to {same literal's bound args, head's bound args (when
        // the head is in the block), the N literals}.
        std::set<Slot> allowed = head_bound_slots;
        for (int arg : bound_slots) {
          allowed.insert(Slot{static_cast<int>(lb), arg});
        }
        for (int b : n_lits) AddLiteralSlots(rule, b, &allowed);
        std::vector<SymbolId> bvars;
        for (int arg : bound_slots) {
          u_.terms().AppendVariables(lit.args[arg], &bvars);
        }
        for (SymbolId v : bvars) {
          if (!Confined(rule, v, allowed)) return false;
        }

        // Condition (2), and deletion scheduling, in rules defining a block
        // predicate. An empty present-N is the Lemma 8.2 case (the bound
        // arguments join nothing here; the indices carry the correlation),
        // so conditions are vacuous and there is nothing to delete.
        if (head_in_block && !n_lits.empty()) {
          std::set<Slot> allowed2 = head_bound_slots;
          for (int arg : bound_slots) {
            allowed2.insert(Slot{static_cast<int>(lb), arg});
          }
          for (int b : n_lits) AddLiteralSlots(rule, b, &allowed2);
          for (int b : n_lits) {
            for (SymbolId v : NonIndexVars(u_, rule.body[b])) {
              if (!Confined(rule, v, allowed2)) return false;
            }
          }
          for (int b : n_lits) deletions[static_cast<int>(rc)].insert(b);
        }
      }
    }

    // Commit: delete scheduled literals, then drop the bound positions.
    for (auto it = deletions.rbegin(); it != deletions.rend(); ++it) {
      std::vector<int> body_indices(it->second.begin(), it->second.end());
      DeleteBodyLiterals(it->first, body_indices);
    }
    for (PredId p : block) {
      DropBoundPositions(p);
    }
    if (stats_ != nullptr) ++stats_->blocks_optimized;
    return true;
  }

  // ---- Supplementary re-trimming ------------------------------------------

  bool RetrimSupplementaries() {
    bool changed = false;
    // Collect supplementary predicates present in the program.
    std::vector<PredId> supps;
    for (const Rule& rule : rules()) {
      PredId h = rule.head.pred;
      if (u_.predicates().info(h).kind == PredKind::kSupCounting &&
          std::find(supps.begin(), supps.end(), h) == supps.end()) {
        supps.push_back(h);
      }
    }
    for (PredId s : supps) {
      const PredicateInfo& info = u_.predicates().info(s);
      // A non-index position is dead when no rule that reads `s` in its body
      // uses the variable found there anywhere else.
      std::vector<bool> dead(info.arity, false);
      for (uint32_t pos = 3; pos < info.arity; ++pos) dead[pos] = true;
      for (size_t rc = 0; rc < rules().size(); ++rc) {
        const Rule& rule = rules()[rc];
        for (size_t lb = 0; lb < rule.body.size(); ++lb) {
          const Literal& lit = rule.body[lb];
          if (lit.pred != s) continue;
          for (uint32_t pos = 3; pos < info.arity; ++pos) {
            if (!dead[pos]) continue;
            std::vector<SymbolId> vars;
            u_.terms().AppendVariables(lit.args[pos], &vars);
            for (SymbolId v : vars) {
              // Used if v occurs anywhere outside this argument slot.
              for (const Slot& slot : VarSlots(u_, rule, v)) {
                if (slot.literal == static_cast<int>(lb) &&
                    slot.arg == static_cast<int>(pos)) {
                  continue;
                }
                dead[pos] = false;
                break;
              }
              if (!dead[pos]) break;
            }
          }
        }
      }
      std::vector<int> dropped;
      for (uint32_t pos = 3; pos < info.arity; ++pos) {
        if (dead[pos]) dropped.push_back(static_cast<int>(pos));
      }
      if (dropped.empty()) continue;
      ReplacePredDroppingArgs(s, dropped, PredKind::kSupCounting);
      if (stats_ != nullptr) {
        stats_->supplementary_positions_trimmed +=
            static_cast<int>(dropped.size());
      }
      changed = true;
    }
    return changed;
  }

  // ---- Commit helpers ------------------------------------------------------

  void DeleteBodyLiterals(int rc, std::vector<int> body_indices) {
    std::sort(body_indices.begin(), body_indices.end());
    Rule& rule = rules()[rc];
    CountingRuleMeta& meta = cp_.meta[rc];
    for (auto it = body_indices.rbegin(); it != body_indices.rend(); ++it) {
      rule.body.erase(rule.body.begin() + *it);
      meta.body.erase(meta.body.begin() + *it);
      if (stats_ != nullptr) ++stats_->literals_deleted;
    }
  }

  /// Drops the bound kept positions of indexed predicate `pred`, replacing
  /// it program-wide by a narrower predicate with the same name.
  void DropBoundPositions(PredId pred) {
    std::vector<int> arg_slots = BoundArgSlots(pred);
    if (arg_slots.empty()) return;
    const PredicateInfo info = u_.predicates().info(pred);  // copy
    PredId adorned = info.parent;

    std::vector<int> old_kept = cp_.kept_positions.at(pred);
    std::vector<int> new_kept;
    for (size_t j = 0; j < old_kept.size(); ++j) {
      if (!info.adornment.bound(static_cast<size_t>(old_kept[j]))) {
        new_kept.push_back(old_kept[j]);
      }
    }

    PredId narrowed =
        ReplacePredDroppingArgs(pred, arg_slots, PredKind::kDerived);
    cp_.kept_positions.erase(pred);
    cp_.kept_positions[narrowed] = new_kept;
    cp_.indexed_of[adorned] = narrowed;

    if (cp_.rewritten.answer_pred == pred) {
      cp_.rewritten.answer_pred = narrowed;
      for (size_t p = 0; p < cp_.rewritten.answer_positions.size(); ++p) {
        int col = -1;
        for (size_t j = 0; j < new_kept.size(); ++j) {
          if (new_kept[j] == static_cast<int>(p)) {
            col = 3 + static_cast<int>(j);
            break;
          }
        }
        cp_.rewritten.answer_positions[p] = col;
      }
    }
    if (stats_ != nullptr) {
      stats_->argument_positions_dropped += static_cast<int>(arg_slots.size());
    }
  }

  /// Declares a narrower replacement for `pred` without the given argument
  /// slots and rewrites every head/body literal. Returns the new predicate.
  PredId ReplacePredDroppingArgs(PredId pred, const std::vector<int>& slots,
                                 PredKind kind) {
    const PredicateInfo info = u_.predicates().info(pred);  // copy
    uint32_t new_arity = info.arity - static_cast<uint32_t>(slots.size());
    SymbolId sym =
        u_.UniquePredicateName(u_.symbols().Name(info.name), new_arity);
    PredId narrowed = u_.predicates().Declare(sym, new_arity, kind);
    PredicateInfo& ninfo = u_.predicates().mutable_info(narrowed);
    ninfo.parent = info.parent;
    ninfo.adornment = info.adornment;
    ninfo.index_fields = info.index_fields;

    auto rewrite = [&](Literal* lit) {
      if (lit->pred != pred) return;
      std::vector<TermId> args;
      for (size_t a = 0; a < lit->args.size(); ++a) {
        if (std::find(slots.begin(), slots.end(), static_cast<int>(a)) ==
            slots.end()) {
          args.push_back(lit->args[a]);
        }
      }
      lit->pred = narrowed;
      lit->args = std::move(args);
    };
    for (Rule& rule : rules()) {
      rewrite(&rule.head);
      for (Literal& lit : rule.body) rewrite(&lit);
    }
    if (cp_.rewritten.seed.has_value() && cp_.rewritten.seed->pred == pred) {
      cp_.rewritten.seed->pred = narrowed;
    }
    return narrowed;
  }

  Status FinalCheck() const {
    const Universe& u = u_;
    for (size_t rc = 0; rc < cp_.rewritten.program.rules().size(); ++rc) {
      const Rule& rule = cp_.rewritten.program.rules()[rc];
      std::vector<SymbolId> body_vars;
      for (const Literal& lit : rule.body) {
        AppendLiteralVariables(u, lit, &body_vars);
      }
      for (SymbolId v : LiteralVariables(u, rule.head)) {
        if (std::find(body_vars.begin(), body_vars.end(), v) ==
            body_vars.end()) {
          return Status::Internal(
              "semijoin optimization broke range restriction in rule " +
              std::to_string(rc) + " (variable '" + u.symbols().Name(v) +
              "')");
        }
      }
    }
    return Status::OK();
  }

  CountingProgram& cp_;
  Universe& u_;
  SemijoinStats* stats_;
};

}  // namespace

Result<CountingProgram> ApplySemijoinOptimization(const CountingProgram& input,
                                                  SemijoinStats* stats) {
  CountingProgram out = input;
  SemijoinStats local;
  Optimizer optimizer(&out, stats != nullptr ? stats : &local);
  MAGIC_RETURN_IF_ERROR(optimizer.Run());
  return out;
}

}  // namespace magic
