#include "engine/query_engine.h"

#include <algorithm>
#include <numeric>
#include <set>

#include "engine/prepared.h"
#include "util/check.h"

namespace magic {

namespace {

/// Single source of truth for strategy names; the CLI parses with
/// StrategyFromName against this same table.
constexpr std::pair<Strategy, const char*> kStrategyNames[] = {
    {Strategy::kNaiveBottomUp, "naive"},
    {Strategy::kSemiNaiveBottomUp, "seminaive"},
    {Strategy::kMagic, "gms"},
    {Strategy::kSupplementaryMagic, "gsms"},
    {Strategy::kCounting, "gc"},
    {Strategy::kSupplementaryCounting, "gsc"},
    {Strategy::kCountingSemijoin, "gc+sj"},
    {Strategy::kSupCountingSemijoin, "gsc+sj"},
    {Strategy::kTopDown, "topdown"},
};

}  // namespace

std::string StrategyName(Strategy strategy) {
  for (const auto& [value, name] : kStrategyNames) {
    if (value == strategy) return name;
  }
  return "?";
}

std::optional<Strategy> StrategyFromName(const std::string& name) {
  for (const auto& [value, table_name] : kStrategyNames) {
    if (name == table_name) return value;
  }
  return std::nullopt;
}

std::span<const std::pair<Strategy, const char*>> StrategyNames() {
  return kStrategyNames;
}

bool IsRewritingStrategy(Strategy strategy) {
  switch (strategy) {
    case Strategy::kMagic:
    case Strategy::kSupplementaryMagic:
    case Strategy::kCounting:
    case Strategy::kSupplementaryCounting:
    case Strategy::kCountingSemijoin:
    case Strategy::kSupCountingSemijoin:
      return true;
    default:
      return false;
  }
}

AnswerStatus ClassifyOutcome(StopReason stop, const Status& status) {
  switch (stop) {
    case StopReason::kSink: return AnswerStatus::kTruncated;
    case StopReason::kDeadline: return AnswerStatus::kDeadlineExceeded;
    case StopReason::kCancelled: return AnswerStatus::kCancelled;
    case StopReason::kNone: break;
  }
  return status.ok() ? AnswerStatus::kOk : AnswerStatus::kError;
}

std::vector<std::vector<TermId>> AnswerProjector::ProjectAll(
    const Relation& rel) const {
  // Projects into one flat buffer and sorts the row order there, so the
  // only per-answer allocation is the output vector itself.
  const size_t arity = free_columns_.size();
  std::vector<TermId> flat;
  std::vector<TermId> projected;
  size_t rows = 0;
  for (size_t row = 0; row < rel.size(); ++row) {
    if (Project(rel.Row(row), &projected)) {
      flat.insert(flat.end(), projected.begin(), projected.end());
      ++rows;
    }
  }
  auto row_at = [&](uint32_t r) { return flat.data() + r * arity; };
  auto less = [&](uint32_t a, uint32_t b) {
    const TermId* x = row_at(a);
    const TermId* y = row_at(b);
    for (size_t i = 0; i < arity; ++i) {
      if (x[i] != y[i]) return x[i] < y[i];
    }
    return false;
  };
  std::vector<uint32_t> order(rows);
  std::iota(order.begin(), order.end(), 0u);
  std::sort(order.begin(), order.end(), less);
  std::vector<std::vector<TermId>> out;
  out.reserve(rows);
  for (size_t i = 0; i < order.size(); ++i) {
    if (i > 0 && !less(order[i - 1], order[i])) continue;  // duplicate
    out.emplace_back(row_at(order[i]), row_at(order[i]) + arity);
  }
  return out;
}

AnswerProjector AnswerProjector::ForRewritten(
    const Universe& u, const RewrittenProgram& rewritten, const Query& query) {
  AnswerProjector p;
  TermId zero = u.Integer(0);
  for (uint32_t f = 0; f < rewritten.answer_index_fields; ++f) {
    p.required_.emplace_back(static_cast<int>(f), zero);
  }
  const std::vector<int> pattern = QueryArgPattern(u, query);
  for (size_t pos = 0; pos < pattern.size(); ++pos) {
    int col = rewritten.answer_positions[pos];
    if (pattern[pos] == kGroundArg) {
      // The semijoin optimization may have dropped this bound column.
      if (col >= 0) p.bound_checks_.emplace_back(col, query.goal.args[pos]);
    } else {
      MAGIC_CHECK_MSG(col >= 0, "free query positions are never dropped");
      if (pattern[pos] != static_cast<int>(pos)) {
        p.equal_columns_.emplace_back(
            col, rewritten.answer_positions[pattern[pos]]);
      }
      p.free_columns_.push_back(col);
    }
  }
  return p;
}

AnswerProjector AnswerProjector::ForDirect(const Universe& u,
                                           const Query& query) {
  AnswerProjector p;
  const std::vector<int> pattern = QueryArgPattern(u, query);
  for (int pos = 0; pos < static_cast<int>(pattern.size()); ++pos) {
    if (pattern[pos] == kGroundArg) {
      p.bound_checks_.emplace_back(pos, query.goal.args[pos]);
    } else {
      if (pattern[pos] != pos) p.equal_columns_.emplace_back(pos, pattern[pos]);
      p.free_columns_.push_back(pos);
    }
  }
  return p;
}

bool AnswerProjector::Project(std::span<const TermId> tuple,
                              std::vector<TermId>* out) const {
  for (const auto& [col, term] : required_) {
    if (tuple[col] != term) return false;
  }
  for (const auto& [col, term] : bound_checks_) {
    if (tuple[col] != term) return false;
  }
  for (const auto& [col, first] : equal_columns_) {
    if (tuple[col] != tuple[first]) return false;
  }
  out->clear();
  for (int col : free_columns_) out->push_back(tuple[col]);
  return true;
}

bool AnswerCollector::Accept(std::vector<TermId> tuple) {
  if (truncated_) return false;
  auto [it, inserted] = seen_.insert(std::move(tuple));
  if (!inserted) return true;
  if (sink_ != nullptr && *sink_ && !(*sink_)(*it)) {
    truncated_ = true;
    return false;
  }
  if (row_limit_ != 0 && seen_.size() >= row_limit_) {
    truncated_ = true;
    return false;
  }
  return true;
}

std::function<bool(std::span<const TermId>)> MakeAnswerHook(
    const AnswerProjector& projector, AnswerCollector& collector) {
  return [&projector, &collector,
          projected = std::vector<TermId>()](
             std::span<const TermId> row) mutable {
    if (!projector.Project(row, &projected)) return true;
    return collector.Accept(projected);
  };
}

std::vector<std::vector<TermId>> AnswerCollector::TakeSorted() {
  // std::set of vectors iterates in lexicographic order — exactly the
  // sorted/deduplicated order AnswerProjector::ProjectAll produces after
  // the fact.
  std::vector<std::vector<TermId>> out;
  out.reserve(seen_.size());
  for (auto it = seen_.begin(); it != seen_.end();) {
    out.push_back(std::move(seen_.extract(it++).value()));
  }
  return out;
}

Result<RewrittenProgram> QueryEngine::Rewrite(const AdornedProgram& adorned,
                                              Strategy strategy,
                                              GuardMode guard_mode) {
  switch (strategy) {
    case Strategy::kMagic: {
      MagicOptions options;
      options.guard_mode = guard_mode;
      return MagicSetsRewrite(adorned, options);
    }
    case Strategy::kSupplementaryMagic: {
      return SupplementaryMagicRewrite(adorned);
    }
    case Strategy::kCounting:
    case Strategy::kCountingSemijoin: {
      CountingOptions options;
      options.guard_mode = guard_mode;
      Result<CountingProgram> counting = CountingRewrite(adorned, options);
      if (!counting.ok()) return counting.status();
      if (strategy == Strategy::kCounting) {
        return counting->rewritten;
      }
      Result<CountingProgram> optimized =
          ApplySemijoinOptimization(*counting);
      if (!optimized.ok()) return optimized.status();
      return optimized->rewritten;
    }
    case Strategy::kSupplementaryCounting:
    case Strategy::kSupCountingSemijoin: {
      Result<CountingProgram> counting =
          SupplementaryCountingRewrite(adorned);
      if (!counting.ok()) return counting.status();
      if (strategy == Strategy::kSupplementaryCounting) {
        return counting->rewritten;
      }
      Result<CountingProgram> optimized =
          ApplySemijoinOptimization(*counting);
      if (!optimized.ok()) return optimized.status();
      return optimized->rewritten;
    }
    default:
      return Status::InvalidArgument(
          "strategy is not a rewriting strategy: " + StrategyName(strategy));
  }
}

QueryAnswer QueryEngine::Run(const Program& program, const Query& query,
                             const Database& db) const {
  return Run(program, query, db, QueryLimits{});
}

QueryAnswer QueryEngine::Run(
    const Program& program, const Query& query, const Database& db,
    const QueryLimits& limits, const AnswerSink& sink,
    std::optional<std::chrono::steady_clock::time_point> admitted) const {
  QueryAnswer answer;
  answer.strategy_name = StrategyName(options_.strategy);
  // A one-shot query is its form compiled once and answered once.
  Result<PreparedQueryForm> form =
      PreparedQueryForm::Prepare(program, query, options_);
  if (!form.ok()) {
    answer.status = form.status();
    answer.outcome = AnswerStatus::kError;
    // An Unsafe status carries the safety verdict as its message.
    if (answer.status.code() == StatusCode::kUnsafe) {
      answer.safety_note = answer.status.message();
    }
    return answer;
  }
  answer = form->Answer(QueryBoundArgs(*program.universe(), query), db,
                        limits, sink, admitted);
  if (options_.explain) {
    for (const std::string& rule : form->rule_labels()) {
      answer.rewritten_text += rule;
      answer.rewritten_text += '\n';
    }
  }
  return answer;
}

}  // namespace magic
