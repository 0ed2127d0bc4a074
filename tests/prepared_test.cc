#include "engine/prepared.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "workload/generators.h"

namespace magic {
namespace {

TEST(PreparedQueryFormTest, OneRewriteServesManyInstances) {
  Workload w = MakeAncestorChain(20);
  Universe& u = *w.universe;
  EngineOptions options;
  options.strategy = Strategy::kMagic;
  auto form = PreparedQueryForm::Prepare(w.program, w.query, options);
  ASSERT_TRUE(form.ok()) << form.status().ToString();
  EXPECT_EQ(form->adornment().ToString(), "bf");

  // Querying different constants through the same compiled form matches
  // fresh semi-naive runs of the original program (its least model
  // restricted to the query).
  EngineOptions reference;
  reference.strategy = Strategy::kSemiNaiveBottomUp;
  for (const char* node : {"c0", "c5", "c12", "c19"}) {
    QueryAnswer prepared = form->Answer({u.Constant(node)}, w.db);
    ASSERT_TRUE(prepared.status.ok()) << prepared.status.ToString();

    Query fresh_query = w.query;
    fresh_query.goal.args[0] = u.Constant(node);
    QueryAnswer fresh = QueryEngine(reference).Run(w.program, fresh_query,
                                                   w.db);
    ASSERT_TRUE(fresh.status.ok());
    EXPECT_EQ(prepared.tuples, fresh.tuples) << node;
  }
}

TEST(PreparedQueryFormTest, WorksForCountingStrategies) {
  Workload w = MakeAncestorChain(16);
  Universe& u = *w.universe;
  EngineOptions options;
  options.strategy = Strategy::kCountingSemijoin;
  auto form = PreparedQueryForm::Prepare(w.program, w.query, options);
  ASSERT_TRUE(form.ok()) << form.status().ToString();
  QueryAnswer a = form->Answer({u.Constant("c10")}, w.db);
  ASSERT_TRUE(a.status.ok()) << a.status.ToString();
  EXPECT_EQ(a.tuples.size(), 5u);  // c11..c15
}

TEST(PreparedQueryFormTest, CompilesNonRewritingStrategies) {
  // naive/seminaive/topdown compile to plans too: Prepare runs the
  // strategy's whole compile step (for topdown, adornment) once, and
  // Answer serves instances without re-adorning.
  Workload w = MakeAncestorChain(12);
  Universe& u = *w.universe;
  EngineOptions reference;
  reference.strategy = Strategy::kSemiNaiveBottomUp;
  for (Strategy strategy : {Strategy::kNaiveBottomUp,
                            Strategy::kSemiNaiveBottomUp,
                            Strategy::kTopDown}) {
    EngineOptions options;
    options.strategy = strategy;
    auto form = PreparedQueryForm::Prepare(w.program, w.query, options);
    ASSERT_TRUE(form.ok()) << StrategyName(strategy) << ": "
                           << form.status().ToString();
    EXPECT_EQ(form->adornment().ToString(), "bf");
    EXPECT_EQ(form->strategy(), strategy);
    for (const char* node : {"c0", "c5", "c11"}) {
      QueryAnswer prepared = form->Answer({u.Constant(node)}, w.db);
      ASSERT_TRUE(prepared.status.ok()) << prepared.status.ToString();
      Query fresh_query = w.query;
      fresh_query.goal.args[0] = u.Constant(node);
      QueryAnswer fresh =
          QueryEngine(reference).Run(w.program, fresh_query, w.db);
      ASSERT_TRUE(fresh.status.ok());
      EXPECT_EQ(prepared.tuples, fresh.tuples)
          << StrategyName(strategy) << " @ " << node;
    }
  }
}

TEST(PreparedQueryFormTest, CompilationNeverTouchesTheBaseUniverse) {
  // The universe-immutability bar: every declaration compilation makes —
  // including top-down adornment and the rewrites' magic/supplementary
  // predicates — lands in the plan's overlay; the shared base tables are
  // byte-for-byte untouched, which is what makes prepared evaluation
  // side-effect-free and concurrently callable for every strategy. A
  // one-shot QueryEngine::Run compiles its own form, so it must leave the
  // base untouched too.
  Workload w = MakeAncestorChain(8);
  const Universe& u = *w.universe;
  const size_t symbols_before = u.symbols().size();
  const size_t preds_before = u.predicates().size();

  for (Strategy strategy : {Strategy::kTopDown, Strategy::kMagic,
                            Strategy::kSupplementaryMagic,
                            Strategy::kCounting,
                            Strategy::kSemiNaiveBottomUp}) {
    EngineOptions options;
    options.strategy = strategy;
    auto form = PreparedQueryForm::Prepare(w.program, w.query, options);
    ASSERT_TRUE(form.ok()) << StrategyName(strategy);
    EXPECT_EQ(u.symbols().size(), symbols_before) << StrategyName(strategy);
    EXPECT_EQ(u.predicates().size(), preds_before) << StrategyName(strategy);
    // The plan's overlay sees the declarations (for compiling strategies)
    // layered over the unchanged base ids.
    const Universe& plan_u = form->universe();
    EXPECT_TRUE(plan_u.is_overlay());
    EXPECT_GE(plan_u.predicates().size(), preds_before);
    // Base ids resolve identically through the overlay.
    EXPECT_EQ(plan_u.symbols().Name(0), u.symbols().Name(0));

    QueryAnswer one_shot = QueryEngine(options).Run(w.program, w.query, w.db);
    ASSERT_TRUE(one_shot.status.ok()) << StrategyName(strategy);
    EXPECT_EQ(u.symbols().size(), symbols_before) << StrategyName(strategy);
    EXPECT_EQ(u.predicates().size(), preds_before) << StrategyName(strategy);
  }
}

TEST(PreparedQueryFormTest, ValidatesInstanceArity) {
  Workload w = MakeAncestorChain(5);
  Universe& u = *w.universe;
  auto form = PreparedQueryForm::Prepare(w.program, w.query);
  ASSERT_TRUE(form.ok());
  QueryAnswer too_many =
      form->Answer({u.Constant("c0"), u.Constant("c1")}, w.db);
  EXPECT_EQ(too_many.status.code(), StatusCode::kInvalidArgument);
  QueryAnswer non_ground = form->Answer({u.Variable("X")}, w.db);
  EXPECT_EQ(non_ground.status.code(), StatusCode::kInvalidArgument);
}

TEST(PreparedQueryFormTest, RowLimitedAnswerDoesStrictlyLessWork) {
  Workload w = MakeAncestorChain(200);
  Universe& u = *w.universe;
  auto form = PreparedQueryForm::Prepare(w.program, w.query);
  ASSERT_TRUE(form.ok());

  QueryAnswer unlimited = form->Answer({u.Constant("c0")}, w.db);
  ASSERT_TRUE(unlimited.status.ok());
  EXPECT_EQ(unlimited.tuples.size(), 199u);

  QueryLimits limits;
  limits.row_limit = 1;
  QueryAnswer limited = form->Answer({u.Constant("c0")}, w.db, limits);
  ASSERT_TRUE(limited.status.ok());
  EXPECT_EQ(limited.outcome, AnswerStatus::kTruncated);
  EXPECT_EQ(limited.tuples.size(), 1u);
  EXPECT_LT(limited.eval_stats.new_facts, unlimited.eval_stats.new_facts);
  EXPECT_LT(limited.eval_stats.iterations,
            unlimited.eval_stats.iterations);
}

TEST(PreparedQueryFormTest, SinkStreamsDistinctAnswersInDerivationOrder) {
  Workload w = MakeAncestorChain(12);
  Universe& u = *w.universe;
  auto form = PreparedQueryForm::Prepare(w.program, w.query);
  ASSERT_TRUE(form.ok());

  QueryAnswer materialized = form->Answer({u.Constant("c0")}, w.db);
  ASSERT_TRUE(materialized.status.ok());

  std::vector<std::vector<TermId>> streamed;
  AnswerSink sink = [&](const std::vector<TermId>& tuple) {
    streamed.push_back(tuple);
    return true;
  };
  QueryAnswer answer =
      form->Answer({u.Constant("c0")}, w.db, QueryLimits{}, sink);
  ASSERT_TRUE(answer.status.ok());
  EXPECT_EQ(answer.outcome, AnswerStatus::kOk);
  // With a sink the answer's tuples stay empty (everything streamed); the
  // sink saw each distinct answer exactly once, and sorted they equal the
  // materialized run.
  EXPECT_TRUE(answer.tuples.empty());
  EXPECT_EQ(streamed.size(), materialized.tuples.size());
  std::sort(streamed.begin(), streamed.end());
  EXPECT_EQ(streamed, materialized.tuples);
}

TEST(PreparedQueryFormTest, SinkReturningFalseTruncates) {
  Workload w = MakeAncestorChain(50);
  Universe& u = *w.universe;
  auto form = PreparedQueryForm::Prepare(w.program, w.query);
  ASSERT_TRUE(form.ok());

  size_t seen = 0;
  AnswerSink sink = [&](const std::vector<TermId>&) { return ++seen < 4; };
  QueryAnswer answer =
      form->Answer({u.Constant("c0")}, w.db, QueryLimits{}, sink);
  ASSERT_TRUE(answer.status.ok());
  EXPECT_EQ(answer.outcome, AnswerStatus::kTruncated);
  EXPECT_EQ(seen, 4u);
  EXPECT_TRUE(answer.tuples.empty());  // streamed, not materialized
}

TEST(PreparedQueryFormTest, FullyBoundFormAnswersMembership) {
  Workload w = MakeAncestorChain(8);
  Universe& u = *w.universe;
  Query exemplar = w.query;
  exemplar.goal.args[1] = u.Constant("c1");  // both positions bound
  auto form = PreparedQueryForm::Prepare(w.program, exemplar);
  ASSERT_TRUE(form.ok());
  EXPECT_EQ(form->adornment().ToString(), "bb");
  QueryAnswer yes = form->Answer({u.Constant("c0"), u.Constant("c5")}, w.db);
  ASSERT_TRUE(yes.status.ok());
  EXPECT_EQ(yes.tuples.size(), 1u);  // "true"
  QueryAnswer no = form->Answer({u.Constant("c5"), u.Constant("c0")}, w.db);
  ASSERT_TRUE(no.status.ok());
  EXPECT_TRUE(no.tuples.empty());
}

}  // namespace
}  // namespace magic
