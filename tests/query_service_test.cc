#include "engine/query_service.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <future>
#include <memory>
#include <random>
#include <set>
#include <span>
#include <string>
#include <thread>
#include <vector>

#include "ast/parser.h"
#include "storage/write_batch.h"
#include "workload/generators.h"

namespace magic {
namespace {

/// One per-form counter of the `anc/bf` form under the default gsms/full
/// key, read from the service's registry.
uint64_t FormCell(QueryService& service, const std::string& name) {
  return service.metrics()
      .GetCounter(name,
                  {{"form", "anc/bf"}, {"strategy", "gsms"}, {"sip", "full"}})
      ->value();
}

/// Every strategy PreparedQueryForm accepts, i.e. everything QueryService
/// can serve for derived-predicate queries.
const Strategy kPreparableStrategies[] = {
    Strategy::kMagic,          Strategy::kSupplementaryMagic,
    Strategy::kCounting,       Strategy::kSupplementaryCounting,
    Strategy::kCountingSemijoin, Strategy::kSupCountingSemijoin,
};

/// Every strategy that accepts a query with no bound argument (the counting
/// family rejects one: its indices encode the path from a bound seed).
const Strategy kFreeQueryStrategies[] = {
    Strategy::kNaiveBottomUp, Strategy::kSemiNaiveBottomUp, Strategy::kMagic,
    Strategy::kSupplementaryMagic, Strategy::kTopDown,
};

Query InstanceAt(const Workload& w, const std::string& node) {
  Query query = w.query;
  query.goal.args[0] = w.universe->Constant(node);
  return query;
}

/// The ancestor program over par(a,b). par(b,a). par(b,c). with
/// `query_text` as its query: a and b lie on a cycle, so anc holds for
/// every pair from {a,b} x {a,b,c} and the diagonal is (a,a), (b,b).
Workload CyclicFamily(const std::string& query_text) {
  auto parsed = ParseUnit(
      "anc(X, Y) :- par(X, Y).\n"
      "anc(X, Y) :- par(X, Z), anc(Z, Y).\n"
      "par(a, b). par(b, a). par(b, c).\n"
      "?- " + query_text + ".");
  EXPECT_TRUE(parsed.ok()) << parsed.status().ToString();
  Workload w{parsed->program.universe(), parsed->program,
             Database(parsed->program.universe()), *parsed->query,
             "cyclic_family"};
  for (const Fact& fact : parsed->facts) EXPECT_TRUE(w.db.AddFact(fact).ok());
  return w;
}

/// Every tuple a cursor streams, pulled in chunks of 4.
std::vector<std::vector<TermId>> Drain(AnswerCursor& cursor) {
  std::vector<std::vector<TermId>> streamed;
  std::vector<std::vector<TermId>> chunk;
  while (cursor.Next(4, &chunk)) {
    streamed.insert(streamed.end(), chunk.begin(), chunk.end());
  }
  return streamed;
}

/// Answer tuples rendered as sorted "t1 t2" lines.
std::vector<std::string> Render(
    const Universe& u, const std::vector<std::vector<TermId>>& tuples) {
  std::vector<std::string> rows;
  for (const std::vector<TermId>& tuple : tuples) {
    std::string row;
    for (TermId term : tuple) {
      if (!row.empty()) row += ' ';
      row += u.TermToString(term);
    }
    rows.push_back(std::move(row));
  }
  std::sort(rows.begin(), rows.end());
  return rows;
}

TEST(QueryServiceTest, BatchMatchesSingleThreadedEngineForEveryStrategy) {
  for (Strategy strategy : kPreparableStrategies) {
    Workload w = MakeAncestorChain(24);

    // Many instances of one form, deliberately repeating constants so the
    // cache and the pool both see duplicates in flight.
    std::vector<QueryRequest> batch;
    for (int repeat = 0; repeat < 4; ++repeat) {
      for (int i = 0; i < 24; i += 2) {
        QueryRequest request;
        request.query = InstanceAt(w, "c" + std::to_string(i));
        batch.push_back(std::move(request));
      }
    }

    QueryServiceOptions options;
    options.num_threads = 8;
    options.engine.strategy = strategy;
    QueryService service(w.program, w.db, options);
    std::vector<QueryAnswer> answers = service.AnswerBatch(batch);
    ASSERT_EQ(answers.size(), batch.size());

    // The reference is the original program's least model restricted to
    // each query (semi-naive), independent of the served strategy.
    EngineOptions engine_options;
    engine_options.strategy = Strategy::kSemiNaiveBottomUp;
    QueryEngine engine(engine_options);
    for (size_t i = 0; i < batch.size(); ++i) {
      ASSERT_TRUE(answers[i].status.ok())
          << StrategyName(strategy) << ": " << answers[i].status.ToString();
      QueryAnswer expected = engine.Run(w.program, batch[i].query, w.db);
      ASSERT_TRUE(expected.status.ok());
      EXPECT_EQ(answers[i].tuples, expected.tuples)
          << StrategyName(strategy) << " query #" << i;
    }

    QueryService::Stats stats = service.stats();
    EXPECT_EQ(stats.forms_compiled, 1u) << StrategyName(strategy);
    EXPECT_EQ(stats.form_cache_hits, batch.size() - 1)
        << StrategyName(strategy);
    EXPECT_EQ(stats.queries_served, batch.size()) << StrategyName(strategy);
  }
}

TEST(QueryServiceTest, SameGenerationBatchMatchesEngine) {
  Workload w = MakeSameGenNonlinear(6, 4);
  std::vector<QueryRequest> batch;
  for (int level = 0; level < 3; ++level) {
    for (int column = 0; column < 4; ++column) {
      QueryRequest request;
      request.query = InstanceAt(w, "n" + std::to_string(level) + "_" +
                                        std::to_string(column));
      batch.push_back(std::move(request));
    }
  }

  QueryServiceOptions options;
  options.num_threads = 8;
  QueryService service(w.program, w.db, options);
  std::vector<QueryAnswer> answers = service.AnswerBatch(batch);

  EngineOptions reference;
  reference.strategy = Strategy::kSemiNaiveBottomUp;
  QueryEngine engine(reference);
  for (size_t i = 0; i < batch.size(); ++i) {
    ASSERT_TRUE(answers[i].status.ok()) << answers[i].status.ToString();
    QueryAnswer expected = engine.Run(w.program, batch[i].query, w.db);
    EXPECT_EQ(answers[i].tuples, expected.tuples) << "query #" << i;
  }
}

/// The issue's hammer test: >= 8 client threads concurrently pushing
/// single queries (not batches) through one shared service and database,
/// with per-request strategy overrides so several forms compile and serve
/// interleaved. The counting strategies intern affine/integer terms during
/// evaluation, so this also exercises the concurrent TermArena.
TEST(QueryServiceTest, ConcurrentClientsShareOneServiceAndFormCache) {
  Workload w = MakeAncestorChain(20);
  Universe& u = *w.universe;

  QueryServiceOptions options;
  options.num_threads = 8;
  QueryService service(w.program, w.db, options);

  // Expected answers, computed single-threaded before any concurrency.
  // (Universe reads during serving are safe; this also pre-interns every
  // constant the clients use.)
  std::vector<Query> queries;
  for (int i = 0; i < 20; ++i) {
    queries.push_back(InstanceAt(w, "c" + std::to_string(i)));
  }
  // One reference per query for every strategy: the original program's
  // least model restricted to the query (semi-naive).
  std::vector<std::vector<std::vector<TermId>>> expected;
  EngineOptions reference;
  reference.strategy = Strategy::kSemiNaiveBottomUp;
  for (const Query& query : queries) {
    QueryAnswer answer = QueryEngine(reference).Run(w.program, query, w.db);
    ASSERT_TRUE(answer.status.ok());
    expected.push_back(answer.tuples);
  }

  constexpr int kClients = 8;
  constexpr int kQueriesPerClient = 40;
  std::vector<int> failures(kClients, 0);
  {
    std::vector<std::thread> clients;
    for (int c = 0; c < kClients; ++c) {
      clients.emplace_back([&, c] {
        for (int q = 0; q < kQueriesPerClient; ++q) {
          // Deterministic per-client mix of instances and strategies.
          size_t strategy_index = (c + q) % std::size(kPreparableStrategies);
          size_t query_index = (c * 7 + q * 3) % queries.size();
          QueryRequest request;
          request.query = queries[query_index];
          request.strategy = kPreparableStrategies[strategy_index];
          QueryAnswer answer = service.Submit(request).get();
          if (!answer.status.ok() ||
              answer.tuples != expected[query_index]) {
            ++failures[c];
          }
        }
      });
    }
    for (std::thread& client : clients) client.join();
  }
  for (int c = 0; c < kClients; ++c) {
    EXPECT_EQ(failures[c], 0) << "client " << c;
  }

  QueryService::Stats stats = service.stats();
  EXPECT_EQ(stats.queries_served,
            static_cast<size_t>(kClients) * kQueriesPerClient);
  // One compiled form per strategy, everything else cache hits.
  EXPECT_EQ(stats.forms_compiled, std::size(kPreparableStrategies));
  (void)u;
}

TEST(QueryServiceTest, BasePredicateQueriesAreDirectSelections) {
  Workload w = MakeAncestorChain(10);
  Universe& u = *w.universe;
  PredId par = *u.predicates().Find(*u.symbols().Find("par"), 2);

  Query query;
  query.goal.pred = par;
  query.goal.args = {u.Constant("c3"), u.FreshVariable("Y")};

  QueryServiceOptions options;
  options.num_threads = 2;
  QueryService service(w.program, w.db, options);
  QueryRequest request;
  request.query = query;
  request.strategy = Strategy::kTopDown;
  QueryAnswer answer = service.Answer(request);
  ASSERT_TRUE(answer.status.ok()) << answer.status.ToString();
  ASSERT_EQ(answer.tuples.size(), 1u);
  EXPECT_EQ(u.TermToString(answer.tuples[0][0]), "c4");
  // No strategy applies to a selection, and the answer says so.
  EXPECT_EQ(answer.strategy_name, "selection");
  // A selection is a compiled form like any other.
  EXPECT_EQ(service.stats().forms_compiled, 1u);
}

TEST(QueryServiceTest, BasePredicateFormIsSharedAcrossStrategies) {
  // A selection's form key has an empty strategy slot and an empty sip,
  // so par(c0, Y) asked under two strategies (and two sips) compiles one
  // form, and the second request is served from the first one's
  // AnswerCache entry.
  Workload w = MakeAncestorChain(10);
  Universe& u = *w.universe;
  QueryServiceOptions options;
  options.num_threads = 2;
  QueryService service(w.program, w.db, options);
  QueryRequest request;
  request.query.goal.pred = *u.predicates().Find(*u.symbols().Find("par"), 2);
  request.query.goal.args = {u.Constant("c0"), u.FreshVariable("Y")};
  request.strategy = Strategy::kSupplementaryMagic;
  request.sip = "full";
  QueryAnswer first = service.Answer(request);
  ASSERT_TRUE(first.status.ok()) << first.status.ToString();
  EXPECT_FALSE(first.from_cache);
  request.strategy = Strategy::kCounting;
  request.sip = "chain";
  QueryAnswer second = service.Answer(request);
  ASSERT_TRUE(second.status.ok()) << second.status.ToString();
  EXPECT_TRUE(second.from_cache);
  EXPECT_EQ(second.tuples, first.tuples);
  EXPECT_EQ(second.strategy_name, "selection");
  EXPECT_EQ(service.metrics().GetCounter("magicdb_forms_compiled")->value(),
            1u);
  EXPECT_EQ(service.stats().forms_compiled, 1u);
}

TEST(QueryServiceTest, PrepareRecordsOneCompileLatencySample) {
  // Compile latency is recorded where the form compiles, so a form
  // compiled through Prepare counts once, and a second Prepare of the
  // same key (a form-cache hit) records nothing.
  Workload w = MakeAncestorChain(6);
  QueryServiceOptions options;
  options.num_threads = 2;
  QueryService service(w.program, w.db, options);
  auto compile_samples = [&] {
    return service.metrics()
        .GetHistogram("magicdb_compile_latency_ns")
        ->Snapshot()
        .count;
  };
  QueryRequest request;
  request.query = w.query;
  EXPECT_EQ(compile_samples(), 0u);
  ASSERT_TRUE(service.Prepare(request).ok());
  EXPECT_EQ(compile_samples(), 1u);
  ASSERT_TRUE(service.Prepare(request).ok());
  EXPECT_EQ(compile_samples(), 1u);
}

TEST(QueryServiceTest, ServesNonRewritingStrategiesAsPreparedForms) {
  // naive/seminaive/topdown compile to plans like everything else and are
  // served against pinned snapshots — no exclusive fallback path exists.
  // Interleaved here with rewriting-strategy requests on the same pool.
  Workload w = MakeAncestorChain(16);
  QueryServiceOptions options;
  options.num_threads = 4;
  QueryService service(w.program, w.db, options);

  const Strategy non_rewriting[] = {Strategy::kNaiveBottomUp,
                                    Strategy::kSemiNaiveBottomUp,
                                    Strategy::kTopDown};
  std::vector<QueryRequest> batch;
  for (Strategy strategy : non_rewriting) {
    for (int i = 0; i < 8; ++i) {
      QueryRequest request;
      request.query = InstanceAt(w, "c" + std::to_string(i));
      request.strategy = strategy;
      batch.push_back(request);
      QueryRequest rewriting = request;
      rewriting.strategy = Strategy::kSupplementaryMagic;
      batch.push_back(rewriting);
    }
  }
  std::vector<QueryAnswer> answers = service.AnswerBatch(batch);
  ASSERT_EQ(answers.size(), batch.size());
  for (size_t i = 0; i < batch.size(); ++i) {
    ASSERT_TRUE(answers[i].status.ok())
        << "query #" << i << ": " << answers[i].status.ToString();
    EngineOptions engine_options;
    engine_options.strategy = Strategy::kSemiNaiveBottomUp;
    QueryAnswer expected =
        QueryEngine(engine_options).Run(w.program, batch[i].query, w.db);
    EXPECT_EQ(answers[i].tuples, expected.tuples)
        << StrategyName(*batch[i].strategy) << " query #" << i;
  }
  QueryService::Stats stats = service.stats();
  // One compiled form per strategy (3 non-rewriting + gsms); every request
  // resolved through the form cache — no fallback counter exists anymore.
  EXPECT_EQ(stats.forms_compiled, std::size(non_rewriting) + 1);
  EXPECT_EQ(stats.queries_served, batch.size());
}

TEST(QueryServiceTest, PreparesNonRewritingStrategyHandles) {
  // The strategies that used to be fallback-only are first-class handles:
  // Prepare succeeds, and the handle serves instances with limits/cache
  // like any rewriting form.
  Workload w = MakeAncestorChain(12);
  Universe& u = *w.universe;
  QueryServiceOptions options;
  options.num_threads = 2;
  QueryService service(w.program, w.db, options);

  for (Strategy strategy : {Strategy::kNaiveBottomUp,
                            Strategy::kSemiNaiveBottomUp,
                            Strategy::kTopDown}) {
    QueryRequest request;
    request.query = w.query;
    request.strategy = strategy;
    auto handle = service.Prepare(request);
    ASSERT_TRUE(handle.ok()) << StrategyName(strategy) << ": "
                             << handle.status().ToString();
    EXPECT_TRUE(handle->valid());
    EXPECT_EQ(handle->adornment().ToString(), "bf");
    EXPECT_EQ(handle->bound_arity(), 1u);

    QueryAnswer answer = service.Answer(*handle, {u.Constant("c3")});
    ASSERT_TRUE(answer.status.ok()) << answer.status.ToString();
    EXPECT_EQ(answer.tuples.size(), 8u);  // c4 .. c11
    EXPECT_FALSE(answer.from_cache);

    // Second instance of the same handle hits the AnswerCache.
    QueryAnswer repeat = service.Answer(*handle, {u.Constant("c3")});
    EXPECT_TRUE(repeat.from_cache);
    EXPECT_EQ(repeat.tuples, answer.tuples);

    // Row limits flow through the plan's control hook.
    QueryLimits limits;
    limits.row_limit = 2;
    QueryAnswer limited =
        service.Answer(*handle, {u.Constant("c0")}, limits);
    ASSERT_TRUE(limited.status.ok());
    EXPECT_EQ(limited.outcome, AnswerStatus::kTruncated);
    EXPECT_EQ(limited.tuples.size(), 2u);
  }
}

TEST(QueryServiceTest, PreparesBasePredicatesAndRejectsBadSip) {
  Workload w = MakeAncestorChain(5);
  Universe& u = *w.universe;
  QueryServiceOptions options;
  options.num_threads = 2;
  QueryService service(w.program, w.db, options);

  QueryRequest base;
  base.query.goal.pred = *u.predicates().Find(*u.symbols().Find("par"), 2);
  base.query.goal.args = {u.Constant("c0"), u.FreshVariable("Y")};
  auto selection = service.Prepare(base);
  ASSERT_TRUE(selection.ok()) << selection.status().ToString();
  EXPECT_EQ(selection->adornment().ToString(), "bf");
  QueryAnswer answer = service.Answer(*selection, {u.Constant("c1")});
  ASSERT_TRUE(answer.status.ok()) << answer.status.ToString();
  ASSERT_EQ(answer.tuples.size(), 1u);
  EXPECT_EQ(u.TermToString(answer.tuples[0][0]), "c2");

  QueryRequest bad_sip;
  bad_sip.query = w.query;
  bad_sip.sip = "no-such-sip";
  EXPECT_FALSE(service.Prepare(bad_sip).ok());
}

TEST(QueryServiceTest, RowLimitStopsEvaluationEarly) {
  // The issue's acceptance bar: over a large recursive EDB, a row_limit=1
  // query must do strictly less evaluation work than the unlimited run,
  // not just return fewer rows.
  Workload w = MakeAncestorChain(300);
  Universe& u = *w.universe;
  QueryServiceOptions options;
  options.num_threads = 2;
  // This test measures evaluation work; a warm AnswerCache would serve the
  // repeats without evaluating and make the comparisons vacuous.
  options.cache_bytes = 0;
  QueryService service(w.program, w.db, options);

  QueryRequest exemplar;
  exemplar.query = w.query;
  auto handle = service.Prepare(exemplar);
  ASSERT_TRUE(handle.ok()) << handle.status().ToString();
  EXPECT_TRUE(handle->valid());
  EXPECT_EQ(handle->bound_arity(), 1u);

  QueryAnswer unlimited = service.Answer(*handle, {u.Constant("c0")});
  ASSERT_TRUE(unlimited.status.ok()) << unlimited.status.ToString();
  EXPECT_EQ(unlimited.outcome, AnswerStatus::kOk);
  EXPECT_EQ(unlimited.tuples.size(), 299u);

  QueryLimits limits;
  limits.row_limit = 1;
  QueryAnswer limited = service.Answer(*handle, {u.Constant("c0")}, limits);
  ASSERT_TRUE(limited.status.ok()) << limited.status.ToString();
  EXPECT_EQ(limited.outcome, AnswerStatus::kTruncated);
  EXPECT_TRUE(limited.truncated());
  ASSERT_EQ(limited.tuples.size(), 1u);
  // The single tuple is a genuine answer.
  EXPECT_TRUE(std::find(unlimited.tuples.begin(), unlimited.tuples.end(),
                        limited.tuples[0]) != unlimited.tuples.end());

  // Strictly less work: fewer facts derived and fewer fixpoint rounds.
  EXPECT_LT(limited.eval_stats.new_facts, unlimited.eval_stats.new_facts);
  EXPECT_LT(limited.eval_stats.iterations, unlimited.eval_stats.iterations);
  EXPECT_LT(limited.total_facts, unlimited.total_facts);

  // A mid-sized limit is also an exact prefix size.
  limits.row_limit = 7;
  QueryAnswer seven = service.Answer(*handle, {u.Constant("c0")}, limits);
  ASSERT_TRUE(seven.status.ok());
  EXPECT_EQ(seven.tuples.size(), 7u);
  EXPECT_EQ(seven.outcome, AnswerStatus::kTruncated);

  EXPECT_EQ(service.stats().forms_compiled, 1u);
  EXPECT_EQ(FormCell(service, "magicdb_form_queries"), 3u);
  EXPECT_EQ(FormCell(service, "magicdb_form_truncated"), 2u);
  EXPECT_EQ(FormCell(service, "magicdb_form_rows"), 299u + 1u + 7u);
}

TEST(QueryServiceTest, DeadlineExpiryReportsDeadlineExceeded) {
  Workload w = MakeAncestorChain(64);
  QueryServiceOptions options;
  options.num_threads = 2;
  QueryService service(w.program, w.db, options);

  QueryRequest request;
  request.query = w.query;
  request.limits.deadline = std::chrono::milliseconds(0);  // already expired
  QueryAnswer answer = service.Submit(request).get();
  EXPECT_EQ(answer.outcome, AnswerStatus::kDeadlineExceeded);
  EXPECT_EQ(answer.status.code(), StatusCode::kDeadlineExceeded);
}

TEST(QueryServiceTest, InlineWarmHitHonorsTheDeadline) {
  // Regression: the inline warm-cache path used to skip the deadline
  // check, so an already-expired request came back kOk-from-cache while
  // the same request on the queued path was shed kDeadlineExceeded.
  // Cache temperature must not change the outcome a client observes.
  Workload w = MakeAncestorChain(16);
  Universe& u = *w.universe;
  QueryServiceOptions options;
  options.num_threads = 2;
  QueryService service(w.program, w.db, options);

  QueryRequest exemplar;
  exemplar.query = w.query;
  auto handle = service.Prepare(exemplar);
  ASSERT_TRUE(handle.ok());
  std::vector<TermId> seed = {u.Constant("c0")};
  ASSERT_TRUE(service.Answer(*handle, seed).status.ok());  // fill
  ASSERT_TRUE(service.Answer(*handle, seed).from_cache);   // warm

  QueryLimits expired;
  expired.deadline = std::chrono::milliseconds(0);
  QueryAnswer answer = service.Answer(*handle, seed, expired);
  EXPECT_EQ(answer.outcome, AnswerStatus::kDeadlineExceeded);
  EXPECT_EQ(answer.status.code(), StatusCode::kDeadlineExceeded);
  EXPECT_FALSE(answer.from_cache);
  EXPECT_TRUE(answer.tuples.empty());
  EXPECT_EQ(service.stats().deadline_shed, 1u);

  // A live deadline still serves warm.
  QueryLimits generous;
  generous.deadline = std::chrono::seconds(30);
  QueryAnswer warm = service.Answer(*handle, seed, generous);
  EXPECT_TRUE(warm.from_cache);
  EXPECT_EQ(warm.outcome, AnswerStatus::kOk);
}

TEST(QueryServiceTest, PresetCancellationTokenReportsCancelled) {
  Workload w = MakeAncestorChain(64);
  QueryServiceOptions options;
  options.num_threads = 2;
  QueryService service(w.program, w.db, options);

  QueryRequest request;
  request.query = w.query;
  request.limits.cancel = std::make_shared<std::atomic<bool>>(true);
  QueryAnswer answer = service.Submit(request).get();
  EXPECT_EQ(answer.outcome, AnswerStatus::kCancelled);
  EXPECT_EQ(answer.status.code(), StatusCode::kCancelled);

  // Base-predicate (direct selection) requests honor the limits too.
  Universe& u = *w.universe;
  QueryRequest base = request;
  base.query.goal.pred = *u.predicates().Find(*u.symbols().Find("par"), 2);
  base.query.goal.args = {u.Constant("c0"), u.FreshVariable("Y")};
  QueryAnswer base_answer = service.Submit(base).get();
  EXPECT_EQ(base_answer.outcome, AnswerStatus::kCancelled);
}

TEST(QueryServiceTest, CursorStreamsChunksToExhaustion) {
  Workload w = MakeAncestorChain(32);
  Universe& u = *w.universe;
  QueryServiceOptions options;
  options.num_threads = 2;
  // Derivation order is the point here; a cached serve of the repeated
  // seed would feed the cursor in sorted order instead.
  options.cache_bytes = 0;
  QueryService service(w.program, w.db, options);

  QueryRequest exemplar;
  exemplar.query = w.query;
  auto handle = service.Prepare(exemplar);
  ASSERT_TRUE(handle.ok());
  QueryAnswer expected = service.Answer(*handle, {u.Constant("c0")});
  ASSERT_TRUE(expected.status.ok());
  ASSERT_EQ(expected.tuples.size(), 31u);

  AnswerCursor cursor = service.Stream(*handle, {u.Constant("c0")});
  std::vector<std::vector<TermId>> streamed;
  std::vector<std::vector<TermId>> chunk;
  size_t chunks = 0;
  while (cursor.Next(5, &chunk)) {
    ASSERT_FALSE(chunk.empty());
    ASSERT_LE(chunk.size(), 5u);
    streamed.insert(streamed.end(), chunk.begin(), chunk.end());
    ++chunks;
  }
  EXPECT_TRUE(chunk.empty());
  EXPECT_GE(chunks, 7u);  // 31 tuples in chunks of <= 5
  // Exhausted cursors stay exhausted.
  EXPECT_FALSE(cursor.Next(5, &chunk));

  const QueryAnswer& final = cursor.Finish();
  EXPECT_TRUE(final.status.ok()) << final.status.ToString();
  EXPECT_EQ(final.outcome, AnswerStatus::kOk);
  EXPECT_TRUE(final.tuples.empty());  // streamed, not materialized

  // Derivation order is a permutation of the sorted answer set, with no
  // duplicates.
  EXPECT_EQ(streamed.size(), expected.tuples.size());
  std::vector<std::vector<TermId>> sorted = streamed;
  std::sort(sorted.begin(), sorted.end());
  EXPECT_EQ(sorted, expected.tuples);

  // On an ancestor chain from c0, derivation order is the chain order:
  // the first streamed tuple is the first derived fact (c1), which the
  // full sorted run would only confirm after the whole fixpoint.
  EXPECT_EQ(u.TermToString(streamed[0][0]), "c1");
}

TEST(QueryServiceTest, CursorHonorsRowLimit) {
  Workload w = MakeAncestorChain(40);
  Universe& u = *w.universe;
  QueryServiceOptions options;
  options.num_threads = 2;
  QueryService service(w.program, w.db, options);

  QueryRequest exemplar;
  exemplar.query = w.query;
  auto handle = service.Prepare(exemplar);
  ASSERT_TRUE(handle.ok());

  QueryLimits limits;
  limits.row_limit = 3;
  AnswerCursor cursor = service.Stream(*handle, {u.Constant("c0")}, limits);
  std::vector<std::vector<TermId>> streamed;
  std::vector<std::vector<TermId>> chunk;
  while (cursor.Next(2, &chunk)) {
    streamed.insert(streamed.end(), chunk.begin(), chunk.end());
  }
  EXPECT_EQ(streamed.size(), 3u);
  EXPECT_EQ(cursor.Finish().outcome, AnswerStatus::kTruncated);
}

TEST(QueryServiceTest, TrySubmitRejectsWhenQueueIsFull) {
  // Deterministic overload: a counting-strategy query over cyclic data
  // diverges (paper, Section 6), so with one worker it provably occupies
  // the pool until its cancellation token fires — no timing assumptions.
  Workload w = MakeAncestorCycle(48);
  Universe& u = *w.universe;
  QueryServiceOptions options;
  options.num_threads = 1;
  options.max_pending = 2;
  QueryService service(w.program, w.db, options);

  QueryRequest divergent;
  divergent.query = w.query;
  divergent.strategy = Strategy::kCounting;
  divergent.limits.max_facts = uint64_t{1} << 60;  // never self-terminates
  divergent.limits.cancel = std::make_shared<std::atomic<bool>>(false);
  std::future<QueryAnswer> running = service.Submit(divergent);

  // A second request queues behind it: depth is now max_pending.
  QueryRequest queued;
  queued.query.goal.pred = *u.predicates().Find(*u.symbols().Find("par"), 2);
  queued.query.goal.args = {u.Constant("c0"), u.FreshVariable("Y")};
  std::future<QueryAnswer> waiting = service.Submit(queued);

  QueryAnswer rejected = service.TrySubmit(queued).get();
  EXPECT_EQ(rejected.outcome, AnswerStatus::kOverloaded);
  EXPECT_EQ(rejected.status.code(), StatusCode::kResourceExhausted);

  // Plain Submit still queues regardless of depth.
  std::future<QueryAnswer> forced = service.Submit(queued);

  divergent.limits.cancel->store(true);
  QueryAnswer cancelled = running.get();
  EXPECT_EQ(cancelled.outcome, AnswerStatus::kCancelled);
  ASSERT_TRUE(waiting.get().status.ok());
  ASSERT_TRUE(forced.get().status.ok());

  QueryService::Stats stats = service.stats();
  EXPECT_EQ(stats.overloaded, 1u);
  EXPECT_EQ(stats.queries_served, 3u);  // the rejection is not "served"

  // With the queue drained, TrySubmit admits again.
  QueryAnswer admitted = service.TrySubmit(queued).get();
  EXPECT_TRUE(admitted.status.ok());
}

TEST(QueryServiceTest, HandleReuseHammerAcrossEightThreads) {
  // The tentpole's steady-state hot path: one prepared handle shared by 8
  // client threads, mixing unlimited, row-limited, and streaming requests.
  // Must stay TSan-clean.
  Workload w = MakeAncestorChain(24);
  Universe& u = *w.universe;
  QueryServiceOptions options;
  options.num_threads = 8;
  QueryService service(w.program, w.db, options);

  QueryRequest exemplar;
  exemplar.query = w.query;
  auto prepared = service.Prepare(exemplar);
  ASSERT_TRUE(prepared.ok());
  QueryService::FormHandle handle = *prepared;

  // Expected answer counts per start node, computed single-threaded.
  std::vector<size_t> expected_rows(24);
  for (int i = 0; i < 24; ++i) {
    QueryAnswer answer =
        service.Answer(handle, {u.Constant("c" + std::to_string(i))});
    ASSERT_TRUE(answer.status.ok());
    expected_rows[i] = answer.tuples.size();
  }

  constexpr int kClients = 8;
  constexpr int kQueriesPerClient = 48;
  std::vector<int> failures(kClients, 0);
  {
    std::vector<std::thread> clients;
    for (int c = 0; c < kClients; ++c) {
      clients.emplace_back([&, c] {
        for (int q = 0; q < kQueriesPerClient; ++q) {
          size_t node = (c * 5 + q * 3) % 24;
          std::vector<TermId> seed = {
              u.Constant("c" + std::to_string(node))};
          switch ((c + q) % 3) {
            case 0: {  // unlimited future
              QueryAnswer answer = service.Submit(handle, seed).get();
              if (!answer.status.ok() ||
                  answer.tuples.size() != expected_rows[node]) {
                ++failures[c];
              }
              break;
            }
            case 1: {  // row-limited
              QueryLimits limits;
              limits.row_limit = 2;
              QueryAnswer answer =
                  service.Answer(handle, std::move(seed), limits);
              size_t want = std::min<size_t>(2, expected_rows[node]);
              if (!answer.status.ok() || answer.tuples.size() != want) {
                ++failures[c];
              }
              break;
            }
            case 2: {  // streamed
              AnswerCursor cursor = service.Stream(handle, std::move(seed));
              size_t rows = 0;
              std::vector<std::vector<TermId>> chunk;
              while (cursor.Next(4, &chunk)) rows += chunk.size();
              if (!cursor.Finish().status.ok() ||
                  rows != expected_rows[node]) {
                ++failures[c];
              }
              break;
            }
          }
        }
      });
    }
    for (std::thread& client : clients) client.join();
  }
  for (int c = 0; c < kClients; ++c) {
    EXPECT_EQ(failures[c], 0) << "client " << c;
  }
  EXPECT_EQ(service.stats().forms_compiled, 1u);
  EXPECT_EQ(FormCell(service, "magicdb_form_queries"),
            24u + static_cast<size_t>(kClients) * kQueriesPerClient);
}

TEST(QueryServiceTest, RepeatedSeedServesFromAnswerCache) {
  Workload w = MakeAncestorChain(16);
  Universe& u = *w.universe;
  QueryServiceOptions options;
  options.num_threads = 2;
  QueryService service(w.program, w.db, options);

  QueryRequest exemplar;
  exemplar.query = w.query;
  auto handle = service.Prepare(exemplar);
  ASSERT_TRUE(handle.ok());

  QueryAnswer first = service.Answer(*handle, {u.Constant("c0")});
  ASSERT_TRUE(first.status.ok());
  EXPECT_FALSE(first.from_cache);
  ASSERT_EQ(first.tuples.size(), 15u);

  QueryAnswer repeat = service.Answer(*handle, {u.Constant("c0")});
  ASSERT_TRUE(repeat.status.ok());
  EXPECT_TRUE(repeat.from_cache);
  EXPECT_EQ(repeat.outcome, AnswerStatus::kOk);
  EXPECT_EQ(repeat.tuples, first.tuples);
  // No evaluation ran for the hit, and the metrics say so.
  EXPECT_EQ(repeat.total_facts, 0u);

  // A row limit applies to the cached set too, without refilling it.
  QueryLimits limits;
  limits.row_limit = 4;
  QueryAnswer limited = service.Answer(*handle, {u.Constant("c0")}, limits);
  EXPECT_TRUE(limited.from_cache);
  EXPECT_EQ(limited.outcome, AnswerStatus::kTruncated);
  ASSERT_EQ(limited.tuples.size(), 4u);
  EXPECT_TRUE(std::equal(limited.tuples.begin(), limited.tuples.end(),
                         first.tuples.begin()));

  QueryService::Stats stats = service.stats();
  EXPECT_EQ(stats.answers_from_cache, 2u);
  EXPECT_EQ(stats.answer_cache.hits, 2u);
  EXPECT_EQ(stats.answer_cache.inserts, 1u);
  EXPECT_GT(stats.answer_cache.bytes, 0u);
  // Cached serves still count as served, per form and service-wide.
  EXPECT_EQ(stats.queries_served, 3u);
  EXPECT_EQ(stats.forms_compiled, 1u);
  EXPECT_EQ(FormCell(service, "magicdb_form_queries"), 3u);
  EXPECT_EQ(FormCell(service, "magicdb_form_rows"), 15u + 15u + 4u);
}

TEST(QueryServiceTest, ColdAndWarmAnswersShareTheStrategyName) {
  // Cache temperature must not change what a client observes, and that
  // includes the strategy an answer names.
  Workload w = MakeAncestorChain(8);
  QueryServiceOptions options;
  options.num_threads = 2;
  QueryService service(w.program, w.db, options);
  QueryRequest request;
  request.query = w.query;
  request.strategy = Strategy::kMagic;
  QueryAnswer cold = service.Answer(request);
  ASSERT_TRUE(cold.status.ok()) << cold.status.ToString();
  EXPECT_FALSE(cold.from_cache);
  EXPECT_EQ(cold.strategy_name, "gms");
  QueryAnswer warm = service.Answer(request);
  EXPECT_TRUE(warm.from_cache);
  EXPECT_EQ(warm.strategy_name, "gms");
}

TEST(QueryServiceTest, StaticSafetyCheckRefusesDivergentCountingForms) {
  // Thm 10.3: counting on a program whose argument graph is cyclic may
  // diverge, so with the static check on the form fails to compile — on
  // the handle path and the request path alike. Magic sets stay safe on
  // the same program (Thm 10.2).
  auto parsed = ParseUnit(R"(
    a(X,Y) :- p(X,Y).
    a(X,Y) :- a(X,Z), a(Z,Y).
    p(c0,c1). p(c1,c2).
    ?- a(c0, Y).
  )");
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  Database db(parsed->program.universe());
  for (const Fact& fact : parsed->facts) ASSERT_TRUE(db.AddFact(fact).ok());
  QueryServiceOptions options;
  options.num_threads = 2;
  options.engine.strategy = Strategy::kCounting;
  options.engine.static_safety_check = true;
  // A service that skipped the check would run the divergent fixpoint;
  // the cap turns that into a failed assertion instead of a hang.
  options.engine.eval.max_facts = 10000;
  QueryService service(parsed->program, db, options);

  QueryRequest request;
  request.query = *parsed->query;
  EXPECT_EQ(service.Prepare(request).status().code(), StatusCode::kUnsafe);
  QueryAnswer refused = service.Submit(request).get();
  EXPECT_EQ(refused.outcome, AnswerStatus::kError);
  EXPECT_EQ(refused.status.code(), StatusCode::kUnsafe);
  EXPECT_TRUE(refused.tuples.empty());

  request.strategy = Strategy::kMagic;
  QueryAnswer magic = service.Submit(request).get();
  ASSERT_TRUE(magic.status.ok()) << magic.status.ToString();
  EXPECT_EQ(magic.tuples.size(), 2u);
}

TEST(QueryServiceTest, PostWriteQueryNeverServesStaleAnswer) {
  // The issue's invalidation bar: an EDB write between two identical
  // queries must yield the updated answer — the cache may never serve the
  // pre-write snapshot. Writes go through ApplyWrites (the only way to
  // change a served database); the post-write reads hammer from 8 threads
  // under TSan.
  Workload w = MakeAncestorChain(8);  // c0 -> ... -> c7
  Universe& u = *w.universe;
  PredId par = *u.predicates().Find(*u.symbols().Find("par"), 2);
  QueryServiceOptions options;
  options.num_threads = 4;
  QueryService service(w.program, w.db, options);

  QueryRequest exemplar;
  exemplar.query = w.query;
  auto handle = service.Prepare(exemplar);
  ASSERT_TRUE(handle.ok());
  std::vector<TermId> seed = {u.Constant("c0")};

  ASSERT_EQ(service.Answer(*handle, seed).tuples.size(), 7u);
  QueryAnswer warm = service.Answer(*handle, seed);
  EXPECT_TRUE(warm.from_cache);  // the pre-write entry is live

  // Extend the chain by one edge.
  WriteBatch extend;
  extend.Insert(par, {u.Constant("c7"), u.Constant("c8")});
  Result<WriteResult> extended = service.ApplyWrites(extend);
  ASSERT_TRUE(extended.ok()) << extended.status().ToString();
  ASSERT_EQ(extended->inserted, 1u);

  QueryAnswer updated = service.Answer(*handle, seed);
  ASSERT_TRUE(updated.status.ok());
  EXPECT_FALSE(updated.from_cache);  // the stale entry became unreachable
  ASSERT_EQ(updated.tuples.size(), 8u);

  // Concurrent post-write reads: every thread must see the 8-row answer,
  // whether it evaluates or hits the freshly filled entry.
  std::atomic<int> stale{0};
  std::vector<std::thread> readers;
  for (int t = 0; t < 8; ++t) {
    readers.emplace_back([&] {
      for (int q = 0; q < 32; ++q) {
        QueryAnswer answer = service.Answer(*handle, seed);
        if (!answer.status.ok() || answer.tuples.size() != 8u) {
          stale.fetch_add(1, std::memory_order_relaxed);
        }
      }
    });
  }
  for (std::thread& reader : readers) reader.join();
  EXPECT_EQ(stale.load(), 0);

  // A truncating write (Clear) invalidates too: the whole derived set is
  // gone with the base facts.
  WriteBatch wipe;
  wipe.Clear(par);
  Result<WriteResult> wiped = service.ApplyWrites(wipe);
  ASSERT_TRUE(wiped.ok()) << wiped.status().ToString();
  ASSERT_EQ(wiped->cleared, 1u);
  QueryAnswer empty = service.Answer(*handle, seed);
  ASSERT_TRUE(empty.status.ok());
  EXPECT_FALSE(empty.from_cache);
  EXPECT_TRUE(empty.tuples.empty());
}

TEST(QueryServiceTest, RepeatedVariableQueriesAnswerTheDiagonal) {
  // Drabent's contract: an answer is the least model restricted to the
  // query, and a repeated variable restricts it to the diagonal. Over the
  // a<->b cycle that is exactly (a,a) and (b,b) — never a pair like (a,c).
  const std::vector<std::string> diagonal = {"a a", "b b"};
  for (Strategy strategy : kFreeQueryStrategies) {
    SCOPED_TRACE(StrategyName(strategy));
    Workload w = CyclicFamily("anc(X, X)");
    const Universe& u = *w.universe;

    EngineOptions engine_options;
    engine_options.strategy = strategy;
    QueryAnswer direct =
        QueryEngine(engine_options).Run(w.program, w.query, w.db);
    ASSERT_TRUE(direct.status.ok()) << direct.status.ToString();
    EXPECT_EQ(Render(u, direct.tuples), diagonal);

    QueryServiceOptions options;
    options.num_threads = 2;
    options.engine.strategy = strategy;
    QueryService service(w.program, w.db, options);
    QueryRequest request;
    request.query = w.query;
    // Cold through the cursor (the streaming projector), then warm from
    // the fill the stream left behind.
    AnswerCursor cursor = service.Stream(request);
    EXPECT_EQ(Render(u, Drain(cursor)), diagonal);
    ASSERT_TRUE(cursor.Finish().status.ok());
    EXPECT_FALSE(cursor.Finish().from_cache);
    QueryAnswer warm = service.Answer(request);
    EXPECT_TRUE(warm.from_cache);
    EXPECT_EQ(Render(u, warm.tuples), diagonal);

    // Cold through Answer (extraction after the fixpoint).
    options.cache_bytes = 0;
    QueryService uncached(w.program, w.db, options);
    QueryAnswer served = uncached.Answer(request);
    ASSERT_TRUE(served.status.ok()) << served.status.ToString();
    EXPECT_EQ(Render(u, served.tuples), diagonal);
  }
}

TEST(QueryServiceTest, RepeatedVariableBaseSelectionIsTheDiagonal) {
  auto parsed = ParseUnit("par(a, a). par(a, b). ?- par(X, X).");
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  const Universe& u = *parsed->program.universe();
  Database db(parsed->program.universe());
  for (const Fact& fact : parsed->facts) ASSERT_TRUE(db.AddFact(fact).ok());
  const std::vector<std::string> diagonal = {"a a"};

  QueryAnswer direct = QueryEngine().Run(parsed->program, *parsed->query, db);
  ASSERT_TRUE(direct.status.ok()) << direct.status.ToString();
  EXPECT_EQ(Render(u, direct.tuples), diagonal);

  QueryServiceOptions options;
  options.num_threads = 2;
  QueryService service(parsed->program, db, options);
  QueryRequest request;
  request.query = *parsed->query;
  QueryAnswer served = service.Answer(request);
  ASSERT_TRUE(served.status.ok()) << served.status.ToString();
  EXPECT_EQ(Render(u, served.tuples), diagonal);
  AnswerCursor cursor = service.Stream(request);
  EXPECT_EQ(Render(u, Drain(cursor)), diagonal);
  ASSERT_TRUE(cursor.Finish().status.ok());
}

/// The reference answer of a base-predicate query: every stored row of
/// `rel` whose ground positions equal the goal's constants and whose
/// repeated-variable positions agree, projected onto the non-ground
/// positions. Scans the relation directly rather than through
/// AnswerProjector, so it checks the selection form independently.
std::set<std::vector<TermId>> ScanSelection(const Universe& u,
                                            const Relation* rel,
                                            const Query& query) {
  std::set<std::vector<TermId>> answers;
  const std::vector<TermId>& args = query.goal.args;
  for (size_t row = 0; rel != nullptr && row < rel->size(); ++row) {
    std::span<const TermId> tuple = rel->Row(row);
    std::vector<TermId> projected;
    bool match = true;
    for (size_t i = 0; i < args.size(); ++i) {
      if (u.terms().IsGround(args[i])) {
        match = match && tuple[i] == args[i];
        continue;
      }
      const size_t first = static_cast<size_t>(
          std::find(args.begin(), args.end(), args[i]) - args.begin());
      match = match && tuple[first] == tuple[i];
      projected.push_back(tuple[i]);
    }
    if (match) answers.insert(std::move(projected));
  }
  return answers;
}

TEST(QueryServiceTest, RandomizedSelectionsMatchAScanAcrossWrites) {
  // Base-predicate queries of every shape, through the request tier, the
  // handle tier and Stream (with row limits and a preset cancel), with
  // inserts and retracts on the queried relation interleaved. Each kOk
  // answer must equal a scan of the relation after the last write; a
  // repeat is an AnswerCache hit until a write mutates par, after which
  // the next read evaluates afresh.
  auto parsed = ParseUnit(
      "anc(X, Y) :- par(X, Y).\n"
      "anc(X, Y) :- par(X, Z), anc(Z, Y).\n"
      "par(n0, n1). par(n1, n2). par(n2, n2). par(n3, n0).");
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  Universe& u = *parsed->program.universe();
  Database db(parsed->program.universe());
  for (const Fact& fact : parsed->facts) ASSERT_TRUE(db.AddFact(fact).ok());
  const PredId par = *u.predicates().Find(*u.symbols().Find("par"), 2);
  std::vector<TermId> nodes;
  for (int i = 0; i < 5; ++i) {
    nodes.push_back(u.Constant("n" + std::to_string(i)));
  }
  const TermId x = u.FreshVariable("X");
  const TermId y = u.FreshVariable("Y");
  const TermId c = u.Constant("n0");
  // par(c,Y), par(X,c), par(X,X), par(c,d), par(X,Y): the exemplars'
  // constants mark the bound positions; each read picks its own.
  const std::vector<std::vector<TermId>> shapes = {
      {c, y}, {x, c}, {x, x}, {c, c}, {x, y}};

  QueryServiceOptions options;
  options.num_threads = 2;
  QueryService service(parsed->program, db, options);
  std::vector<QueryService::FormHandle> handles;
  for (const std::vector<TermId>& shape : shapes) {
    QueryRequest exemplar;
    exemplar.query.goal = Literal{par, shape};
    auto handle = service.Prepare(exemplar);
    ASSERT_TRUE(handle.ok()) << handle.status().ToString();
    handles.push_back(*handle);
  }

  std::mt19937 rng(24);
  auto pick = [&](size_t n) {
    return std::uniform_int_distribution<size_t>(0, n - 1)(rng);
  };
  // Instances answered kOk since the last write that mutated par: their
  // next read must come from the AnswerCache.
  std::set<std::pair<size_t, std::vector<TermId>>> warm;
  for (int step = 0; step < 400; ++step) {
    SCOPED_TRACE("step " + std::to_string(step));
    if (pick(5) == 0) {
      WriteBatch batch;
      std::vector<TermId> edge = {nodes[pick(nodes.size())],
                                  nodes[pick(nodes.size())]};
      if (pick(2) == 0) {
        batch.Insert(par, edge);
      } else {
        batch.Retract(par, edge);
      }
      Result<WriteResult> written = service.ApplyWrites(batch);
      ASSERT_TRUE(written.ok()) << written.status().ToString();
      if (written->relations_mutated > 0) warm.clear();
      continue;
    }

    const size_t shape = pick(shapes.size());
    Query instance;
    instance.goal = Literal{par, shapes[shape]};
    std::vector<TermId> seed;
    for (TermId& arg : instance.goal.args) {
      if (!u.terms().IsGround(arg)) continue;
      arg = nodes[pick(nodes.size())];
      seed.push_back(arg);
    }
    const std::set<std::vector<TermId>> expected =
        ScanSelection(u, db.Find(par), instance);
    const bool cached = warm.count({shape, seed}) != 0;

    const size_t tier = pick(4);
    if (tier < 2) {
      QueryAnswer answer;
      if (tier == 0) {
        QueryRequest request;
        request.query = instance;
        answer = service.Answer(request);
      } else {
        answer = service.Answer(handles[shape], seed);
      }
      ASSERT_TRUE(answer.status.ok()) << answer.status.ToString();
      ASSERT_EQ(answer.outcome, AnswerStatus::kOk);
      EXPECT_EQ(answer.tuples, std::vector<std::vector<TermId>>(
                                   expected.begin(), expected.end()));
      EXPECT_EQ(answer.from_cache, cached);
      warm.insert({shape, seed});
      continue;
    }

    QueryLimits limits;
    const bool cancel = tier == 3;
    if (cancel) {
      limits.cancel = std::make_shared<std::atomic<bool>>(true);
    } else {
      limits.row_limit = 1 + pick(expected.size() + 2);
    }
    AnswerCursor cursor = service.Stream(handles[shape], seed, limits);
    const std::vector<std::vector<TermId>> streamed = Drain(cursor);
    const QueryAnswer& final_answer = cursor.Finish();
    const std::set<std::vector<TermId>> distinct(streamed.begin(),
                                                 streamed.end());
    EXPECT_EQ(distinct.size(), streamed.size()) << "duplicate rows streamed";
    EXPECT_TRUE(std::includes(expected.begin(), expected.end(),
                              distinct.begin(), distinct.end()));
    EXPECT_EQ(final_answer.from_cache, cached);
    if (cancel && !cached) {
      // A preset token stops the scan before its first row.
      EXPECT_EQ(final_answer.outcome, AnswerStatus::kCancelled);
      EXPECT_TRUE(streamed.empty());
    } else if (!cancel && limits.row_limit <= expected.size()) {
      EXPECT_EQ(final_answer.outcome, AnswerStatus::kTruncated);
      EXPECT_EQ(streamed.size(), limits.row_limit);
    } else {
      ASSERT_EQ(final_answer.outcome, AnswerStatus::kOk);
      EXPECT_EQ(distinct, expected);
      warm.insert({shape, seed});
    }
  }
}

TEST(QueryServiceTest, RepeatedVariableFormIsItsOwnForm) {
  // anc(X,Y) and anc(X,X) both have zero bound positions, but they are
  // different query forms: neither may serve the other's answers, whichever
  // compiles first.
  Workload w = CyclicFamily("anc(X, Y)");
  Universe& u = *w.universe;
  QueryServiceOptions options;
  options.num_threads = 2;
  QueryService service(w.program, w.db, options);

  QueryRequest all;
  all.query = w.query;
  QueryRequest diagonal;
  diagonal.query = w.query;
  const TermId x = u.FreshVariable("X");
  diagonal.query.goal.args = {x, x};
  const std::vector<std::string> every_pair = {"a a", "a b", "a c",
                                               "b a", "b b", "b c"};

  QueryAnswer first = service.Answer(all);
  ASSERT_TRUE(first.status.ok()) << first.status.ToString();
  EXPECT_EQ(Render(u, first.tuples), every_pair);
  QueryAnswer diag = service.Answer(diagonal);
  ASSERT_TRUE(diag.status.ok()) << diag.status.ToString();
  EXPECT_FALSE(diag.from_cache);
  EXPECT_EQ(Render(u, diag.tuples), (std::vector<std::string>{"a a", "b b"}));
  QueryAnswer again = service.Answer(all);
  EXPECT_TRUE(again.from_cache);
  EXPECT_EQ(Render(u, again.tuples), every_pair);
  EXPECT_EQ(service.stats().forms_compiled, 2u);
}

TEST(QueryServiceTest, NonGroundCompoundGoalArgumentsAreRejected) {
  // Projection treats a non-ground goal argument as a free column, so
  // q(f(X), Y) would also answer p(g(a), c), which does not unify with
  // f(X). Every entry point refuses such goals instead — the single-shot
  // engine under every strategy and the service on both tiers alike.
  const Strategy kAllStrategies[] = {
      Strategy::kNaiveBottomUp,      Strategy::kSemiNaiveBottomUp,
      Strategy::kMagic,              Strategy::kSupplementaryMagic,
      Strategy::kCounting,           Strategy::kSupplementaryCounting,
      Strategy::kCountingSemijoin,   Strategy::kSupCountingSemijoin,
      Strategy::kTopDown,
  };
  for (const char* goal : {"q(f(X), Y)", "p(f(X), Y)"}) {
    SCOPED_TRACE(goal);
    auto parsed = ParseUnit(
        "p(f(a), b). p(g(a), c). p(f(c), d).\n"
        "q(X, Y) :- p(X, Y).\n"
        "?- " + std::string(goal) + ".");
    ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
    Database db(parsed->program.universe());
    for (const Fact& fact : parsed->facts) ASSERT_TRUE(db.AddFact(fact).ok());

    for (Strategy strategy : kAllStrategies) {
      SCOPED_TRACE(StrategyName(strategy));
      EngineOptions engine_options;
      engine_options.strategy = strategy;
      QueryAnswer direct = QueryEngine(engine_options)
                               .Run(parsed->program, *parsed->query, db);
      EXPECT_EQ(direct.status.code(), StatusCode::kInvalidArgument);
      EXPECT_EQ(direct.outcome, AnswerStatus::kError);
      EXPECT_TRUE(direct.tuples.empty());
    }

    QueryServiceOptions options;
    options.num_threads = 2;
    QueryService service(parsed->program, db, options);
    QueryRequest request;
    request.query = *parsed->query;
    EXPECT_EQ(service.Prepare(request).status().code(),
              StatusCode::kInvalidArgument);
    QueryAnswer served = service.Answer(request);
    EXPECT_EQ(served.status.code(), StatusCode::kInvalidArgument);
    EXPECT_TRUE(served.tuples.empty());
    AnswerCursor cursor = service.Stream(request);
    EXPECT_TRUE(Drain(cursor).empty());
    EXPECT_EQ(cursor.Finish().status.code(), StatusCode::kInvalidArgument);
  }

  // A ground compound argument is a bound seed and keeps working.
  // The reference runs top-down: list reverse is not range restricted, so
  // it has no semi-naive evaluation.
  Workload w = MakeListReverse(3);
  EngineOptions reference;
  reference.strategy = Strategy::kTopDown;
  QueryAnswer direct = QueryEngine(reference).Run(w.program, w.query, w.db);
  ASSERT_TRUE(direct.status.ok()) << direct.status.ToString();
  ASSERT_EQ(direct.tuples.size(), 1u);
  QueryServiceOptions options;
  options.num_threads = 2;
  QueryService service(w.program, w.db, options);
  QueryRequest request;
  request.query = w.query;
  EXPECT_TRUE(service.Prepare(request).ok());
  QueryAnswer served = service.Answer(request);
  ASSERT_TRUE(served.status.ok()) << served.status.ToString();
  EXPECT_EQ(served.tuples, direct.tuples);
}

TEST(QueryServiceTest, TruncatedAnswersAreNeverCached) {
  Workload w = MakeAncestorChain(32);
  Universe& u = *w.universe;
  QueryServiceOptions options;
  options.num_threads = 2;
  QueryService service(w.program, w.db, options);

  QueryRequest exemplar;
  exemplar.query = w.query;
  auto handle = service.Prepare(exemplar);
  ASSERT_TRUE(handle.ok());
  std::vector<TermId> seed = {u.Constant("c0")};

  QueryLimits limits;
  limits.row_limit = 2;
  QueryAnswer truncated = service.Answer(*handle, seed, limits);
  EXPECT_EQ(truncated.outcome, AnswerStatus::kTruncated);

  // The partial answer set must not masquerade as the full one.
  QueryAnswer full = service.Answer(*handle, seed);
  ASSERT_TRUE(full.status.ok());
  EXPECT_FALSE(full.from_cache);
  EXPECT_EQ(full.tuples.size(), 31u);
  EXPECT_EQ(service.stats().answer_cache.inserts, 1u);  // the full run only

  // Outcome parity with the evaluated path at the boundary: a limit equal
  // to the answer count reports kTruncated cold (AnswerCollector stops at
  // >= row_limit) and must report kTruncated warm too; one past it is kOk.
  limits.row_limit = 31;
  QueryAnswer at_limit = service.Answer(*handle, seed, limits);
  EXPECT_TRUE(at_limit.from_cache);
  EXPECT_EQ(at_limit.outcome, AnswerStatus::kTruncated);
  EXPECT_EQ(at_limit.tuples.size(), 31u);
  limits.row_limit = 32;
  QueryAnswer past_limit = service.Answer(*handle, seed, limits);
  EXPECT_TRUE(past_limit.from_cache);
  EXPECT_EQ(past_limit.outcome, AnswerStatus::kOk);
}

TEST(QueryServiceTest, DisabledCacheAlwaysEvaluates) {
  Workload w = MakeAncestorChain(8);
  Universe& u = *w.universe;
  QueryServiceOptions options;
  options.num_threads = 2;
  options.cache_bytes = 0;
  QueryService service(w.program, w.db, options);

  QueryRequest exemplar;
  exemplar.query = w.query;
  auto handle = service.Prepare(exemplar);
  ASSERT_TRUE(handle.ok());
  for (int i = 0; i < 2; ++i) {
    QueryAnswer answer = service.Answer(*handle, {u.Constant("c0")});
    ASSERT_TRUE(answer.status.ok());
    EXPECT_FALSE(answer.from_cache);
    EXPECT_GT(answer.total_facts, 0u);  // evaluation really ran
  }
  QueryService::Stats stats = service.stats();
  EXPECT_EQ(stats.answers_from_cache, 0u);
  EXPECT_EQ(stats.answer_cache.hits, 0u);
  EXPECT_EQ(stats.answer_cache.inserts, 0u);
}

TEST(QueryServiceTest, StreamServesWarmHitsThroughTheCursor) {
  Workload w = MakeAncestorChain(20);
  Universe& u = *w.universe;
  QueryServiceOptions options;
  options.num_threads = 2;
  QueryService service(w.program, w.db, options);

  QueryRequest exemplar;
  exemplar.query = w.query;
  auto handle = service.Prepare(exemplar);
  ASSERT_TRUE(handle.ok());
  QueryAnswer fill = service.Answer(*handle, {u.Constant("c0")});
  ASSERT_TRUE(fill.status.ok());
  ASSERT_EQ(fill.tuples.size(), 19u);

  // The warm hit feeds the cursor inline (sorted order — the cached
  // canonical set, not a live derivation).
  AnswerCursor cursor = service.Stream(*handle, {u.Constant("c0")});
  std::vector<std::vector<TermId>> streamed;
  std::vector<std::vector<TermId>> chunk;
  while (cursor.Next(4, &chunk)) {
    streamed.insert(streamed.end(), chunk.begin(), chunk.end());
  }
  const QueryAnswer& final = cursor.Finish();
  EXPECT_TRUE(final.status.ok());
  EXPECT_TRUE(final.from_cache);
  EXPECT_EQ(streamed, fill.tuples);
}

/// tri(s, Y, Z) over 40 (Y, Z) pairs, half of them reached through
/// link(s, m). The pairs' constants come from 70000 interned ones, so their
/// ids take up to three varint bytes, and Z falls between many sorted rows.
/// `*expected` gets the sorted answer.
Workload PairsWithLargeIds(std::vector<std::vector<TermId>>* expected) {
  auto parsed = ParseUnit(
      "tri(X, Y, Z) :- e(X, Y, Z).\n"
      "tri(X, Y, Z) :- link(X, W), tri(W, Y, Z).\n"
      "?- tri(s, Y, Z).");
  EXPECT_TRUE(parsed.ok()) << parsed.status().ToString();
  Workload w{parsed->program.universe(), parsed->program,
             Database(parsed->program.universe()), *parsed->query,
             "pairs_with_large_ids"};
  Universe& u = *w.universe;
  std::vector<TermId> k;
  for (int i = 0; i < 70000; ++i) {
    k.push_back(u.Constant("k" + std::to_string(i)));
  }
  const PredId e = *u.predicates().Find(*u.symbols().Find("e"), 3);
  const PredId link = *u.predicates().Find(*u.symbols().Find("link"), 2);
  const TermId s = u.Constant("s"), m = u.Constant("m");
  EXPECT_TRUE(w.db.AddFact(link, {s, m}).ok());
  expected->clear();
  for (int i = 0; i < 40; ++i) {
    const TermId y = k[(i * 7919) % 70000];
    const TermId z = k[69999 - (i * 5003) % 70000];
    EXPECT_TRUE(w.db.AddFact(e, {i < 20 ? s : m, y, z}).ok());
    expected->push_back({y, z});
  }
  std::sort(expected->begin(), expected->end());
  return w;
}

TEST(QueryServiceTest, ArityTwoHitWithLargeIdsMatchesTheEvaluatedAnswer) {
  std::vector<std::vector<TermId>> expected;
  Workload w = PairsWithLargeIds(&expected);
  QueryServiceOptions options;
  options.num_threads = 2;
  QueryService service(w.program, w.db, options);
  QueryRequest exemplar;
  exemplar.query = w.query;
  auto handle = service.Prepare(exemplar);
  ASSERT_TRUE(handle.ok());
  const std::vector<TermId> seed = {w.query.goal.args[0]};

  QueryAnswer cold = service.Answer(*handle, seed);
  ASSERT_TRUE(cold.status.ok());
  EXPECT_FALSE(cold.from_cache);
  ASSERT_EQ(cold.tuples, expected);
  QueryAnswer warm = service.Answer(*handle, seed);
  EXPECT_TRUE(warm.from_cache);
  EXPECT_EQ(warm.outcome, AnswerStatus::kOk);
  EXPECT_EQ(warm.tuples, expected);

  // Row-limit truncation: the hit serves the sorted answer's first rows
  // with the outcome and row count an evaluated run reports.
  constexpr size_t kLimit = 7;
  const std::vector<std::vector<TermId>> head(expected.begin(),
                                              expected.begin() + kLimit);
  QueryLimits limits;
  limits.row_limit = kLimit;
  QueryAnswer limited = service.Answer(*handle, seed, limits);
  EXPECT_TRUE(limited.from_cache);
  EXPECT_EQ(limited.outcome, AnswerStatus::kTruncated);
  EXPECT_EQ(limited.tuples, head);
  {
    QueryServiceOptions uncached_options = options;
    uncached_options.cache_bytes = 0;
    QueryService uncached(w.program, w.db, uncached_options);
    auto uncached_handle = uncached.Prepare(exemplar);
    ASSERT_TRUE(uncached_handle.ok());
    QueryAnswer evaluated = uncached.Answer(*uncached_handle, seed, limits);
    EXPECT_FALSE(evaluated.from_cache);
    EXPECT_EQ(evaluated.outcome, AnswerStatus::kTruncated);
    ASSERT_EQ(evaluated.tuples.size(), kLimit);
    for (const std::vector<TermId>& row : evaluated.tuples) {
      EXPECT_TRUE(std::binary_search(expected.begin(), expected.end(), row));
    }
  }

  // STREAM: the hit feeds the cursor the whole sorted answer, and a
  // row-limited stream its first rows.
  AnswerCursor cursor = service.Stream(*handle, seed);
  EXPECT_EQ(Drain(cursor), expected);
  EXPECT_TRUE(cursor.Finish().from_cache);
  EXPECT_EQ(cursor.Finish().outcome, AnswerStatus::kOk);
  AnswerCursor limited_cursor = service.Stream(*handle, seed, limits);
  EXPECT_EQ(Drain(limited_cursor), head);
  EXPECT_TRUE(limited_cursor.Finish().from_cache);
  EXPECT_EQ(limited_cursor.Finish().outcome, AnswerStatus::kTruncated);

  // A sink that stops early. The evaluated form stops after the sink's
  // kLimit-th row and reports kTruncated; the payload the service caches
  // for this answer stops its decode at the same row, which is what a hit
  // serves such a sink.
  auto form = PreparedQueryForm::Prepare(w.program, w.query);
  ASSERT_TRUE(form.ok());
  std::vector<std::vector<TermId>> sunk;
  auto stop_at_limit = [&](const std::vector<TermId>& row) {
    sunk.push_back(row);
    return sunk.size() < kLimit;
  };
  QueryAnswer stopped = form->Answer(seed, w.db, QueryLimits{}, stop_at_limit);
  EXPECT_EQ(stopped.outcome, AnswerStatus::kTruncated);
  ASSERT_EQ(sunk.size(), kLimit);
  for (const std::vector<TermId>& row : sunk) {
    EXPECT_TRUE(std::binary_search(expected.begin(), expected.end(), row));
  }
  sunk.clear();
  const AnswerCache::Tuples cached(cold.tuples);
  EXPECT_EQ(cached.Decode(cached.size(), stop_at_limit), kLimit);
  EXPECT_EQ(sunk, head);
}

TEST(QueryServiceTest, MixedStrategyHammerAcrossEightThreads) {
  // The issue's parallel non-rewriting bar: magic + seminaive + topdown
  // handles hammered on one shared service from 8 client threads, each
  // request holding only its version pin (no exclusive fallback), with answer
  // equivalence against single-threaded engine runs. Must stay TSan-clean.
  Workload w = MakeAncestorChain(18);
  Universe& u = *w.universe;
  QueryServiceOptions options;
  options.num_threads = 8;
  // Force every request to evaluate: this hammer is about concurrent
  // evaluation of non-rewriting plans, not about cache hits.
  options.cache_bytes = 0;
  QueryService service(w.program, w.db, options);

  const Strategy strategies[] = {Strategy::kSupplementaryMagic,
                                 Strategy::kSemiNaiveBottomUp,
                                 Strategy::kTopDown};
  std::vector<QueryService::FormHandle> handles;
  for (Strategy strategy : strategies) {
    QueryRequest request;
    request.query = w.query;
    request.strategy = strategy;
    auto handle = service.Prepare(request);
    ASSERT_TRUE(handle.ok()) << StrategyName(strategy) << ": "
                             << handle.status().ToString();
    handles.push_back(*handle);
  }

  // Expected rows per start node, computed single-threaded (all three
  // strategies agree on the answer sets; verified per-strategy elsewhere).
  std::vector<size_t> expected_rows(18);
  for (int i = 0; i < 18; ++i) expected_rows[i] = 17 - i;

  constexpr int kClients = 8;
  constexpr int kQueriesPerClient = 24;
  std::vector<int> failures(kClients, 0);
  {
    std::vector<std::thread> clients;
    for (int c = 0; c < kClients; ++c) {
      clients.emplace_back([&, c] {
        for (int q = 0; q < kQueriesPerClient; ++q) {
          size_t node = (c * 5 + q * 7) % 18;
          size_t which = (c + q) % std::size(strategies);
          QueryAnswer answer = service
                                   .Submit(handles[which],
                                           {u.Constant("c" +
                                                       std::to_string(node))})
                                   .get();
          if (!answer.status.ok() ||
              answer.tuples.size() != expected_rows[node]) {
            ++failures[c];
          }
        }
      });
    }
    for (std::thread& client : clients) client.join();
  }
  for (int c = 0; c < kClients; ++c) {
    EXPECT_EQ(failures[c], 0) << "client " << c;
  }
  QueryService::Stats stats = service.stats();
  EXPECT_EQ(stats.forms_compiled, std::size(strategies));
  EXPECT_EQ(stats.queries_served,
            static_cast<size_t>(kClients) * kQueriesPerClient);
}

TEST(QueryServiceTest, EachRequestProbesTheAnswerCacheOnce) {
  // A request probes the AnswerCache once, at dispatch, through either
  // tier: K cold distinct-seed requests count K misses and no hits, and
  // repeating them counts K hits and no further misses. So the cache's
  // hits and misses count requests, not probes.
  Workload w = MakeAncestorChain(64);
  Universe& u = *w.universe;
  QueryServiceOptions options;
  options.num_threads = 4;
  QueryService service(w.program, w.db, options);

  QueryRequest exemplar;
  exemplar.query = w.query;
  auto handle = service.Prepare(exemplar);
  ASSERT_TRUE(handle.ok());

  // Seeds c0..c7 through the handle tier, c8..c15 through the request
  // tier, all in flight at once.
  constexpr size_t kPerTier = 8;
  auto submit_all = [&] {
    std::vector<std::future<QueryAnswer>> futures;
    for (size_t i = 0; i < 2 * kPerTier; ++i) {
      const std::string node = "c" + std::to_string(i);
      if (i < kPerTier) {
        futures.push_back(service.Submit(*handle, {u.Constant(node)}));
      } else {
        QueryRequest request;
        request.query = InstanceAt(w, node);
        futures.push_back(service.Submit(request));
      }
    }
    size_t from_cache = 0;
    for (size_t i = 0; i < futures.size(); ++i) {
      QueryAnswer answer = futures[i].get();
      EXPECT_TRUE(answer.status.ok()) << answer.status.ToString();
      EXPECT_EQ(answer.tuples.size(), 63 - i);
      if (answer.from_cache) ++from_cache;
    }
    return from_cache;
  };

  EXPECT_EQ(submit_all(), 0u);
  AnswerCache::Stats cold = service.stats().answer_cache;
  EXPECT_EQ(cold.misses, 2 * kPerTier);
  EXPECT_EQ(cold.hits, 0u);
  EXPECT_EQ(cold.inserts, 2 * kPerTier);

  EXPECT_EQ(submit_all(), 2 * kPerTier);
  AnswerCache::Stats warm = service.stats().answer_cache;
  EXPECT_EQ(warm.misses, 2 * kPerTier);
  EXPECT_EQ(warm.hits, 2 * kPerTier);
  EXPECT_EQ(service.stats().queries_served, 4 * kPerTier);
}

TEST(QueryServiceTest, QueuedDuplicatesKeepTheirDeadlineAndAdmissionSlot) {
  // Two guarantees for a duplicate queued behind an identical evaluating
  // request, both deterministic here:
  //  1. the queued duplicate holds its admission slot, so max_pending
  //     backpressure counts it and TrySubmit sheds further load;
  //  2. its deadline stays anchored at its own submission — when the
  //     worker picks it up after the leader, the duplicate is shed
  //     kDeadlineExceeded instead of evaluating.
  Workload w = MakeAncestorCycle(48);
  QueryServiceOptions options;
  options.num_threads = 1;  // one worker, deterministically occupied
  options.max_pending = 2;
  QueryService service(w.program, w.db, options);

  // Leader: a divergent counting query (paper, Section 6) that runs until
  // its cancellation token fires — it completes kCancelled, so it never
  // fills the AnswerCache.
  QueryRequest divergent;
  divergent.query = w.query;
  divergent.strategy = Strategy::kCounting;
  divergent.limits.max_facts = uint64_t{1} << 60;
  divergent.limits.cancel = std::make_shared<std::atomic<bool>>(false);
  std::future<QueryAnswer> leader = service.Submit(divergent);

  // Identical (form, seed) with a short deadline: waits in the pool queue
  // behind the leader (slot #2 of max_pending=2).
  QueryRequest duplicate = divergent;
  duplicate.limits = {};
  duplicate.limits.deadline = std::chrono::milliseconds(5);
  std::future<QueryAnswer> queued = service.Submit(duplicate);

  // Admission control sees the queued duplicate: a third identical
  // request finds the bounded queue full.
  QueryRequest third = divergent;
  third.limits = {};
  QueryAnswer rejected = service.TrySubmit(third).get();
  EXPECT_EQ(rejected.outcome, AnswerStatus::kOverloaded);

  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  divergent.limits.cancel->store(true);
  ASSERT_EQ(leader.get().outcome, AnswerStatus::kCancelled);

  // The worker checks the duplicate's deadline when it picks it up, before
  // anything else: 50ms of queue wait count against its 5ms deadline, so
  // it is shed, never evaluated.
  QueryAnswer answer = queued.get();
  EXPECT_EQ(answer.outcome, AnswerStatus::kDeadlineExceeded);
  EXPECT_EQ(answer.total_facts, 0u);
  EXPECT_EQ(answer.eval_stats.iterations, 0u);
  QueryService::Stats stats = service.stats();
  EXPECT_EQ(stats.deadline_shed, 1u);
  EXPECT_EQ(stats.overloaded, 1u);
}

TEST(QueryServiceTest, ExpiredQueuedRequestIsShedWithoutEvaluating) {
  // Deadline-aware dispatch: a request whose deadline passes while it sits
  // in the pool queue completes kDeadlineExceeded the moment a worker
  // picks it up — it never enters the fixpoint.
  Workload w = MakeAncestorCycle(48);
  Universe& u = *w.universe;
  QueryServiceOptions options;
  options.num_threads = 1;  // one worker, deterministically occupied
  QueryService service(w.program, w.db, options);

  // Occupy the only worker with a divergent counting query (paper,
  // Section 6: counting over cyclic data) until its token fires.
  QueryRequest divergent;
  divergent.query = w.query;
  divergent.strategy = Strategy::kCounting;
  divergent.limits.max_facts = uint64_t{1} << 60;
  divergent.limits.cancel = std::make_shared<std::atomic<bool>>(false);
  std::future<QueryAnswer> running = service.Submit(divergent);

  // Queue a request with a deadline that expires while it waits.
  QueryRequest doomed;
  doomed.query = InstanceAt(w, "c1");
  doomed.limits.deadline = std::chrono::milliseconds(1);
  std::future<QueryAnswer> shed = service.Submit(doomed);

  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  divergent.limits.cancel->store(true);
  ASSERT_EQ(running.get().outcome, AnswerStatus::kCancelled);

  QueryAnswer answer = shed.get();
  EXPECT_EQ(answer.outcome, AnswerStatus::kDeadlineExceeded);
  EXPECT_EQ(answer.status.code(), StatusCode::kDeadlineExceeded);
  // Never evaluated: no fixpoint ran, so the work metrics are zero.
  EXPECT_EQ(answer.total_facts, 0u);
  EXPECT_EQ(answer.eval_stats.iterations, 0u);
  QueryService::Stats stats = service.stats();
  EXPECT_EQ(stats.deadline_shed, 1u);
  (void)u;
}

TEST(QueryServiceTest, AnswersComeBackInInputOrder) {
  Workload w = MakeAncestorChain(12);
  Universe& u = *w.universe;
  std::vector<QueryRequest> batch;
  for (int i = 11; i >= 0; --i) {
    QueryRequest request;
    request.query = InstanceAt(w, "c" + std::to_string(i));
    batch.push_back(std::move(request));
  }
  QueryServiceOptions options;
  options.num_threads = 8;
  QueryService service(w.program, w.db, options);
  std::vector<QueryAnswer> answers = service.AnswerBatch(batch);
  ASSERT_EQ(answers.size(), 12u);
  // Query anc(c_i, Y) over a 12-chain has 11 - i answers; input order is
  // i = 11 .. 0, so sizes must come back strictly increasing.
  for (int i = 0; i < 12; ++i) {
    EXPECT_EQ(answers[i].tuples.size(), static_cast<size_t>(i));
  }
  (void)u;
}

}  // namespace
}  // namespace magic
