// Per-request tracing: span recording order and stage names, the
// slow-query ring's capacity/eviction/sequence discipline, and the
// disabled mode (obs.enabled = false) recording no latency, no spans, and
// no slow queries while counters and fixpoint profiles stay on.

#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "engine/query_service.h"
#include "obs/trace.h"
#include "workload/generators.h"

namespace magic {
namespace {

using obs::MetricsRegistry;
using obs::SlowQuery;
using obs::SlowQueryLog;
using obs::Span;
using obs::Stage;
using obs::Trace;

TEST(TraceTest, RecordsSpansInOrder) {
  Trace trace;
  const uint64_t t0 = Trace::NowNs();
  trace.Record(Stage::kAdmit, t0, t0 + 10);
  trace.Record(Stage::kCacheProbe, t0 + 10, t0 + 25);
  trace.Record(Stage::kFixpoint, t0 + 30, t0 + 400);
  ASSERT_EQ(trace.spans().size(), 3u);
  EXPECT_EQ(trace.spans()[0].stage, Stage::kAdmit);
  EXPECT_EQ(trace.spans()[1].stage, Stage::kCacheProbe);
  EXPECT_EQ(trace.spans()[2].stage, Stage::kFixpoint);
  EXPECT_EQ(trace.spans()[2].end_ns - trace.spans()[2].start_ns, 370u);
}

TEST(TraceTest, StageNamesAreStable) {
  EXPECT_STREQ(StageName(Stage::kAdmit), "admit");
  EXPECT_STREQ(StageName(Stage::kCacheProbe), "cache_probe");
  EXPECT_STREQ(StageName(Stage::kQueueWait), "queue_wait");
  EXPECT_STREQ(StageName(Stage::kCompile), "compile");
  EXPECT_STREQ(StageName(Stage::kFixpoint), "fixpoint");
  EXPECT_STREQ(StageName(Stage::kStream), "stream");
}

TEST(TraceTest, NowNsIsMonotonic) {
  const uint64_t a = Trace::NowNs();
  const uint64_t b = Trace::NowNs();
  EXPECT_LE(a, b);
}

SlowQuery MakeSlow(const std::string& form, uint64_t total_ns) {
  SlowQuery slow;
  slow.form = {{"form", form}, {"strategy", "gsms"}, {"sip", "full"}};
  slow.seed = "c0";
  slow.total_ns = total_ns;
  slow.spans.push_back(Span{Stage::kFixpoint, 0, total_ns});
  return slow;
}

TEST(SlowQueryLogTest, RingEvictsOldestAtCapacity) {
  SlowQueryLog log(4);
  EXPECT_EQ(log.capacity(), 4u);
  for (int i = 0; i < 6; ++i) {
    log.Record(MakeSlow("form" + std::to_string(i),
                        static_cast<uint64_t>(i) * 100));
  }
  std::vector<SlowQuery> snapshot = log.Snapshot();
  ASSERT_EQ(snapshot.size(), 4u);
  // Oldest-first; the first two captures were evicted, sequences keep
  // counting across evictions.
  EXPECT_EQ(snapshot.front().form, MakeSlow("form2", 0).form);
  EXPECT_EQ(snapshot.back().form, MakeSlow("form5", 0).form);
  for (size_t i = 1; i < snapshot.size(); ++i) {
    EXPECT_EQ(snapshot[i].sequence, snapshot[i - 1].sequence + 1);
  }
  EXPECT_EQ(snapshot.back().sequence, 6u);
  ASSERT_EQ(snapshot.back().spans.size(), 1u);
  EXPECT_EQ(snapshot.back().spans[0].stage, Stage::kFixpoint);
}

TEST(SlowQueryLogTest, ZeroCapacityRecordsNothing) {
  SlowQueryLog log(0);
  log.Record(MakeSlow("form", 123));
  EXPECT_TRUE(log.Snapshot().empty());
}

/// The labels of one cell of the `anc/bf` form under the default gsms/full
/// key, plus `extra`.
MetricsRegistry::Labels FormLabels(const MetricsRegistry::Labels& extra = {}) {
  MetricsRegistry::Labels labels{
      {"form", "anc/bf"}, {"strategy", "gsms"}, {"sip", "full"}};
  labels.insert(labels.end(), extra.begin(), extra.end());
  return labels;
}

Query InstanceAt(const Workload& w, const std::string& node) {
  Query query = w.query;
  query.goal.args[0] = w.universe->Constant(node);
  return query;
}

TEST(TraceServiceTest, DisabledModeRecordsNothing) {
  Workload w = MakeAncestorChain(16);
  QueryServiceOptions options;
  options.num_threads = 2;
  options.obs.enabled = false;
  options.obs.slow_query_ns = 0;  // would capture everything if enabled
  QueryService service(w.program, w.db, options);

  QueryRequest request;
  request.query = InstanceAt(w, "c0");
  ASSERT_TRUE(service.Answer(request).status.ok());
  QueryAnswer warm = service.Answer(request);
  ASSERT_TRUE(warm.status.ok());
  EXPECT_TRUE(warm.from_cache);

  QueryService::Stats stats = service.stats();
  // Counters and profiles are always on...
  EXPECT_EQ(stats.queries_served, 2u);
  EXPECT_EQ(stats.answers_from_cache, 1u);
  EXPECT_EQ(stats.forms_compiled, 1u);
  MetricsRegistry& registry = service.metrics();
  EXPECT_EQ(registry.GetCounter("magicdb_form_queries", FormLabels())->value(),
            2u);
  EXPECT_GT(registry
                .GetCounter("magicdb_rule_evals", FormLabels({{"rule", "0"}}))
                ->value(),
            0u);
  // ...but nothing paid a clock read: no request latency, no inline-hit
  // latency, and no slow-query captures (no trace was ever allocated).
  EXPECT_EQ(stats.request_latency.count, 0u);
  EXPECT_EQ(registry
                .GetHistogram("magicdb_form_latency_ns",
                              FormLabels({{"stage", "cache_inline"}}))
                ->Snapshot()
                .count,
            0u);
  EXPECT_TRUE(stats.slow_queries.empty());
  // Evaluation wall time still accumulates: it predates observability and
  // is recorded whether or not obs is on.
  EXPECT_EQ(registry
                .GetHistogram("magicdb_form_latency_ns",
                              FormLabels({{"stage", "eval"}}))
                ->Snapshot()
                .count,
            1u);
}

TEST(TraceServiceTest, SlowRingRespectsConfiguredCapacity) {
  Workload w = MakeAncestorChain(16);
  QueryServiceOptions options;
  options.num_threads = 2;
  options.cache_bytes = 0;        // every request evaluates (no memo hits)
  options.obs.slow_query_ns = 0;  // every evaluated request is "slow"
  options.obs.slow_query_capacity = 2;
  QueryService service(w.program, w.db, options);

  for (const char* node : {"c0", "c3", "c6", "c9"}) {
    QueryRequest request;
    request.query = InstanceAt(w, node);
    ASSERT_TRUE(service.Answer(request).status.ok());
  }
  QueryService::Stats stats = service.stats();
  ASSERT_EQ(stats.slow_queries.size(), 2u);
  EXPECT_LT(stats.slow_queries[0].sequence, stats.slow_queries[1].sequence);
  EXPECT_FALSE(stats.slow_queries[1].spans.empty());
}

}  // namespace
}  // namespace magic
