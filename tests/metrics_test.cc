// The metrics registry: HDR-style histogram bucket boundaries and
// quantiles, snapshot-merge associativity, register-or-fetch semantics,
// Prometheus text exposition shapes, the 8-thread lock-free hammer
// (TSan-clean by construction: Record/Add are relaxed atomic RMWs), the
// JSON walk beside the Prometheus text, and the end-to-end service wiring —
// per-form latency histograms, per-rule fixpoint profile counters labelled
// by the full form key, and the slow-query ring all reading from the ONE
// registry that METRICS and STATS render.

#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <regex>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "engine/prepared.h"
#include "engine/query_service.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "workload/generators.h"

namespace magic {
namespace {

using obs::Histogram;
using obs::HistogramSnapshot;
using obs::MetricsRegistry;

TEST(HistogramTest, BucketIndexIsIdentityBelowFour) {
  for (uint64_t v = 0; v < 4; ++v) {
    EXPECT_EQ(Histogram::BucketIndex(v), v);
    EXPECT_EQ(Histogram::BucketLowerBound(v), v);
  }
}

TEST(HistogramTest, BucketBoundaries) {
  // 4 sub-buckets per octave: [4,5,6,7] are their own buckets, 8 starts
  // the next octave (width 2), 16 the next (width 4), and so on.
  EXPECT_EQ(Histogram::BucketIndex(4), 4u);
  EXPECT_EQ(Histogram::BucketIndex(7), 7u);
  EXPECT_EQ(Histogram::BucketIndex(8), 8u);
  EXPECT_EQ(Histogram::BucketIndex(9), 8u);   // same sub-bucket as 8
  EXPECT_EQ(Histogram::BucketIndex(10), 9u);  // next sub-bucket
  EXPECT_EQ(Histogram::BucketIndex(15), 11u);
  EXPECT_EQ(Histogram::BucketIndex(16), 12u);

  // BucketLowerBound is the inverse of BucketIndex on bucket boundaries,
  // and the index function is monotone: every value maps at or above its
  // bucket's lower bound, below the next bucket's.
  for (size_t index = 0; index < 252; ++index) {
    const uint64_t lower = Histogram::BucketLowerBound(index);
    EXPECT_EQ(Histogram::BucketIndex(lower), index) << "index " << index;
    if (lower > 0) {
      EXPECT_EQ(Histogram::BucketIndex(lower - 1), index - 1)
          << "index " << index;
    }
  }

  // The full uint64 range fits: no value can index past the array.
  EXPECT_LT(Histogram::BucketIndex(UINT64_MAX), HistogramSnapshot::kBuckets);
}

TEST(HistogramTest, QuantileWithinBucketErrorBound) {
  Histogram h;
  for (uint64_t v = 1; v <= 1000; ++v) h.Record(v);
  HistogramSnapshot snap = h.Snapshot();
  EXPECT_EQ(snap.count, 1000u);
  EXPECT_EQ(snap.sum, 500500u);
  // The 4-sub-buckets-per-octave layout bounds relative error at 25%.
  EXPECT_NEAR(snap.Quantile(0.5), 500.0, 125.0);
  EXPECT_NEAR(snap.Quantile(0.99), 990.0, 250.0);
  EXPECT_NEAR(snap.mean(), 500.5, 0.001);
  // Degenerate cases.
  EXPECT_EQ(HistogramSnapshot{}.Quantile(0.5), 0.0);
  EXPECT_GE(snap.Quantile(0.0), 0.0);
  EXPECT_LE(snap.Quantile(1.0), 2000.0);
}

TEST(HistogramTest, QuantileOfConstantDistribution) {
  Histogram h;
  for (int i = 0; i < 100; ++i) h.Record(5);
  HistogramSnapshot snap = h.Snapshot();
  // All mass in bucket 5 (values below 8 get exact buckets below the
  // sub-bucket cutover, so the quantile is tight).
  EXPECT_NEAR(snap.Quantile(0.5), 5.0, 1.0);
  EXPECT_NEAR(snap.Quantile(0.99), 5.0, 1.0);
}

TEST(HistogramTest, SnapshotMergeIsAssociativeAndCommutative) {
  Histogram ha, hb, hc;
  for (uint64_t v = 1; v < 100; ++v) ha.Record(v);
  for (uint64_t v = 100; v < 10000; v += 7) hb.Record(v);
  for (uint64_t v = 1; v < 50; v += 3) hc.Record(v * 1000000);
  const HistogramSnapshot a = ha.Snapshot();
  const HistogramSnapshot b = hb.Snapshot();
  const HistogramSnapshot c = hc.Snapshot();

  HistogramSnapshot ab_c = a;
  ab_c.Merge(b);
  ab_c.Merge(c);
  HistogramSnapshot bc = b;
  bc.Merge(c);
  HistogramSnapshot a_bc = a;
  a_bc.Merge(bc);
  HistogramSnapshot cba = c;
  cba.Merge(b);
  cba.Merge(a);

  EXPECT_EQ(ab_c.count, a_bc.count);
  EXPECT_EQ(ab_c.sum, a_bc.sum);
  EXPECT_EQ(ab_c.buckets, a_bc.buckets);
  EXPECT_EQ(ab_c.count, cba.count);
  EXPECT_EQ(ab_c.sum, cba.sum);
  EXPECT_EQ(ab_c.buckets, cba.buckets);
  EXPECT_EQ(ab_c.count, a.count + b.count + c.count);
  EXPECT_EQ(ab_c.sum, a.sum + b.sum + c.sum);
}

TEST(MetricsRegistryTest, RegisterOrFetchReturnsStablePointers) {
  MetricsRegistry registry;
  obs::Counter* c1 = registry.GetCounter("requests", {{"kind", "a"}});
  obs::Counter* c2 = registry.GetCounter("requests", {{"kind", "a"}});
  obs::Counter* c3 = registry.GetCounter("requests", {{"kind", "b"}});
  EXPECT_EQ(c1, c2);
  EXPECT_NE(c1, c3);
  c1->Add(41);
  c2->Add();
  EXPECT_EQ(c1->value(), 42u);
  EXPECT_EQ(c3->value(), 0u);

  obs::Gauge* g = registry.GetGauge("depth");
  g->Set(7);
  g->Add(-2);
  EXPECT_EQ(g->value(), 5);
  EXPECT_EQ(registry.GetGauge("depth"), g);

  obs::Histogram* h = registry.GetHistogram("latency");
  EXPECT_EQ(registry.GetHistogram("latency"), h);
}

TEST(MetricsRegistryTest, PrometheusTextShapes) {
  MetricsRegistry registry;
  obs::Counter* c =
      registry.GetCounter("magic_requests", {{"tier", "handle"}},
                          "Requests served");
  c->Add(3);
  registry.GetGauge("magic_depth", {}, "Queue depth")->Set(11);
  obs::Histogram* h =
      registry.GetHistogram("magic_latency_ns", {}, "Latency");
  h->Record(5);
  h->Record(100);

  const std::string text = registry.PrometheusText();
  EXPECT_NE(text.find("# HELP magic_requests Requests served"),
            std::string::npos);
  EXPECT_NE(text.find("# TYPE magic_requests counter"), std::string::npos);
  EXPECT_NE(text.find("magic_requests_total{tier=\"handle\"} 3"),
            std::string::npos);
  EXPECT_NE(text.find("# TYPE magic_depth gauge"), std::string::npos);
  EXPECT_NE(text.find("magic_depth 11"), std::string::npos);
  EXPECT_NE(text.find("# TYPE magic_latency_ns histogram"),
            std::string::npos);
  EXPECT_NE(text.find("magic_latency_ns_bucket{le="), std::string::npos);
  EXPECT_NE(text.find("le=\"+Inf\"} 2"), std::string::npos);
  EXPECT_NE(text.find("magic_latency_ns_sum 105"), std::string::npos);
  EXPECT_NE(text.find("magic_latency_ns_count 2"), std::string::npos);
}

TEST(MetricsRegistryTest, LabelValuesAreEscaped) {
  MetricsRegistry registry;
  registry.GetCounter("esc", {{"q", "a\"b\\c\nd"}})->Add();
  const std::string text = registry.PrometheusText();
  EXPECT_NE(text.find("esc_total{q=\"a\\\"b\\\\c\\nd\"} 1"),
            std::string::npos);
  // JSON string escapes of the same three characters.
  const std::string json = registry.Json();
  EXPECT_NE(json.find("{\"labels\":{\"q\":\"a\\\"b\\\\c\\nd\"},\"value\":1}"),
            std::string::npos)
      << json;
}

TEST(MetricsRegistryTest, EightThreadHammer) {
  // 8 threads hammer one histogram, one counter, and concurrent
  // register-or-fetch of the same names. Record/Add are relaxed RMWs on
  // registry-owned cells, so the totals are exact and the run is
  // TSan-clean.
  MetricsRegistry registry;
  constexpr int kThreads = 8;
  constexpr uint64_t kPerThread = 50000;
  // A reader renders the JSON walk while the writers run: it takes the
  // registry mutex the writers' re-registrations take, and reads the cells
  // they Add/Record to.
  std::atomic<bool> writers_done{false};
  std::thread reader([&registry, &writers_done] {
    while (!writers_done.load(std::memory_order_relaxed)) {
      const std::string json = registry.Json();
      ASSERT_FALSE(json.empty());
      ASSERT_EQ(json.front(), '{');
      ASSERT_EQ(json.back(), '}');
    }
  });
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&registry, t] {
      obs::Counter* counter = registry.GetCounter("hammer_events");
      obs::Histogram* histogram = registry.GetHistogram("hammer_ns");
      for (uint64_t i = 0; i < kPerThread; ++i) {
        counter->Add();
        histogram->Record(i + static_cast<uint64_t>(t));
        if (i % 1024 == 0) {
          // Re-registration under load returns the same cells.
          ASSERT_EQ(registry.GetCounter("hammer_events"), counter);
        }
      }
    });
  }
  for (std::thread& t : threads) t.join();
  writers_done.store(true, std::memory_order_relaxed);
  reader.join();
  EXPECT_EQ(registry.GetCounter("hammer_events")->value(),
            kThreads * kPerThread);
  HistogramSnapshot snap = registry.GetHistogram("hammer_ns")->Snapshot();
  EXPECT_EQ(snap.count, kThreads * kPerThread);
  uint64_t total = 0;
  for (uint64_t c : snap.buckets) total += c;
  EXPECT_EQ(total, snap.count);
}

Query InstanceAt(const Workload& w, const std::string& node) {
  Query query = w.query;
  query.goal.args[0] = w.universe->Constant(node);
  return query;
}

/// The labels of one cell of `w.query`'s `anc/bf` form under the form key
/// (strategy, sip), plus `extra`.
MetricsRegistry::Labels FormLabels(Strategy strategy, const std::string& sip,
                                   const MetricsRegistry::Labels& extra = {}) {
  MetricsRegistry::Labels labels{
      {"form", "anc/bf"}, {"strategy", StrategyName(strategy)}, {"sip", sip}};
  labels.insert(labels.end(), extra.begin(), extra.end());
  return labels;
}

/// Reads the per-form and per-rule cells of one form key from `service`'s
/// registry. The rule count comes from compiling the same form again.
struct FormCells {
  uint64_t queries = 0;
  uint64_t rows = 0;
  uint64_t eval_count = 0;
  uint64_t inline_count = 0;
  uint64_t rule_evals = 0;
  uint64_t rule_firings = 0;
};

FormCells ReadFormCells(QueryService& service, const Workload& w,
                        Strategy strategy, const std::string& sip) {
  MetricsRegistry& registry = service.metrics();
  FormCells cells;
  cells.queries =
      registry.GetCounter("magicdb_form_queries", FormLabels(strategy, sip))
          ->value();
  cells.rows =
      registry.GetCounter("magicdb_form_rows", FormLabels(strategy, sip))
          ->value();
  cells.eval_count = registry
                         .GetHistogram("magicdb_form_latency_ns",
                                       FormLabels(strategy, sip,
                                                  {{"stage", "eval"}}))
                         ->Snapshot()
                         .count;
  cells.inline_count =
      registry
          .GetHistogram("magicdb_form_latency_ns",
                        FormLabels(strategy, sip, {{"stage", "cache_inline"}}))
          ->Snapshot()
          .count;
  EngineOptions engine;
  engine.strategy = strategy;
  engine.sip = sip;
  Result<PreparedQueryForm> form =
      PreparedQueryForm::Prepare(w.program, w.query, engine);
  EXPECT_TRUE(form.ok()) << form.status().ToString();
  if (!form.ok()) return cells;
  for (size_t i = 0; i < form->rule_labels().size(); ++i) {
    const MetricsRegistry::Labels rule =
        FormLabels(strategy, sip, {{"rule", std::to_string(i)}});
    cells.rule_evals +=
        registry.GetCounter("magicdb_rule_evals", rule)->value();
    cells.rule_firings +=
        registry.GetCounter("magicdb_rule_firings", rule)->value();
  }
  return cells;
}

TEST(MetricsServiceTest, EndToEndObservability) {
  Workload w = MakeAncestorChain(16);
  QueryServiceOptions options;
  options.num_threads = 2;
  options.obs.slow_query_ns = 0;  // capture every evaluated request's spans
  QueryService service(w.program, w.db, options);

  QueryRequest request;
  request.query = InstanceAt(w, "c0");
  QueryAnswer cold = service.Answer(request);
  ASSERT_TRUE(cold.status.ok());
  QueryAnswer warm = service.Answer(request);
  ASSERT_TRUE(warm.status.ok());
  EXPECT_TRUE(warm.from_cache);

  QueryService::Stats stats = service.stats();
  EXPECT_EQ(stats.queries_served, 2u);
  EXPECT_EQ(stats.answers_from_cache, 1u);
  // Both the evaluated request and the inline warm hit record end-to-end
  // latency into the one request histogram.
  EXPECT_EQ(stats.request_latency.count, 2u);
  EXPECT_GT(stats.request_latency.sum, 0u);

  EXPECT_EQ(stats.forms_compiled, 1u);
  const FormCells form =
      ReadFormCells(service, w, Strategy::kSupplementaryMagic, "full");
  EXPECT_EQ(form.queries, 2u);
  EXPECT_EQ(form.eval_count, 1u);    // the cold evaluation
  EXPECT_EQ(form.inline_count, 1u);  // the warm cache_inline serve

  // The fixpoint profile accumulated per-rule counters for the one run.
  EXPECT_GT(form.rule_evals, 0u);
  EXPECT_GT(form.rule_firings, 0u);

  // slow_query_ns = 0: the evaluated request landed in the ring with its
  // spans (the inline hit allocates no trace and never reaches the ring).
  ASSERT_EQ(stats.slow_queries.size(), 1u);
  const obs::SlowQuery& slow = stats.slow_queries[0];
  EXPECT_FALSE(slow.form.empty());
  EXPECT_FALSE(slow.spans.empty());
  bool saw_fixpoint = false;
  for (const obs::Span& span : slow.spans) {
    EXPECT_LE(span.start_ns, span.end_ns);
    if (span.stage == obs::Stage::kFixpoint) saw_fixpoint = true;
  }
  EXPECT_TRUE(saw_fixpoint);

  // The scrape surface carries the same cells: service counters, the
  // per-form latency histogram family, and the per-rule profile counters.
  const std::string text = service.MetricsText();
  EXPECT_NE(text.find("magicdb_queries_served_total 2"), std::string::npos);
  EXPECT_NE(text.find("magicdb_form_latency_ns_bucket"), std::string::npos);
  EXPECT_NE(text.find("stage=\"cache_inline\""), std::string::npos);
  EXPECT_NE(text.find("magicdb_rule_evals_total"), std::string::npos);
  EXPECT_NE(text.find("magicdb_request_latency_ns_count 2"),
            std::string::npos);

  // The STATS document is one object: the registry walk (histograms and
  // per-rule cells), the forms with their rule texts, and the slow ring.
  const std::string json = service.MetricsJson();
  ASSERT_FALSE(json.empty());
  EXPECT_EQ(json.front(), '{');
  EXPECT_EQ(json.back(), '}');
  EXPECT_NE(json.find("\"magicdb_request_latency_ns\""), std::string::npos);
  EXPECT_NE(json.find("\"magicdb_rule_evals\""), std::string::npos);
  EXPECT_NE(json.find("\"forms\":[{\"form\":\"anc/bf\",\"strategy\":\"gsms\","
                      "\"sip\":\"full\",\"rules\":[\""),
            std::string::npos)
      << json;
  EXPECT_NE(json.find("\"slow_queries\""), std::string::npos);

  // A slow entry names exactly one form. Answer anc/bf under gms/full and
  // gms/chain too, two more forms of the same predicate and adornment;
  // each slow entry's {form, strategy, sip} must then match exactly one
  // `forms` entry.
  for (const char* sip : {"full", "chain"}) {
    QueryRequest other = request;
    other.strategy = Strategy::kMagic;
    other.sip = sip;
    ASSERT_TRUE(service.Answer(other).status.ok());
  }
  const std::string labelled = service.MetricsJson();
  const size_t slow_at = labelled.find("\"slow_queries\":");
  ASSERT_NE(slow_at, std::string::npos);
  const std::string forms = labelled.substr(0, slow_at);
  const std::regex slow_labels(
      R"(\{"form":"[^"]*","strategy":"[^"]*","sip":"[^"]*")");
  std::set<std::string> named;
  for (auto it = std::sregex_iterator(labelled.begin() + slow_at,
                                      labelled.end(), slow_labels);
       it != std::sregex_iterator(); ++it) {
    const std::string entry = it->str() + ",\"rules\":[";
    size_t matches = 0;
    for (size_t at = forms.find(entry); at != std::string::npos;
         at = forms.find(entry, at + 1)) {
      ++matches;
    }
    EXPECT_EQ(matches, 1u) << it->str();
    named.insert(it->str());
  }
  EXPECT_EQ(named, (std::set<std::string>{
                       R"({"form":"anc/bf","strategy":"gsms","sip":"full")",
                       R"({"form":"anc/bf","strategy":"gms","sip":"full")",
                       R"({"form":"anc/bf","strategy":"gms","sip":"chain")"}));
}

TEST(MetricsServiceTest, PerFormCellsCarryTheFullFormKey) {
  // anc/bf evaluated once under gms/full, and only prepared under gsms/full
  // and gms/chain: each form key owns its cells, so the two prepared forms
  // read zero everywhere.
  Workload w = MakeAncestorChain(16);
  QueryServiceOptions options;
  options.num_threads = 1;
  QueryService service(w.program, w.db, options);

  QueryRequest request;
  request.query = w.query;
  request.strategy = Strategy::kMagic;
  request.sip = "full";
  ASSERT_TRUE(service.Answer(request).status.ok());
  request.strategy = Strategy::kSupplementaryMagic;
  ASSERT_TRUE(service.Prepare(request).ok());
  request.strategy = Strategy::kMagic;
  request.sip = "chain";
  ASSERT_TRUE(service.Prepare(request).ok());
  ASSERT_EQ(service.stats().forms_compiled, 3u);

  const FormCells served = ReadFormCells(service, w, Strategy::kMagic, "full");
  EXPECT_EQ(served.queries, 1u);
  EXPECT_EQ(served.rows, 15u);
  EXPECT_EQ(served.eval_count, 1u);
  EXPECT_GT(served.rule_evals, 0u);
  for (const auto& [strategy, sip] :
       {std::pair{Strategy::kSupplementaryMagic, "full"},
        std::pair{Strategy::kMagic, "chain"}}) {
    SCOPED_TRACE(StrategyName(strategy) + "/" + sip);
    const FormCells idle = ReadFormCells(service, w, strategy, sip);
    EXPECT_EQ(idle.queries, 0u);
    EXPECT_EQ(idle.rows, 0u);
    EXPECT_EQ(idle.eval_count, 0u);
    EXPECT_EQ(idle.inline_count, 0u);
    EXPECT_EQ(idle.rule_evals, 0u);
    EXPECT_EQ(idle.rule_firings, 0u);
  }
}

TEST(MetricsServiceTest, EmbedderInstrumentsReachStatsAndMetrics) {
  // One registry, one aggregation path: an instrument an embedder registers
  // through metrics() shows up in both renderings of it.
  Workload w = MakeAncestorChain(4);
  QueryServiceOptions options;
  options.num_threads = 1;
  QueryService service(w.program, w.db, options);
  service.metrics()
      .GetCounter("embedder_widgets", {{"kind", "blue"}}, "Widgets made")
      ->Add(7);

  EXPECT_NE(
      service.MetricsText().find("embedder_widgets_total{kind=\"blue\"} 7"),
      std::string::npos);
  EXPECT_NE(service.MetricsJson().find(
                "\"embedder_widgets\":{\"type\":\"counter\",\"help\":"
                "\"Widgets made\",\"cells\":[{\"labels\":{\"kind\":"
                "\"blue\"},\"value\":7}]}"),
            std::string::npos);
}

TEST(MetricsServiceTest, WritePublishIsAHistogram) {
  Workload w = MakeAncestorChain(8);
  QueryServiceOptions options;
  options.num_threads = 1;
  QueryService service(w.program, w.db, options);
  Universe& u = *w.universe;
  PredId par = *u.predicates().Find(*u.symbols().Find("par"), 2);

  WriteBatch batch;
  batch.Insert(par, {u.Constant("c0"), u.Constant("c7")});
  ASSERT_TRUE(service.ApplyWrites(batch).ok());

  QueryService::Stats stats = service.stats();
  EXPECT_EQ(stats.writes_applied, 1u);
  EXPECT_EQ(stats.write_publish.count, 1u);
  // The batch net-changed the EDB, so a version published on top of the
  // constructor's version 1.
  EXPECT_EQ(stats.versions_published, 2u);
}

}  // namespace
}  // namespace magic
