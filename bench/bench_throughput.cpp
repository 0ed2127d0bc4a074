// bench_throughput — QPS of the concurrent QueryService vs. thread count.
//
//   bench_throughput [--threads N] [--queries M] [--workload NAME]
//                    [--mode NAME]
//
// Serves M queries (instances of one prepared form, constants cycling over
// the workload's nodes) through QueryService at thread counts 1, 2, 4, ...
// up to N, and emits one machine-readable JSON line per (workload, mode,
// thread count) so successive PRs can track a BENCH_throughput.json
// trajectory (scripts/bench_trajectory.sh appends labelled lines):
//
//   {"bench":"throughput","workload":"ancestor_chain_256","mode":"batch",...}
//
// Modes exercise the serving API tiers:
//   batch   AnswerBatch over QueryRequests (request tier, form cache hit
//           per query)
//   handle  Prepare once + Submit(FormHandle, seed) (steady-state hot
//           path: no form-cache mutex)
//   limit1  Submit(handle) with row_limit=1 (early-terminated existence
//           queries; measures how much work the answer sink saves)
//   stream  Stream(handle) and drain each cursor in chunks of 32
//   repeat  a zipfian repeated-seed sequence served twice: once with the
//           AnswerCache disabled (repeat_cold line) and once against a
//           pre-filled cache (repeat_warm line) — the cross-query
//           memoization win on skewed real-world traffic. A third
//           repeat_warm_noobs line repeats the warm pass with the
//           observability plumbing disabled (options.obs.enabled=false),
//           pricing the tracing/histogram overhead on the hot path
//   strategy  non-rewriting strategies (seminaive, topdown) served as
//           prepared handles — one strategy_seminaive and one
//           strategy_topdown line per thread count. These used to run
//           under an exclusive lock (QPS flat in threads by design);
//           their thread scaling is the fallback-removal win. Capped at
//           16 queries: each instance evaluates the whole (adorned)
//           program, so the uncapped count would dominate the run.
//   mutate  read QPS under a background write mix: the usual seed
//           traffic is served (AnswerCache ON, default budget) while a
//           writer thread toggles a disconnected edge through
//           QueryService::ApplyWrites — each batch publishes a new MVCC
//           version (no drain; in-flight readers keep their pinned
//           snapshots) and retires cached answers keyed by the old
//           version, so the line prices live EDB mutation
//           (writes_applied/write_publish_ns ride in the stats fields and
//           publish_p95_ms is emitted as a mode-specific extra). The
//           database is restored afterwards, so later modes and thread
//           counts see the same EDB.
//   eval_large  single-stream fixpoint throughput on a million-fact EDB
//           (MakeAncestorLargeDag; --large-facts sets the size): one
//           thread, cache off, handle tier, queries issued one at a time,
//           seeds cycling over the DAG's tail region so magic sets confine
//           each evaluation to a bounded suffix of the huge relation. The
//           line adds edb_facts, derived facts, and facts_per_sec (derived
//           facts per second — the fixpoint engine's raw speed, visible
//           above serving noise). Not part of `all`: building the EDB
//           takes longer than every other mode combined.
//   serve   the wire: an in-process MagicServer on an ephemeral port,
//           max(2, threads) MagicClient connections, and an OPEN-LOOP
//           arrival schedule (request i is due at i/rate seconds; late
//           requests are not rescheduled, so queueing delay counts
//           against latency like it does for real clients). Emits the
//           usual qps plus rate/connections and p50/p95/p99 latency
//           percentiles measured from each request's scheduled arrival.
//           --rate sets the offered load (default 1000/s).
//
// Workloads: `ancestor` (chain of 256), `samegen` (10x6 grid), or `all`
// (default). Indexes and the form cache are warmed before measuring so
// every thread count sees identical work.
//
// The batch/handle/limit1/stream modes run with the AnswerCache DISABLED
// so they keep measuring the evaluation/serving paths they always did
// (and stay comparable across the BENCH_throughput.json trajectory);
// `repeat` is the mode that measures the cache. The repeat_warm line's
// stats counters aggregate the untimed fill pass plus the timed pass;
// its queries/seconds/qps/answers fields describe the timed pass only.

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cinttypes>
#include <cstdio>
#include <cstring>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "engine/query_service.h"
#include "net/client.h"
#include "net/server.h"
#include "storage/write_batch.h"
#include "util/stopwatch.h"
#include "workload/generators.h"

namespace {

using namespace magic;

struct BenchCase {
  std::string name;
  Workload workload;
  std::vector<Query> batch;
};

std::vector<Query> CycleInstances(const Workload& w,
                                  const std::vector<std::string>& nodes,
                                  size_t count) {
  std::vector<Query> batch;
  batch.reserve(count);
  for (size_t i = 0; i < count; ++i) {
    Query query = w.query;
    query.goal.args[0] = w.universe->Constant(nodes[i % nodes.size()]);
    batch.push_back(std::move(query));
  }
  return batch;
}

BenchCase MakeAncestorCase(size_t queries) {
  constexpr int kChain = 256;
  BenchCase c{"ancestor_chain_" + std::to_string(kChain),
              MakeAncestorChain(kChain),
              {}};
  std::vector<std::string> nodes;
  for (int i = 0; i < kChain; i += 3) {
    nodes.push_back("c" + std::to_string(i));
  }
  c.batch = CycleInstances(c.workload, nodes, queries);
  return c;
}

BenchCase MakeSameGenCase(size_t queries) {
  constexpr int kDepth = 10;
  constexpr int kWidth = 6;
  BenchCase c{"samegen_grid_" + std::to_string(kDepth) + "x" +
                  std::to_string(kWidth),
              MakeSameGenNonlinear(kDepth, kWidth),
              {}};
  std::vector<std::string> nodes;
  for (int level = 0; level < kDepth / 2; ++level) {
    for (int column = 0; column < kWidth; ++column) {
      nodes.push_back("n" + std::to_string(level) + "_" +
                      std::to_string(column));
    }
  }
  c.batch = CycleInstances(c.workload, nodes, queries);
  return c;
}

/// Wraps plain queries as request-tier QueryRequests (default strategy,
/// no limits) for AnswerBatch.
std::vector<QueryRequest> AsRequests(const std::vector<Query>& queries) {
  std::vector<QueryRequest> requests(queries.size());
  for (size_t i = 0; i < queries.size(); ++i) {
    requests[i].query = queries[i];
  }
  return requests;
}

/// The per-instance seed values of each batch query (the constants at the
/// bound positions), for the handle tier.
std::vector<std::vector<TermId>> SeedValues(const BenchCase& c) {
  const Universe& u = *c.workload.universe;
  std::vector<std::vector<TermId>> seeds;
  seeds.reserve(c.batch.size());
  for (const Query& query : c.batch) {
    std::vector<TermId> bound;
    for (TermId arg : query.goal.args) {
      if (u.terms().IsGround(arg)) bound.push_back(arg);
    }
    seeds.push_back(std::move(bound));
  }
  return seeds;
}

void EmitLine(const BenchCase& c, const char* mode, size_t threads,
              size_t queries, double seconds, size_t answers,
              size_t failures, const QueryService::Stats& stats,
              const std::string& extra = std::string()) {
  // Counter fields are the service's own Stats reads (registry cells), so
  // the bench never re-aggregates by hand; the key names are the ones the
  // trajectory lines have always carried.
  // `extra` is a mode-specific run of `"key":value,` pairs (the serve
  // mode's rate + arrival-anchored latency percentiles; the mutate mode's
  // publish_p95_ms). Unless an `extra` already carries its own latency
  // keys, p50/p95/p99 come from the service's own request-latency
  // histogram — the same cells METRICS scrapes.
  std::string latency;
  if (extra.find("\"p50_ms\"") == std::string::npos &&
      stats.request_latency.count > 0) {
    char buf[128];
    std::snprintf(buf, sizeof(buf),
                  "\"p50_ms\":%.3f,\"p95_ms\":%.3f,\"p99_ms\":%.3f,",
                  stats.request_latency.Quantile(0.50) / 1e6,
                  stats.request_latency.Quantile(0.95) / 1e6,
                  stats.request_latency.Quantile(0.99) / 1e6);
    latency = buf;
  }
  std::printf(
      "{\"bench\":\"throughput\",\"workload\":\"%s\",\"mode\":\"%s\","
      "\"threads\":%zu,\"queries\":%zu,\"seconds\":%.6f,\"qps\":%.1f,"
      "\"answers\":%zu,\"failures\":%zu,%s%s"
      "\"forms_compiled\":%zu,\"form_cache_hits\":%zu,"
      "\"answer_hits\":%" PRIu64 ",\"answer_misses\":%" PRIu64 ","
      "\"answers_from_cache\":%zu,\"deadline_shed\":%zu,"
      "\"writes_applied\":%zu,\"write_publish_ns\":%" PRIu64 ","
      "\"versions_published\":%zu,\"answer_evictions\":%" PRIu64 ","
      "\"answer_bytes\":%zu}\n",
      c.name.c_str(), mode, threads, queries, seconds,
      static_cast<double>(queries) / seconds, answers, failures,
      extra.c_str(), latency.c_str(), stats.forms_compiled,
      stats.form_cache_hits, stats.answer_cache.hits,
      stats.answer_cache.misses, stats.answers_from_cache,
      stats.deadline_shed, stats.writes_applied, stats.write_publish.sum,
      stats.versions_published, stats.answer_cache.evictions,
      stats.answer_cache.bytes);
  std::fflush(stdout);
}

/// The p-th percentile (0 < p <= 1) of latencies, by rank; `sorted` must be
/// ascending and nonempty.
double Percentile(const std::vector<double>& sorted, double p) {
  size_t rank = static_cast<size_t>(p * static_cast<double>(sorted.size()));
  if (rank > 0) --rank;
  if (rank >= sorted.size()) rank = sorted.size() - 1;
  return sorted[rank];
}

/// A zipf(s=1)-distributed index sequence over `universe` items,
/// deterministic across runs — the skewed repeated-seed traffic the
/// `repeat` mode serves.
std::vector<size_t> ZipfIndices(size_t universe, size_t count) {
  std::vector<double> cdf(universe);
  double total = 0;
  for (size_t i = 0; i < universe; ++i) {
    total += 1.0 / static_cast<double>(i + 1);
    cdf[i] = total;
  }
  for (double& value : cdf) value /= total;
  std::vector<size_t> indices;
  indices.reserve(count);
  uint64_t rng = 0x9e3779b97f4a7c15ULL;
  for (size_t i = 0; i < count; ++i) {
    rng ^= rng << 13;
    rng ^= rng >> 7;
    rng ^= rng << 17;
    const double u =
        static_cast<double>(rng >> 11) * (1.0 / 9007199254740992.0);
    indices.push_back(static_cast<size_t>(
        std::lower_bound(cdf.begin(), cdf.end(), u) - cdf.begin()));
  }
  return indices;
}

/// Submits every seed through the handle tier and drains the futures;
/// returns (answers, failures).
std::pair<size_t, size_t> ServeSeeds(
    QueryService& service, const QueryService::FormHandle& handle,
    const std::vector<std::vector<TermId>>& seeds) {
  std::vector<std::future<QueryAnswer>> futures;
  futures.reserve(seeds.size());
  for (const std::vector<TermId>& seed : seeds) {
    futures.push_back(service.Submit(handle, seed));
  }
  size_t answers = 0;
  size_t failures = 0;
  for (std::future<QueryAnswer>& future : futures) {
    QueryAnswer answer = future.get();
    if (!answer.status.ok()) ++failures;
    answers += answer.tuples.size();
  }
  return {answers, failures};
}

void RunCase(BenchCase& c, size_t max_threads, const std::string& mode,
             double rate) {
  // Warm up: build the EDB indexes and intern everything once so every
  // measured thread count does identical work.
  {
    QueryServiceOptions options;
    options.num_threads = 1;
    QueryService warmup(c.workload.program, c.workload.db, options);
    (void)warmup.AnswerBatch(AsRequests(c.batch));
  }
  std::vector<std::vector<TermId>> seeds = SeedValues(c);

  // The mutate mode's toggled edge: two fresh constants (interned now, at
  // a quiescent point — never while a service is live) on some arity-2
  // base relation of the workload. The nodes are disconnected from every
  // query seed, so answers are unchanged; only the version moves.
  const TermId mut_a = c.workload.universe->Constant("mut_a");
  const TermId mut_b = c.workload.universe->Constant("mut_b");
  PredId mutate_pred = 0;
  bool mutate_pred_found = false;
  for (const auto& [pred, rel] : c.workload.db.relations()) {
    if (rel->arity() == 2) {
      mutate_pred = pred;
      mutate_pred_found = true;
      break;
    }
  }
  for (size_t threads = 1; threads <= max_threads; threads *= 2) {
    QueryServiceOptions options;
    options.num_threads = threads;
    // Legacy modes measure the evaluation/serving paths, not the memo —
    // with the cache on, a cycling seed list turns them into hit
    // benchmarks after the first lap. `repeat` measures the cache.
    options.cache_bytes = 0;

    if (mode == "batch" || mode == "all") {
      QueryService service(c.workload.program, c.workload.db, options);
      std::vector<QueryRequest> requests = AsRequests(c.batch);
      Stopwatch watch;
      std::vector<QueryAnswer> answers = service.AnswerBatch(requests);
      double seconds = watch.ElapsedSeconds();
      size_t total_answers = 0;
      size_t failures = 0;
      for (const QueryAnswer& answer : answers) {
        if (!answer.status.ok()) ++failures;
        total_answers += answer.tuples.size();
      }
      EmitLine(c, "batch", threads, c.batch.size(), seconds, total_answers,
               failures, service.stats());
    }

    if (mode == "handle" || mode == "limit1" || mode == "all") {
      for (const char* tier : {"handle", "limit1"}) {
        if (mode != "all" && mode != tier) continue;
        QueryService service(c.workload.program, c.workload.db, options);
        QueryRequest exemplar;
        exemplar.query = c.workload.query;
        auto handle = service.Prepare(exemplar);
        if (!handle.ok()) {
          std::fprintf(stderr, "bench_throughput: %s\n",
                       handle.status().ToString().c_str());
          return;
        }
        QueryLimits limits;
        if (std::strcmp(tier, "limit1") == 0) limits.row_limit = 1;
        Stopwatch watch;
        std::vector<std::future<QueryAnswer>> futures;
        futures.reserve(seeds.size());
        for (const std::vector<TermId>& seed : seeds) {
          futures.push_back(service.Submit(*handle, seed, limits));
        }
        size_t total_answers = 0;
        size_t failures = 0;
        for (std::future<QueryAnswer>& future : futures) {
          QueryAnswer answer = future.get();
          if (!answer.status.ok()) ++failures;
          total_answers += answer.tuples.size();
        }
        double seconds = watch.ElapsedSeconds();
        EmitLine(c, tier, threads, seeds.size(), seconds, total_answers,
                 failures, service.stats());
      }
    }

    if (mode == "repeat" || mode == "all") {
      // A zipfian repeated-seed sequence over the workload's distinct
      // seeds: the traffic shape where cross-query memoization pays.
      std::vector<std::vector<TermId>> distinct;
      for (const std::vector<TermId>& seed : seeds) {
        if (!distinct.empty() && seed == distinct.front()) break;  // wrapped
        distinct.push_back(seed);
      }
      std::vector<std::vector<TermId>> traffic;
      traffic.reserve(seeds.size());
      for (size_t index : ZipfIndices(distinct.size(), seeds.size())) {
        traffic.push_back(distinct[index]);
      }

      for (const char* phase :
           {"repeat_cold", "repeat_warm", "repeat_warm_noobs"}) {
        const bool warm = std::strncmp(phase, "repeat_warm", 11) == 0;
        QueryServiceOptions phase_options = options;
        if (warm) phase_options.cache_bytes = QueryServiceOptions{}.cache_bytes;
        // The noobs phase is the warm pass with observability off: the
        // delta between the two warm lines is the obs overhead (the
        // acceptance budget is within 5% on repeat_warm QPS).
        if (std::strcmp(phase, "repeat_warm_noobs") == 0) {
          phase_options.obs.enabled = false;
        }
        QueryService service(c.workload.program, c.workload.db,
                             phase_options);
        QueryRequest exemplar;
        exemplar.query = c.workload.query;
        auto handle = service.Prepare(exemplar);
        if (!handle.ok()) {
          std::fprintf(stderr, "bench_throughput: %s\n",
                       handle.status().ToString().c_str());
          return;
        }
        // Warm phase: one untimed pass fills the cache, a second untimed
        // pass brings the hit path itself to steady state (the first
        // post-cold phase otherwise pays the cold run's heap/CPU-cache
        // wreckage and the warm-vs-noobs comparison measures phase order,
        // not observability), and the timed pass then serves the same
        // skewed sequence from the warm cache.
        if (warm) {
          (void)ServeSeeds(service, *handle, traffic);
          (void)ServeSeeds(service, *handle, traffic);
        }
        // The warm passes serve in microseconds, so one pass over the
        // traffic is scheduler-noise territory; timing several passes
        // makes the warm-vs-noobs delta (the obs overhead budget)
        // measurable. QPS stays per-query, so lines remain comparable.
        const size_t timed_passes = warm ? 8 : 1;
        size_t total_answers = 0;
        size_t failures = 0;
        Stopwatch watch;
        for (size_t pass = 0; pass < timed_passes; ++pass) {
          auto [answers, failed] = ServeSeeds(service, *handle, traffic);
          total_answers += answers;
          failures += failed;
        }
        double seconds = watch.ElapsedSeconds();
        EmitLine(c, phase, threads, traffic.size() * timed_passes, seconds,
                 total_answers, failures, service.stats());
      }
    }

    if (mode == "strategy" || mode == "all") {
      const size_t strategy_queries = std::min<size_t>(seeds.size(), 16);
      const std::vector<std::vector<TermId>> subset(
          seeds.begin(),
          seeds.begin() + static_cast<ptrdiff_t>(strategy_queries));
      for (Strategy strategy :
           {Strategy::kSemiNaiveBottomUp, Strategy::kTopDown}) {
        QueryService service(c.workload.program, c.workload.db, options);
        QueryRequest exemplar;
        exemplar.query = c.workload.query;
        exemplar.strategy = strategy;
        auto handle = service.Prepare(exemplar);
        if (!handle.ok()) {
          std::fprintf(stderr, "bench_throughput: %s\n",
                       handle.status().ToString().c_str());
          return;
        }
        Stopwatch watch;
        auto [total_answers, failures] = ServeSeeds(service, *handle, subset);
        double seconds = watch.ElapsedSeconds();
        const std::string tier = "strategy_" + StrategyName(strategy);
        EmitLine(c, tier.c_str(), threads, subset.size(), seconds,
                 total_answers, failures, service.stats());
      }
    }

    if ((mode == "mutate" || mode == "all") && mutate_pred_found) {
      // Reads under a write mix: cache ON (the default budget) so the
      // line prices what live traffic would feel — warm hits until a
      // publish retires them by version, refills after. No drain: reader
      // QPS should stay near repeat_warm because writers never block
      // readers.
      QueryServiceOptions mutate_options = options;
      mutate_options.cache_bytes = QueryServiceOptions{}.cache_bytes;
      QueryService service(c.workload.program, c.workload.db,
                           mutate_options);
      QueryRequest exemplar;
      exemplar.query = c.workload.query;
      auto handle = service.Prepare(exemplar);
      if (!handle.ok()) {
        std::fprintf(stderr, "bench_throughput: %s\n",
                     handle.status().ToString().c_str());
        return;
      }
      std::atomic<bool> stop{false};
      std::thread writer([&] {
        bool present = false;
        while (!stop.load(std::memory_order_relaxed)) {
          WriteBatch batch;
          if (present) {
            batch.Retract(mutate_pred, {mut_a, mut_b});
          } else {
            batch.Insert(mutate_pred, {mut_a, mut_b});
          }
          if (service.ApplyWrites(batch).ok()) present = !present;
          // Throttle so cache refills can land between publishes — this
          // is a write *mix*, not a write flood.
          std::this_thread::sleep_for(std::chrono::microseconds(200));
        }
        if (present) {
          WriteBatch undo;
          undo.Retract(mutate_pred, {mut_a, mut_b});
          (void)service.ApplyWrites(undo);  // restore the baseline EDB
        }
      });
      Stopwatch watch;
      auto [total_answers, failures] = ServeSeeds(service, *handle, seeds);
      double seconds = watch.ElapsedSeconds();
      stop.store(true, std::memory_order_relaxed);
      writer.join();
      // Writer-side tail latency rides along: p95 of the per-batch
      // build+publish histogram (queue wait excluded). Independent of the
      // longest in-flight fixpoint — that independence is the MVCC win
      // this line exists to keep honest.
      const QueryService::Stats stats = service.stats();
      char extra[64];
      std::snprintf(extra, sizeof(extra), "\"publish_p95_ms\":%.3f,",
                    stats.write_publish.Quantile(0.95) / 1e6);
      EmitLine(c, "mutate", threads, seeds.size(), seconds, total_answers,
               failures, stats, extra);
    }

    if (mode == "serve" || mode == "all") {
      // Whole-stack line: parse + seed interning + evaluation + framing,
      // through real sockets, under an open-loop arrival schedule.
      QueryService service(c.workload.program, c.workload.db, options);
      net::ServerOptions server_options;
      server_options.port = 0;
      net::MagicServer server(c.workload.universe, c.workload.program,
                              &service, server_options);
      if (Status st = server.Start(); !st.ok()) {
        std::fprintf(stderr, "bench_throughput: %s\n", st.ToString().c_str());
        return;
      }
      const Universe& u = *c.workload.universe;
      std::string query_text =
          u.symbols().Name(u.predicates().info(c.workload.query.goal.pred).name);
      query_text += "(";
      for (size_t i = 0; i < c.workload.query.goal.args.size(); ++i) {
        if (i > 0) query_text += ", ";
        query_text += u.TermToString(c.workload.query.goal.args[i]);
      }
      query_text += ")";
      std::vector<std::string> seed_tokens;
      seed_tokens.reserve(seeds.size());
      for (const std::vector<TermId>& seed : seeds) {
        std::string tokens;
        for (size_t j = 0; j < seed.size(); ++j) {
          if (j > 0) tokens += ' ';
          tokens += u.TermToString(seed[j]);
        }
        seed_tokens.push_back(std::move(tokens));
      }

      const size_t connections = std::max<size_t>(2, threads);
      std::vector<double> latency_ms(seed_tokens.size(), 0.0);
      std::atomic<size_t> total_answers{0};
      std::atomic<size_t> failures{0};
      const auto start = std::chrono::steady_clock::now();
      std::vector<std::thread> clients;
      clients.reserve(connections);
      for (size_t k = 0; k < connections; ++k) {
        clients.emplace_back([&, k] {
          auto conn = net::MagicClient::Connect(server.host(), server.port());
          size_t assigned = 0;
          for (size_t i = k; i < seed_tokens.size(); i += connections) {
            ++assigned;
          }
          if (!conn.ok()) {
            failures.fetch_add(assigned, std::memory_order_relaxed);
            return;
          }
          net::MagicClient client = std::move(*conn);
          auto prepared = client.Call("PREPARE bench " + query_text);
          if (!prepared.ok() || !prepared->ok()) {
            failures.fetch_add(assigned, std::memory_order_relaxed);
            return;
          }
          for (size_t i = k; i < seed_tokens.size(); i += connections) {
            // Open loop: request i is due at i/rate seconds after start,
            // regardless of how long earlier requests took. Sleeping past
            // a due point just means the latency sample includes the
            // queueing delay — exactly what a real client would feel.
            const auto due =
                start + std::chrono::duration_cast<
                            std::chrono::steady_clock::duration>(
                            std::chrono::duration<double>(
                                static_cast<double>(i) / rate));
            std::this_thread::sleep_until(due);
            auto reply = client.Call("QUERY bench " + seed_tokens[i]);
            const auto done = std::chrono::steady_clock::now();
            latency_ms[i] =
                std::chrono::duration<double, std::milli>(done - due).count();
            if (!reply.ok()) {
              // Transport failure: the connection is dead; everything
              // still assigned to it fails too.
              size_t rest = 0;
              for (size_t j = i; j < seed_tokens.size(); j += connections) {
                ++rest;
              }
              failures.fetch_add(rest, std::memory_order_relaxed);
              return;
            }
            if (!reply->ok()) {
              failures.fetch_add(1, std::memory_order_relaxed);
            } else {
              total_answers.fetch_add(reply->lines.size(),
                                      std::memory_order_relaxed);
            }
          }
        });
      }
      for (std::thread& t : clients) t.join();
      const double seconds = std::chrono::duration<double>(
                                 std::chrono::steady_clock::now() - start)
                                 .count();
      server.Stop();

      std::vector<double> sorted = latency_ms;
      std::sort(sorted.begin(), sorted.end());
      char extra[192];
      std::snprintf(extra, sizeof(extra),
                    "\"rate\":%.1f,\"connections\":%zu,\"p50_ms\":%.3f,"
                    "\"p95_ms\":%.3f,\"p99_ms\":%.3f,",
                    rate, connections, Percentile(sorted, 0.50),
                    Percentile(sorted, 0.95), Percentile(sorted, 0.99));
      EmitLine(c, "serve", threads, seed_tokens.size(), seconds,
               total_answers.load(), failures.load(), service.stats(), extra);
    }

    if (mode == "stream" || mode == "all") {
      QueryService service(c.workload.program, c.workload.db, options);
      QueryRequest exemplar;
      exemplar.query = c.workload.query;
      auto handle = service.Prepare(exemplar);
      if (!handle.ok()) {
        std::fprintf(stderr, "bench_throughput: %s\n",
                     handle.status().ToString().c_str());
        return;
      }
      Stopwatch watch;
      std::vector<AnswerCursor> cursors;
      cursors.reserve(seeds.size());
      for (const std::vector<TermId>& seed : seeds) {
        cursors.push_back(service.Stream(*handle, seed));
      }
      size_t total_answers = 0;
      size_t failures = 0;
      std::vector<std::vector<TermId>> chunk;
      for (AnswerCursor& cursor : cursors) {
        while (cursor.Next(32, &chunk)) total_answers += chunk.size();
        if (!cursor.Finish().status.ok()) ++failures;
      }
      double seconds = watch.ElapsedSeconds();
      EmitLine(c, "stream", threads, seeds.size(), seconds, total_answers,
               failures, service.stats());
    }
  }
}

void RunEvalLarge(size_t queries, size_t large_facts) {
  constexpr int kSpan = 16;
  constexpr int kTail = 512;  // seeds come from the last kTail nodes
  const int nodes =
      std::max<int>(2, static_cast<int>(large_facts / 8));  // ~8 edges/node
  BenchCase c{"ancestor_large_dag_" + std::to_string(large_facts),
              MakeAncestorLargeDag(nodes, static_cast<int>(large_facts),
                                   kSpan, /*seed=*/0x5eed),
              {}};
  const int tail = std::min(nodes - 1, kTail);
  std::vector<std::string> tail_nodes;
  tail_nodes.reserve(static_cast<size_t>(tail));
  for (int i = nodes - 1 - tail; i < nodes - 1; ++i) {
    tail_nodes.push_back("c" + std::to_string(i));
  }
  c.batch = CycleInstances(c.workload, tail_nodes, queries);
  std::vector<std::vector<TermId>> seeds = SeedValues(c);

  // Single stream, cache off: this line prices the fixpoint itself, not
  // the pool or the memo.
  QueryServiceOptions options;
  options.num_threads = 1;
  options.cache_bytes = 0;
  QueryService service(c.workload.program, c.workload.db, options);
  QueryRequest exemplar;
  exemplar.query = c.workload.query;
  auto handle = service.Prepare(exemplar);
  if (!handle.ok()) {
    std::fprintf(stderr, "bench_throughput: %s\n",
                 handle.status().ToString().c_str());
    return;
  }
  // Warm once: the first probe builds the million-row par index; every
  // measured query then pays probes, not builds.
  (void)service.Submit(*handle, seeds[0]).get();

  size_t total_answers = 0;
  size_t failures = 0;
  uint64_t derived_facts = 0;
  Stopwatch watch;
  for (const std::vector<TermId>& seed : seeds) {
    QueryAnswer answer = service.Submit(*handle, seed).get();
    if (!answer.status.ok()) ++failures;
    total_answers += answer.tuples.size();
    derived_facts += answer.eval_stats.new_facts;
  }
  const double seconds = watch.ElapsedSeconds();
  char extra[160];
  std::snprintf(extra, sizeof(extra),
                "\"edb_facts\":%zu,\"facts\":%llu,\"facts_per_sec\":%.0f,",
                c.workload.db.TotalFacts(),
                static_cast<unsigned long long>(derived_facts),
                static_cast<double>(derived_facts) / seconds);
  EmitLine(c, "eval_large", 1, seeds.size(), seconds, total_answers,
           failures, service.stats(), extra);
}

}  // namespace

int main(int argc, char** argv) {
  size_t max_threads = 4;
  size_t queries = 256;
  std::string workload = "all";
  std::string mode = "all";
  double rate = 1000.0;
  size_t large_facts = 1'000'000;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--threads") == 0 && i + 1 < argc) {
      max_threads = std::strtoull(argv[++i], nullptr, 10);
    } else if (std::strcmp(argv[i], "--queries") == 0 && i + 1 < argc) {
      queries = std::strtoull(argv[++i], nullptr, 10);
    } else if (std::strcmp(argv[i], "--workload") == 0 && i + 1 < argc) {
      workload = argv[++i];
    } else if (std::strcmp(argv[i], "--mode") == 0 && i + 1 < argc) {
      mode = argv[++i];
    } else if (std::strcmp(argv[i], "--rate") == 0 && i + 1 < argc) {
      rate = std::strtod(argv[++i], nullptr);
    } else if (std::strcmp(argv[i], "--large-facts") == 0 && i + 1 < argc) {
      large_facts = std::strtoull(argv[++i], nullptr, 10);
    } else {
      std::fprintf(
          stderr,
          "usage: bench_throughput [--threads N] [--queries M] "
          "[--workload ancestor|samegen|all] "
          "[--mode batch|handle|limit1|stream|repeat|strategy|mutate|serve|"
          "eval_large|all] [--rate QPS] [--large-facts N]\n");
      return 2;
    }
  }
  if (max_threads == 0) max_threads = 1;
  if (rate <= 0) rate = 1000.0;
  if (large_facts < 1000) large_facts = 1000;
  if (workload != "ancestor" && workload != "samegen" && workload != "all") {
    std::fprintf(stderr, "bench_throughput: unknown workload \"%s\"\n",
                 workload.c_str());
    return 2;
  }
  if (mode != "batch" && mode != "handle" && mode != "limit1" &&
      mode != "stream" && mode != "repeat" && mode != "strategy" &&
      mode != "mutate" && mode != "serve" && mode != "eval_large" &&
      mode != "all") {
    std::fprintf(stderr, "bench_throughput: unknown mode \"%s\"\n",
                 mode.c_str());
    return 2;
  }
  if (mode == "eval_large") {
    // Its own workload and a single thread count: not part of `all`, so
    // the legacy modes' lines stay byte-comparable across the trajectory.
    RunEvalLarge(queries, large_facts);
    return 0;
  }
  if (workload == "ancestor" || workload == "all") {
    BenchCase c = MakeAncestorCase(queries);
    RunCase(c, max_threads, mode, rate);
  }
  if (workload == "samegen" || workload == "all") {
    BenchCase c = MakeSameGenCase(queries);
    RunCase(c, max_threads, mode, rate);
  }
  return 0;
}
