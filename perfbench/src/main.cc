// perfbench — the repository's benchmark program.
//
//   perfbench --workload wire_hot|eval_cold|write_mix --seed N --seconds S
//             --trace 0|1 [--spans PATH]
//
// Generates the workload's inputs from the seed, sets the system up several
// times (reporting the median set-up time), runs a closed loop for S
// seconds, checks every answer, and prints one JSON document as its last
// line. With --trace 1 it also records spans around each layer call (kept
// in memory, written to PATH at the end) and runs the layer probes; the
// summarizer beside this program turns the spans into per-layer metrics.
// perfbench/README.md describes the workloads and metrics.

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <functional>
#include <string>
#include <thread>
#include <vector>

#include "common.h"
#include "net/client.h"
#include "probes.h"
#include "storage/write_batch.h"
#include "workload.h"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

namespace perfbench {
namespace {

using magic::QueryAnswer;
using magic::TermId;
using magic::net::MagicClient;

constexpr int kSetups = 5;          // set-ups per run; setup_s is the median
constexpr size_t kClients = 4;      // wire_hot connections, eval_cold readers
constexpr size_t kMixReaders = 3;   // write_mix readers (plus one writer)
/// write_mix's zipf seed set. The AnswerCache hashes every single-constant
/// seed of one form into the same shard, so the set must fit one shard's
/// 4 MB share: 24 answers of about 3000 tuples (~84 KB each) do.
constexpr size_t kHotSeeds = 24;
constexpr size_t kColdWarmSeeds = 1024;  // eval_cold warm-up fill
constexpr double kWritePeriodS = 1.5;    // write_mix: one batch per period
constexpr size_t kColdWrites = 12;       // eval_cold's write probe
constexpr size_t kWireWrites = 24;       // wire_hot's write probe
/// Writes take fresh edges from the front half; the write probe from the
/// back half, so the two never touch the same tuple.
constexpr size_t kProbeEdgeBase = 1024;
/// Read metrics are medians over up to kSlices equal slices of the read
/// window, as many as keep at least kSliceReads reads (a p99's worth) each.
constexpr size_t kSlices = 5;
constexpr size_t kSliceReads = 1000;

struct Options {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string spans;
};

/// One timed read.
struct Read {
  int64_t start_ns = 0;
  double ms = 0;
  bool traced = false;  // it also recorded spans
};

/// What the timed phase measured.
struct Window {
  std::vector<Read> reads;
  std::vector<double> write_ms;  // ApplyWrites latencies
  int64_t start_ns = 0;          // start of the read loop
  double seconds = 0;            // wall time of the read loop
  size_t versions_live_max = 1;
  /// Mean build+publish time of the in-process writes the trace records
  /// as `storage.apply` spans (the service's write_publish histogram).
  double publish_ms = 0;
};

magic::obs::HistogramSnapshot PublishHistogram(const Served& s) {
  return s.service->stats().write_publish;
}

/// Mean write_publish time (ms) of the batches published since `before`.
double PublishMeanMs(const Served& s,
                     const magic::obs::HistogramSnapshot& before) {
  const magic::obs::HistogramSnapshot now = PublishHistogram(s);
  const uint64_t n = now.count - before.count;
  return n == 0 ? 0 : static_cast<double>(now.sum - before.sum) / 1e6 / n;
}

std::string SeedName(const Inputs& in, size_t seed_index) {
  return in.names[in.seeds[seed_index]];
}

double ReplyBytes(const MagicClient::Reply& reply) {
  size_t bytes = reply.head.size();
  for (const std::string& line : reply.lines) bytes += line.size() + 1;
  return static_cast<double>(bytes);
}

bool AnswerOk(const Inputs& in, const Served& s, size_t seed_index,
              const QueryAnswer& answer) {
  return answer.status.ok() && answer.outcome == magic::AnswerStatus::kOk &&
         CheckTuples(in, s, seed_index, answer.tuples);
}

QueryAnswer Ask(Served& s, const Inputs& in, size_t seed_index) {
  return s.service->Answer(s.handle, {s.term(in.seeds[seed_index])});
}

size_t VersionsLive(const Served& s) {
  const magic::QueryService::Stats st = s.service->stats();
  return st.versions_published - st.versions_retired;
}

/// Runs `body(k)` on `n` threads and joins them.
void RunThreads(size_t n, const std::function<void(size_t)>& body) {
  std::vector<std::thread> threads;
  threads.reserve(n);
  for (size_t k = 0; k < n; ++k) threads.emplace_back(body, k);
  for (std::thread& t : threads) t.join();
}

/// The write sequence shared by write_mix's writer and the write probe:
/// each batch inserts `per_batch` fresh edges (a clone of the relation
/// plus an incremental index extend); Restore() retracts them all in one
/// untimed batch, so the relation ends as it started.
class WriteSequence {
 public:
  WriteSequence(const Inputs& in, Served& s, size_t first_edge,
                size_t per_batch)
      : in_(in), s_(s), next_(first_edge), per_batch_(per_batch) {}

  /// Applies the next batch; returns its latency in ms (counted in
  /// `report`, and recorded as a span when `log` is set).
  double Next(Report& report, SpanLog* log) {
    magic::WriteBatch batch;
    for (size_t i = 0; i < per_batch_; ++i) {
      inserted_.push_back(Fresh(next_++));
      batch.Insert(pred(), inserted_.back());
    }
    const int64_t t0 = NowNs();
    magic::Result<magic::WriteResult> result = s_.service->ApplyWrites(batch);
    const int64_t t1 = NowNs();
    report.Count(result.ok() && result->inserted == per_batch_,
                 "ApplyWrites did not apply its batch");
    if (log != nullptr) {
      log->Add("storage.apply", log->NewRequest(), 0, t0, t1,
               {{"ops", static_cast<double>(batch.size())}});
    }
    return static_cast<double>(t1 - t0) / 1e6;
  }

  void Restore(Report& report) {
    if (inserted_.empty()) return;
    magic::WriteBatch batch;
    for (const std::vector<TermId>& tuple : inserted_) {
      batch.Retract(pred(), tuple);
    }
    magic::Result<magic::WriteResult> result = s_.service->ApplyWrites(batch);
    report.Count(result.ok() && result->retracted == inserted_.size(),
                 "restoring ApplyWrites failed");
    inserted_.clear();
  }

 private:
  magic::PredId pred() const { return s_.write_pred(in_); }
  std::vector<TermId> Fresh(size_t i) const {
    const Edge& e = in_.fresh_edges[i % in_.fresh_edges.size()];
    return {s_.term(e.first), s_.term(e.second)};
  }

  const Inputs& in_;
  Served& s_;
  size_t next_;
  size_t per_batch_;
  std::vector<std::vector<TermId>> inserted_;
};

// --- set-up ----------------------------------------------------------------

/// Workload-specific tail of set-up: fill the cache the way the timed loop
/// expects to find it, and (wire_hot) open the client connections.
bool WarmUp(const Options& opt, const Inputs& in, Served& s,
            std::vector<MagicClient>* clients, Report& report,
            std::string* error) {
  if (opt.workload == "eval_cold") {
    // Fill the 64 MB cache to its steady state before timing.
    std::atomic<size_t> next{0};
    const size_t fill = std::min(kColdWarmSeeds, in.seeds.size());
    RunThreads(kClients, [&](size_t) {
      for (size_t i = next++; i < fill; i = next++) {
        report.Count(AnswerOk(in, s, i, Ask(s, in, i)), "warm-up answer");
      }
    });
    return true;
  }
  for (size_t i = 0; i < in.seeds.size(); ++i) {
    report.Count(AnswerOk(in, s, i, Ask(s, in, i)), "warm-up answer");
  }
  if (opt.workload != "wire_hot") return true;
  if (!StartServer(&s, error)) return false;
  const std::string prepare = "PREPARE q " + s.QueryText();
  std::vector<std::optional<MagicClient>> opened(kClients);
  RunThreads(kClients, [&](size_t k) {
    magic::Result<MagicClient> conn =
        MagicClient::Connect(s.server->host(), s.server->port());
    if (!conn.ok()) return;
    auto prepared = conn->Call(prepare);
    auto warm = conn->Call("QUERY q " + SeedName(in, 0));
    if (prepared.ok() && prepared->ok() && warm.ok() && warm->ok()) {
      opened[k].emplace(std::move(conn).value());
    }
  });
  for (std::optional<MagicClient>& c : opened) {
    if (!c.has_value()) {
      *error = "wire warm-up failed";
      return false;
    }
    clients->push_back(std::move(*c));
  }
  return true;
}

// --- timed phase -------------------------------------------------------------

/// Per-thread results of a read loop, merged into the Window afterwards.
struct ReaderOut {
  std::vector<Read> reads;
  int64_t end_ns = 0;
};

void Merge(std::vector<ReaderOut>& outs, int64_t start_ns, Window* w) {
  int64_t end_ns = start_ns;
  for (ReaderOut& o : outs) {
    w->reads.insert(w->reads.end(), o.reads.begin(), o.reads.end());
    end_ns = std::max(end_ns, o.end_ns);
  }
  w->start_ns = start_ns;
  w->seconds = static_cast<double>(end_ns - start_ns) / 1e9;
}

struct ReadStats {
  double p50_ms = 0;
  double p99_ms = 0;
  double qps = 0;
};

/// Cuts the read window into equal slices by request start and returns
/// each read metric as the median over the slices, so a burst of outside
/// load that covers a minority of the slices does not move it.
ReadStats SliceStats(const Window& w) {
  const size_t n = std::clamp<size_t>(w.reads.size() / kSliceReads, 1, kSlices);
  const double slice_s = w.seconds / static_cast<double>(n);
  std::vector<std::vector<double>> slices(n);
  for (const Read& r : w.reads) {
    const auto k = static_cast<size_t>(
        static_cast<double>(r.start_ns - w.start_ns) / 1e9 / slice_s);
    slices[std::min(k, n - 1)].push_back(r.ms);
  }
  std::vector<double> p50, p99, qps;
  for (const std::vector<double>& slice : slices) {
    p50.push_back(Quantile(slice, 0.50));
    p99.push_back(Quantile(slice, 0.99));
    qps.push_back(static_cast<double>(slice.size()) / slice_s);
  }
  return {Median(p50), Median(p99), Median(qps)};
}

/// Median latency of the traced or of the untraced reads.
double MedianMs(const Window& w, bool traced) {
  std::vector<double> ms;
  for (const Read& r : w.reads) {
    if (r.traced == traced) ms.push_back(r.ms);
  }
  return Median(std::move(ms));
}

Rng ThreadRng(uint64_t seed, size_t thread) {
  return Rng(seed * 0x9e3779b97f4a7c15ULL + 0x51ed27 + thread * 0x1000193);
}

/// Evaluates seeds[idx] on the benchmark's own prepared form against `db`
/// and records the `eval.answer` span with the fixpoint's counters.
void EvalSpan(const Inputs& in, const Served& s, size_t idx,
              const magic::Database& db, bool probe, Report& report,
              SpanLog& log, uint64_t rq, uint64_t parent) {
  const int64_t e0 = NowNs();
  const QueryAnswer own = s.form->Answer({s.term(in.seeds[idx])}, db);
  const int64_t e1 = NowNs();
  report.Count(AnswerOk(in, s, idx, own), "wrong own-form answer");
  const magic::EvalStats& st = own.eval_stats;
  log.Add("eval.answer", rq, parent, e0, e1,
          {{"fixpoint_s", st.seconds},
           {"facts", static_cast<double>(st.new_facts)},
           {"dups", static_cast<double>(st.duplicate_facts)},
           {"probes", static_cast<double>(st.join_probes)},
           {"iterations", static_cast<double>(st.iterations)},
           {"probe", probe ? 1.0 : 0.0},
           {"seed", static_cast<double>(idx)}});
}

/// Asks the service for seeds[idx] and records the `engine.answer` span.
/// A replay re-asks an instance another tier just answered (a warm hit).
QueryAnswer EngineSpan(const Inputs& in, Served& s, size_t idx, bool replay,
                       Report& report, SpanLog& log, uint64_t rq,
                       uint64_t parent) {
  const int64_t a0 = NowNs();
  QueryAnswer answer = Ask(s, in, idx);
  const int64_t a1 = NowNs();
  report.Count(AnswerOk(in, s, idx, answer), "wrong answer");
  log.Add("engine.answer", rq, parent, a0, a1,
          {{"hit", answer.from_cache ? 1.0 : 0.0},
           {"replay", replay ? 1.0 : 0.0},
           {"seed", static_cast<double>(idx)}});
  return answer;
}

/// wire_hot: each connection QUERYs zipf-ranked seeds back to back. A traced
/// request records its `net.call` span and replays the same instance
/// in-process (`engine.answer`, a warm hit) so the summarizer can subtract.
Window WireLoop(const Options& opt, const Inputs& in, Served& s,
                std::vector<MagicClient>& clients, Report& report,
                std::vector<SpanLog>& logs) {
  Window w;
  const Zipf zipf(in.seeds.size());
  std::vector<ReaderOut> outs(clients.size());
  const int64_t start = NowNs();
  const int64_t deadline = start + static_cast<int64_t>(opt.seconds * 1e9);
  RunThreads(clients.size(), [&](size_t k) {
    Rng rng = ThreadRng(opt.seed, k);
    ReaderOut& out = outs[k];
    for (uint64_t n = 0; NowNs() < deadline; ++n) {
      const size_t idx = zipf.Sample(rng);
      const std::string request = "QUERY q " + SeedName(in, idx);
      const bool traced = opt.trace && n % 2 == 0;
      const int64_t t0 = NowNs();
      magic::Result<MagicClient::Reply> reply = clients[k].Call(request);
      const int64_t t1 = NowNs();
      if (!reply.ok()) {
        report.Count(false, "wire transport failure", false);
        break;  // the connection is gone
      }
      report.Count(reply->ok() && CheckLines(in, idx, reply->lines),
                   "wrong wire answer");
      out.reads.push_back({t0, static_cast<double>(t1 - t0) / 1e6, traced});
      if (!traced) continue;
      SpanLog& log = logs[k];
      const uint64_t rq = log.NewRequest();
      const uint64_t root = log.Open("request", rq, t0);
      log.Add("net.call", rq, root, t0, t1, {{"bytes", ReplyBytes(*reply)}});
      EngineSpan(in, s, idx, /*replay=*/true, report, log, rq, root);
      log.Close(root, NowNs());
    }
    out.end_ns = NowNs();
  });
  Merge(outs, start, &w);
  return w;
}

/// eval_cold and write_mix readers: QueryService handle tier, in-process.
/// A traced request records `engine.answer`; a traced miss also replays the
/// instance on the benchmark's own prepared form (`eval.answer`) against
/// the set-up snapshot, whose answers every later version shares.
void ReadLoop(const Options& opt, const Inputs& in, Served& s, size_t readers,
              bool zipf_seeds, uint64_t trace_every, int64_t deadline,
              Report& report, std::vector<SpanLog>& logs,
              std::vector<ReaderOut>& outs) {
  const Zipf zipf(in.seeds.size());
  RunThreads(readers, [&](size_t k) {
    Rng rng = ThreadRng(opt.seed, k);
    ReaderOut& out = outs[k];
    for (uint64_t n = 0; NowNs() < deadline; ++n) {
      const size_t idx =
          zipf_seeds ? zipf.Sample(rng) : rng.Below(in.seeds.size());
      const bool traced = opt.trace && n % trace_every == 0;
      const int64_t t0 = NowNs();
      const QueryAnswer answer = Ask(s, in, idx);
      const int64_t t1 = NowNs();
      report.Count(AnswerOk(in, s, idx, answer), "wrong answer");
      out.reads.push_back({t0, static_cast<double>(t1 - t0) / 1e6, traced});
      if (!traced) continue;
      SpanLog& log = logs[k];
      const uint64_t rq = log.NewRequest();
      const uint64_t root = log.Open("request", rq, t0);
      log.Add("engine.answer", rq, root, t0, t1,
              {{"hit", answer.from_cache ? 1.0 : 0.0}, {"replay", 0}});
      if (!answer.from_cache) {
        EvalSpan(in, s, idx, *s.snapshot, /*probe=*/false, report, log, rq,
                 root);
      }
      log.Close(root, NowNs());
    }
    out.end_ns = NowNs();
  });
}

Window ColdLoop(const Options& opt, const Inputs& in, Served& s,
                Report& report, std::vector<SpanLog>& logs) {
  Window w;
  std::vector<ReaderOut> outs(kClients);
  const int64_t start = NowNs();
  const int64_t deadline = start + static_cast<int64_t>(opt.seconds * 1e9);
  ReadLoop(opt, in, s, kClients, /*zipf_seeds=*/false, /*trace_every=*/2,
           deadline, report, logs, outs);
  Merge(outs, start, &w);
  return w;
}

/// write_mix: zipf readers beside one writer applying a batch every
/// kWritePeriodS (well below its commit capacity); the main thread samples
/// how many versions are alive.
Window MixLoop(const Options& opt, const Inputs& in, Served& s,
               Report& report, std::vector<SpanLog>& logs) {
  Window w;
  std::vector<ReaderOut> outs(kMixReaders);
  const int64_t start = NowNs();
  const int64_t deadline = start + static_cast<int64_t>(opt.seconds * 1e9);
  std::atomic<bool> done{false};
  std::thread readers([&] {
    ReadLoop(opt, in, s, kMixReaders, /*zipf_seeds=*/true,
             /*trace_every=*/16, deadline, report, logs, outs);
  });
  std::thread writer([&] {
    const magic::obs::HistogramSnapshot before = PublishHistogram(s);
    WriteSequence writes(in, s, /*first_edge=*/0, /*per_batch=*/2);
    SpanLog* log = opt.trace ? &logs[kMixReaders] : nullptr;
    for (int64_t i = 0;; ++i) {
      const int64_t due =
          start + static_cast<int64_t>(static_cast<double>(i) *
                                       kWritePeriodS * 1e9);
      if (due >= deadline) break;
      std::this_thread::sleep_until(Clock::time_point(
          std::chrono::nanoseconds(due)));
      w.write_ms.push_back(writes.Next(report, log));
    }
    w.publish_ms = PublishMeanMs(s, before);
    writes.Restore(report);
    done = true;
  });
  while (!done) {
    w.versions_live_max = std::max(w.versions_live_max, VersionsLive(s));
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
  }
  writer.join();
  readers.join();
  Merge(outs, start, &w);
  return w;
}

// --- probes --------------------------------------------------------------------

/// The write probe of the workloads without a writer: one-edge ApplyWrites
/// batches on an instance that is discarded afterwards, so nothing is
/// restored. Returns their mean write_publish time (ms).
double WriteProbe(const Inputs& in, Served& s, size_t writes, Report& report,
                  SpanLog* log, Window* w) {
  const magic::obs::HistogramSnapshot before = PublishHistogram(s);
  WriteSequence seq(in, s, kProbeEdgeBase, /*per_batch=*/1);
  for (size_t i = 0; i < writes; ++i) {
    w->write_ms.push_back(seq.Next(report, log));
    w->versions_live_max = std::max(w->versions_live_max, VersionsLive(s));
  }
  return PublishMeanMs(s, before);
}

/// eval_cold's write probe: one-edge ApplyWrites batches on an instance of
/// its own.
bool ColdWriteProbe(const Inputs& in, Report& report, SpanLog* log,
                    Window* w, std::string* error) {
  std::unique_ptr<Served> s = SetUp(in, error);
  if (s == nullptr) return false;
  // Sharing the base with the benchmark's snapshot would make the first
  // write copy the relation for it; a served base has no such sharer.
  s->snapshot.reset();
  w->publish_ms = WriteProbe(in, *s, kColdWrites, report, log, w);
  return true;
}

/// wire_hot's write probe: one-edge APPLY requests over a loopback
/// connection to an instance of its own, the tier its reads use, restored
/// afterwards. The same writes then run in-process for the storage layer's
/// numbers.
bool WireWriteProbe(const Inputs& in, Report& report, SpanLog* log,
                    Window* w, std::string* error) {
  std::unique_ptr<Served> instance = SetUp(in, error);
  if (instance == nullptr || !StartServer(instance.get(), error)) {
    return false;
  }
  Served& s = *instance;
  magic::Result<MagicClient> conn =
      MagicClient::Connect(s.server->host(), s.server->port());
  if (!conn.ok()) {
    *error = "write probe connection failed: " + conn.status().ToString();
    return false;
  }
  const std::string& pred = in.relations[in.write_rel].pred;
  auto fact = [&](size_t i) {
    const Edge& e = in.fresh_edges[kProbeEdgeBase + i];
    return pred + "(" + in.names[e.first] + ", " + in.names[e.second] + ").";
  };
  std::string restore = "APPLY";
  for (size_t i = 0; i < kWireWrites; ++i) {
    const std::string request = "APPLY\n+" + fact(i);
    const int64_t t0 = NowNs();
    auto reply = conn->Call(request);
    const int64_t t1 = NowNs();
    report.Count(reply.ok() && reply->ok() &&
                     reply->head.find("inserted=1 ") != std::string::npos,
                 "wire APPLY did not insert");
    w->write_ms.push_back(static_cast<double>(t1 - t0) / 1e6);
    restore += "\n-" + fact(i);
  }
  auto undone = conn->Call(restore);
  report.Count(undone.ok() && undone->ok() &&
                   undone->head.find("retracted=" +
                                     std::to_string(kWireWrites) + " ") !=
                       std::string::npos,
               "restoring wire APPLY failed");
  Window in_process;
  w->publish_ms = WriteProbe(in, s, kWireWrites, report, log, &in_process);
  w->versions_live_max = in_process.versions_live_max;
  return true;
}

/// The traced run's probe pass, the same on every workload: for a fixed
/// set of seeds, the benchmark's own evaluation, then a cold service
/// answer of the same instance, a wire round trip, and its in-process
/// replay.
bool ProbePass(const Inputs& in, Served& s, Report& report, SpanLog& log,
               std::string* error) {
  // The own evaluations come first: after a write to the base, own-form
  // evaluations run several times slower while the service's do not
  // (README.md), so they would not be comparable with the cold answers.
  for (size_t idx : in.probe_seeds) {
    const uint64_t rq = log.NewRequest();
    const uint64_t root = log.Open("request", rq, NowNs());
    EvalSpan(in, s, idx, *s.snapshot, /*probe=*/true, report, log, rq, root);
    log.Close(root, NowNs());
  }
  // One untimed write and its undo retire every cached answer.
  WriteSequence retire(in, s, kProbeEdgeBase, /*per_batch=*/1);
  retire.Next(report, nullptr);
  retire.Restore(report);
  if (!s.server && !StartServer(&s, error)) return false;
  magic::Result<MagicClient> conn =
      MagicClient::Connect(s.server->host(), s.server->port());
  if (!conn.ok()) {
    *error = "probe connection failed: " + conn.status().ToString();
    return false;
  }
  auto prepared = conn->Call("PREPARE q " + s.QueryText());
  if (!prepared.ok() || !prepared->ok()) {
    *error = "probe PREPARE failed";
    return false;
  }
  for (size_t idx : in.probe_seeds) {
    const uint64_t rq = log.NewRequest();
    const uint64_t root = log.Open("request", rq, NowNs());
    EngineSpan(in, s, idx, /*replay=*/false, report, log, rq, root);
    const int64_t c0 = NowNs();
    auto reply = conn->Call("QUERY q " + SeedName(in, idx));
    const int64_t c1 = NowNs();
    report.Count(reply.ok() && reply->ok() &&
                     CheckLines(in, idx, reply->lines),
                 "wrong probe wire answer");
    if (!reply.ok()) break;
    log.Add("net.call", rq, root, c0, c1, {{"bytes", ReplyBytes(*reply)}});
    EngineSpan(in, s, idx, /*replay=*/true, report, log, rq, root);
    log.Close(root, NowNs());
  }
  return true;
}

// --- output -------------------------------------------------------------------

void PrintResult(const Options& opt, Report& report) {
  std::string metrics;
  for (const Report::Metric& m : report.metrics) {
    char buf[256];
    std::snprintf(buf, sizeof(buf), "%s\"%s\":{\"value\":%.17g,\"unit\":\"%s\"}",
                  metrics.empty() ? "" : ",", m.name.c_str(), m.value,
                  m.unit.c_str());
    metrics += buf;
  }
  const uint64_t failed = report.failed.load();
  std::printf(
      "{\"workload\":\"%s\",\"seed\":%llu,\"seconds\":%g,\"trace\":%d,"
      "\"nproc\":%u,\"build_type\":\"%s\",\"correct\":%s,"
      "\"attempted\":%llu,\"failed\":%llu,\"wrong\":%llu,"
      "\"metrics\":{%s}}\n",
      opt.workload.c_str(), static_cast<unsigned long long>(opt.seed),
      opt.seconds, opt.trace ? 1 : 0, std::thread::hardware_concurrency(),
      PERFBENCH_BUILD_TYPE, failed == 0 ? "true" : "false",
      static_cast<unsigned long long>(report.attempted.load()),
      static_cast<unsigned long long>(failed),
      static_cast<unsigned long long>(report.wrong.load()), metrics.c_str());
  std::fflush(stdout);
}

int Run(const Options& opt) {
  Report report;
  std::string error;
  const bool wire = opt.workload == "wire_hot";
  const bool mix = opt.workload == "write_mix";
  Inputs in = wire ? MakeGridInputs(opt.seed)
                   : MakeDagInputs(opt.seed, mix ? kHotSeeds : 0);
  ComputeOracle(&in);

  std::vector<SpanLog> logs;
  for (uint32_t k = 0; k <= kClients; ++k) logs.emplace_back(k);
  SpanLog& main_log = logs[kClients];

  // wire_hot and eval_cold have no writer; each has a write probe instead.
  // It runs first, on instances of its own, so every run measures it on
  // the same heap: that of a fresh process.
  Window writes;
  SpanLog* write_log = opt.trace ? &main_log : nullptr;
  if (!mix && !(wire ? WireWriteProbe(in, report, write_log, &writes, &error)
                     : ColdWriteProbe(in, report, write_log, &writes, &error))) {
    std::fprintf(stderr, "perfbench: write probe failed: %s\n", error.c_str());
    return 1;
  }

  // Set up kSetups times; keep the last instance for the timed phase.
  std::vector<double> setup_s, load_s, index_ms, prepare_ms, rewrite_ms;
  std::unique_ptr<Served> s;
  std::vector<MagicClient> clients;
  for (int r = 0; r < kSetups; ++r) {
    clients.clear();
    s.reset();
    // The answer checker's lookup table is benchmark work: untimed.
    const int64_t t0 = NowNs();
    s = SetUp(in, &error);
    const int64_t t1 = NowNs();
    if (s != nullptr) IndexNodes(in, s.get());
    const int64_t t2 = NowNs();
    if (s == nullptr || !WarmUp(opt, in, *s, &clients, report, &error)) {
      std::fprintf(stderr, "perfbench: set-up failed: %s\n", error.c_str());
      return 1;
    }
    setup_s.push_back(static_cast<double>(NowNs() - t2 + t1 - t0) / 1e9);
    load_s.push_back(s->load_s);
    index_ms.push_back(s->index_build_ms);
    prepare_ms.push_back(s->prepare_ms);
    rewrite_ms.push_back(s->rewrite_ms);
  }

  const magic::AnswerCache::Stats cache0 = s->service->stats().answer_cache;
  Window w = wire  ? WireLoop(opt, in, *s, clients, report, logs)
             : mix ? MixLoop(opt, in, *s, report, logs)
                   : ColdLoop(opt, in, *s, report, logs);
  const magic::AnswerCache::Stats cache1 = s->service->stats().answer_cache;

  if (!mix) {
    w.write_ms = writes.write_ms;
    w.publish_ms = writes.publish_ms;
  }
  w.versions_live_max = std::max(w.versions_live_max, writes.versions_live_max);

  const size_t reads = w.reads.size();
  if (!opt.trace) {
    const ReadStats rs = SliceStats(w);
    report.Add("setup_s", Median(setup_s), "s");
    report.Add("read_p50_ms", rs.p50_ms, "ms");
    report.Add("read_p99_ms", rs.p99_ms, "ms");
    report.Add("read_qps", rs.qps, "1/s");
    report.Add("write_p50_ms", Median(w.write_ms), "ms");
    report.Add("peak_rss_mb", PeakRssMb(), "MiB");
    report.Add("reads", static_cast<double>(reads), "count");
    report.Add("writes", static_cast<double>(w.write_ms.size()), "count");
  } else {
    if (!ProbePass(in, *s, report, main_log, &error)) {
      std::fprintf(stderr, "perfbench: probe pass failed: %s\n",
                   error.c_str());
      return 1;
    }
    auto answer = std::make_shared<const magic::AnswerCache::Tuples>(
        Ask(*s, in, 0).tuples);
    const LayerTimes layers =
        RunLayerProbes(in, *s, cache1.entries, answer, opt.seed);
    const double lookups =
        static_cast<double>((cache1.hits - cache0.hits) +
                            (cache1.misses - cache0.misses));
    report.Add("storage.load_s", Median(load_s), "s");
    report.Add("storage.index_build_ms", Median(index_ms), "ms");
    report.Add("engine.prepare_ms", Median(prepare_ms), "ms");
    report.Add("core.rewrite_ms", Median(rewrite_ms), "ms");
    report.Add("core.rewritten_rules",
               static_cast<double>(s->rewritten_rules), "count");
    report.Add("cache.lookups", lookups, "count");
    report.Add("cache.hit_ratio",
               lookups > 0 ? static_cast<double>(cache1.hits - cache0.hits) /
                                 lookups
                           : 0,
               "ratio");
    report.Add("cache.evictions",
               static_cast<double>(cache1.evictions - cache0.evictions),
               "count");
    report.Add("cache.entries", static_cast<double>(cache1.entries), "count");
    report.Add("cache.get_us", layers.get_us, "us");
    report.Add("cache.put_us", layers.put_us, "us");
    report.Add("storage.publish_ms", w.publish_ms, "ms");
    report.Add("storage.clone_ms", layers.clone_ms, "ms");
    report.Add("storage.insert_us", layers.insert_us, "us");
    report.Add("storage.probe_us", layers.probe_us, "us");
    report.Add("storage.pin_us", layers.pin_us, "us");
    report.Add("storage.commit_ms", layers.commit_ms, "ms");
    report.Add("storage.versions_live_max",
               static_cast<double>(w.versions_live_max), "count");
    const double traced = MedianMs(w, /*traced=*/true);
    const double untraced = MedianMs(w, /*traced=*/false);
    report.Add("trace.read_p50_traced_ms", traced, "ms");
    report.Add("trace.read_p50_untraced_ms", untraced, "ms");
    report.Add("trace.overhead_ratio", untraced > 0 ? traced / untraced : 0,
               "ratio");
    std::vector<const SpanLog*> views;
    for (const SpanLog& log : logs) views.push_back(&log);
    if (!WriteSpans(opt.spans, views)) {
      std::fprintf(stderr, "perfbench: cannot write spans to %s\n",
                   opt.spans.c_str());
      return 1;
    }
  }
  for (const std::string& note : report.Notes()) {
    std::fprintf(stderr, "perfbench: failure: %s\n", note.c_str());
  }
  clients.clear();
  PrintResult(opt, report);
  return 0;
}

int Usage() {
  std::fprintf(stderr,
               "usage: perfbench --workload wire_hot|eval_cold|write_mix "
               "--seed N --seconds S --trace 0|1 [--spans PATH]\n");
  return 2;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  perfbench::Options opt;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const char* value = argv[i + 1];
    if (flag == "--workload") {
      opt.workload = value;
    } else if (flag == "--seed") {
      opt.seed = std::strtoull(value, nullptr, 10);
    } else if (flag == "--seconds") {
      opt.seconds = std::strtod(value, nullptr);
    } else if (flag == "--trace") {
      opt.trace = std::strcmp(value, "1") == 0;
    } else if (flag == "--spans") {
      opt.spans = value;
    } else {
      return perfbench::Usage();
    }
  }
  if (argc % 2 == 0 || opt.seconds <= 0 ||
      (opt.workload != "wire_hot" && opt.workload != "eval_cold" &&
       opt.workload != "write_mix") ||
      (opt.trace && opt.spans.empty())) {
    return perfbench::Usage();
  }
  return perfbench::Run(opt);
}
