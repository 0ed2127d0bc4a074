#ifndef MAGIC_ENGINE_QUERY_SERVICE_H_
#define MAGIC_ENGINE_QUERY_SERVICE_H_

#include <atomic>
#include <condition_variable>
#include <deque>
#include <functional>
#include <future>
#include <memory>
#include <optional>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "cache/answer_cache.h"
#include "engine/prepared.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "storage/database.h"
#include "storage/db_version.h"
#include "storage/write_batch.h"
#include "util/annotated_mutex.h"
#include "util/thread_pool.h"

namespace magic {

/// One query plus optional per-request overrides of the service defaults
/// and per-request resource bounds.
struct QueryRequest {
  Query query;
  std::optional<Strategy> strategy;
  std::optional<std::string> sip;
  QueryLimits limits;
};

struct QueryServiceOptions {
  /// Worker threads; 0 means std::thread::hardware_concurrency().
  size_t num_threads = 0;
  /// Admission control: maximum requests submitted-but-not-finished before
  /// TrySubmit answers kOverloaded. 0 = unbounded (TrySubmit never
  /// rejects). Plain Submit always queues regardless.
  size_t max_pending = 0;
  /// Byte budget of the cross-query AnswerCache (memoized completed
  /// answers keyed by form, seed, and database version). 0 disables
  /// memoization entirely. Warm hits are served inline on the calling
  /// thread — no worker, no admission slot.
  size_t cache_bytes = AnswerCacheOptions{}.max_bytes;
  /// Defaults for requests that don't override strategy/sip; `eval` and
  /// `guard_mode` always come from here.
  EngineOptions engine;
  /// Latency/trace recording knobs. Counters and fixpoint profiles are
  /// always on; `obs.enabled` gates the clock reads (histograms, spans)
  /// and the slow-query ring.
  obs::ObservabilityOptions obs;
};

/// A pull-based stream over one query's answers, fed by the evaluator's
/// answer sink while the fixpoint is still running. Tuples arrive in
/// derivation order, deduplicated but NOT sorted (sorting requires the full
/// set). Move-only; dropping an unfinished cursor cancels its evaluation.
///
/// Next() may be called from one consumer thread; Cancel() from any thread.
class AnswerCursor {
 public:
  AnswerCursor() = default;
  ~AnswerCursor();
  AnswerCursor(AnswerCursor&&) = default;
  /// Cancels the stream currently held (if any) before taking `other`'s,
  /// so reassigning a cursor variable never leaks a running evaluation.
  AnswerCursor& operator=(AnswerCursor&& other) noexcept;
  AnswerCursor(const AnswerCursor&) = delete;
  AnswerCursor& operator=(const AnswerCursor&) = delete;

  /// Pulls up to `max_rows` (>= 1) more tuples into `*out` (cleared first),
  /// blocking until at least one is available or evaluation completes.
  /// Returns false — with `*out` empty — once the stream is exhausted.
  bool Next(size_t max_rows, std::vector<std::vector<TermId>>* out);

  /// Blocks until evaluation completes and returns the final answer
  /// (status/outcome/eval stats). Its `tuples` are empty: they were
  /// streamed through Next().
  const QueryAnswer& Finish();

  /// Requests cooperative cancellation; the evaluation stops at its next
  /// control poll and Finish() reports kCancelled.
  void Cancel();

 private:
  friend class QueryService;
  struct State {
    Mutex mutex{lock_rank::kCursor};
    /// _any variant: it waits on the annotated MutexLock guard itself, so
    /// the rank checker and the static analysis both see the release/
    /// reacquire pair a wait performs.
    std::condition_variable_any ready;
    std::deque<std::vector<TermId>> buffer GUARDED_BY(mutex);
    bool done GUARDED_BY(mutex) = false;
    QueryAnswer final GUARDED_BY(mutex);
    std::shared_ptr<std::atomic<bool>> cancel;
  };
  explicit AnswerCursor(std::shared_ptr<State> state)
      : state_(std::move(state)) {}

  std::shared_ptr<State> state_;
};

/// Serves many concurrent queries against one shared Database, versioned
/// through an MVCC chain: every evaluation runs against an immutable
/// pinned snapshot while writers publish new versions without waiting.
///
/// The paper's compile-once/query-many reading of magic sets (Section 4's
/// query forms) is the seam this exploits: each distinct query form —
/// (predicate, argument pattern, strategy, sip), where the pattern is the
/// adornment plus any repeated variable — is compiled exactly once via
/// PreparedQueryForm::Prepare and cached, and every instance of the form is
/// just a per-query seed over the same compiled plan. This holds for
/// *every* query: naive/semi-naive/top-down compile to plans too (the plan
/// is the original/adorned program plus the instance machinery), and a
/// base-predicate query compiles to a selection plan, so there is one
/// request path — every form serves in parallel against pinned snapshots,
/// with the same admission, deadline shedding, per-form counters, latency,
/// slow-query ring and AnswerCache. Per-query seeds are independent
/// (Drabent, arXiv:1012.2299), so instances evaluate concurrently on a
/// fixed thread pool without re-running the transformation — and can stop
/// early (row limits, deadlines, cancellation) without affecting any other
/// instance.
///
/// Two tiers of API, one dispatch path:
///   * Request tier: Submit/TrySubmit/Answer/AnswerBatch/Stream take a
///     QueryRequest and resolve its form through the lookup Prepare uses
///     (one form-cache mutex round-trip), compiling on the calling thread
///     if needed.
///   * Handle tier: Prepare returns a FormHandle; the Submit/TrySubmit/
///     Answer/Stream overloads taking a handle skip form hashing and the
///     cache mutex entirely — the steady-state hot path is one version
///     pin (a pointer copy under a leaf mutex) plus pool dispatch.
///
/// Both tiers sit behind the cross-query AnswerCache: a completed clean
/// answer (outcome kOk) is memoized under (form, seed, database version),
/// and a repeated seed is then served inline on the calling thread — no
/// worker, no admission slot. Any net EDB write publishes a new version
/// and makes every earlier entry unreachable, so alternating write/serve
/// phases never see stale answers. Truncated, deadline-expired, cancelled,
/// and failed answers are never cached. The cache is the only way answers
/// are reused: a request probes it once, at dispatch, and a miss
/// evaluates — N identical cold requests queued at once evaluate N times
/// (max_pending bounds how many queue).
///
/// The EDB is not frozen for the service's lifetime: ApplyWrites is its
/// one mutation point, and it never waits for readers. It takes a FIFO
/// commit ticket (writers serialize among themselves, in arrival order),
/// builds the next database version off to the side — every relation
/// still shared with a pinned snapshot is cloned before it is mutated —
/// and publishes it with one pointer swap. In-flight evaluations keep
/// their pinned version to completion; there is no drain
/// and no stop-the-world window, so writer publish latency is independent
/// of the longest-running fixpoint. Correctness rides on the paper's
/// equivalence being per database instance (Bancilhon et al. §4; Drabent,
/// arXiv:1012.2299): the compiled plans never depend on the EDB contents,
/// so each evaluation is a pure function of the version it pinned — a
/// dispatch concurrent with a commit legally sees version N or N+1, never
/// a torn mix.
///
/// Concurrency contract:
///   * The Program must outlive the service and must not be mutated while
///     it exists; the Database must outlive it too, and is mutated only
///     through ApplyWrites. A write made to it any other way is never
///     published: requests keep reading the last version ApplyWrites
///     built.
///   * All public methods may be called from any number of threads.
///     Writers never block readers; readers never block writers. Writers
///     serialize FIFO on the commit ticket.
///   * Form compilation — including top-down adornment and the rewrites'
///     declarations — writes only into the plan's own Universe overlay
///     (the base Universe is frozen underneath it), so compiling needs no
///     universe lock and runs concurrently with all in-flight evaluation,
///     serialized only on the form-cache mutex.
///   * The request path takes NO service-wide lock: a worker pins the
///     current DatabaseVersion (a pointer copy under the version chain's
///     leaf mutex) and evaluates against that immutable snapshot.
///     ApplyWrites holds commit_mutex_ only to take/redeem its ticket and
///     touches no dispatch state while committing — machine-checked: it is
///     EXCLUDES(commit_mutex_, form_mutex_), and the commit tier ranks
///     above form in the Debug rank checker (util/annotated_mutex.h), so
///     the reverse nesting aborts.
///   * Workers key every AnswerCache fill to the version they pinned —
///     by construction the data they actually read. The inline hit path
///     (one cache shard lock, no pin) probes at the chain's current
///     version number; serving a hit concurrent with a publish is
///     linearizable (the read overlapped the write), and post-write reads
///     are fresh because publish happens-before ApplyWrites returns.
///   * Worker-side term interning (the matcher's affine/compound
///     construction) is safe because TermArena is internally synchronized.
///   * Answer sinks and cursor buffers are touched only by the evaluating
///     worker and the consumer, under the cursor's own mutex.
///   * Lock order: form_mutex_ -> commit_mutex_ -> data plane
///     (symbol/relation-index/cache-shard) -> pool/cursor internals ->
///     leaves (the version chain's head mutex). The order is
///     encoded as lock ranks (util/annotated_mutex.h) and asserted on
///     every acquisition in Debug builds.
class QueryService {
 private:
  struct CachedForm;

 public:
  /// An opaque, copyable reference to one compiled query form. Valid for
  /// the lifetime of the service that returned it; handles are stable
  /// across cache growth and shareable between threads.
  class FormHandle {
   public:
    FormHandle() = default;
    bool valid() const { return cached_ != nullptr; }
    /// The adornment of the compiled form (e.g. "bf").
    const Adornment& adornment() const;
    /// Number of bound values an instance of this form takes.
    size_t bound_arity() const;

   private:
    friend class QueryService;
    CachedForm* cached_ = nullptr;
  };

  QueryService(const Program& program, Database& db,
               QueryServiceOptions options = {});
  ~QueryService();

  QueryService(const QueryService&) = delete;
  QueryService& operator=(const QueryService&) = delete;

  /// Compiles (or fetches from the cache) the query form of
  /// `request.query`'s binding pattern and returns a stable handle to it.
  /// Every query and strategy compiles — a base-predicate query to a
  /// selection, naive/semi-naive/top-down to their plans — and every
  /// handle serves against pinned snapshots like the rewriting ones.
  Result<FormHandle> Prepare(const QueryRequest& request);

  /// Enqueues one query; the future resolves when a worker has evaluated
  /// it. Compilation of a not-yet-cached form happens on the calling
  /// thread. `request.limits` are enforced during evaluation; the deadline
  /// is anchored here, so queue wait counts against it (a request whose
  /// deadline expires before a worker picks it up completes
  /// kDeadlineExceeded without entering the fixpoint).
  std::future<QueryAnswer> Submit(const QueryRequest& request);

  /// Handle hot path: evaluates one instance of a prepared form. Skips the
  /// form cache entirely. `bound_values` are the constants for the form's
  /// bound positions, in position order.
  std::future<QueryAnswer> Submit(const FormHandle& handle,
                                  std::vector<TermId> bound_values,
                                  QueryLimits limits = {});

  /// Admission-controlled variants: when options.max_pending > 0 and that
  /// many requests are in flight, the future resolves immediately with
  /// outcome kOverloaded (status ResourceExhausted) instead of queueing.
  std::future<QueryAnswer> TrySubmit(const QueryRequest& request);
  std::future<QueryAnswer> TrySubmit(const FormHandle& handle,
                                     std::vector<TermId> bound_values,
                                     QueryLimits limits = {});

  /// Answers one request synchronously: Submit(...).get().
  QueryAnswer Answer(const QueryRequest& request);
  QueryAnswer Answer(const FormHandle& handle,
                     std::vector<TermId> bound_values,
                     QueryLimits limits = {});

  /// Streams one query's answers in chunks while it evaluates, instead of
  /// materializing the full sorted answer set first. If `limits.cancel` is
  /// null a token is created so the cursor can cancel its evaluation.
  AnswerCursor Stream(const QueryRequest& request);
  AnswerCursor Stream(const FormHandle& handle,
                      std::vector<TermId> bound_values,
                      QueryLimits limits = {});

  /// Answers a batch; answers are returned in input order. Queries of the
  /// batch evaluate concurrently across the pool.
  std::vector<QueryAnswer> AnswerBatch(const std::vector<QueryRequest>& batch);

  /// The EDB write path: validates `batch` (declared arities,
  /// groundness — rejected batches never queue), takes a FIFO commit
  /// ticket (concurrent writers commit in arrival order; a burst cannot
  /// starve one session — queue depth is the `magicdb_writes_queued`
  /// gauge), then builds and publishes the next database version: each
  /// relation still shared with a pinned snapshot is cloned before
  /// mutation, touched relations' probe indices are rebuilt, and iff the
  /// WriteResult reports a NET-mutated relation the new version is
  /// published. In-flight evaluations are never waited on and keep their
  /// pinned snapshots; AnswerCache entries keyed to older versions become
  /// unreachable at publish, and a no-op batch (duplicate-only, or
  /// net-zero including Clear-then-identical-reinsert) publishes nothing
  /// and invalidates nothing.
  /// Callable from any thread, including concurrently with Submit/Answer/
  /// Stream.
  ///
  /// EXCLUDES names the dispatch tier plus the ticket lock: ApplyWrites
  /// must enter with neither held, and the committing writer touches no
  /// dispatch state (commit ranks above form, so the reverse nesting
  /// aborts in the Debug rank checker).
  Result<WriteResult> ApplyWrites(const WriteBatch& batch)
      EXCLUDES(commit_mutex_, form_mutex_);

  /// Service-wide serving counters, read from the metrics registry — the
  /// ONE aggregation path every reporter (magicdb --stats, the STATS/
  /// METRICS wire verbs, benches) reads. Per-form and per-rule cells are
  /// not copied here: they live only in the registry, labelled by the
  /// full form key {form, strategy, sip}, and MetricsJson()/MetricsText()
  /// render them. Naming contract: `form_cache_hits` counts lookups
  /// (Prepare and the request tier) that found an already-compiled form;
  /// `answer_cache` holds the raw AnswerCache counters, and since a
  /// request probes the cache at most once, its hits and misses count
  /// requests (a request shed on its deadline at dispatch never probes);
  /// `answers_from_cache` counts requests answered without evaluation,
  /// and every such request still counts in `queries_served` and in its
  /// form's `magicdb_form_queries` cell.
  struct Stats {
    size_t forms_compiled = 0;
    size_t form_cache_hits = 0;
    size_t queries_served = 0;
    /// TrySubmit rejections (never evaluated, not counted as served).
    size_t overloaded = 0;
    /// Requests served from the AnswerCache (no evaluation ran).
    size_t answers_from_cache = 0;
    /// Queued requests whose deadline had already expired when a worker
    /// picked them up (or at dispatch, including inline warm hits);
    /// completed kDeadlineExceeded without evaluating.
    size_t deadline_shed = 0;
    /// Write batches applied through ApplyWrites (validation failures and
    /// read-only-service rejections excluded).
    size_t writes_applied = 0;
    /// Requests submitted but not yet completed at snapshot time.
    size_t pending = 0;
    /// Database versions published by the MVCC chain (the initial
    /// snapshot counts; no-op batches publish nothing).
    size_t versions_published = 0;
    /// Versions fully retired (last pin dropped, snapshot freed).
    size_t versions_retired = 0;
    /// Writers queued for their FIFO commit ticket at snapshot time.
    size_t writes_queued = 0;
    /// Per-batch version build+publish time (ns, commit ticket redeemed
    /// -> version published) — a histogram, so publish tails are visible.
    /// Excludes ticket-queue wait; independent of in-flight fixpoints by
    /// construction (there is no drain).
    obs::HistogramSnapshot write_publish;
    /// End-to-end request latency (ns, admission anchor -> completion)
    /// across every served request: inline warm hits and evaluated ones.
    obs::HistogramSnapshot request_latency;
    /// Raw cross-query answer-cache counters.
    AnswerCache::Stats answer_cache;
    /// The slow-query ring at snapshot time, oldest first.
    std::vector<obs::SlowQuery> slow_queries;

    /// One-line human-readable counter summary (magicdb --stats).
    std::string Summary() const;
  };
  Stats stats() const;

  /// Prometheus-style text exposition of every registered instrument
  /// (service counters, latency histograms, per-form and per-rule
  /// counters, embedder instruments), with the scrape-time gauges
  /// refreshed first. The METRICS wire verb serves this.
  std::string MetricsText() const;

  /// The STATS document (the STATS payload and `METRICS json`), one JSON
  /// object: `metrics` is the registry walk (MetricsRegistry::Json, after
  /// the same scrape-time refresh as MetricsText); `forms` lists each
  /// compiled form's labels {form, strategy, sip} and its rule texts, the
  /// `rule` label of its `magicdb_rule_*` cells indexing `rules`; and
  /// `slow_queries` is the slow-query ring, oldest first.
  std::string MetricsJson() const EXCLUDES(form_mutex_);

  /// The service's metrics registry. Exposed so embedders can register
  /// their own instruments into the same scrape (ROADMAP invariant: one
  /// registry per serving process, one aggregation path).
  obs::MetricsRegistry& metrics() { return metrics_; }

  size_t num_threads() const { return pool_.size(); }

 private:
  struct FormKey {
    PredId pred = 0;
    /// QueryArgPattern of the goal: which arguments are ground and which
    /// repeat a variable, so anc(X,X) and anc(X,Y) are different forms.
    std::vector<int> pattern;
    /// Empty for a base-predicate goal (a selection form), which neither
    /// strategy nor sip applies to; its sip is empty too.
    std::optional<Strategy> strategy;
    std::string sip;
    bool operator==(const FormKey&) const = default;

    /// The form's one name, {form, strategy, sip}: "pred/adornment", the
    /// strategy name (`selection` for a selection form) and the sip.
    obs::MetricsRegistry::Labels Labels(const Universe& u) const;
  };
  struct FormKeyHash {
    size_t operator()(const FormKey& key) const;
  };

  /// A compilation outcome. Failures are cached too (they are
  /// deterministic per form key), so a stream of unpreparable requests
  /// pays the compile once, not per request. Lives at a stable address
  /// (unordered_map nodes don't move), so FormHandles can point into it.
  /// The per-form instruments below are registered once at compile time
  /// (never for failed compiles) and written lock-free on the hot path.
  struct CachedForm {
    std::unique_ptr<PreparedQueryForm> form;  // null when compilation failed
    Status error;
    /// FormKey::Labels, built once in GetOrCompile (failed compiles too).
    /// Every per-form and per-rule cell, the STATS `forms` entry, each
    /// slow-query entry and the error answer's strategy name read them.
    obs::MetricsRegistry::Labels labels;
    obs::Counter* queries = nullptr;
    obs::Counter* rows = nullptr;
    obs::Counter* truncated = nullptr;
    /// Latency of evaluated instances (stage="eval") and of inline cache
    /// hits (stage="cache_inline") — two cells of one labelled histogram
    /// family, so a scrape separates real fixpoint time from memo serves.
    obs::Histogram* eval_latency = nullptr;
    obs::Histogram* inline_latency = nullptr;
    /// Per-rule fixpoint profile counters, one per RuleProfile field for
    /// each of the plan's rule_labels, rule-major; every instance's profile
    /// accumulates into them.
    std::vector<obs::Counter*> rule_counters;
  };

  using Completion = std::function<void(QueryAnswer)>;

  /// One request resolved to its form: what every public entry point hands
  /// DispatchForm. `cached` is null when there is no form — an invalid
  /// handle, or a goal CheckQueryArgs refused — and `error` says why; a
  /// form whose compile failed is a CachedForm with a null `form`.
  struct Instance {
    CachedForm* cached = nullptr;
    Status error;
    std::vector<TermId> bound_values;
    QueryLimits limits;
    /// The compile interval when this request compiled its form
    /// (end_ns != 0), recorded into the request's trace.
    obs::Span compile_span;
  };

  FormKey MakeKey(const QueryRequest& request) const;

  /// Looks up or compiles the form for `request`. Never returns null; a
  /// compilation failure is a CachedForm with a null `form`. Compilation
  /// writes only into the plan's Universe overlay, so this holds only
  /// form_mutex_ — no universe/serve lock (the metrics mutex it takes to
  /// register the form's instruments ranks above form_mutex_, a legal
  /// nesting). With obs enabled, a call that compiles records
  /// magicdb_compile_latency_ns and the compile's `*compile_span`.
  CachedForm* GetOrCompile(const QueryRequest& request, const FormKey& key,
                           obs::Span* compile_span) EXCLUDES(form_mutex_);

  /// The one form lookup, shared by Prepare and the request tier:
  /// CheckQueryArgs, then GetOrCompile of MakeKey(request).
  Instance Resolve(const QueryRequest& request);
  static Instance Resolve(const FormHandle& handle,
                          std::vector<TermId> bound_values,
                          QueryLimits limits);

  /// Reserves one admission slot. Returns false (and leaves no slot taken)
  /// when `enforce_admission` and the bounded queue is full.
  bool Admit(bool enforce_admission);
  QueryAnswer OverloadedAnswer() const;
  QueryAnswer DeadlineShedAnswer() const;

  /// The one dispatch path of both tiers; `done` is invoked exactly once
  /// with the final answer. An instance without a form completes inline
  /// with a kError answer. Otherwise the request is admitted (and its
  /// deadline anchored) on entry, so queue wait counts against it, and
  /// probes the AnswerCache once: a hit is served inline, a miss goes to
  /// the pool, where a worker pins the current database version and
  /// evaluates against that snapshot; clean complete answers fill the
  /// cache on the way out, and the pin is dropped before the answer is
  /// fulfilled. `sink` is empty or the cursor sink, which always returns
  /// true: no sink here stops an answer early (a cursor stops one by
  /// cancelling).
  void DispatchForm(Instance instance, AnswerSink sink,
                    bool enforce_admission, Completion done);

  /// Completes a request from a cached tuple set: applies the row limit,
  /// decodes `tuples` front to back into the sink (streaming) or into the
  /// answer's tuples (unary), and updates the per-form and service
  /// counters.
  void ServeHit(CachedForm* cached,
                std::shared_ptr<const AnswerCache::Tuples> tuples,
                const QueryLimits& limits, const AnswerSink& sink,
                const Completion& done);

  std::future<QueryAnswer> SubmitImpl(Instance instance,
                                      bool enforce_admission);
  /// Streams `instance` into a new cursor, injecting a cancellation token
  /// into its limits if absent.
  AnswerCursor StreamImpl(Instance instance);

  /// Sets the scrape-time gauges — pending depth, the AnswerCache's
  /// counters and occupancy, and the version chain's counters — from
  /// their sources. Both renderers call it first, so a scrape never reads
  /// a stale mirror; off the hot path, it registers-or-fetches each gauge.
  void RefreshScrapeGauges() const;

  const Program& program_;
  /// ApplyWrites is the only code that writes through it, serialized by
  /// the FIFO commit ticket (pinned snapshot readers need no exclusion —
  /// shared relations are cloned before mutation).
  Database& db_;
  QueryServiceOptions options_;

  /// The MVCC spine over db_: readers pin the head version at dispatch,
  /// ApplyWrites commits and publishes through it. Declared before pool_
  /// so it outlives workers still holding pins at teardown.
  VersionChain versions_;

  /// FIFO writer fairness: tickets are issued and redeemed under this
  /// mutex; the commit itself (clone + apply + publish) runs OUTSIDE it —
  /// exclusion among writers is the ticket, so an arriving writer queues
  /// behind the running one in strict arrival order (no barging). Ranked
  /// above form: a committing writer touches no dispatch state.
  Mutex commit_mutex_{lock_rank::kCommit};
  std::condition_variable_any commit_turn_;
  uint64_t commit_next_ticket_ GUARDED_BY(commit_mutex_) = 0;
  uint64_t commit_serving_ GUARDED_BY(commit_mutex_) = 0;

  /// Guards forms_.
  mutable Mutex form_mutex_{lock_rank::kForm};
  std::unordered_map<FormKey, CachedForm, FormKeyHash> forms_
      GUARDED_BY(form_mutex_);

  /// The one metrics surface: every service counter/histogram below is an
  /// instrument registered here, so Stats, the STATS wire verb, and the
  /// METRICS exposition all read the same cells — there is no second
  /// aggregation path. Declared before the instrument pointers (they are
  /// registered from it in the constructor) and before pool_ (workers
  /// write instruments until the pool drains in ~QueryService).
  mutable obs::MetricsRegistry metrics_;
  obs::SlowQueryLog slow_log_;

  // Registry-owned counters; pointers are stable for the service's life.
  obs::Counter* forms_compiled_ = nullptr;
  obs::Counter* form_cache_hits_ = nullptr;
  obs::Counter* queries_served_ = nullptr;
  obs::Counter* overloaded_ = nullptr;
  obs::Counter* answers_from_cache_ = nullptr;
  obs::Counter* deadline_shed_ = nullptr;
  obs::Counter* writes_applied_ = nullptr;
  obs::Counter* write_cow_bytes_ = nullptr;
  /// End-to-end latency of every served request (inline hits included).
  obs::Histogram* request_latency_ = nullptr;
  /// Per-batch version build+publish time (ticket redeemed -> published).
  obs::Histogram* write_publish_ = nullptr;
  /// Form compilation time.
  obs::Histogram* compile_latency_ = nullptr;
  /// Live queue depth of writers waiting for their commit ticket
  /// (maintained on the write path: +1 on arrival, -1 on redemption).
  obs::Gauge* writes_queued_gauge_ = nullptr;
  /// Requests submitted but not yet completed (admission-control depth).
  /// Stays a raw atomic: Admit's fetch_add is also the admission check,
  /// which a monotonic counter cannot express.
  std::atomic<size_t> pending_{0};

  /// Cross-query answer memo; internally synchronized by per-shard leaf
  /// mutexes (kCacheShard) that nest nothing, so it sits below the
  /// serve/form lock order.
  AnswerCache cache_;

  ThreadPool pool_;
};

}  // namespace magic

#endif  // MAGIC_ENGINE_QUERY_SERVICE_H_
