#include "engine/query_service.h"

#include <algorithm>
#include <cinttypes>
#include <cstdio>
#include <iterator>
#include <thread>
#include <utility>

#include "util/check.h"
#include "util/hash.h"
#include "util/json_writer.h"
#include "util/stopwatch.h"

namespace magic {

// --- AnswerCursor ------------------------------------------------------------

AnswerCursor::~AnswerCursor() {
  // Dropping an unfinished cursor cancels its evaluation; the worker holds
  // its own reference to the state, so nothing dangles.
  if (state_ != nullptr) Cancel();
}

AnswerCursor& AnswerCursor::operator=(AnswerCursor&& other) noexcept {
  if (this != &other) {
    if (state_ != nullptr) Cancel();
    state_ = std::move(other.state_);
  }
  return *this;
}

bool AnswerCursor::Next(size_t max_rows, std::vector<std::vector<TermId>>* out) {
  out->clear();
  if (state_ == nullptr) return false;
  if (max_rows == 0) max_rows = 1;
  MutexLock lock(state_->mutex);
  // Explicit wait loops throughout (not the predicate overload): the
  // analysis treats a predicate lambda as a separate, unannotated
  // function, so the guarded reads belong in this annotated scope.
  while (!state_->done && state_->buffer.empty()) state_->ready.wait(lock);
  while (!state_->buffer.empty() && out->size() < max_rows) {
    out->push_back(std::move(state_->buffer.front()));
    state_->buffer.pop_front();
  }
  return !out->empty();
}

const QueryAnswer& AnswerCursor::Finish() {
  MAGIC_CHECK_MSG(state_ != nullptr, "Finish() on an empty AnswerCursor");
  MutexLock lock(state_->mutex);
  while (!state_->done) state_->ready.wait(lock);
  // Safe to hand out past the unlock: done == true means the worker has
  // completed and will never touch `final` again.
  return state_->final;
}

void AnswerCursor::Cancel() {
  if (state_ != nullptr && state_->cancel != nullptr) {
    state_->cancel->store(true, std::memory_order_relaxed);
  }
}

// --- QueryService ------------------------------------------------------------

const Adornment& QueryService::FormHandle::adornment() const {
  return cached_->form->adornment();
}

size_t QueryService::FormHandle::bound_arity() const {
  return cached_->form->bound_arity();
}

size_t QueryService::FormKeyHash::operator()(const FormKey& key) const {
  // 0 for the empty strategy slot of a selection form.
  const uint64_t strategy =
      key.strategy ? static_cast<uint64_t>(*key.strategy) + 1 : 0;
  uint64_t h = HashCombine(key.pred, strategy);
  for (int entry : key.pattern) {
    h = HashCombine(h, static_cast<uint64_t>(entry));
  }
  return HashCombine(h, std::hash<std::string>{}(key.sip));
}

obs::MetricsRegistry::Labels QueryService::FormKey::Labels(
    const Universe& u) const {
  // The adornment is the pattern's ground positions (QueryAdornment).
  std::string form = u.symbols().Name(u.predicates().info(pred).name) + "/";
  for (int entry : pattern) form += entry == kGroundArg ? 'b' : 'f';
  return {{"form", std::move(form)},
          {"strategy", strategy ? StrategyName(*strategy)
                                : PreparedQueryForm::kSelectionName},
          {"sip", sip}};
}

namespace {

/// The AnswerCache tag of a compiled form: its stable address. Forms live
/// as long as the service (and so does the cache), so tags never alias.
uintptr_t CacheTag(const PreparedQueryForm* form) {
  return reinterpret_cast<uintptr_t>(form);
}

/// A steady_clock time point in nanoseconds, on the same clock
/// obs::Trace::NowNs() reads — so span and latency arithmetic can mix
/// deadline anchors with trace timestamps.
uint64_t ToNs(std::chrono::steady_clock::time_point tp) {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          tp.time_since_epoch())
          .count());
}

/// The per-rule fixpoint profile cells: one labelled counter family per
/// RuleProfile field.
struct RuleCell {
  const char* name;
  const char* help;
  uint64_t RuleProfile::*field;
};
constexpr RuleCell kRuleCells[] = {
    {"magicdb_rule_evals",
     "Fixpoint rule evaluations (semi-naive: one per delta position per "
     "iteration; top-down: subquery rule attempts)",
     &RuleProfile::evals},
    {"magicdb_rule_firings", "Complete body matches of the rule",
     &RuleProfile::firings},
    {"magicdb_rule_new_facts",
     "Facts the rule derived that were new to its head relation",
     &RuleProfile::new_facts},
    {"magicdb_rule_duplicate_facts",
     "Facts the rule re-derived (already present)",
     &RuleProfile::duplicate_facts},
    {"magicdb_rule_join_probes",
     "Join candidate rows probed while evaluating the rule",
     &RuleProfile::join_probes},
    {"magicdb_rule_delta_rows",
     "Delta-window rows joined against (semi-naive) or subqueries "
     "generated (top-down)",
     &RuleProfile::delta_rows},
};

/// Writes a form's {form, strategy, sip} labels as keys of the open
/// object, so a `forms` entry and a `slow_queries` entry name a form alike.
void WriteLabels(JsonWriter& w, const obs::MetricsRegistry::Labels& labels) {
  for (const auto& [name, value] : labels) w.Key(name).String(value);
}

/// Renders a bound-value seed for the slow-query log ("c3", "a b", ...).
std::string SeedToString(const Universe& u, const std::vector<TermId>& seed) {
  std::string out;
  for (TermId term : seed) {
    if (!out.empty()) out += ' ';
    out += u.TermToString(term);
  }
  return out;
}

}  // namespace

QueryService::QueryService(const Program& program, Database& db,
                           QueryServiceOptions options)
    : program_(program),
      db_(db),
      options_(std::move(options)),
      versions_(db_),
      slow_log_(options_.obs.slow_query_capacity),
      cache_(AnswerCacheOptions{.max_bytes = options_.cache_bytes}),
      pool_(options_.num_threads != 0 ? options_.num_threads
                                      : std::thread::hardware_concurrency()) {
  // Service-wide instruments, registered once; the hot path only touches
  // the returned cells (relaxed atomic adds — no registry lock).
  forms_compiled_ = metrics_.GetCounter(
      "magicdb_forms_compiled", {}, "Query forms compiled (per form key)");
  form_cache_hits_ = metrics_.GetCounter(
      "magicdb_form_cache_hits", {},
      "Request-tier lookups that found an already-compiled form");
  queries_served_ = metrics_.GetCounter(
      "magicdb_queries_served", {},
      "Requests completed (evaluated, cache-served, or shed)");
  overloaded_ = metrics_.GetCounter(
      "magicdb_overloaded", {},
      "TrySubmit rejections by admission control");
  answers_from_cache_ = metrics_.GetCounter(
      "magicdb_answers_from_cache", {},
      "Requests served from the AnswerCache without evaluation");
  deadline_shed_ = metrics_.GetCounter(
      "magicdb_deadline_shed", {},
      "Requests shed because their deadline expired before evaluation");
  writes_applied_ = metrics_.GetCounter(
      "magicdb_writes_applied", {},
      "Write batches applied through ApplyWrites");
  write_cow_bytes_ = metrics_.GetCounter(
      "magicdb_write_cow_bytes", {},
      "Relation storage bytes write batches copied out of chunks shared "
      "with older versions or allocated fresh");
  request_latency_ = metrics_.GetHistogram(
      "magicdb_request_latency_ns", {},
      "End-to-end request latency, admission to completion");
  write_publish_ = metrics_.GetHistogram(
      "magicdb_write_publish_ns", {},
      "Per-batch version build+publish time (ticket redeemed -> "
      "published); excludes commit-queue wait");
  compile_latency_ = metrics_.GetHistogram(
      "magicdb_compile_latency_ns", {},
      "Form compilation time (adorn + rewrite), paid once per form");
  writes_queued_gauge_ = metrics_.GetGauge(
      "magicdb_writes_queued", {},
      "Writers waiting for their FIFO commit ticket (live)");
}

QueryService::~QueryService() = default;

QueryService::FormKey QueryService::MakeKey(const QueryRequest& request) const {
  FormKey key;
  key.pred = request.query.goal.pred;
  key.pattern = QueryArgPattern(*program_.universe(), request.query);
  // A base-predicate goal compiles to a selection, which neither strategy
  // nor sip applies to: both slots stay empty, so every request for it
  // shares one form.
  if (!program_.IsHeadPredicate(key.pred)) return key;
  key.strategy = request.strategy.value_or(options_.engine.strategy);
  // naive/semi-naive plans take no sip; normalizing the key keeps one plan
  // per binding pattern instead of one per (irrelevant) sip name.
  const bool sipless = key.strategy == Strategy::kNaiveBottomUp ||
                       key.strategy == Strategy::kSemiNaiveBottomUp;
  key.sip = sipless ? std::string() : request.sip.value_or(options_.engine.sip);
  return key;
}

QueryService::CachedForm* QueryService::GetOrCompile(
    const QueryRequest& request, const FormKey& key, obs::Span* compile_span) {
  MutexLock lock(form_mutex_);
  auto it = forms_.find(key);
  if (it != forms_.end()) {
    form_cache_hits_->Add();
    return &it->second;
  }
  EngineOptions engine_options = options_.engine;
  if (key.strategy) engine_options.strategy = *key.strategy;
  if (!key.sip.empty()) engine_options.sip = key.sip;
  const uint64_t compile_start =
      options_.obs.enabled ? obs::Trace::NowNs() : 0;
  // Compilation writes only into the plan's Universe overlay (the shared
  // base is frozen underneath it), so in-flight evaluations keep running;
  // only concurrent compiles serialize here.
  Result<PreparedQueryForm> form =
      PreparedQueryForm::Prepare(program_, request.query, engine_options);
  CachedForm& cached = forms_[key];
  cached.labels = key.Labels(*program_.universe());
  if (!form.ok()) {
    cached.error = form.status();
    return &cached;
  }
  forms_compiled_->Add();
  if (options_.obs.enabled) {
    const obs::Span span{obs::Stage::kCompile, compile_start,
                         obs::Trace::NowNs()};
    compile_latency_->Record(span.end_ns - span.start_ns);
    *compile_span = span;
  }
  cached.form = std::make_unique<PreparedQueryForm>(std::move(*form));

  // Register the form's instruments while we still hold form_mutex_ (the
  // metrics mutex ranks above it, so the nesting is legal). One-time cost
  // per form; the serving paths only Add()/Record() through the pointers.
  // Every cell carries the full form key, so two forms never share one.
  const obs::MetricsRegistry::Labels& form_labels = cached.labels;
  cached.queries = metrics_.GetCounter(
      "magicdb_form_queries", form_labels,
      "Instances served per compiled form (evaluated or cache-served)");
  cached.rows = metrics_.GetCounter("magicdb_form_rows", form_labels,
                                    "Answer tuples returned per form");
  cached.truncated =
      metrics_.GetCounter("magicdb_form_truncated", form_labels,
                          "Instances stopped by a row limit");
  obs::MetricsRegistry::Labels eval_labels = form_labels;
  eval_labels.emplace_back("stage", "eval");
  obs::MetricsRegistry::Labels inline_labels = form_labels;
  inline_labels.emplace_back("stage", "cache_inline");
  cached.eval_latency = metrics_.GetHistogram(
      "magicdb_form_latency_ns", eval_labels,
      "Per-instance serving latency by stage (eval vs cache_inline)");
  cached.inline_latency = metrics_.GetHistogram(
      "magicdb_form_latency_ns", inline_labels,
      "Per-instance serving latency by stage (eval vs cache_inline)");
  const std::vector<std::string>& rule_labels =
      cached.form->rule_labels();
  cached.rule_counters.reserve(rule_labels.size() * std::size(kRuleCells));
  for (size_t i = 0; i < rule_labels.size(); ++i) {
    // Rules are labelled by index (the full rule text is in MetricsJson's
    // `forms` list — too long and too free-form for a label value).
    obs::MetricsRegistry::Labels labels = form_labels;
    labels.emplace_back("rule", std::to_string(i));
    for (const RuleCell& cell : kRuleCells) {
      cached.rule_counters.push_back(
          metrics_.GetCounter(cell.name, labels, cell.help));
    }
  }
  return &cached;
}

bool QueryService::Admit(bool enforce_admission) {
  size_t prev = pending_.fetch_add(1, std::memory_order_relaxed);
  if (enforce_admission && options_.max_pending != 0 &&
      prev >= options_.max_pending) {
    pending_.fetch_sub(1, std::memory_order_relaxed);
    overloaded_->Add();
    return false;
  }
  return true;
}

QueryAnswer QueryService::OverloadedAnswer() const {
  QueryAnswer answer;
  answer.status = Status::ResourceExhausted(
      "submission queue is full (max_pending=" +
      std::to_string(options_.max_pending) + ")");
  answer.outcome = AnswerStatus::kOverloaded;
  return answer;
}

QueryAnswer QueryService::DeadlineShedAnswer() const {
  QueryAnswer answer;
  answer.status = Status::DeadlineExceeded(
      "deadline expired while queued; evaluation never started");
  answer.outcome = AnswerStatus::kDeadlineExceeded;
  return answer;
}

void QueryService::ServeHit(CachedForm* cached,
                            std::shared_ptr<const AnswerCache::Tuples> tuples,
                            const QueryLimits& limits, const AnswerSink& sink,
                            const Completion& done) {
  QueryAnswer answer;
  answer.from_cache = true;
  answer.strategy_name = cached->form->strategy_name();
  const size_t total = tuples->size();
  size_t serve = total;
  // Mirror the evaluated path's outcome exactly: AnswerCollector marks
  // kTruncated the moment row_limit answers are reached, including when
  // the limit equals the answer count — cache temperature must not change
  // what a client observes.
  const bool limit_hit = limits.row_limit != 0 && total >= limits.row_limit;
  if (limit_hit) serve = static_cast<size_t>(limits.row_limit);
  if (sink) {
    // The sink sees one decoded tuple at a time; it never stops the decode
    // (see DispatchForm).
    tuples->Decode(serve, sink);
  } else {
    answer.tuples.reserve(serve);
    tuples->Decode(serve, [&](const std::vector<TermId>& row) {
      answer.tuples.push_back(row);
      return true;
    });
  }
  answer.outcome = limit_hit ? AnswerStatus::kTruncated : AnswerStatus::kOk;

  cached->queries->Add();
  cached->rows->Add(serve);
  if (answer.outcome == AnswerStatus::kTruncated) {
    cached->truncated->Add();
  }
  // eval latency deliberately untouched: no evaluation ran. The caller
  // records this serve into the form's distinct `cache_inline` histogram
  // instead (it owns the request's latency anchor), so warm hits never
  // dilute eval-stage latency.
  queries_served_->Add();
  answers_from_cache_->Add();
  done(std::move(answer));
}

void QueryService::DispatchForm(Instance instance, AnswerSink sink,
                                bool enforce_admission, Completion done) {
  CachedForm* cached = instance.cached;
  if (cached == nullptr || cached->form == nullptr) {
    QueryAnswer answer;
    answer.status = cached == nullptr ? instance.error : cached->error;
    answer.outcome = AnswerStatus::kError;
    if (cached != nullptr) answer.strategy_name = cached->labels[1].second;
    queries_served_->Add();
    done(std::move(answer));
    return;
  }
  std::vector<TermId>& bound_values = instance.bound_values;
  QueryLimits& limits = instance.limits;
  // The admission anchor: the deadline and the recorded latency both count
  // from here, so queue wait counts toward each. A request with no time
  // left is shed BEFORE the cache probe, whether the answer would have been
  // warm or cold — cache temperature must not turn a kDeadlineExceeded
  // into a kOk.
  const auto admitted = std::chrono::steady_clock::now();
  if (limits.deadline.has_value() &&
      *limits.deadline <= std::chrono::milliseconds::zero()) {
    deadline_shed_->Add();
    queries_served_->Add();
    done(DeadlineShedAnswer());
    return;
  }
  // Latency is measured from the admission anchor, on the trace spans'
  // clock.
  const bool obs_on = options_.obs.enabled;
  const uint64_t t_anchor = obs_on ? ToNs(admitted) : 0;

  // The request's one cache probe, at the current version number: no pin
  // and no write fence. A hit keyed at V is V's complete answer, and
  // serving it while V+1 publishes is linearizable (the request overlapped
  // the write); a publish happens-before ApplyWrites returns, so a later
  // request probes at >= V+1. A malformed seed, never cached, skips the
  // probe and flows to Answer() for its error report.
  const uint64_t probe_start = obs_on ? obs::Trace::NowNs() : 0;
  if (cache_.enabled() && bound_values.size() == cached->form->bound_arity()) {
    std::shared_ptr<const AnswerCache::Tuples> tuples =
        cache_.Get(CacheTag(cached->form.get()), bound_values,
                   versions_.current_version());
    if (tuples != nullptr) {
      // Warm hit: completed inline — no worker, no admission slot, and no
      // Trace allocation. Two histogram cells record it, under the form's
      // distinct `cache_inline` stage.
      ServeHit(cached, std::move(tuples), limits, sink, done);
      if (obs_on) {
        const uint64_t now = obs::Trace::NowNs();
        cached->inline_latency->Record(now - t_anchor);
        request_latency_->Record(now - t_anchor);
      }
      return;
    }
  }
  const uint64_t probe_end = obs_on ? obs::Trace::NowNs() : 0;

  if (!Admit(enforce_admission)) {
    done(OverloadedAnswer());
    return;
  }

  // Cold path: the request will occupy a worker, so a per-request Trace
  // is worth its one small allocation. Spans recorded so far: admission
  // (anchor -> probe) and the cache probe; the compile span rides in from
  // the request tier when this request actually compiled.
  std::shared_ptr<obs::Trace> trace;
  uint64_t t_submit = 0;
  if (obs_on) {
    trace = std::make_shared<obs::Trace>();
    trace->Record(obs::Stage::kAdmit, t_anchor, probe_start);
    if (instance.compile_span.end_ns != 0) {
      trace->Record(obs::Stage::kCompile, instance.compile_span.start_ns,
                    instance.compile_span.end_ns);
    }
    trace->Record(obs::Stage::kCacheProbe, probe_start, probe_end);
    t_submit = obs::Trace::NowNs();
  }
  pool_.Submit([this, cached, bound_values = std::move(bound_values),
                limits = std::move(limits), sink = std::move(sink),
                done = std::move(done), admitted, trace = std::move(trace),
                t_anchor, t_submit]() mutable {
    if (trace != nullptr) {
      trace->Record(obs::Stage::kQueueWait, t_submit, obs::Trace::NowNs());
    }
    // Deadline-aware dispatch: a request whose deadline expired while it
    // sat in the pool queue completes immediately — the client is gone;
    // entering the fixpoint would burn a worker on an unwanted answer.
    if (limits.deadline.has_value() &&
        std::chrono::steady_clock::now() >= admitted + *limits.deadline) {
      deadline_shed_->Add();
      queries_served_->Add();
      pending_.fetch_sub(1, std::memory_order_relaxed);
      done(DeadlineShedAnswer());
      return;
    }
    // Pin a snapshot for the whole evaluation: a pointer copy under the
    // chain's leaf mutex, never waits for a writer's apply, and the
    // snapshot's relations can never mutate out from under the fixpoint
    // (writers clone-on-write instead). The fill below is keyed by the
    // pinned version — the version of the data this evaluation actually
    // reads — even when the request was dispatched before a write and
    // evaluated after it.
    std::shared_ptr<const DatabaseVersion> pinned = versions_.Pin();
    const uint64_t version = cache_.enabled() ? pinned->version() : 0;
    // Hand the trace to the engine: the fixpoint span is recorded inside
    // Evaluator/TopDownEngine (they own the evaluation interval).
    limits.trace = trace.get();
    Stopwatch watch;
    // Streamed answers leave tuples empty (the AnswerSink contract), so
    // count emitted rows through a wrapper for the per-form stats — and,
    // when the cache wants a fill, keep a copy of what streamed by.
    size_t streamed = 0;
    uint64_t stream_first = 0;
    const bool collect = cache_.enabled() && static_cast<bool>(sink);
    std::vector<std::vector<TermId>> collected;
    AnswerSink counted;
    if (sink) {
      counted = [&](const std::vector<TermId>& tuple) {
        ++streamed;
        if (trace != nullptr && stream_first == 0) {
          stream_first = obs::Trace::NowNs();
        }
        if (collect) collected.push_back(tuple);
        return sink(tuple);
      };
    }
    QueryAnswer answer = cached->form->Answer(bound_values, pinned->db(),
                                              limits, counted, admitted);
    // Unpin before the answer is fulfilled: once a caller holds its answer,
    // the version it read is no longer kept alive by this request.
    pinned.reset();
    const uint64_t eval_ns =
        static_cast<uint64_t>(watch.ElapsedSeconds() * 1e9);
    cached->queries->Add();
    cached->rows->Add(answer.tuples.size() + streamed);
    if (answer.outcome == AnswerStatus::kTruncated) {
      cached->truncated->Add();
    }
    // Always recorded (the Stopwatch reads predate observability and the
    // record is three relaxed adds), even when the optional obs half is
    // off.
    cached->eval_latency->Record(eval_ns);
    // Accumulate this run's per-rule fixpoint profile into the form's
    // registry counters (skipping zero deltas keeps quiet rules free).
    const size_t rules =
        std::min(answer.profile.size(),
                 cached->rule_counters.size() / std::size(kRuleCells));
    obs::Counter* const* counter = cached->rule_counters.data();
    for (size_t i = 0; i < rules; ++i) {
      for (const RuleCell& cell : kRuleCells) {
        const uint64_t delta = answer.profile[i].counts.*cell.field;
        if (delta != 0) (*counter)->Add(delta);
        ++counter;
      }
    }
    // Fill on bounded-clean completions only: kOk means the fixpoint ran
    // to completion under no truncating limit, so the tuple set is the
    // full answer. Sink-fed runs are re-sorted to the canonical order
    // (sinks see derivation order).
    if (cache_.enabled() && answer.status.ok() &&
        answer.outcome == AnswerStatus::kOk) {
      if (collect) std::sort(collected.begin(), collected.end());
      cache_.Put(CacheTag(cached->form.get()), bound_values, version,
                 std::make_shared<const AnswerCache::Tuples>(
                     collect ? collected : answer.tuples));
    }
    queries_served_->Add();
    if (trace != nullptr) {
      const uint64_t t_done = obs::Trace::NowNs();
      if (stream_first != 0) {
        trace->Record(obs::Stage::kStream, stream_first, t_done);
      }
      const uint64_t total = t_done - t_anchor;
      request_latency_->Record(total);
      if (total >= options_.obs.slow_query_ns) {
        obs::SlowQuery slow;
        slow.form = cached->labels;
        slow.seed = SeedToString(*program_.universe(), bound_values);
        slow.total_ns = total;
        slow.spans = trace->spans();
        slow_log_.Record(std::move(slow));
      }
    }
    pending_.fetch_sub(1, std::memory_order_relaxed);
    done(std::move(answer));
  });
}

QueryService::Instance QueryService::Resolve(const QueryRequest& request) {
  Instance instance;
  // Every query — base or derived, any strategy — resolves to a compiled
  // form; a base-predicate query's form is a selection. A goal argument
  // that is neither ground nor a variable is refused first: it would
  // share a plain variable's key, and so its compiled form.
  instance.error = CheckQueryArgs(*program_.universe(), request.query);
  if (instance.error.ok()) {
    instance.cached =
        GetOrCompile(request, MakeKey(request), &instance.compile_span);
  }
  instance.bound_values = QueryBoundArgs(*program_.universe(), request.query);
  instance.limits = request.limits;
  return instance;
}

QueryService::Instance QueryService::Resolve(const FormHandle& handle,
                                             std::vector<TermId> bound_values,
                                             QueryLimits limits) {
  return {.cached = handle.cached_,
          .error = handle.valid()
                       ? Status::OK()
                       : Status::InvalidArgument("invalid form handle"),
          .bound_values = std::move(bound_values),
          .limits = std::move(limits),
          .compile_span = {}};
}

Result<QueryService::FormHandle> QueryService::Prepare(
    const QueryRequest& request) {
  const Instance instance = Resolve(request);
  if (instance.cached == nullptr) return instance.error;
  if (instance.cached->form == nullptr) return instance.cached->error;
  FormHandle handle;
  handle.cached_ = instance.cached;
  return handle;
}

std::future<QueryAnswer> QueryService::SubmitImpl(Instance instance,
                                                  bool enforce_admission) {
  auto promise = std::make_shared<std::promise<QueryAnswer>>();
  std::future<QueryAnswer> future = promise->get_future();
  DispatchForm(std::move(instance), {}, enforce_admission,
               [promise](QueryAnswer answer) {
                 promise->set_value(std::move(answer));
               });
  return future;
}

std::future<QueryAnswer> QueryService::Submit(const QueryRequest& request) {
  return SubmitImpl(Resolve(request), /*enforce_admission=*/false);
}

std::future<QueryAnswer> QueryService::Submit(
    const FormHandle& handle, std::vector<TermId> bound_values,
    QueryLimits limits) {
  return SubmitImpl(
      Resolve(handle, std::move(bound_values), std::move(limits)),
      /*enforce_admission=*/false);
}

std::future<QueryAnswer> QueryService::TrySubmit(const QueryRequest& request) {
  return SubmitImpl(Resolve(request), /*enforce_admission=*/true);
}

std::future<QueryAnswer> QueryService::TrySubmit(
    const FormHandle& handle, std::vector<TermId> bound_values,
    QueryLimits limits) {
  return SubmitImpl(
      Resolve(handle, std::move(bound_values), std::move(limits)),
      /*enforce_admission=*/true);
}

QueryAnswer QueryService::Answer(const QueryRequest& request) {
  return Submit(request).get();
}

QueryAnswer QueryService::Answer(const FormHandle& handle,
                                 std::vector<TermId> bound_values,
                                 QueryLimits limits) {
  return Submit(handle, std::move(bound_values), std::move(limits)).get();
}

AnswerCursor QueryService::StreamImpl(Instance instance) {
  auto state = std::make_shared<AnswerCursor::State>();
  if (instance.limits.cancel == nullptr) {
    instance.limits.cancel = std::make_shared<std::atomic<bool>>(false);
  }
  state->cancel = instance.limits.cancel;
  AnswerSink sink = [state](const std::vector<TermId>& tuple) {
    {
      MutexLock lock(state->mutex);
      state->buffer.push_back(tuple);
    }
    state->ready.notify_all();
    return true;
  };
  Completion done = [state](QueryAnswer answer) {
    // Sink-fed answers arrive with empty tuples (the AnswerSink contract:
    // everything was streamed); the clear covers inline error paths that
    // never evaluated.
    answer.tuples.clear();
    {
      MutexLock lock(state->mutex);
      state->final = std::move(answer);
      state->done = true;
    }
    state->ready.notify_all();
  };
  DispatchForm(std::move(instance), std::move(sink),
               /*enforce_admission=*/false, std::move(done));
  return AnswerCursor(std::move(state));
}

AnswerCursor QueryService::Stream(const QueryRequest& request) {
  return StreamImpl(Resolve(request));
}

AnswerCursor QueryService::Stream(const FormHandle& handle,
                                  std::vector<TermId> bound_values,
                                  QueryLimits limits) {
  return StreamImpl(
      Resolve(handle, std::move(bound_values), std::move(limits)));
}

std::vector<QueryAnswer> QueryService::AnswerBatch(
    const std::vector<QueryRequest>& batch) {
  std::vector<std::future<QueryAnswer>> futures;
  futures.reserve(batch.size());
  for (const QueryRequest& request : batch) {
    futures.push_back(Submit(request));
  }
  std::vector<QueryAnswer> answers;
  answers.reserve(batch.size());
  for (std::future<QueryAnswer>& future : futures) {
    answers.push_back(future.get());
  }
  return answers;
}

Result<WriteResult> QueryService::ApplyWrites(const WriteBatch& batch) {
  // Validate before queueing: a malformed batch must never hold a commit
  // ticket (or even enqueue behind one).
  MAGIC_RETURN_IF_ERROR(batch.Validate(*program_.universe()));
  // Multi-writer FIFO fairness: each writer takes a ticket under
  // commit_mutex_ and commits strictly in ticket order. The commit itself
  // runs OUTSIDE the mutex — the ticket already guarantees exclusion — so
  // the gauge and the wait below measure pure queueing, never the
  // predecessor's publish work under a held lock.
  uint64_t ticket;
  {
    MutexLock lock(commit_mutex_);
    ticket = commit_next_ticket_++;
    writes_queued_gauge_->Add(1);
    while (ticket != commit_serving_) commit_turn_.wait(lock);
    writes_queued_gauge_->Add(-1);
  }
  // Build version N+1 and publish it. No drain:
  // in-flight fixpoints keep their pinned snapshots (the storage layer
  // clones any relation a snapshot still shares before mutating it), so
  // publish latency is independent of the longest-running evaluation.
  Stopwatch publish;
  WriteResult result = versions_.Commit(db_, batch);
  write_publish_->Record(
      static_cast<uint64_t>(publish.ElapsedSeconds() * 1e9));
  writes_applied_->Add();
  write_cow_bytes_->Add(result.cow_bytes);
  {
    MutexLock lock(commit_mutex_);
    ++commit_serving_;
  }
  commit_turn_.notify_all();
  return result;
}

std::string QueryService::Stats::Summary() const {
  char buffer[768];
  std::snprintf(
      buffer, sizeof(buffer),
      "%zu form(s) compiled, %zu form-cache hit(s); answer cache: "
      "%" PRIu64 " hit(s), %" PRIu64 " miss(es), %zu served from cache, "
      "%" PRIu64 " eviction(s), %zu/%zu byte(s); "
      "served %zu (%zu deadline-shed, %zu overloaded); "
      "latency p50/p99 %.3f/%.3f ms over %" PRIu64 " request(s); "
      "%zu write batch(es) applied (publish %.3f ms); %zu slow quer(ies)",
      forms_compiled, form_cache_hits, answer_cache.hits,
      answer_cache.misses, answers_from_cache, answer_cache.evictions,
      answer_cache.bytes, answer_cache.max_bytes, queries_served,
      deadline_shed, overloaded,
      request_latency.Quantile(0.5) / 1e6,
      request_latency.Quantile(0.99) / 1e6, request_latency.count,
      writes_applied, static_cast<double>(write_publish.sum) / 1e6,
      slow_queries.size());
  return buffer;
}

QueryService::Stats QueryService::stats() const {
  Stats stats;
  stats.forms_compiled = static_cast<size_t>(forms_compiled_->value());
  stats.form_cache_hits = static_cast<size_t>(form_cache_hits_->value());
  stats.queries_served = static_cast<size_t>(queries_served_->value());
  stats.overloaded = static_cast<size_t>(overloaded_->value());
  stats.answers_from_cache =
      static_cast<size_t>(answers_from_cache_->value());
  stats.deadline_shed = static_cast<size_t>(deadline_shed_->value());
  stats.writes_applied = static_cast<size_t>(writes_applied_->value());
  stats.pending = pending_.load(std::memory_order_relaxed);
  stats.write_publish = write_publish_->Snapshot();
  stats.versions_published = static_cast<size_t>(versions_.versions_published());
  stats.versions_retired = static_cast<size_t>(versions_.versions_retired());
  stats.writes_queued = static_cast<size_t>(writes_queued_gauge_->value());
  stats.request_latency = request_latency_->Snapshot();
  stats.answer_cache = cache_.stats();
  stats.slow_queries = slow_log_.Snapshot();
  return stats;
}

void QueryService::RefreshScrapeGauges() const {
  const AnswerCache::Stats cache = cache_.stats();
  const uint64_t live = versions_.versions_live();
  struct ScrapeGauge {
    const char* name;
    const char* help;
    uint64_t value;
  };
  const ScrapeGauge gauges[] = {
      {"magicdb_pending_requests", "Requests submitted but not yet completed",
       pending_.load(std::memory_order_relaxed)},
      {"magicdb_answer_cache_entries", "AnswerCache resident entries",
       cache.entries},
      {"magicdb_answer_cache_bytes", "AnswerCache resident bytes",
       cache.bytes},
      {"magicdb_answer_cache_hits", "AnswerCache lookups that found an entry",
       cache.hits},
      {"magicdb_answer_cache_misses", "AnswerCache lookups that found none",
       cache.misses},
      {"magicdb_answer_cache_inserts", "Answers stored in the AnswerCache",
       cache.inserts},
      {"magicdb_answer_cache_evictions",
       "AnswerCache entries evicted by the byte budget", cache.evictions},
      {"magicdb_answer_cache_oversize",
       "Answers too large for an AnswerCache shard, never stored",
       cache.rejected_oversize},
      {"magicdb_db_versions_live",
       "Database versions alive: the head plus reader-pinned older ones",
       live},
      // Pinned = live minus the chain head itself (which is always alive).
      {"magicdb_db_versions_pinned",
       "Retired-from-head versions kept alive only by reader pins",
       live > 0 ? live - 1 : 0},
      {"magicdb_db_versions_published",
       "Database versions published, the initial one included",
       versions_.versions_published()},
      {"magicdb_db_versions_retired",
       "Database versions whose last pin dropped",
       versions_.versions_retired()},
  };
  for (const ScrapeGauge& gauge : gauges) {
    metrics_
        .GetGauge(gauge.name, {},
                  std::string(gauge.help) + " (refreshed at scrape)")
        ->Set(static_cast<int64_t>(gauge.value));
  }
}

std::string QueryService::MetricsText() const {
  RefreshScrapeGauges();
  return metrics_.PrometheusText();
}

std::string QueryService::MetricsJson() const {
  RefreshScrapeGauges();
  JsonWriter w;
  w.BeginObject();
  w.Key("metrics").Raw(metrics_.Json());
  // Only what the registry cannot hold: each form's labels and the rule
  // texts its `rule` labels index.
  w.Key("forms").BeginArray();
  {
    MutexLock lock(form_mutex_);
    for (const auto& [key, cached] : forms_) {
      if (cached.form == nullptr) continue;
      w.BeginObject();
      WriteLabels(w, cached.labels);
      w.Key("rules").BeginArray();
      for (const std::string& rule : cached.form->rule_labels()) {
        w.String(rule);
      }
      w.EndArray();
      w.EndObject();
    }
  }
  w.EndArray();
  w.Key("slow_queries").BeginArray();
  for (const obs::SlowQuery& slow : slow_log_.Snapshot()) {
    w.BeginObject();
    WriteLabels(w, slow.form);
    w.Key("seed").String(slow.seed);
    w.Key("total_ns").Uint(slow.total_ns);
    w.Key("sequence").Uint(slow.sequence);
    w.Key("spans").BeginArray();
    for (const obs::Span& span : slow.spans) {
      w.BeginObject();
      w.Key("stage").String(obs::StageName(span.stage));
      w.Key("start_ns").Uint(span.start_ns);
      w.Key("end_ns").Uint(span.end_ns);
      w.EndObject();
    }
    w.EndArray();
    w.EndObject();
  }
  w.EndArray();
  w.EndObject();
  return w.str();
}

}  // namespace magic
