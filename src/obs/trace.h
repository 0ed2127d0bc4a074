#ifndef MAGIC_OBS_TRACE_H_
#define MAGIC_OBS_TRACE_H_

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <string>
#include <utility>
#include <vector>

#include "util/annotated_mutex.h"

namespace magic {
namespace obs {

/// Per-request trace spans and the slow-query ring buffer.
///
/// A Trace is a tiny per-request recorder of (stage, start, end) spans on
/// the monotonic clock. It is allocated only for requests that actually
/// reach the evaluation path while tracing is enabled — the warm inline
/// cache hit never sees one, and with observability disabled nothing is
/// allocated at all (callers carry a null Trace*).
///
/// Concurrency: a Trace belongs to exactly one request and is written by
/// whichever thread currently owns that request (the dispatching thread,
/// then the pool worker). The handoff through ThreadPool::Submit provides
/// the happens-before edge, so no synchronization is needed inside —
/// Record is an append to a small inline vector.

/// The stages of one request's life, in pipeline order.
enum class Stage {
  kAdmit,       // admission control (pending slot, overload check)
  kCacheProbe,  // the request's one AnswerCache probe, at dispatch
  kQueueWait,   // submitted to the pool -> worker picked it up
  kCompile,     // form compilation (first request on a form pays it)
  kFixpoint,    // evaluation proper (seminaive/topdown engine run)
  kStream,      // first row produced -> last row delivered to the sink
};

/// Stable lowercase span name ("admit", "cache_probe", ...).
const char* StageName(Stage stage);

struct Span {
  Stage stage;
  uint64_t start_ns = 0;
  uint64_t end_ns = 0;
};

class Trace {
 public:
  /// Monotonic now, in ns. One clock for every span so offsets subtract.
  static uint64_t NowNs() {
    return static_cast<uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::steady_clock::now().time_since_epoch())
            .count());
  }

  void Record(Stage stage, uint64_t start_ns, uint64_t end_ns) {
    spans_.push_back(Span{stage, start_ns, end_ns});
  }

  const std::vector<Span>& spans() const { return spans_; }

 private:
  std::vector<Span> spans_;
};

/// One slow request, frozen for the ring.
struct SlowQuery {
  // The served form's {form, strategy, sip} labels, as on its registry
  // cells and its STATS `forms` entry.
  std::vector<std::pair<std::string, std::string>> form;
  std::string seed;      // rendered bound values ("c3", "a b", ...)
  uint64_t total_ns = 0;
  uint64_t sequence = 0;  // monotonically increasing capture id
  std::vector<Span> spans;
};

/// Bounded ring of the last N requests slower than the configured
/// threshold. Recording takes the kSlowLog leaf mutex — acceptable
/// because, by construction, only slow requests ever reach it.
class SlowQueryLog {
 public:
  explicit SlowQueryLog(size_t capacity) : capacity_(capacity) {}

  void Record(SlowQuery entry) EXCLUDES(mutex_);

  /// Newest-last copy of the ring.
  std::vector<SlowQuery> Snapshot() const EXCLUDES(mutex_);

  size_t capacity() const { return capacity_; }

 private:
  const size_t capacity_;
  mutable Mutex mutex_{lock_rank::kSlowLog};
  std::deque<SlowQuery> ring_ GUARDED_BY(mutex_);
  uint64_t sequence_ GUARDED_BY(mutex_) = 0;
};

}  // namespace obs
}  // namespace magic

#endif  // MAGIC_OBS_TRACE_H_
