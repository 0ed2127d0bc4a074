#ifndef MAGIC_OBS_METRICS_H_
#define MAGIC_OBS_METRICS_H_

#include <array>
#include <atomic>
#include <bit>
#include <cstddef>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "util/annotated_mutex.h"

namespace magic {
namespace obs {

/// The one metrics surface. Every subsystem that wants a counter, gauge,
/// or latency histogram registers it here (ROADMAP invariant: there is ONE
/// aggregation path), and the registry renders the whole set two ways:
/// Prometheus-style text exposition for the METRICS wire verb, and one
/// JSON object for STATS and `METRICS json`.
///
/// Cost model — the reason this can stay on in production:
///   * Record/Add/Set are lock-free: relaxed atomic RMWs on pre-registered
///     cells. No allocation, no branch on a registry lock, no string work.
///   * Registration (GetCounter/GetGauge/GetHistogram) takes the registry
///     mutex and may allocate; callers register once at setup/compile time
///     and cache the returned pointer. Returned pointers are stable for
///     the registry's lifetime (instruments are heap-owned, never moved).
///   * Snapshot/render paths read the same relaxed atomics; a snapshot is
///     a point-in-time view, not a linearizable cut — fine for telemetry.
///
/// The registry mutex ranks lock_rank::kMetrics: a leaf above the data
/// plane and above the exclusive-nest floor, so instruments may be
/// registered from any request-path or write-seam frame.

/// Monotonically increasing event count. Prometheus counters; rendered
/// with the `_total` suffix.
class Counter {
 public:
  void Add(uint64_t delta = 1) {
    value_.fetch_add(delta, std::memory_order_relaxed);
  }
  uint64_t value() const { return value_.load(std::memory_order_relaxed); }

 private:
  std::atomic<uint64_t> value_{0};
};

/// Point-in-time signed level (queue depths, occupancy).
class Gauge {
 public:
  void Set(int64_t value) { value_.store(value, std::memory_order_relaxed); }
  void Add(int64_t delta) {
    value_.fetch_add(delta, std::memory_order_relaxed);
  }
  int64_t value() const { return value_.load(std::memory_order_relaxed); }

 private:
  std::atomic<int64_t> value_{0};
};

/// A mergeable point-in-time view of one Histogram (or a merge of
/// several). Quantiles come from the bucket counts: exact bucket
/// identification, linear interpolation within the winning bucket.
struct HistogramSnapshot {
  static constexpr size_t kBuckets = 256;

  uint64_t count = 0;
  uint64_t sum = 0;  // sum of recorded values (ns for latency histograms)
  std::array<uint64_t, kBuckets> buckets{};

  /// Elementwise accumulation. Associative and commutative, so per-shard
  /// or per-thread snapshots combine in any order.
  void Merge(const HistogramSnapshot& other);

  /// The value at quantile q in [0, 1] (q=0.5 is the median), estimated
  /// from the bucket the q-th recorded value landed in. Returns 0 when
  /// empty. Error is bounded by the bucket width: <= 25% of the value,
  /// from the 4-sub-buckets-per-octave layout.
  double Quantile(double q) const;

  double mean() const {
    return count == 0 ? 0.0
                      : static_cast<double>(sum) / static_cast<double>(count);
  }
};

/// Fixed-bucket log-scale histogram of uint64 values (latencies in
/// nanoseconds). HDR-style layout: 4 sub-buckets per power of two, so
/// relative error within a bucket is bounded at 25% across the full
/// uint64 range with only 256 cells. Record is wait-free: three relaxed
/// fetch_adds, no locks, safe from any thread including under the
/// exclusively held write seam.
class Histogram {
 public:
  static constexpr size_t kBuckets = HistogramSnapshot::kBuckets;

  void Record(uint64_t value) {
    buckets_[BucketIndex(value)].fetch_add(1, std::memory_order_relaxed);
    count_.fetch_add(1, std::memory_order_relaxed);
    sum_.fetch_add(value, std::memory_order_relaxed);
  }

  HistogramSnapshot Snapshot() const;

  /// Bucket index for a value: identity below 4, then
  /// (octave, 2-bit sub-bucket) above. Exposed for the bucket-boundary
  /// tests.
  static size_t BucketIndex(uint64_t value) {
    if (value < 4) return static_cast<size_t>(value);
    const int msb = std::bit_width(value) - 1;  // >= 2
    const uint64_t sub = (value >> (msb - 2)) & 3;  // two bits below the msb
    return static_cast<size_t>(msb - 1) * 4 + static_cast<size_t>(sub);
  }

  /// Inclusive lower bound of bucket `index` (the smallest value that
  /// maps there). Inverse of BucketIndex on bucket boundaries.
  static uint64_t BucketLowerBound(size_t index);

 private:
  std::array<std::atomic<uint64_t>, kBuckets> buckets_{};
  std::atomic<uint64_t> count_{0};
  std::atomic<uint64_t> sum_{0};
};

/// Instrument kinds, for the `# TYPE` exposition lines.
enum class MetricKind { kCounter, kGauge, kHistogram };

/// Registry of named instruments with optional Prometheus-style labels.
/// One per QueryService (not global): a process can host several services
/// without their telemetry colliding.
class MetricsRegistry {
 public:
  MetricsRegistry() = default;
  MetricsRegistry(const MetricsRegistry&) = delete;
  MetricsRegistry& operator=(const MetricsRegistry&) = delete;

  /// Label set, rendered inside `{...}` in registration order.
  using Labels = std::vector<std::pair<std::string, std::string>>;

  /// Register-or-fetch. The same (name, labels) always returns the same
  /// instrument; registering one name with two different kinds aborts
  /// (programming error). Pointers remain valid and stable for the
  /// registry's lifetime. `help` is kept from the first registration.
  Counter* GetCounter(const std::string& name, const Labels& labels = {},
                      const std::string& help = std::string())
      EXCLUDES(mutex_);
  Gauge* GetGauge(const std::string& name, const Labels& labels = {},
                  const std::string& help = std::string()) EXCLUDES(mutex_);
  Histogram* GetHistogram(const std::string& name, const Labels& labels = {},
                          const std::string& help = std::string())
      EXCLUDES(mutex_);

  /// Prometheus text exposition of every registered instrument: `# HELP` /
  /// `# TYPE` headers per metric name, counters as `name_total{labels} v`,
  /// gauges as `name{labels} v`, histograms as cumulative
  /// `name_bucket{...,le="..."}` lines (only buckets whose count changed,
  /// plus the mandatory `+Inf`) with `_sum` and `_count`.
  std::string PrometheusText() const EXCLUDES(mutex_);

  /// The same instruments, grouping and order as PrometheusText(), as one
  /// JSON object keyed by metric name:
  /// `{"name":{"type":...,"help":...,"cells":[{"labels":{...},...}]}}`.
  /// A counter or gauge cell carries `value`; a histogram cell carries
  /// `count`, `sum_ns`, `p50_ns`, `p95_ns` and `p99_ns`.
  std::string Json() const EXCLUDES(mutex_);

 private:
  /// One labelled instrument; exactly one pointer is set, by its family's
  /// kind.
  struct Entry {
    Labels labels;
    std::unique_ptr<Counter> counter;
    std::unique_ptr<Gauge> gauge;
    std::unique_ptr<Histogram> histogram;
  };
  /// Every instrument of one metric name. unique_ptr entries so addresses
  /// survive vector growth; registration order is render order.
  struct Family {
    MetricKind kind;
    std::string help;
    std::vector<std::unique_ptr<Entry>> entries;
  };

  Entry* FindOrCreate(const std::string& name, const Labels& labels,
                      MetricKind kind, const std::string& help)
      EXCLUDES(mutex_);

  static std::string EntryKey(const std::string& name, const Labels& labels);
  static std::string RenderLabels(const Labels& labels,
                                  const std::string& extra = std::string());

  mutable Mutex mutex_{lock_rank::kMetrics};
  /// Name-ordered, so both renderers walk the families in one order.
  std::map<std::string, Family> families_ GUARDED_BY(mutex_);
  std::unordered_map<std::string, Entry*> index_ GUARDED_BY(mutex_);
};

/// Knobs for the optional (latency/trace) half of observability. Counters
/// and fixpoint profiles are always on — they are single relaxed
/// increments the tests rely on; `enabled` gates the parts that cost a
/// clock read or an allocation: latency histograms, trace spans, and the
/// slow-query log.
struct ObservabilityOptions {
  bool enabled = true;
  /// Requests slower than this (ns, end to end) land in the slow-query
  /// ring with their spans. 20ms default: well above a warm hit, below
  /// anything a user would call fast.
  uint64_t slow_query_ns = 20'000'000;
  /// Ring capacity of the slow-query log.
  size_t slow_query_capacity = 32;
};

}  // namespace obs
}  // namespace magic

#endif  // MAGIC_OBS_METRICS_H_
