// Shared plumbing for the perfbench program: seeded randomness, quantiles,
// the in-memory span log behind the traced run, and the result document.

#ifndef PERFBENCH_COMMON_H_
#define PERFBENCH_COMMON_H_

#include <atomic>
#include <chrono>
#include <cstdint>
#include <initializer_list>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

/// Monotonic nanoseconds; the time base of every span and latency sample.
inline int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             Clock::now().time_since_epoch())
      .count();
}

/// splitmix64: small, seedable, and identical on every platform, so one
/// --seed always yields the same inputs.
class Rng {
 public:
  explicit Rng(uint64_t seed) : state_(seed) {}
  uint64_t Next();
  /// Uniform in [0, n); n must be > 0.
  uint64_t Below(uint64_t n) { return Next() % n; }
  /// Uniform in [0, 1).
  double Unit() { return static_cast<double>(Next() >> 11) * 0x1.0p-53; }

 private:
  uint64_t state_;
};

/// Zipf(s = 1) over ranks [0, n): rank 0 is the most frequent.
class Zipf {
 public:
  explicit Zipf(size_t n);
  size_t Sample(Rng& rng) const;

 private:
  std::vector<double> cdf_;
};

/// The q-quantile (0 <= q <= 1) by nearest rank; 0 for an empty sample.
double Quantile(std::vector<double> values, double q);
inline double Median(std::vector<double> values) {
  return Quantile(std::move(values), 0.5);
}

/// The process's peak resident set size (VmHWM) in MiB.
double PeakRssMb();

/// One numeric attribute of a span (key must be a string literal).
struct Attr {
  const char* key = nullptr;
  double value = 0;
};

/// One timed interval around a call into a layer. Spans of one request
/// share `request`; `parent` is the id of the span whose interval encloses
/// this one (0 for a root).
struct Span {
  static constexpr int kMaxAttrs = 8;
  uint64_t id = 0;
  uint64_t parent = 0;
  uint64_t request = 0;
  const char* name = nullptr;
  int64_t start_ns = 0;
  int64_t end_ns = 0;
  Attr attrs[kMaxAttrs];
  int num_attrs = 0;
};

/// A per-thread, append-only span buffer: no locks, no sharing. Spans stay
/// in memory until the run ends and WriteSpans writes them out.
class SpanLog {
 public:
  explicit SpanLog(uint32_t thread) : thread_(thread) { spans_.reserve(4096); }

  /// A fresh request id, unique across every log of the run.
  uint64_t NewRequest() { return Tag(++requests_); }

  /// Records a finished span and returns its id.
  uint64_t Add(const char* name, uint64_t request, uint64_t parent,
               int64_t start_ns, int64_t end_ns,
               std::initializer_list<Attr> attrs = {});

  /// Starts a span whose children are recorded before it ends; Close sets
  /// its end.
  uint64_t Open(const char* name, uint64_t request, int64_t start_ns) {
    return Add(name, request, 0, start_ns, start_ns);
  }
  void Close(uint64_t id, int64_t end_ns) {
    spans_[(id & ((uint64_t{1} << 40) - 1)) - 1].end_ns = end_ns;
  }

  const std::vector<Span>& spans() const { return spans_; }

 private:
  uint64_t Tag(uint64_t n) const {
    return (static_cast<uint64_t>(thread_) + 1) << 40 | n;
  }

  uint32_t thread_;
  uint64_t requests_ = 0;
  std::vector<Span> spans_;
};

/// Writes every span as one tab-separated line:
/// id, parent, request, name, start_ns, end_ns, then key=value attributes.
/// Returns false when the file cannot be written.
bool WriteSpans(const std::string& path,
                const std::vector<const SpanLog*>& logs);

/// The metrics and operation counts one run reports. Operations are
/// counted from any thread; metrics are added by the main thread.
struct Report {
  struct Metric {
    std::string name;
    double value = 0;
    std::string unit;
  };
  std::atomic<uint64_t> attempted{0};
  std::atomic<uint64_t> failed{0};
  /// Operations that completed with a wrong answer (also in `failed`).
  std::atomic<uint64_t> wrong{0};
  std::vector<Metric> metrics;

  void Add(std::string name, double value, std::string unit) {
    metrics.push_back({std::move(name), value, std::move(unit)});
  }
  /// Counts one attempted operation and, unless `ok`, one failure
  /// described by `what` (a wrong answer when `wrong_answer`).
  void Count(bool ok, const char* what = "", bool wrong_answer = true);
  /// The first few failure descriptions.
  std::vector<std::string> Notes();

 private:
  std::mutex mutex_;
  std::vector<std::string> notes_;
};

}  // namespace perfbench

#endif  // PERFBENCH_COMMON_H_
