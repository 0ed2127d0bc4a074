#include "obs/metrics.h"

#include <cinttypes>
#include <cstdio>
#include <cstdlib>

#include "util/json_writer.h"

namespace magic {
namespace obs {

void HistogramSnapshot::Merge(const HistogramSnapshot& other) {
  count += other.count;
  sum += other.sum;
  for (size_t i = 0; i < kBuckets; ++i) buckets[i] += other.buckets[i];
}

double HistogramSnapshot::Quantile(double q) const {
  if (count == 0) return 0.0;
  if (q < 0.0) q = 0.0;
  if (q > 1.0) q = 1.0;
  // Rank of the target sample, 1-based; q=1 is the last sample.
  uint64_t rank = static_cast<uint64_t>(q * static_cast<double>(count));
  if (rank < 1) rank = 1;
  if (rank > count) rank = count;
  uint64_t seen = 0;
  for (size_t i = 0; i < kBuckets; ++i) {
    if (buckets[i] == 0) continue;
    if (seen + buckets[i] < rank) {
      seen += buckets[i];
      continue;
    }
    // The target sample is in bucket i; interpolate linearly between the
    // bucket's bounds by its position among the bucket's samples.
    const uint64_t lower = Histogram::BucketLowerBound(i);
    const uint64_t upper = i + 1 < kBuckets
                               ? Histogram::BucketLowerBound(i + 1)
                               : lower + (lower >> 2);  // top bucket width
    const double within =
        static_cast<double>(rank - seen) / static_cast<double>(buckets[i]);
    return static_cast<double>(lower) +
           within * static_cast<double>(upper - lower);
  }
  return 0.0;  // unreachable when count matches the buckets
}

HistogramSnapshot Histogram::Snapshot() const {
  HistogramSnapshot snap;
  // Per-bucket loads are individually relaxed; the count/sum pair is read
  // last so `count` never exceeds the bucket total by more than the
  // records that raced the scan — telemetry-grade consistency.
  for (size_t i = 0; i < kBuckets; ++i) {
    snap.buckets[i] = buckets_[i].load(std::memory_order_relaxed);
  }
  snap.count = count_.load(std::memory_order_relaxed);
  snap.sum = sum_.load(std::memory_order_relaxed);
  return snap;
}

uint64_t Histogram::BucketLowerBound(size_t index) {
  if (index < 4) return index;
  const size_t r = index / 4;     // octave: bucket covers msb == r + 1
  const size_t sub = index % 4;   // 2-bit sub-bucket below the msb
  return static_cast<uint64_t>(4 + sub) << (r - 1);
}

std::string MetricsRegistry::EntryKey(const std::string& name,
                                      const Labels& labels) {
  std::string key = name;
  for (const auto& [label, value] : labels) {
    key += '\x1f';
    key += label;
    key += '\x1f';
    key += value;
  }
  return key;
}

std::string MetricsRegistry::RenderLabels(const Labels& labels,
                                          const std::string& extra) {
  if (labels.empty() && extra.empty()) return std::string();
  std::string out = "{";
  bool first = true;
  for (const auto& [label, value] : labels) {
    if (!first) out += ',';
    first = false;
    out += label;
    out += "=\"";
    // Prometheus label values escape backslash, double-quote, newline.
    for (char c : value) {
      switch (c) {
        case '\\':
          out += "\\\\";
          break;
        case '"':
          out += "\\\"";
          break;
        case '\n':
          out += "\\n";
          break;
        default:
          out += c;
      }
    }
    out += '"';
  }
  if (!extra.empty()) {
    if (!first) out += ',';
    out += extra;
  }
  out += '}';
  return out;
}

MetricsRegistry::Entry* MetricsRegistry::FindOrCreate(
    const std::string& name, const Labels& labels, MetricKind kind,
    const std::string& help) {
  MutexLock lock(mutex_);
  Family& family = families_.try_emplace(name, Family{kind, help, {}})
                       .first->second;
  if (family.kind != kind) {
    std::fprintf(stderr, "obs: metric \"%s\" registered with two kinds\n",
                 name.c_str());
    std::abort();
  }
  const std::string key = EntryKey(name, labels);
  if (auto it = index_.find(key); it != index_.end()) return it->second;
  auto entry = std::make_unique<Entry>();
  entry->labels = labels;
  switch (kind) {
    case MetricKind::kCounter:
      entry->counter = std::make_unique<Counter>();
      break;
    case MetricKind::kGauge:
      entry->gauge = std::make_unique<Gauge>();
      break;
    case MetricKind::kHistogram:
      entry->histogram = std::make_unique<Histogram>();
      break;
  }
  Entry* raw = entry.get();
  index_.emplace(key, raw);
  family.entries.push_back(std::move(entry));
  return raw;
}

Counter* MetricsRegistry::GetCounter(const std::string& name,
                                     const Labels& labels,
                                     const std::string& help) {
  return FindOrCreate(name, labels, MetricKind::kCounter, help)->counter.get();
}

Gauge* MetricsRegistry::GetGauge(const std::string& name, const Labels& labels,
                                 const std::string& help) {
  return FindOrCreate(name, labels, MetricKind::kGauge, help)->gauge.get();
}

Histogram* MetricsRegistry::GetHistogram(const std::string& name,
                                         const Labels& labels,
                                         const std::string& help) {
  return FindOrCreate(name, labels, MetricKind::kHistogram, help)
      ->histogram.get();
}

namespace {

const char* KindName(MetricKind kind) {
  switch (kind) {
    case MetricKind::kCounter:
      return "counter";
    case MetricKind::kGauge:
      return "gauge";
    case MetricKind::kHistogram:
      return "histogram";
  }
  return "?";
}

/// A histogram cell's JSON members, written into the caller's open object.
void WriteHistogramJson(const HistogramSnapshot& h, JsonWriter& w) {
  w.Key("count").Uint(h.count);
  w.Key("sum_ns").Uint(h.sum);
  w.Key("p50_ns").Double(h.Quantile(0.5));
  w.Key("p95_ns").Double(h.Quantile(0.95));
  w.Key("p99_ns").Double(h.Quantile(0.99));
}

}  // namespace

std::string MetricsRegistry::PrometheusText() const {
  MutexLock lock(mutex_);
  std::string out;
  char line[160];
  // One `# HELP`/`# TYPE` block per metric name, its instruments under it.
  for (const auto& [name, family] : families_) {
    if (!family.help.empty()) {
      out += "# HELP " + name + " " + family.help + "\n";
    }
    out += "# TYPE " + name + " " + KindName(family.kind) + "\n";
    for (const auto& entry : family.entries) {
      switch (family.kind) {
        case MetricKind::kCounter: {
          std::snprintf(line, sizeof(line), " %" PRIu64 "\n",
                        entry->counter->value());
          out += name + "_total" + RenderLabels(entry->labels) + line;
          break;
        }
        case MetricKind::kGauge: {
          std::snprintf(line, sizeof(line), " %" PRId64 "\n",
                        entry->gauge->value());
          out += name + RenderLabels(entry->labels) + line;
          break;
        }
        case MetricKind::kHistogram: {
          const HistogramSnapshot snap = entry->histogram->Snapshot();
          // Sparse cumulative buckets: emit an le bound only where the
          // cumulative count changes, plus the mandatory +Inf. Valid
          // Prometheus (bucket sets may be sparse) and keeps a 256-bucket
          // histogram's exposition proportional to its occupied range.
          uint64_t cumulative = 0;
          for (size_t i = 0; i < HistogramSnapshot::kBuckets; ++i) {
            if (snap.buckets[i] == 0) continue;
            cumulative += snap.buckets[i];
            // A bucket holds values in [lower(i), lower(i+1)), so its
            // inclusive `le` bound is the next bucket's lower bound - 1.
            const uint64_t le =
                i + 1 < HistogramSnapshot::kBuckets
                    ? Histogram::BucketLowerBound(i + 1) - 1
                    : Histogram::BucketLowerBound(i);
            std::snprintf(line, sizeof(line), "le=\"%" PRIu64 "\"", le);
            out += name + "_bucket" + RenderLabels(entry->labels, line);
            std::snprintf(line, sizeof(line), " %" PRIu64 "\n", cumulative);
            out += line;
          }
          out += name + "_bucket" +
                 RenderLabels(entry->labels, "le=\"+Inf\"");
          std::snprintf(line, sizeof(line), " %" PRIu64 "\n", snap.count);
          out += line;
          std::snprintf(line, sizeof(line), " %" PRIu64 "\n", snap.sum);
          out += name + "_sum" + RenderLabels(entry->labels) + line;
          std::snprintf(line, sizeof(line), " %" PRIu64 "\n", snap.count);
          out += name + "_count" + RenderLabels(entry->labels) + line;
          break;
        }
      }
    }
  }
  return out;
}

std::string MetricsRegistry::Json() const {
  MutexLock lock(mutex_);
  JsonWriter w;
  w.BeginObject();
  for (const auto& [name, family] : families_) {
    w.Key(name).BeginObject();
    w.Key("type").String(KindName(family.kind));
    w.Key("help").String(family.help);
    w.Key("cells").BeginArray();
    for (const auto& entry : family.entries) {
      w.BeginObject();
      w.Key("labels").BeginObject();
      for (const auto& [label, value] : entry->labels) {
        w.Key(label).String(value);
      }
      w.EndObject();
      switch (family.kind) {
        case MetricKind::kCounter:
          w.Key("value").Uint(entry->counter->value());
          break;
        case MetricKind::kGauge:
          w.Key("value").Int(entry->gauge->value());
          break;
        case MetricKind::kHistogram:
          WriteHistogramJson(entry->histogram->Snapshot(), w);
          break;
      }
      w.EndObject();
    }
    w.EndArray();
    w.EndObject();
  }
  w.EndObject();
  return w.str();
}

}  // namespace obs
}  // namespace magic
