#include "common.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <fstream>

namespace perfbench {

uint64_t Rng::Next() {
  uint64_t z = (state_ += 0x9e3779b97f4a7c15ULL);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

Zipf::Zipf(size_t n) : cdf_(n) {
  double total = 0;
  for (size_t i = 0; i < n; ++i) {
    total += 1.0 / static_cast<double>(i + 1);
    cdf_[i] = total;
  }
  for (double& value : cdf_) value /= total;
}

size_t Zipf::Sample(Rng& rng) const {
  const double u = rng.Unit();
  const auto it = std::lower_bound(cdf_.begin(), cdf_.end(), u);
  return std::min<size_t>(static_cast<size_t>(it - cdf_.begin()),
                          cdf_.size() - 1);
}

double Quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0;
  const size_t n = values.size();
  size_t rank = static_cast<size_t>(std::ceil(q * static_cast<double>(n)));
  if (rank > 0) --rank;
  rank = std::min(rank, n - 1);
  std::nth_element(values.begin(),
                   values.begin() + static_cast<std::ptrdiff_t>(rank),
                   values.end());
  return values[rank];
}

double PeakRssMb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;  // kB -> MiB
    }
  }
  return 0;
}

uint64_t SpanLog::Add(const char* name, uint64_t request, uint64_t parent,
                      int64_t start_ns, int64_t end_ns,
                      std::initializer_list<Attr> attrs) {
  Span span;
  span.id = Tag(spans_.size() + 1);
  span.parent = parent;
  span.request = request;
  span.name = name;
  span.start_ns = start_ns;
  span.end_ns = end_ns;
  for (const Attr& attr : attrs) {
    if (span.num_attrs == Span::kMaxAttrs) break;
    span.attrs[span.num_attrs++] = attr;
  }
  spans_.push_back(span);
  return span.id;
}

bool WriteSpans(const std::string& path,
                const std::vector<const SpanLog*>& logs) {
  std::FILE* out = std::fopen(path.c_str(), "w");
  if (out == nullptr) return false;
  for (const SpanLog* log : logs) {
    for (const Span& s : log->spans()) {
      std::fprintf(out, "%llu\t%llu\t%llu\t%s\t%lld\t%lld",
                   static_cast<unsigned long long>(s.id),
                   static_cast<unsigned long long>(s.parent),
                   static_cast<unsigned long long>(s.request), s.name,
                   static_cast<long long>(s.start_ns),
                   static_cast<long long>(s.end_ns));
      for (int i = 0; i < s.num_attrs; ++i) {
        std::fprintf(out, "\t%s=%.17g", s.attrs[i].key, s.attrs[i].value);
      }
      std::fputc('\n', out);
    }
  }
  return std::fclose(out) == 0;
}

void Report::Count(bool ok, const char* what, bool wrong_answer) {
  attempted.fetch_add(1, std::memory_order_relaxed);
  if (ok) return;
  failed.fetch_add(1, std::memory_order_relaxed);
  if (wrong_answer) wrong.fetch_add(1, std::memory_order_relaxed);
  std::lock_guard<std::mutex> lock(mutex_);
  if (notes_.size() < 8) notes_.push_back(what);
}

std::vector<std::string> Report::Notes() {
  std::lock_guard<std::mutex> lock(mutex_);
  return notes_;
}

}  // namespace perfbench
