// Layer microbench for interning and index builds: the memory a loaded
// database pays before and beside its rows.
//
//   ./build/bench_intern
//
// Prints one JSON line per measurement:
//   * intern: kConstants fresh constants interned through Universe::Constant
//     (symbol table plus term arena), then all of them interned again. ns
//     per new and per repeat intern, and bytes per constant as the
//     process's resident set growth (VmRSS in /proc/self/status) over the
//     fresh pass.
//   * intern_kinds: kConstants integers interned through Universe::Integer,
//     then as many arity-2 compounds f(i, i + 1) over them. Resident bytes
//     per integer and per compound, each over its own pass (the compounds'
//     bytes exclude their integer children).
//   * index_build: the first-column index of an arity-2 relation of kRows
//     rows over kKeys keys (uniform random, like perfbench's DAG), built
//     two ways: from scratch on the first probe, and extended row by row
//     past a one-row watermark. ms, resident bytes per indexed row, and the
//     chunk bytes the build allocated (ChunkBytesAllocatedByThisThread,
//     which counts every block allocated, including the ones a doubling
//     frees).
// Single-threaded; numbers are from one run, so repeat it for a spread.

#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <malloc.h>
#include <random>
#include <string>
#include <vector>

#include "ast/universe.h"
#include "storage/relation.h"

namespace magic {
namespace {

constexpr size_t kConstants = 1'000'000;
constexpr size_t kRows = 1'000'000;
constexpr uint32_t kKeys = 125'000;

/// Resident set size of this process in bytes (VmRSS), or 0 if unreadable.
/// Returns freed heap memory to the system first, so a delta counts what
/// the measured step holds, not what it reused from an earlier step.
int64_t ResidentBytes() {
  malloc_trim(0);
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmRSS:", 0) == 0) {
      return std::strtoll(line.c_str() + 6, nullptr, 10) * 1024;
    }
  }
  return 0;
}

double SecondsSince(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       start)
      .count();
}

void BenchIntern(size_t constants) {
  std::vector<std::string> names;
  names.reserve(constants);
  for (size_t i = 0; i < constants; ++i) {
    names.push_back("n" + std::to_string(i));
  }
  Universe u;
  uint64_t checksum = 0;

  const int64_t rss_before = ResidentBytes();
  auto start = std::chrono::steady_clock::now();
  for (const std::string& name : names) checksum += u.Constant(name);
  const double fresh_s = SecondsSince(start);
  const int64_t rss_after = ResidentBytes();

  start = std::chrono::steady_clock::now();
  for (const std::string& name : names) checksum -= u.Constant(name);
  const double repeat_s = SecondsSince(start);
  if (checksum != 0 || u.terms().size() != constants) {
    std::fprintf(stderr, "bench_intern: re-interning changed an id\n");
    std::exit(1);
  }
  std::printf(
      "{\"bench\":\"intern\",\"constants\":%zu,\"ns_per_new\":%.1f,"
      "\"ns_per_repeat\":%.1f,\"bytes_per_constant\":%.1f}\n",
      constants, fresh_s * 1e9 / static_cast<double>(constants),
      repeat_s * 1e9 / static_cast<double>(constants),
      static_cast<double>(rss_after - rss_before) /
          static_cast<double>(constants));
}

void BenchInternKinds(size_t terms) {
  Universe u;
  const SymbolId functor = u.Sym("f");
  std::vector<TermId> integers;
  integers.reserve(terms + 1);

  const int64_t rss_before = ResidentBytes();
  for (size_t i = 0; i <= terms; ++i) {
    integers.push_back(u.Integer(static_cast<int64_t>(i)));
  }
  const int64_t rss_integers = ResidentBytes();
  for (size_t i = 0; i < terms; ++i) {
    u.terms().MakeCompound(functor, {integers[i], integers[i + 1]});
  }
  const int64_t rss_compounds = ResidentBytes();
  if (u.terms().size() != 2 * terms + 1) {
    std::fprintf(stderr, "bench_intern: a fresh term was deduplicated\n");
    std::exit(1);
  }
  std::printf(
      "{\"bench\":\"intern_kinds\",\"terms\":%zu,"
      "\"bytes_per_integer\":%.1f,\"bytes_per_compound2\":%.1f}\n",
      terms,
      static_cast<double>(rss_integers - rss_before) /
          static_cast<double>(terms + 1),
      static_cast<double>(rss_compounds - rss_integers) /
          static_cast<double>(terms));
}

/// One first-column index build over `rel`'s rows; `prepare` runs before
/// the clock starts and `build` is what it times.
template <typename Prepare, typename Build>
void TimeIndexBuild(const char* shape, Relation* rel, Prepare prepare,
                    Build build) {
  prepare();
  const int64_t rss_before = ResidentBytes();
  const uint64_t chunk_before = ChunkBytesAllocatedByThisThread();
  const auto start = std::chrono::steady_clock::now();
  build();
  const double build_s = SecondsSince(start);
  const double rows = static_cast<double>(rel->size());
  std::printf(
      "{\"bench\":\"index_build\",\"shape\":\"%s\",\"rows\":%zu,"
      "\"ms\":%.1f,\"resident_bytes_per_row\":%.2f,"
      "\"chunk_bytes_allocated\":%llu}\n",
      shape, rel->size(), build_s * 1e3,
      static_cast<double>(ResidentBytes() - rss_before) / rows,
      static_cast<unsigned long long>(ChunkBytesAllocatedByThisThread() -
                                      chunk_before));
}

void BenchIndexBuild(size_t rows, uint32_t keys) {
  std::mt19937_64 rng(1);
  std::vector<std::vector<TermId>> tuples(rows);
  for (size_t i = 0; i < rows; ++i) {
    tuples[i] = {static_cast<TermId>(rng() % keys), static_cast<TermId>(i)};
  }
  // Probes by the first column; only the index build they trigger is timed.
  const std::vector<TermId> key = {tuples[0][0]};
  std::vector<uint32_t> out;
  // Both relations stay alive, so the second build's blocks cannot reuse
  // memory the first one freed.
  Relation scratch(2);
  TimeIndexBuild(
      "from_scratch", &scratch,
      [&] {
        for (const auto& t : tuples) scratch.Insert(t);
      },
      [&] { scratch.Probe(0b01, key, 0, 1, &out); });
  Relation incremental(2);
  TimeIndexBuild(
      "incremental", &incremental,
      [&] {
        incremental.Insert(tuples[0]);
        incremental.Probe(0b01, key, 0, 1, &out);  // watermark 1
        for (const auto& t : tuples) incremental.Insert(t);
      },
      [&] { incremental.RebuildIndexes(); });
}

}  // namespace
}  // namespace magic

int main() {
  magic::BenchIntern(magic::kConstants);
  magic::BenchInternKinds(magic::kConstants);
  magic::BenchIndexBuild(magic::kRows, magic::kKeys);
  return 0;
}
