#include "probes.h"

#include <vector>

#include "common.h"
#include "storage/db_version.h"
#include "storage/write_batch.h"

namespace perfbench {

namespace {

using magic::TermId;

/// Runs `batches` batches of `ops` calls of `op(i)` and returns the median
/// per-call time in microseconds.
template <typename Op>
double MedianPerCallUs(int batches, int ops, Op op) {
  std::vector<double> per_call;
  int i = 0;
  for (int b = 0; b < batches; ++b) {
    const int64_t t0 = NowNs();
    for (int k = 0; k < ops; ++k) op(i++);
    per_call.push_back(static_cast<double>(NowNs() - t0) / 1e3 / ops);
  }
  return Median(per_call);
}

}  // namespace

LayerTimes RunLayerProbes(const Inputs& in, const Served& s,
                          size_t cache_entries,
                          std::shared_ptr<const magic::AnswerCache::Tuples>
                              answer,
                          uint64_t seed) {
  LayerTimes out;
  Rng rng(seed);
  const magic::PredId pred = s.write_pred(in);
  const magic::Relation& rel = *s.db->Find(pred);
  const bool large = rel.size() > 100'000;
  auto fresh = [&](size_t i) {
    const Edge& e = in.fresh_edges[i % in.fresh_edges.size()];
    return std::vector<TermId>{s.term(e.first), s.term(e.second)};
  };

  // Relation copy (the copy-on-write clone a write pays) and insert.
  {
    const int reps = large ? 3 : 200;
    std::vector<double> clone_ms;
    std::unique_ptr<magic::Relation> copy;
    for (int r = 0; r < reps; ++r) {
      copy.reset();
      const int64_t t0 = NowNs();
      copy = std::make_unique<magic::Relation>(rel);
      clone_ms.push_back(static_cast<double>(NowNs() - t0) / 1e6);
    }
    out.clone_ms = Median(clone_ms);
    out.insert_us = MedianPerCallUs(10, 100, [&](int i) {
      const std::vector<TermId> tuple = fresh(static_cast<size_t>(i));
      copy->Insert(tuple);
    });
  }

  // Probe of the first-column index, keys drawn from stored rows.
  {
    std::vector<TermId> keys;
    for (int i = 0; i < 4096; ++i) {
      keys.push_back(rel.Row(rng.Below(rel.size()))[0]);
    }
    std::vector<uint32_t> rows;
    out.probe_us = MedianPerCallUs(20, 500, [&](int i) {
      rows.clear();
      const TermId key = keys[static_cast<size_t>(i) % keys.size()];
      rel.Probe(/*mask=*/1, {&key, 1}, 0, rel.size(), &rows);
    });
  }

  // AnswerCache at the service's entry count, every entry the size of a
  // real answer (shared, so the probe costs no memory per entry).
  {
    magic::AnswerCache cache;
    const size_t entries = cache_entries > 0 ? cache_entries : 1;
    for (size_t e = 0; e < entries; ++e) {
      cache.Put(1, {static_cast<TermId>(e)}, 1, answer);
    }
    out.get_us = MedianPerCallUs(20, 500, [&](int) {
      const TermId key = static_cast<TermId>(rng.Below(entries));
      (void)cache.Get(1, {&key, 1}, 1);
    });
    out.put_us = MedianPerCallUs(20, 20, [&](int i) {
      cache.Put(1, {static_cast<TermId>(entries + static_cast<size_t>(i))},
                1, answer);
    });
  }

  // VersionChain over the base, then commits on a structural copy (the
  // copy-on-write clone keeps the base and the service untouched).
  {
    magic::VersionChain chain(*s.db);
    out.pin_us = MedianPerCallUs(20, 5000, [&](int) {
      std::shared_ptr<const magic::DatabaseVersion> v = chain.Pin();
    });
  }
  {
    magic::Database copy(*s.db);
    magic::VersionChain chain(copy);
    const int reps = large ? 3 : 50;
    std::vector<double> commit_ms;
    for (int r = 0; r < reps; ++r) {
      magic::WriteBatch batch;
      batch.Insert(pred, fresh(static_cast<size_t>(r)));
      const int64_t t0 = NowNs();
      (void)chain.Commit(copy, batch);
      commit_ms.push_back(static_cast<double>(NowNs() - t0) / 1e6);
    }
    out.commit_ms = Median(commit_ms);
  }
  return out;
}

}  // namespace perfbench
