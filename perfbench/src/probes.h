// Layer probes: single layers timed in isolation at the workload's real
// size, so a per-layer number does not depend on what else the run did.

#ifndef PERFBENCH_PROBES_H_
#define PERFBENCH_PROBES_H_

#include <cstddef>
#include <memory>

#include "cache/answer_cache.h"
#include "workload.h"

namespace perfbench {

struct LayerTimes {
  double clone_ms = 0;   // Relation copy constructor, written relation
  double insert_us = 0;  // Relation::Insert of a new tuple
  double probe_us = 0;   // Relation::Probe on the first-column index
  double pin_us = 0;     // VersionChain::Pin
  double commit_ms = 0;  // VersionChain::Commit of a one-tuple batch
  double get_us = 0;     // AnswerCache::Get hit
  double put_us = 0;     // AnswerCache::Put of a new key
};

/// Runs every probe against `served`'s base database, which must be
/// quiescent. `cache_entries` and `answer` size the standalone AnswerCache
/// like the service's own at the end of the read window.
LayerTimes RunLayerProbes(const Inputs& in, const Served& served,
                          size_t cache_entries,
                          std::shared_ptr<const magic::AnswerCache::Tuples>
                              answer,
                          uint64_t seed);

}  // namespace perfbench

#endif  // PERFBENCH_PROBES_H_
