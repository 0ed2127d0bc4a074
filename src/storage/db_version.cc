#include "storage/db_version.h"

#include <utility>

namespace magic {

VersionChain::VersionChain(const Database& base) {
  MutexLock lock(head_mutex_);
  head_ = std::make_shared<const DatabaseVersion>(base, /*version=*/1,
                                                  &retired_);
  version_.store(1, std::memory_order_release);
  published_.store(1, std::memory_order_release);
}

std::shared_ptr<const DatabaseVersion> VersionChain::Pin() const {
  MutexLock lock(head_mutex_);
  return head_;
}

WriteResult VersionChain::Commit(Database& base, const WriteBatch& batch) {
  WriteResult result = base.ApplyValidated(batch);
  // No net change: nothing to publish, cached answers stay warm.
  if (result.relations_mutated == 0) return result;
  // Net change: build version N+1 outside the lock, then swap it in.
  // Readers pinned to N keep their snapshot (its relations were cloned
  // out from under them, never mutated); new pins see N+1 from here on.
  const uint64_t next_version = version_.load(std::memory_order_acquire) + 1;
  std::shared_ptr<const DatabaseVersion> retiring =
      std::make_shared<const DatabaseVersion>(base, next_version, &retired_);
  {
    MutexLock lock(head_mutex_);
    head_.swap(retiring);
    version_.store(next_version, std::memory_order_release);
  }
  published_.fetch_add(1, std::memory_order_acq_rel);
  // `retiring` now holds the old head. If no reader pins it, dropping it
  // here frees the relations only it still shared — outside the lock.
  return result;
}

}  // namespace magic
