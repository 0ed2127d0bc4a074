#ifndef MAGIC_STORAGE_DB_VERSION_H_
#define MAGIC_STORAGE_DB_VERSION_H_

#include <atomic>
#include <cstdint>
#include <memory>

#include "storage/database.h"
#include "util/annotated_mutex.h"

namespace magic {

/// One immutable published database version. Holds a structural-sharing
/// Database snapshot (a map of shared_ptr<Relation> slots — relations are
/// shared with the base until the base copy-on-writes them) and the
/// version number readers and the AnswerCache key by. Readers pin one of
/// these for a whole evaluation; nothing in it ever mutates, so no
/// read-side lock exists. Retirement is the shared_ptr refcount itself —
/// when the last pin (or the chain head) drops, the destructor reports the
/// retirement and the relations the snapshot was the last owner of are
/// freed.
class DatabaseVersion {
 public:
  DatabaseVersion(const Database& snapshot, uint64_t version,
                  std::atomic<uint64_t>* retired)
      : db_(snapshot), version_(version), retired_(retired) {}
  ~DatabaseVersion() {
    if (retired_ != nullptr) {
      retired_->fetch_add(1, std::memory_order_acq_rel);
    }
  }
  DatabaseVersion(const DatabaseVersion&) = delete;
  DatabaseVersion& operator=(const DatabaseVersion&) = delete;

  const Database& db() const { return db_; }
  uint64_t version() const { return version_; }

 private:
  const Database db_;
  const uint64_t version_;
  std::atomic<uint64_t>* const retired_;
};

/// The MVCC spine: the published chain of DatabaseVersions over one base
/// Database that only Commit mutates.
///
///   * Readers call Pin() at dispatch — a shared_ptr copy under an
///     uncontended leaf mutex — and evaluate against the pinned version's
///     Database for as long as they like. A pin never waits for a commit's
///     apply and a commit never invalidates a pin.
///   * Writers call Commit(): the batch is applied to the base (shared
///     relations are cloned before mutation, so every pinned snapshot
///     keeps its exact tuple sets), and iff the WriteResult reports a
///     net-mutated relation, version N+1 is built off to the side and
///     swapped in as the head. No drain, no waiting on in-flight
///     fixpoints; a no-op batch publishes nothing and cached answers stay
///     warm. A pin concurrent with a commit sees version N or N+1, never
///     a torn mix, because the base is only ever snapshotted by the
///     committing writer itself.
class VersionChain {
 public:
  /// Publishes version 1 as a snapshot of `base` now. From then on the
  /// base may change only through Commit.
  explicit VersionChain(const Database& base);

  /// The current head version for this evaluation.
  std::shared_ptr<const DatabaseVersion> Pin() const EXCLUDES(head_mutex_);

  /// Current version number for the warm-hit inline probe: one atomic
  /// load, no pin.
  uint64_t current_version() const {
    return version_.load(std::memory_order_acquire);
  }

  /// Applies a pre-validated batch to `base` (which must be the base this
  /// chain was constructed over) and publishes the next version iff
  /// `relations_mutated > 0`. The caller serializes Commit calls
  /// (QueryService's FIFO ticket does); concurrent Pin()s need nothing.
  WriteResult Commit(Database& base, const WriteBatch& batch)
      EXCLUDES(head_mutex_);

  /// Versions published so far, including the constructor's version 1.
  uint64_t versions_published() const {
    return published_.load(std::memory_order_acquire);
  }
  /// Versions fully retired (destroyed after their last pin dropped).
  uint64_t versions_retired() const {
    return retired_.load(std::memory_order_acquire);
  }
  /// Versions still alive: the head plus any older versions kept alive
  /// only by reader pins.
  uint64_t versions_live() const {
    return versions_published() - versions_retired();
  }

 private:
  /// Retirement counter, written from DatabaseVersion destructors; must
  /// outlive head_ (declared first => destroyed last).
  std::atomic<uint64_t> retired_{0};
  std::atomic<uint64_t> published_{0};
  /// head_->version(), readable without the mutex.
  std::atomic<uint64_t> version_{0};
  /// Guards only the head pointer: held for a pointer copy or swap, never
  /// across an apply, a snapshot build, or a version's destruction.
  mutable Mutex head_mutex_;
  std::shared_ptr<const DatabaseVersion> head_ GUARDED_BY(head_mutex_);
};

}  // namespace magic

#endif  // MAGIC_STORAGE_DB_VERSION_H_
