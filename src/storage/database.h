#ifndef MAGIC_STORAGE_DATABASE_H_
#define MAGIC_STORAGE_DATABASE_H_

#include <memory>
#include <unordered_map>

#include "ast/program.h"
#include "storage/relation.h"
#include "storage/write_batch.h"
#include "util/status.h"

namespace magic {

/// The extensional database D: a finite set of finite relations over a
/// Universe shared with the programs evaluated against it.
///
/// Relations live behind shared_ptr slots, which makes copying a Database
/// an O(#relations) structural-sharing snapshot: the copy shares every
/// Relation object with the original. Mutation is copy-on-write —
/// GetOrCreate and ApplyValidated clone a relation whose slot is shared
/// before touching it — so a snapshot taken before a write keeps observing
/// the exact pre-write tuple sets forever. The clone itself shares the
/// relation's storage chunks (see Relation's copy constructor), so a write
/// copies only the chunks it touches (WriteResult::cow_bytes), and a
/// snapshot pinned across K later writes holds, beyond the head, only the
/// chunks those writes replaced. This is the storage half of the
/// MVCC serving design: VersionChain publishes these snapshots as
/// immutable DatabaseVersions that readers pin for the whole evaluation.
/// Once a database is served, every write goes through ApplyValidated
/// (VersionChain::Commit, QueryService::ApplyWrites), whose WriteResult
/// is what decides whether a new version is published; AddFact, Clear and
/// GetOrCreate are for building a database before it is served.
class Database {
 public:
  explicit Database(std::shared_ptr<Universe> universe)
      : universe_(std::move(universe)) {}

  /// Structural-sharing snapshot (see class comment).
  Database(const Database&) = default;
  Database& operator=(const Database&) = delete;

  const std::shared_ptr<Universe>& universe() const { return universe_; }
  Universe& u() const { return *universe_; }

  /// Adds a ground fact; rejects non-ground or wrong-arity tuples.
  /// Returns OK for duplicates (idempotent insert).
  Status AddFact(const Fact& fact);

  /// Convenience: add p(args...) built from constants by name.
  Status AddFact(PredId pred, std::vector<TermId> args);

  /// Removes every fact of `pred` (a no-op when the relation was never
  /// created or is already empty). Requires exclusive access, like
  /// AddFact.
  void Clear(PredId pred);

  /// Applies one write batch: ops in insertion order, and
  /// `relations_mutated` counts the relations whose tuple set NET-changed
  /// — a duplicate-only batch counts none, and neither does one whose
  /// transient changes cancel out (an insert of an absent tuple followed
  /// by its retract, or a Clear followed by reinsertion of the identical
  /// content); snapshots never see intermediate states, so no invalidation
  /// is owed. Touched relations' probe indices are rebuilt before
  /// returning so the first post-write probe pays no build. Returns what
  /// changed, or the batch's validation error with nothing applied.
  /// Requires exclusive access over the whole call, like AddFact —
  /// QueryService::ApplyWrites provides that with its FIFO commit ticket;
  /// pinned snapshot readers need no exclusion at all because every
  /// shared relation is cloned before it is mutated.
  Result<WriteResult> Apply(const WriteBatch& batch);

  /// Apply without re-validating: the caller vouches that
  /// `batch.Validate(*universe())` passed (QueryService::ApplyWrites runs
  /// the check before queueing for its commit ticket, so the serialized
  /// window pays no second pass over the batch). Applying an unvalidated
  /// batch is a checked error on arity mismatches and undefined on the
  /// rest.
  WriteResult ApplyValidated(const WriteBatch& batch);

  /// Mutable access to one relation, cloning it first when the slot is
  /// shared with a snapshot (copy-on-write) so the snapshot's view never
  /// changes. The reference is stable until the next COW of the same
  /// pred; don't hold it across snapshot creation if you mean to mutate.
  Relation& GetOrCreate(PredId pred);
  const Relation* Find(PredId pred) const;

  size_t FactCount(PredId pred) const {
    const Relation* r = Find(pred);
    return r == nullptr ? 0 : r->size();
  }
  size_t TotalFacts() const;

  const std::unordered_map<PredId, std::shared_ptr<Relation>>& relations()
      const {
    return relations_;
  }

 private:
  std::shared_ptr<Universe> universe_;
  std::unordered_map<PredId, std::shared_ptr<Relation>> relations_;
};

}  // namespace magic

#endif  // MAGIC_STORAGE_DATABASE_H_
