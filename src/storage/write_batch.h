#ifndef MAGIC_STORAGE_WRITE_BATCH_H_
#define MAGIC_STORAGE_WRITE_BATCH_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "ast/universe.h"
#include "util/status.h"

namespace magic {

/// An ordered group of EDB mutations — inserts, retracts, and per-predicate
/// clears — applied as one unit. The batch itself is a plain value:
/// building one performs no validation and touches no storage, so batches
/// can be assembled on any thread and shipped to the writer.
///
/// Application (Database::Apply, or QueryService::ApplyWrites for a
/// served database) is atomic with respect to readers: either the whole batch
/// is visible or none of it. Ops apply in insertion order, so a batch may
/// retract a tuple it inserted earlier (net no-op) or re-insert after a
/// clear. Set semantics make most orders commute; order only matters
/// between ops touching the same tuple or a clear of the same predicate.
class WriteBatch {
 public:
  enum class OpKind : uint8_t {
    kInsert,   // add a tuple (duplicate = no-op)
    kRetract,  // remove a tuple (absent = no-op)
    kClear,    // remove every tuple of the predicate (empty = no-op)
  };
  struct Op {
    OpKind kind = OpKind::kInsert;
    PredId pred = 0;
    std::vector<TermId> tuple;  // empty for kClear
  };

  void Insert(PredId pred, std::vector<TermId> tuple) {
    ops_.push_back(Op{OpKind::kInsert, pred, std::move(tuple)});
  }
  void Retract(PredId pred, std::vector<TermId> tuple) {
    ops_.push_back(Op{OpKind::kRetract, pred, std::move(tuple)});
  }
  void Clear(PredId pred) { ops_.push_back(Op{OpKind::kClear, pred, {}}); }

  const std::vector<Op>& ops() const { return ops_; }
  bool empty() const { return ops_.empty(); }
  size_t size() const { return ops_.size(); }

  /// Checks every op against `u`'s declarations: the predicate id must be
  /// declared, insert/retract tuples must match its declared arity, and
  /// every term must be ground. Validation is separate from application so
  /// a malformed batch can be rejected before any ticket or lock is taken.
  Status Validate(const Universe& u) const;

 private:
  std::vector<Op> ops_;
};

/// Parses one mutation line — "+fact." inserts, "-fact." retracts, a bare
/// "fact." inserts — into `*batch`. A missing trailing period is
/// tolerated. Parsing interns into `universe` (new constants are safe at
/// any time on a root universe — the interning tables are internally
/// synchronized — and a new predicate *declaration* is permanent but
/// rejected by CheckFrozenPredicates below before it can be served).
/// Shared by the magicdb REPL, the apply-file loader, and the wire APPLY
/// verb, so all three accept the same grammar and emit the same errors.
Status ParseMutationLine(const std::string& text,
                         const std::shared_ptr<Universe>& universe,
                         WriteBatch* batch);

/// The serving-surface predicate freeze: compiled plans overlay the base
/// predicate table, so a predicate declared after serving started must not
/// be served — its numeric id range collides with live plan overlays
/// through the shared Database. `frozen_preds` is the predicate-table size
/// captured when serving started; any op naming a predicate at or above it
/// fails FailedPrecondition with a message naming the predicate, e.g.
/// "predicate 'flight/2' was declared after serving started". Enforcement
/// is by id range, NOT by detecting table growth: a stray declaration is
/// permanent (and harmless while unused), so the same line resubmitted
/// must still be rejected.
Status CheckFrozenPredicate(const Universe& u, PredId pred,
                            size_t frozen_preds);
Status CheckFrozenPredicates(const Universe& u, const WriteBatch& batch,
                             size_t frozen_preds);

/// What one applied batch changed. `relations_mutated` counts relations
/// whose tuple set NET-changed, and it alone decides publication:
/// VersionChain::Commit publishes a new version iff it is nonzero. A
/// duplicate-only or net-zero batch reports zero, publishes nothing, and
/// leaves warm cache entries live; its `inserted`/`retracted`/`cleared`
/// still count the ops that ran. `cow_bytes` is the relation storage the
/// batch copied out of chunks shared with older versions or allocated
/// fresh (a clone itself copies none), so a write's cost follows the
/// chunks it touched, not the relation's size.
struct WriteResult {
  size_t inserted = 0;   // tuples that were new
  size_t retracted = 0;  // tuples that were present
  size_t cleared = 0;    // non-empty relations cleared
  size_t relations_mutated = 0;
  uint64_t cow_bytes = 0;
};

}  // namespace magic

#endif  // MAGIC_STORAGE_WRITE_BATCH_H_
