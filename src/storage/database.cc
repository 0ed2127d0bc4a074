#include "storage/database.h"

#include <unordered_set>

#include "util/hash.h"

namespace magic {

Status Database::AddFact(const Fact& fact) {
  const PredicateInfo& info = universe_->predicates().info(fact.pred);
  if (fact.args.size() != info.arity) {
    return Status::InvalidArgument(
        "fact arity mismatch for predicate '" +
        universe_->symbols().Name(info.name) + "'");
  }
  for (TermId arg : fact.args) {
    if (!universe_->terms().IsGround(arg)) {
      return Status::InvalidArgument("facts must be ground: " +
                                     universe_->TermToString(arg));
    }
  }
  GetOrCreate(fact.pred).Insert(fact.args);
  return Status::OK();
}

Status Database::AddFact(PredId pred, std::vector<TermId> args) {
  return AddFact(Fact{pred, std::move(args)});
}

void Database::Clear(PredId pred) {
  auto it = relations_.find(pred);
  if (it == relations_.end() || it->second->size() == 0) return;
  // GetOrCreate COWs the slot if a snapshot shares it, so the snapshot
  // keeps its tuples while this database forgets them.
  GetOrCreate(pred).Clear();
}

Result<WriteResult> Database::Apply(const WriteBatch& batch) {
  MAGIC_RETURN_IF_ERROR(batch.Validate(*universe_));
  return ApplyValidated(batch);
}

WriteResult Database::ApplyValidated(const WriteBatch& batch) {
  WriteResult result;
  // The whole batch runs on this thread, so the thread's chunk tally
  // brackets exactly what it copied or allocated.
  const uint64_t chunk_bytes_before = ChunkBytesAllocatedByThisThread();
  // Net accounting per touched relation: set semantics make every
  // successful insert/retract of one tuple alternate (+1/-1), so a
  // relation whose per-tuple nets are all zero ends the batch with the
  // exact tuple set it started with. A relation that was non-empty-cleared
  // loses the per-tuple bookkeeping, so it is force-cloned up front and
  // its final tuple set is compared against the pre-batch clone instead —
  // a Clear followed by reinsertion of the identical content is net-zero
  // too. Snapshots never see the transient states (shared relations are
  // cloned before mutation), so a net-zero relation is not counted in
  // `relations_mutated` and its warm cached answers stay live.
  struct TupleHash {
    size_t operator()(const std::vector<TermId>& tuple) const {
      return HashRange(tuple.begin(), tuple.end());
    }
  };
  struct PredState {
    /// Pre-batch slot value. Null when the pred had no relation before the
    /// batch (pre-batch content: empty). Non-null iff the slot was cloned,
    /// in which case this keeps the original (and its warm indices) alive
    /// for the content comparison and the net-zero restore below.
    std::shared_ptr<Relation> original;
    Relation* rel = nullptr;
    std::unordered_map<std::vector<TermId>, int, TupleHash> net;
    bool cleared = false;
  };
  // Preds a Clear op lands on are force-cloned even when their slot is
  // unshared: the clone preserves the pre-batch tuple set for the
  // identical-content comparison in the finalize loop.
  std::unordered_set<PredId> clear_preds;
  for (const WriteBatch::Op& op : batch.ops()) {
    if (op.kind == WriteBatch::OpKind::kClear) clear_preds.insert(op.pred);
  }
  std::unordered_map<PredId, PredState> touched;
  for (const WriteBatch::Op& op : batch.ops()) {
    PredState& state = touched[op.pred];
    if (state.rel == nullptr) {
      // First touch: establish the batch's mutable relation object once —
      // COW if a snapshot shares the slot, force-clone for Clear preds.
      auto it = relations_.find(op.pred);
      if (it == relations_.end()) {
        uint32_t arity = universe_->predicates().info(op.pred).arity;
        it = relations_
                 .emplace(op.pred, std::make_shared<Relation>(arity))
                 .first;
      } else if (it->second.use_count() > 1 || clear_preds.contains(op.pred)) {
        state.original = it->second;
        it->second = std::make_shared<Relation>(*state.original);
      }
      state.rel = it->second.get();
    }
    Relation& rel = *state.rel;
    switch (op.kind) {
      case WriteBatch::OpKind::kInsert:
        if (rel.Insert(op.tuple)) {
          ++result.inserted;
          ++state.net[op.tuple];
        }
        break;
      case WriteBatch::OpKind::kRetract:
        if (rel.Retract(op.tuple)) {
          ++result.retracted;
          --state.net[op.tuple];
        }
        break;
      case WriteBatch::OpKind::kClear:
        if (rel.size() != 0) {
          ++result.cleared;
          state.cleared = true;
        }
        rel.Clear();
        break;
    }
  }
  for (auto& [pred, state] : touched) {
    Relation& rel = *state.rel;
    bool net_zero;
    if (!state.cleared) {
      net_zero = true;
      for (const auto& [tuple, net] : state.net) {
        if (net != 0) {
          net_zero = false;
          break;
        }
      }
    } else {
      // Identical-content test against the pre-batch clone: equal
      // cardinality plus every final row present in the original means
      // equal sets (both are duplicate-free).
      const Relation* original = state.original.get();
      const size_t original_size = original == nullptr ? 0 : original->size();
      net_zero = rel.size() == original_size;
      if (net_zero && original != nullptr) {
        for (size_t row = 0; row < rel.size() && net_zero; ++row) {
          if (!original->Contains(rel.Row(row))) net_zero = false;
        }
      }
    }
    if (net_zero) {
      if (state.original != nullptr) {
        // The batch's scratch clone changed nothing: drop it and restore
        // the pre-batch object, whose probe indices are still warm.
        relations_[pred] = std::move(state.original);
      } else {
        // Transient retracts may have invalidated the in-place indices,
        // and the promise is that the first post-write probe pays no
        // build.
        rel.RebuildIndexes();
      }
      continue;
    }
    ++result.relations_mutated;
    rel.RebuildIndexes();
  }
  result.cow_bytes = ChunkBytesAllocatedByThisThread() - chunk_bytes_before;
  return result;
}

Relation& Database::GetOrCreate(PredId pred) {
  auto it = relations_.find(pred);
  if (it == relations_.end()) {
    uint32_t arity = universe_->predicates().info(pred).arity;
    it = relations_.emplace(pred, std::make_shared<Relation>(arity)).first;
    return *it->second;
  }
  std::shared_ptr<Relation>& slot = it->second;
  if (slot.use_count() > 1) {
    // Copy-on-write: a snapshot shares this relation, so mutations through
    // the returned reference must land on a private clone.
    slot = std::make_shared<Relation>(*slot);
  }
  return *slot;
}

const Relation* Database::Find(PredId pred) const {
  auto it = relations_.find(pred);
  return it == relations_.end() ? nullptr : it->second.get();
}

size_t Database::TotalFacts() const {
  size_t total = 0;
  for (const auto& [pred, rel] : relations_) total += rel->size();
  return total;
}

}  // namespace magic
