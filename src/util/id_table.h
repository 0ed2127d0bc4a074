#ifndef MAGIC_UTIL_ID_TABLE_H_
#define MAGIC_UTIL_ID_TABLE_H_

#include <algorithm>
#include <bit>
#include <cstddef>
#include <cstdint>
#include <optional>
#include <vector>

#include "util/check.h"
#include "util/hash.h"

namespace magic {

/// The lookup table of an interning arena: an open-addressing set of the
/// dense ids 0, 1, 2, ..., whose keys live in the arena, not here.
///
/// Layout: a power-of-two vector of slots holding id + 1 (0 = empty), at
/// most 3/4 full, probed linearly from HashSlot(hash) (the shape of
/// Relation's dedup table). The table holds 4 bytes per slot and nothing
/// per key: a probe compares keys through the caller's `equal(id)`, and a
/// doubling re-slots every id by the caller's `hash_of(id)`, so no hash
/// is stored either. Ids are never removed.
///
/// Not synchronized: the owner guards every call with its writer lock
/// (or, for Find, at least a shared one).
class IdTable {
 public:
  /// The stored id whose key `equal(id)` accepts, probing from `hash`'s
  /// slot; nullopt when the chain ends first.
  template <typename Equal>
  std::optional<uint32_t> Find(uint64_t hash, Equal&& equal) const {
    if (slots_.empty()) return std::nullopt;
    const size_t mask = slots_.size() - 1;
    for (size_t slot = HashSlot(hash, shift_);; slot = (slot + 1) & mask) {
      const uint32_t stored = slots_[slot];
      if (stored == 0) return std::nullopt;
      if (equal(stored - 1)) return stored - 1;
    }
  }

  /// Stores the next id (the number of ids stored so far) for a key that
  /// hashes to `hash` and is not stored yet, and returns it. When one more
  /// id would pass 3/4 full the table doubles first (16 slots when empty),
  /// re-slotting every stored id by `hash_of(id)`.
  template <typename HashOf>
  uint32_t Add(uint64_t hash, HashOf&& hash_of) {
    MAGIC_CHECK(size_ < UINT32_MAX);  // id + 1 must fit a slot
    if ((size_t{size_} + 1) * 4 > slots_.size() * 3) {
      slots_.assign(std::max(kMinSlots, slots_.size() * 2), 0);
      shift_ = static_cast<uint32_t>(64 - std::countr_zero(slots_.size()));
      // Keys are distinct, so re-slotting needs no comparisons.
      for (uint32_t id = 0; id < size_; ++id) Place(hash_of(id), id);
    }
    Place(hash, size_);
    return size_++;
  }

 private:
  static constexpr size_t kMinSlots = 16;

  void Place(uint64_t hash, uint32_t id) {
    const size_t mask = slots_.size() - 1;
    size_t slot = HashSlot(hash, shift_);
    while (slots_[slot] != 0) slot = (slot + 1) & mask;
    slots_[slot] = id + 1;
  }

  std::vector<uint32_t> slots_;
  uint32_t shift_ = 64;  // 64 - log2(slots_.size())
  uint32_t size_ = 0;    // ids stored
};

}  // namespace magic

#endif  // MAGIC_UTIL_ID_TABLE_H_
