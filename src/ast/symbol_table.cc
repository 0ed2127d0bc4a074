#include "ast/symbol_table.h"

#include <functional>

#include "util/check.h"

namespace magic {

std::optional<SymbolId> SymbolTable::FindInBase(std::string_view name) const {
  std::optional<SymbolId> found = base_->Find(name);
  // Horizon filter: the root table keeps interning at runtime (the network
  // server parses new constants on live connections), so the base can hold
  // ids >= offset_ that did not exist when this overlay was created. Those
  // ids belong to the base's id space alone — in the overlay they alias
  // overlay-local ids (Name() would resolve them to the wrong string, or
  // MAGIC_CHECK-abort). Treat them as misses.
  if (found.has_value() && *found >= offset_) return std::nullopt;
  return found;
}

uint64_t SymbolTable::HashOf(std::string_view name) {
  return std::hash<std::string_view>{}(name);
}

SymbolId SymbolTable::Intern(std::string_view name) {
  // Overlay fast path: a name the base already had at overlay creation
  // keeps the base's id. Lock order is strictly overlay -> base (never
  // reversed) — a descending-rank chain the Debug checker enforces — so
  // layering cannot deadlock.
  if (base_ != nullptr) {
    if (std::optional<SymbolId> found = FindInBase(name)) return *found;
  }
  const uint64_t hash = HashOf(name);
  WriterMutexLock lock(mutex_);
  if (std::optional<SymbolId> found = FindLocked(name, hash)) return *found;
  names_.emplace_back(name);
  const std::deque<std::string>& names = names_;
  return offset_ + index_.Add(hash, [&names](uint32_t local) {
           return HashOf(names[local]);
         });
}

std::optional<SymbolId> SymbolTable::FindLocked(std::string_view name,
                                                uint64_t hash) const {
  const std::deque<std::string>& names = names_;
  std::optional<uint32_t> local = index_.Find(
      hash, [&](uint32_t stored) { return names[stored] == name; });
  if (!local.has_value()) return std::nullopt;
  return offset_ + *local;
}

std::optional<SymbolId> SymbolTable::Find(std::string_view name) const {
  if (base_ != nullptr) {
    if (std::optional<SymbolId> found = FindInBase(name)) return found;
  }
  const uint64_t hash = HashOf(name);
  ReaderMutexLock lock(mutex_);
  return FindLocked(name, hash);
}

const std::string& SymbolTable::Name(SymbolId id) const {
  if (id < offset_) return base_->Name(id);
  ReaderMutexLock lock(mutex_);
  MAGIC_CHECK(id - offset_ < names_.size());
  // The deque never moves elements, so the reference outlives the lock.
  return names_[id - offset_];
}

size_t SymbolTable::size() const {
  ReaderMutexLock lock(mutex_);
  return offset_ + names_.size();
}

}  // namespace magic
