#include "ast/term.h"

#include <algorithm>

#include "util/check.h"
#include "util/hash.h"

namespace magic {

TermId TermArena::MakeConstant(SymbolId name) {
  TermData data;
  data.kind = TermKind::kConstant;
  data.ground = true;
  data.symbol = name;
  return Intern(std::move(data));
}

TermId TermArena::MakeInteger(int64_t value) {
  TermData data;
  data.kind = TermKind::kInteger;
  data.ground = true;
  data.value = value;
  return Intern(std::move(data));
}

TermId TermArena::MakeVariable(SymbolId name) {
  TermData data;
  data.kind = TermKind::kVariable;
  data.ground = false;
  data.symbol = name;
  return Intern(std::move(data));
}

TermId TermArena::MakeCompound(SymbolId functor, std::vector<TermId> args) {
  TermData data;
  data.kind = TermKind::kCompound;
  data.symbol = functor;
  data.ground = true;
  for (TermId arg : args) {
    data.ground = data.ground && Get(arg).ground;
  }
  data.children = std::move(args);
  return Intern(std::move(data));
}

TermId TermArena::MakeAffine(TermId variable, int64_t mul, int64_t add) {
  MAGIC_CHECK_MSG(mul >= 1, "affine multiplier must be positive");
  MAGIC_CHECK(Get(variable).kind == TermKind::kVariable);
  TermData data;
  data.kind = TermKind::kAffine;
  data.ground = false;
  data.mul = mul;
  data.add = add;
  data.children = {variable};
  return Intern(std::move(data));
}

const TermData& TermArena::Get(TermId id) const {
  MAGIC_CHECK(id < size());
  // The acquire load of size_ above synchronizes with the release store in
  // Intern, so both the directory entry and the slot contents are visible.
  const ChunkDir* dir = dir_.load(std::memory_order_acquire);
  return dir->chunks[id >> kChunkShift][id & kChunkMask];
}

void TermArena::AppendVariables(TermId id, std::vector<SymbolId>* out) const {
  const TermData& data = Get(id);
  if (data.ground) return;
  switch (data.kind) {
    case TermKind::kVariable: {
      if (std::find(out->begin(), out->end(), data.symbol) == out->end()) {
        out->push_back(data.symbol);
      }
      return;
    }
    case TermKind::kCompound:
    case TermKind::kAffine: {
      for (TermId child : data.children) AppendVariables(child, out);
      return;
    }
    default:
      return;
  }
}

bool TermArena::ContainsVariable(TermId id, SymbolId var) const {
  const TermData& data = Get(id);
  if (data.ground) return false;
  if (data.kind == TermKind::kVariable) return data.symbol == var;
  for (TermId child : data.children) {
    if (ContainsVariable(child, var)) return true;
  }
  return false;
}

uint64_t TermArena::HashOf(const TermData& data) {
  uint64_t h = HashCombine(static_cast<uint64_t>(data.kind), data.symbol);
  h = HashCombine(h, static_cast<uint64_t>(data.value));
  h = HashCombine(h, static_cast<uint64_t>(data.mul));
  h = HashCombine(h, static_cast<uint64_t>(data.add));
  return HashRange(data.children.begin(), data.children.end(), h);
}

bool TermArena::Equal(const TermData& a, const TermData& b) {
  return a.kind == b.kind && a.symbol == b.symbol && a.value == b.value &&
         a.mul == b.mul && a.add == b.add && a.children == b.children;
}

TermId TermArena::Intern(TermData data) {
  MutexLock lock(mutex_);
  const uint64_t h = HashOf(data);
  // Every stored id is below size(), so the probes read it through Get.
  if (std::optional<TermId> found = dedup_.Find(
          h, [&](TermId id) { return Equal(Get(id), data); })) {
    return *found;
  }
  const size_t n = size_.load(std::memory_order_relaxed);
  const size_t chunk = n >> kChunkShift;
  const ChunkDir* dir = dir_.load(std::memory_order_relaxed);
  if (chunk == chunk_owner_.size()) {
    chunk_owner_.push_back(
        std::make_unique<TermData[]>(size_t{1} << kChunkShift));
    auto grown = std::make_unique<ChunkDir>();
    if (dir != nullptr) grown->chunks = dir->chunks;
    grown->chunks.push_back(chunk_owner_.back().get());
    dir_.store(grown.get(), std::memory_order_release);
    dir = grown.get();
    dir_owner_.push_back(std::move(grown));
  }
  dir->chunks[chunk][n & kChunkMask] = std::move(data);
  const TermId id =
      dedup_.Add(h, [this](TermId stored) { return HashOf(Get(stored)); });
  MAGIC_CHECK(id == n);
  size_.store(n + 1, std::memory_order_release);
  return id;
}

}  // namespace magic
