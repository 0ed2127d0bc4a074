#ifndef MAGIC_UTIL_HASH_H_
#define MAGIC_UTIL_HASH_H_

#include <cstddef>
#include <cstdint>
#include <functional>

namespace magic {

/// Mixes `value` into `seed` (boost::hash_combine-style, 64-bit constants).
inline uint64_t HashCombine(uint64_t seed, uint64_t value) {
  seed ^= value + 0x9e3779b97f4a7c15ULL + (seed << 12) + (seed >> 4);
  return seed;
}

/// Hashes a contiguous range of integral ids.
template <typename It>
uint64_t HashRange(It begin, It end, uint64_t seed = 0xcbf29ce484222325ULL) {
  for (It it = begin; it != end; ++it) {
    seed = HashCombine(seed, static_cast<uint64_t>(*it));
  }
  return seed;
}

/// First probe slot for `hash` in an open-addressing table of
/// 2^(64 - shift) slots (shift < 64): the high bits of a multiply-shift
/// mix, because HashCombine's low bits are weak.
inline size_t HashSlot(uint64_t hash, uint32_t shift) {
  return static_cast<size_t>((hash * 0x9e3779b97f4a7c15ULL) >> shift);
}

}  // namespace magic

#endif  // MAGIC_UTIL_HASH_H_
