#pragma once

#include <bit>
#include <cstddef>
#include <cstdint>

#include "util/rng.h"
#include "util/sw_assert.h"

namespace skipweb::util {

// An item's membership vector: the infinite random bit string of paper §2.3
// that decides which level sets S_b the item belongs to. 64 bits are enough
// for any ground set that fits in memory (levels are capped at ceil(log2 n)).
using membership_bits = std::uint64_t;

inline membership_bits draw_membership(rng& r) { return r.next_u64(); }

inline constexpr int max_levels = 64;

// Levels above level 0 for a ground set of n items: ceil(log2 n), so the
// top-level sets hold O(1) items in expectation.
inline int levels_for(std::size_t n) {
  return n <= 1 ? 0 : static_cast<int>(std::bit_width(n - 1));
}

// Bit i of a membership vector (level-i coin flip), i in [0, 64).
inline bool membership_bit(membership_bits m, int i) {
  SW_EXPECTS(i >= 0 && i < max_levels);
  return ((m >> i) & 1u) != 0;
}

// The binary string b that indexes a level set S_b (paper §2.3). `length` is
// the number of bits; bit 0 of `bits` is the first character of b. The empty
// prefix denotes the ground set S itself.
struct level_prefix {
  int length = 0;
  std::uint64_t bits = 0;

  friend bool operator==(const level_prefix&, const level_prefix&) = default;

  // S_b0 / S_b1: append one more level coin.
  [[nodiscard]] level_prefix child(bool bit) const {
    SW_EXPECTS(length < max_levels);
    level_prefix p{length + 1, bits};
    if (bit) p.bits |= (std::uint64_t{1} << length);
    return p;
  }

  // Drop the last bit: the parent (denser) level set.
  [[nodiscard]] level_prefix parent() const {
    SW_EXPECTS(length > 0);
    level_prefix p{length - 1, bits};
    p.bits &= (length - 1 == 64) ? ~std::uint64_t{0} : ((std::uint64_t{1} << (length - 1)) - 1);
    return p;
  }
};

// True iff the item with membership vector m belongs to S_b for b = p, i.e.
// p is a prefix of m's bit string.
inline bool in_level_set(membership_bits m, const level_prefix& p) {
  if (p.length == 0) return true;
  const std::uint64_t mask = (p.length == 64) ? ~std::uint64_t{0} : ((std::uint64_t{1} << p.length) - 1);
  return (m & mask) == p.bits;
}

// Number of leading membership bits shared with `p`'s bits; equals p.length
// iff the item is in S_p.
inline level_prefix prefix_of(membership_bits m, int length) {
  SW_EXPECTS(length >= 0 && length <= max_levels);
  const std::uint64_t mask = (length == 64) ? ~std::uint64_t{0} : ((std::uint64_t{1} << length) - 1);
  return level_prefix{length, m & mask};
}

}  // namespace skipweb::util
