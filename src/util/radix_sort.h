#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <memory>
#include <vector>

#include "util/pool.h"

namespace skipweb::util {

// LSD radix sort for 64-bit keys: six stable 11-bit passes, with all six
// digit histograms taken in one initial read of the input. ~13 linear
// sweeps of 8 bytes/key in all, against std::sort's ~log2(n) cache-missing
// partition passes — it is what the 1-D build (DESIGN.md §12) uses to get
// from an unsorted key set to the level lists' sorted keys. The input splits
// into `blocks` contiguous blocks, one task each on util::fan_out. Each
// block scatters its own keys from its own output offsets: a prefix sum
// over (digit, block) of the blocks' histograms, so the sort stays stable.
// Once a pass has moved the keys, each later pass recounts its digit per
// block (one block's histogram is the whole input's, which no permutation
// changes). 2^11 buckets keep a block's output cursors and histogram in
// L1/L2; 2^16 of them ran 1.5x slower over four blocks at 2^20 keys. A
// pass whose digit is constant across the whole input (common for small
// key ranges) is skipped outright. Below 2^14 keys the introsort wins on
// constants, so delegate.
inline void radix_sort_u64(std::vector<std::uint64_t>& v, std::size_t blocks) {
  constexpr int radix_bits = 11;
  constexpr int passes = (64 + radix_bits - 1) / radix_bits;
  constexpr std::size_t radix = std::size_t{1} << radix_bits;
  constexpr std::uint64_t digit = radix - 1;
  const std::size_t n = v.size();
  if (n < (std::size_t{1} << 14)) {
    std::sort(v.begin(), v.end());
    return;
  }
  blocks = std::clamp<std::size_t>(blocks, 1, n);
  const auto spare = std::make_unique_for_overwrite<std::uint64_t[]>(n);
  // Block b's counts of pass p's digit values, then its next output slot
  // for each value.
  std::vector<std::size_t> hist(blocks * passes * radix, 0);
  const auto counts = [&](std::size_t b, int pass) {
    return hist.data() + (b * passes + static_cast<std::size_t>(pass)) * radix;
  };
  const auto block_lo = [&](std::size_t b) { return n * b / blocks; };
  std::uint64_t* src = v.data();
  std::uint64_t* dst = spare.get();
  fan_out(blocks, blocks, [&](std::size_t b, std::size_t) {
    std::size_t* h = counts(b, 0);
    for (std::size_t i = block_lo(b), end = block_lo(b + 1); i < end; ++i) {
      const std::uint64_t k = src[i];
      for (int p = 0; p < passes; ++p) ++h[p * radix + ((k >> (p * radix_bits)) & digit)];
    }
  });
  bool moved = false;
  for (int pass = 0; pass < passes; ++pass) {
    const int shift = pass * radix_bits;
    if (moved && blocks > 1) {
      fan_out(blocks, blocks, [&](std::size_t b, std::size_t) {
        std::size_t* h = counts(b, pass);
        std::fill(h, h + radix, 0);
        for (std::size_t i = block_lo(b), end = block_lo(b + 1); i < end; ++i) {
          ++h[(src[i] >> shift) & digit];
        }
      });
    }
    // Prefix-sum the counts into start offsets, digit-major then block;
    // bail out (skipping the pass) if one digit value owns every key — the
    // pass would be the identity permutation.
    bool trivial = false;
    std::size_t sum = 0;
    for (std::size_t d = 0; d < radix && !trivial; ++d) {
      std::size_t total = 0;
      for (std::size_t b = 0; b < blocks; ++b) total += counts(b, pass)[d];
      trivial = total == n;
      for (std::size_t b = 0; b < blocks; ++b) {
        std::size_t& h = counts(b, pass)[d];
        const std::size_t c = h;
        h = sum;
        sum += c;
      }
    }
    if (trivial) continue;
    fan_out(blocks, blocks, [&](std::size_t b, std::size_t) {
      std::size_t* h = counts(b, pass);
      for (std::size_t i = block_lo(b), end = block_lo(b + 1); i < end; ++i) {
        dst[h[(src[i] >> shift) & digit]++] = src[i];
      }
    });
    std::swap(src, dst);
    moved = true;
  }
  if (src != v.data()) std::memcpy(v.data(), src, n * sizeof(std::uint64_t));
}

// Blocks of at least 2^16 keys, one per hardware thread: below that a
// block's share of the sort costs less than starting a helper.
inline void radix_sort_u64(std::vector<std::uint64_t>& v) {
  radix_sort_u64(v, fan_out_workers(v.size() >> 16));
}

}  // namespace skipweb::util
