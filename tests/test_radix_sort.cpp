// Edge-case coverage for util::radix_sort_u64 (DESIGN.md §12): the sorter
// behind the bulk build delegates to introsort below 2^14 keys and runs its
// six 11-bit passes (with trivial-pass skipping) above, so every case is
// exercised on both sides of the threshold where it makes sense.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <vector>

#include "util/radix_sort.h"
#include "util/rng.h"
#include "workloads/workloads.h"

namespace {

using namespace skipweb;
namespace wl = skipweb::workloads;

// Large enough to take the radix path (threshold is 1 << 14).
constexpr std::size_t big_n = (std::size_t{1} << 14) + 137;

void expect_sorts_like_std(std::vector<std::uint64_t> v) {
  auto expected = v;
  std::sort(expected.begin(), expected.end());
  util::radix_sort_u64(v);
  EXPECT_EQ(v, expected);
}

TEST(RadixSort, Empty) {
  std::vector<std::uint64_t> v;
  util::radix_sort_u64(v);
  EXPECT_TRUE(v.empty());
}

TEST(RadixSort, SingleElement) {
  std::vector<std::uint64_t> v{0xdeadbeefcafef00dull};
  util::radix_sort_u64(v);
  ASSERT_EQ(v.size(), 1u);
  EXPECT_EQ(v[0], 0xdeadbeefcafef00dull);
}

// All-equal keys make every digit histogram trivial: all six passes are
// skipped and the input must come back untouched.
TEST(RadixSort, AllDuplicateKeys) {
  expect_sorts_like_std(std::vector<std::uint64_t>(big_n, 42));
  expect_sorts_like_std(std::vector<std::uint64_t>(100, 0));
}

TEST(RadixSort, AlreadySorted) {
  std::vector<std::uint64_t> v(big_n);
  for (std::size_t i = 0; i < v.size(); ++i) v[i] = i * 3;
  expect_sorts_like_std(v);
}

TEST(RadixSort, ReverseSorted) {
  std::vector<std::uint64_t> v(big_n);
  for (std::size_t i = 0; i < v.size(); ++i) v[i] = (v.size() - i) * 7;
  expect_sorts_like_std(v);
}

// Small keys leave the upper five digits constant: five of six passes are
// trivial, and the one real pass must still produce sorted output.
TEST(RadixSort, SmallKeyRangeSkipsTrivialPasses) {
  util::rng r(99);
  std::vector<std::uint64_t> v(big_n);
  for (auto& k : v) k = r.uniform_u64(0, 999);
  expect_sorts_like_std(std::move(v));
}

// Duplicates mixed with unique keys, above threshold: the passes are stable,
// so equal keys collapse into runs without losing any.
TEST(RadixSort, MixedDuplicates) {
  util::rng r(7);
  std::vector<std::uint64_t> v(big_n);
  for (auto& k : v) k = r.uniform_u64(0, 63) << 56 | r.uniform_u64(0, 15);
  expect_sorts_like_std(std::move(v));
}

TEST(RadixSort, UniformRandomMatchesStdSort) {
  util::rng r(123);
  expect_sorts_like_std(wl::uniform_keys(big_n, r));
  util::rng r2(321);
  expect_sorts_like_std(wl::uniform_keys(500, r2));  // introsort side
}

// The blocked sort at several block counts, on inputs whose lengths no
// count divides: every block scatters from its own offsets, so the result
// is the single-block sort whatever the count, including after a trivial
// pass and across runs of equal keys.
TEST(RadixSort, BlocksSortLikeStd) {
  util::rng r(2024);
  const auto uniform = wl::uniform_keys(big_n, r);
  std::vector<std::uint64_t> narrow(big_n + 1);
  for (auto& k : narrow) k = r.uniform_u64(0, 63) << 48 | r.uniform_u64(0, 7);
  for (const auto& input : {uniform, narrow}) {
    auto expected = input;
    std::sort(expected.begin(), expected.end());
    for (const std::size_t blocks : {1, 2, 3, 4, 7}) {
      auto v = input;
      util::radix_sort_u64(v, blocks);
      EXPECT_EQ(v, expected) << blocks << " blocks";
    }
  }
}

TEST(RadixSort, ExtremeValues) {
  std::vector<std::uint64_t> v{~0ull, 0, 1, ~0ull - 1, 1ull << 63, (1ull << 63) - 1};
  expect_sorts_like_std(std::move(v));
}

}  // namespace
