// persist::pod_array, the storage of every snapshot-able arena: records
// survive every capacity change across the one-huge-page threshold, where an
// array moves between the allocator and its own 2 MiB-aligned mapping;
// shrink_to_fit() leaves capacity() == size(); copies are deep, moves steal;
// a borrowed view's first write lands in an owned copy; and data() keeps its
// alignment on both paths. Plus the mapping helper under the visit ledger
// (util/anon_map.h).

#include "persist/pod_array.h"

#include <gtest/gtest.h>

#include <cstddef>
#include <cstdint>
#include <memory>
#include <utility>
#include <vector>

#include "util/anon_map.h"

namespace {

using namespace skipweb;

// 12 bytes: a record size that divides neither a page nor the threshold.
struct rec {
  std::uint32_t a = 0, b = 0, c = 0;
  bool operator==(const rec&) const = default;
};

rec make(std::size_t i) {
  const auto v = static_cast<std::uint32_t>(i);
  return {v, v * 7 + 1, ~v};
}

// Records per array at the mapping threshold.
constexpr std::size_t at_threshold = util::huge_page / sizeof(rec) + 1;

std::uintptr_t addr(const void* p) { return reinterpret_cast<std::uintptr_t>(p); }

// data() is 64-byte aligned always, and huge-page aligned when mapped.
void expect_aligned(const persist::pod_array<rec>& a) {
  ASSERT_EQ(addr(a.data()) % 64, 0u);
  if (util::remap_without_copy && a.capacity() * sizeof(rec) >= util::huge_page) {
    ASSERT_EQ(addr(a.data()) % util::huge_page, 0u) << a.capacity();
  }
}

void expect_prefix(const persist::pod_array<rec>& a, std::size_t n) {
  ASSERT_GE(a.size(), n);
  for (std::size_t i = 0; i < n; ++i) ASSERT_EQ(a[i], make(i)) << i;
}

persist::pod_array<rec> filled(std::size_t n) {
  persist::pod_array<rec> a;
  a.resize(n);
  for (std::size_t i = 0; i < n; ++i) a[i] = make(i);
  return a;
}

TEST(PodArray, PushBackAcrossThresholdKeepsRecords) {
  persist::pod_array<rec> a;
  const rec* last = nullptr;
  std::size_t moves = 0;
  for (std::size_t i = 0; i < 3 * at_threshold; ++i) {
    a.push_back(make(i));
    if (a.data() != last) {
      ++moves;
      last = a.data();
      expect_aligned(a);
    }
  }
  EXPECT_GT(moves, 2u);
  ASSERT_GE(a.capacity() * sizeof(rec), util::huge_page);
  expect_prefix(a, 3 * at_threshold);
}

TEST(PodArray, ResizeWithFillAcrossThresholdKeepsRecords) {
  auto a = filled(1000);
  const rec fill{5, 6, 7};
  a.resize(2 * at_threshold, fill);
  expect_aligned(a);
  expect_prefix(a, 1000);
  for (std::size_t i = 1000; i < a.size(); ++i) ASSERT_EQ(a[i], fill) << i;
  // A second growth from mapped to mapped keeps both parts.
  a.resize(5 * at_threshold, rec{});
  expect_aligned(a);
  expect_prefix(a, 1000);
  EXPECT_EQ(a[2 * at_threshold - 1], fill);
  EXPECT_EQ(a[5 * at_threshold - 1], rec{});
}

TEST(PodArray, ReserveAcrossThresholdKeepsRecords) {
  auto a = filled(at_threshold / 2);
  a.reserve(3 * at_threshold);
  EXPECT_EQ(a.capacity(), 3 * at_threshold);
  EXPECT_EQ(a.size(), at_threshold / 2);
  expect_aligned(a);
  expect_prefix(a, at_threshold / 2);
}

// A full array grows on the next push_back: a mapped one by an eighth of
// its capacity (its move copies nothing), an allocated one by doubling.
TEST(PodArray, MappedArrayGrowsByAnEighth) {
  for (const std::size_t n : {std::size_t{1000}, 2 * at_threshold}) {
    auto a = filled(n);
    a.shrink_to_fit();
    ASSERT_EQ(a.capacity(), n);
    a.push_back(make(n));
    const bool mapped = util::remap_without_copy && n * sizeof(rec) >= util::huge_page;
    EXPECT_EQ(a.capacity(), mapped ? n + n / 8 : 2 * n) << n;
    expect_prefix(a, n + 1);
    expect_aligned(a);
  }
}

TEST(PodArray, ShrinkToFitOnMappedArrayIsExactAndInPlace) {
  auto a = filled(2 * at_threshold);
  a.reserve(8 * at_threshold);
  const rec* before = a.data();
  a.shrink_to_fit();
  EXPECT_EQ(a.capacity(), a.size());
  expect_aligned(a);
  expect_prefix(a, 2 * at_threshold);
  if (util::remap_without_copy) {
    EXPECT_EQ(a.data(), before);
  }
  // Growing again after the trim keeps every record too.
  a.push_back(make(a.size()));
  expect_prefix(a, 2 * at_threshold + 1);
  expect_aligned(a);
}

TEST(PodArray, ShrinkToFitBelowThresholdIsExact) {
  auto a = filled(3 * at_threshold);
  a.resize(100);
  a.shrink_to_fit();
  EXPECT_EQ(a.capacity(), 100u);
  EXPECT_EQ(a.size(), 100u);
  expect_aligned(a);
  expect_prefix(a, 100);
  a.clear();
  a.shrink_to_fit();
  EXPECT_EQ(a.capacity(), 0u);
}

TEST(PodArray, CopiesOfMappedArrayAreDeep) {
  const auto a = filled(2 * at_threshold);
  auto b = a;
  EXPECT_EQ(b.capacity(), b.size());
  expect_aligned(b);
  expect_prefix(b, a.size());
  b[0] = rec{9, 9, 9};
  EXPECT_EQ(a[0], make(0));

  auto c = filled(10);
  c = a;
  ASSERT_EQ(c.size(), a.size());
  expect_aligned(c);
  expect_prefix(c, a.size());
  c[1] = rec{};
  EXPECT_EQ(a[1], make(1));
}

TEST(PodArray, MoveOfMappedArraySteals) {
  auto a = filled(2 * at_threshold);
  const rec* p = a.data();
  auto b = std::move(a);
  EXPECT_EQ(b.data(), p);
  EXPECT_EQ(a.size(), 0u);  // a moved-from array is empty
  expect_prefix(b, 2 * at_threshold);
  persist::pod_array<rec> c = filled(3);
  c = std::move(b);
  EXPECT_EQ(c.data(), p);
  expect_prefix(c, 2 * at_threshold);
}

TEST(PodArray, BorrowedArrayCopiesOnFirstWrite) {
  for (const std::size_t n : {std::size_t{100}, 2 * at_threshold}) {
    auto src = std::make_shared<std::vector<rec>>(n);
    for (std::size_t i = 0; i < n; ++i) (*src)[i] = make(i);
    auto a = persist::pod_array<rec>::borrow(src, src->data(), n);
    ASSERT_TRUE(a.borrowed());
    EXPECT_EQ(std::as_const(a).data(), src->data());
    a[3] = rec{1, 2, 3};  // the first write
    EXPECT_FALSE(a.borrowed());
    EXPECT_NE(std::as_const(a).data(), src->data());
    EXPECT_EQ(a.capacity(), n);
    expect_aligned(a);
    EXPECT_EQ((*src)[3], make(3)) << n;
    EXPECT_EQ(a[3], (rec{1, 2, 3}));
    for (std::size_t i = 0; i < n; ++i) {
      if (i != 3) {
        ASSERT_EQ(a[i], (*src)[i]) << n << " " << i;
      }
    }
  }
}

// The visit ledger's small-page mappings: a growth keeps the counters and
// reads zero beyond them; a shrink keeps the prefix.
TEST(AnonMap, RemapKeepsContentsAndZeroFillsGrowth) {
  constexpr std::size_t words = 1000;
  auto* p = static_cast<std::uint64_t*>(util::map_anon(words * 8, false));
  for (std::size_t i = 0; i < words; ++i) ASSERT_EQ(p[i], 0u);
  for (std::size_t i = 0; i < words; ++i) p[i] = i * 3;
  p = static_cast<std::uint64_t*>(util::remap_anon(p, words * 8, 300000 * 8, false));
  for (std::size_t i = 0; i < words; ++i) ASSERT_EQ(p[i], i * 3);
  for (std::size_t i = words; i < 300000; i += 511) ASSERT_EQ(p[i], 0u);
  p = static_cast<std::uint64_t*>(util::remap_anon(p, 300000 * 8, 600 * 8, false));
  for (std::size_t i = 0; i < 600; ++i) ASSERT_EQ(p[i], i * 3);
  util::unmap_anon(p, 600 * 8);
}

}  // namespace
