// persist::flat_table, the open-addressed directory of the skip quadtree
// (core/quad_levels.h, core/skip_quadtree.h): a seeded tape against a
// std::unordered_map oracle, clusters that wrap past the last slot, and the
// borrowed mode a snapshot restore hands out — zero-copy reads, a private
// copy on the first write, and no trust in the file's slots.

#include "persist/flat_table.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstdint>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "persist/snapshot.h"
#include "temp_files.h"
#include "util/rng.h"

namespace {

using namespace skipweb;
using table = persist::flat_table<std::uint32_t>;
using slot = table::slot;
using testing_support::file_bytes;
using testing_support::snap_path;

// The table holds exactly the oracle's entries: every key is found with its
// value, the visit yields each once, and the load stays within 3/4.
void expect_matches(const table& t, const std::unordered_map<std::uint64_t, std::uint32_t>& want) {
  ASSERT_EQ(t.size(), want.size());
  ASSERT_EQ(t.empty(), want.empty());
  if (!t.empty()) {
    ASSERT_TRUE(std::has_single_bit(t.capacity()));
    ASSERT_LE(t.size() * 4, t.capacity() * 3);
  }
  for (const auto& [k, v] : want) {
    const std::uint32_t* got = t.find(k);
    ASSERT_NE(got, nullptr) << k;
    ASSERT_EQ(*got, v) << k;
  }
  std::size_t seen = 0;
  t.visit([&](std::uint64_t k, std::uint32_t v) {
    const auto it = want.find(k);
    EXPECT_TRUE(it != want.end() && it->second == v) << k;
    ++seen;
    return true;
  });
  ASSERT_EQ(seen, want.size());
}

std::vector<std::uint64_t> keys_in_slot_order(const table& t) {
  std::vector<std::uint64_t> out;
  t.visit([&](std::uint64_t k, std::uint32_t) {
    out.push_back(k);
    return true;
  });
  return out;
}

// `count` keys whose probe starts at slot `at` of a table of `n` slots.
std::vector<std::uint64_t> keys_homed_at(std::size_t at, std::size_t n, std::size_t count,
                                         std::uint64_t from = 0) {
  std::vector<std::uint64_t> out;
  for (std::uint64_t k = from; out.size() < count; ++k) {
    if (table::home(k, n) == at) out.push_back(k);
  }
  return out;
}

TEST(FlatTable, TapeMatchesOracle) {
  util::rng r(16061);
  table t;
  std::unordered_map<std::uint64_t, std::uint32_t> oracle;
  std::size_t grew = 0;
  for (int op = 0; op < 20000; ++op) {
    // A universe of 3000 keys, some spread over the whole u64 range, so the
    // table grows through several doublings and erases hit often.
    std::uint64_t key = r.uniform_u64(0, 2999);
    if (key % 7 == 0) key = key * 0x9e3779b97f4a7c15ull >> 1;
    const std::uint64_t pick = r.uniform_u64(0, 9);
    const std::size_t cap = t.capacity();
    if (pick < 5) {
      const auto v = static_cast<std::uint32_t>(r.next_u64());
      const auto [slot_value, fresh] = t.try_emplace(key);
      ASSERT_EQ(fresh, oracle.count(key) == 0) << op;
      *slot_value = v;
      oracle[key] = v;
    } else if (pick < 8) {
      ASSERT_EQ(t.erase(key), oracle.erase(key) == 1) << op;
    } else {
      const std::uint32_t* got = t.find(key);
      const auto it = oracle.find(key);
      ASSERT_EQ(got != nullptr, it != oracle.end()) << op;
      if (got != nullptr) {
        ASSERT_EQ(*got, it->second) << op;
      }
    }
    if (t.capacity() > cap && cap > 0) ++grew;
    ASSERT_EQ(t.size(), oracle.size()) << op;
    if (op % 1000 == 0) expect_matches(t, oracle);
  }
  expect_matches(t, oracle);
  EXPECT_GE(grew, 3u);
  // Draining it drops its slots.
  for (const auto& [k, v] : std::vector<std::pair<std::uint64_t, std::uint32_t>>(oracle.begin(),
                                                                                oracle.end())) {
    ASSERT_TRUE(t.erase(k));
  }
  EXPECT_TRUE(t.empty());
  EXPECT_EQ(t.capacity(), 0u);
  EXPECT_FALSE(t.erase(1));
}

TEST(FlatTable, ClustersWrapPastTheLastSlot) {
  const std::size_t n = table::min_capacity;
  const std::size_t last = n - 1;
  const auto tail = keys_homed_at(last, n, 3);  // probes start at the last slot
  const auto head = keys_homed_at(0, n, 2);     // ... and at the first
  table t;
  std::unordered_map<std::uint64_t, std::uint32_t> oracle;
  auto put = [&](std::uint64_t k, std::uint32_t v) {
    *t.try_emplace(k).first = v;
    oracle[k] = v;
  };
  // One cluster over slots 7, 0, 1, 2, 3, in insertion order.
  put(tail[0], 10);
  put(tail[1], 11);
  put(head[0], 20);
  put(tail[2], 12);
  put(head[1], 21);
  ASSERT_EQ(t.capacity(), n);  // five of eight slots: no growth yet
  EXPECT_EQ(keys_in_slot_order(t),
            (std::vector<std::uint64_t>{tail[1], head[0], tail[2], head[1], tail[0]}));
  expect_matches(t, oracle);
  // Each erase shifts the wrapped rest of the cluster back over the hole.
  for (const std::uint64_t k : {tail[0], head[0], tail[2]}) {
    ASSERT_TRUE(t.erase(k));
    oracle.erase(k);
    expect_matches(t, oracle);
  }
  put(tail[0], 30);
  put(head[0], 40);
  ASSERT_EQ(t.capacity(), n);
  expect_matches(t, oracle);
  // A key homed at the last slot that is absent probes across the wrap.
  EXPECT_EQ(t.find(keys_homed_at(last, n, 1, tail.back() + 1).front()), nullptr);
}

TEST(FlatTable, BorrowedSlotsReadZeroCopyAndCopyOnFirstWrite) {
  table built;
  std::unordered_map<std::uint64_t, std::uint32_t> oracle;
  for (std::uint64_t k = 0; k < 100; ++k) {
    *built.try_emplace(k * 13).first = static_cast<std::uint32_t>(k);
    oracle[k * 13] = static_cast<std::uint32_t>(k);
  }
  const auto path = snap_path("borrowed");
  {
    persist::writer w(path);
    built.save(w, "t");
    w.finish();
  }
  const auto before = file_bytes(path);
  for (const auto mode : {persist::restore_mode::load, persist::restore_mode::map}) {
    persist::reader rd(path, mode);
    table t(rd, "t");
    const table other(rd, "t");
    ASSERT_TRUE(t.borrowed());
    EXPECT_EQ(t.capacity(), built.capacity());
    expect_matches(t, oracle);
    // Same slot order as the saving table.
    EXPECT_EQ(keys_in_slot_order(t), keys_in_slot_order(built));
    // Misses, even through the mutable surface, leave it borrowed.
    EXPECT_EQ(t.find(7), nullptr);
    EXPECT_FALSE(t.erase(7));
    EXPECT_TRUE(t.borrowed());
    // The first write copies: the other view of the section is untouched.
    *t.find(13) = 999;
    EXPECT_FALSE(t.borrowed());
    EXPECT_EQ(*t.find(13), 999u);
    EXPECT_EQ(*other.find(13), 1u);
    ASSERT_TRUE(t.erase(26));
    EXPECT_EQ(t.size(), 99u);
    EXPECT_NE(other.find(26), nullptr);
  }
  EXPECT_EQ(file_bytes(path), before);
}

TEST(FlatTable, FullBorrowedTableAnswersMissesAndTakesInserts) {
  // Eight slots, none empty, keys stored away from their homes: a file can
  // say anything. Probes still stop after eight slots.
  std::vector<slot> slots;
  for (std::uint64_t k = 0; k < 8; ++k) {
    slots.push_back(slot{100 + k, static_cast<std::uint32_t>(k)});
  }
  std::reverse(slots.begin(), slots.end());
  const auto path = snap_path("full");
  {
    persist::writer w(path);
    w.add_vector("t", slots);
    w.finish();
  }
  for (const auto mode : {persist::restore_mode::load, persist::restore_mode::map}) {
    persist::reader rd(path, mode);
    table t(rd, "t");
    EXPECT_EQ(t.size(), 8u);
    EXPECT_EQ(t.find(5), nullptr);
    for (std::uint64_t k = 0; k < 8; ++k) ASSERT_NE(t.find(100 + k), nullptr) << k;
    const auto [v, fresh] = t.try_emplace(5);
    ASSERT_TRUE(fresh);
    *v = 55;
    EXPECT_GT(t.capacity(), 8u);
    std::unordered_map<std::uint64_t, std::uint32_t> want{{5, 55}};
    for (std::uint64_t k = 0; k < 8; ++k) want[100 + k] = static_cast<std::uint32_t>(k);
    expect_matches(t, want);
  }
  // A full table also erases: the backward shift stops at the new hole.
  persist::reader rd(path, persist::restore_mode::load);
  table t(rd, "t");
  ASSERT_TRUE(t.erase(103));
  EXPECT_EQ(t.size(), 7u);
  EXPECT_EQ(t.find(103), nullptr);
  EXPECT_EQ(t.find(9), nullptr);
}

TEST(FlatTable, SlotCountMustBeAPowerOfTwo) {
  const auto path = snap_path("lengths");
  {
    persist::writer w(path);
    w.add_vector("three", std::vector<slot>(3));
    w.add_vector("zero", std::vector<slot>{});
    w.add_vector("one", std::vector<slot>{slot{42, 7}});
    w.finish();
  }
  for (const auto mode : {persist::restore_mode::load, persist::restore_mode::map}) {
    persist::reader rd(path, mode);
    EXPECT_THROW((void)table(rd, "three"), persist::error);
    EXPECT_TRUE(table(rd, "zero").empty());
    table one(rd, "one");
    ASSERT_NE(one.find(42), nullptr);
    EXPECT_EQ(*one.find(42), 7u);
    EXPECT_EQ(one.find(43), nullptr);
    *one.try_emplace(43).first = 8;
    EXPECT_EQ(*one.find(42), 7u);
    EXPECT_EQ(*one.find(43), 8u);
  }
}

}  // namespace
