#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <vector>

#include "core/level_lists.h"
#include "util/membership.h"
#include "util/rng.h"
#include "workloads/workloads.h"

namespace {

using skipweb::core::level_lists;
using skipweb::util::rng;

level_lists make(std::size_t n, std::uint64_t seed) {
  rng key_rng(seed);
  auto keys = skipweb::workloads::uniform_keys(n, key_rng);
  std::sort(keys.begin(), keys.end());
  rng r(seed + 1);
  return level_lists(std::move(keys), r, skipweb::util::levels_for(n));
}

// Oracle insert: find the per-level neighbours by brute force, then splice.
// Returns the arena slot, or -1 when the key is already present.
int oracle_insert(level_lists& ll, std::uint64_t key, skipweb::util::membership_bits bits) {
  for (int i = 0; i < static_cast<int>(ll.arena_size()); ++i) {
    if (ll.alive(i) && ll.key(i) == key) return -1;
  }
  std::vector<level_lists::neighbors> nbrs(static_cast<std::size_t>(ll.levels()) + 1);
  for (int l = 0; l <= ll.levels(); ++l) {
    int best_left = -1, best_right = -1;
    for (int i = 0; i < static_cast<int>(ll.arena_size()); ++i) {
      if (!ll.alive(i) || ll.prefix(i, l) != skipweb::util::prefix_of(bits, l)) continue;
      if (ll.key(i) < key && (best_left < 0 || ll.key(i) > ll.key(best_left))) best_left = i;
      if (ll.key(i) > key && (best_right < 0 || ll.key(i) < ll.key(best_right))) best_right = i;
    }
    nbrs[static_cast<std::size_t>(l)] = {best_left, best_right};
  }
  return ll.splice_in(key, bits, nbrs);
}

TEST(LevelLists, LevelZeroIsOneGlobalSortedList) {
  const auto ll = make(256, 7);
  // Walk from the global head: every alive item once, in key order.
  int head = -1;
  for (int i = 0; i < static_cast<int>(ll.arena_size()); ++i) {
    if (ll.prev(i, 0) < 0) {
      EXPECT_EQ(head, -1) << "two heads at level 0";
      head = i;
    }
  }
  ASSERT_GE(head, 0);
  std::size_t count = 0;
  std::uint64_t last = 0;
  for (int i = head; i >= 0; i = ll.next(i, 0)) {
    if (count > 0) {
      EXPECT_GT(ll.key(i), last);
    }
    last = ll.key(i);
    ++count;
  }
  EXPECT_EQ(count, ll.size());
}

TEST(LevelLists, LevelSetsPartitionAndHalve) {
  const auto ll = make(2048, 11);
  for (int l = 1; l <= ll.levels(); ++l) {
    // Count items per prefix via direct membership; lists must agree.
    std::size_t total = 0;
    std::set<std::uint64_t> prefixes;
    for (int i = 0; i < static_cast<int>(ll.arena_size()); ++i) {
      prefixes.insert(ll.prefix(i, l).bits);
      ++total;
    }
    EXPECT_EQ(total, 2048u);
    // Expected set count at level l is min(2^l, n)-ish; at level 1 the two
    // sets should each hold roughly half the items.
    if (l == 1) {
      std::size_t zeros = 0;
      for (int i = 0; i < static_cast<int>(ll.arena_size()); ++i) {
        zeros += (ll.prefix(i, 1).bits == 0);
      }
      EXPECT_NEAR(static_cast<double>(zeros) / 2048.0, 0.5, 0.05);
    }
  }
}

TEST(LevelLists, ListsAreSortedAndPrefixConsistent) {
  const auto ll = make(512, 13);
  EXPECT_TRUE(ll.check_invariants());
}

TEST(LevelLists, TopLevelListsAreSmall) {
  const auto ll = make(4096, 17);
  // Mean size of nonempty top-level lists should be O(1) (n / 2^ceil(log n) <= 1,
  // so almost all lists are singletons).
  std::size_t max_run = 0;
  for (int i = 0; i < static_cast<int>(ll.arena_size()); ++i) {
    if (ll.prev(i, ll.levels()) >= 0) continue;
    std::size_t run = 0;
    for (int j = i; j >= 0; j = ll.next(j, ll.levels())) ++run;
    max_run = std::max(max_run, run);
  }
  EXPECT_LE(max_run, 12u);  // whp bound for n = 4096
}

TEST(LevelLists, SpliceInMaintainsInvariants) {
  rng r(9119);  // distinct from the workload stream: fresh keys, no replays
  auto ll = make(64, 19);
  for (int round = 0; round < 64; ++round) {
    const std::uint64_t key = r.uniform_u64(0, std::uint64_t{1} << 62);
    const auto bits = skipweb::util::draw_membership(r);
    oracle_insert(ll, key, bits);
  }
  EXPECT_EQ(ll.size(), 128u);
  EXPECT_TRUE(ll.check_invariants());
}

TEST(LevelLists, SpliceRejectsInconsistentNeighbors) {
  auto ll = make(8, 23);
  std::vector<level_lists::neighbors> nbrs(static_cast<std::size_t>(ll.levels()) + 1);
  // Claim "no neighbours at any level" while the lists are nonempty: the
  // level-0 validation cannot catch an empty claim directly (it would mean
  // inserting a second head), but a wrong left neighbour with mismatched
  // prefix must throw.
  int item0 = -1;
  for (int i = 0; i < static_cast<int>(ll.arena_size()); ++i) {
    if (ll.alive(i)) {
      item0 = i;
      break;
    }
  }
  ASSERT_GE(item0, 0);
  for (auto& nb : nbrs) nb = {item0, ll.next(item0, 0)};
  // Use a key smaller than item0's so "left neighbour" ordering is violated.
  const std::uint64_t bad_key = ll.key(item0) == 0 ? 0 : ll.key(item0) - 1;
  EXPECT_THROW(ll.splice_in(bad_key, 0, nbrs), skipweb::util::contract_error);
}

TEST(LevelLists, UnspliceRemovesFromEveryLevel) {
  auto ll = make(128, 29);
  // Remove half the items; invariants must hold and sizes track.
  rng r(31);
  std::vector<int> alive_items;
  for (int i = 0; i < static_cast<int>(ll.arena_size()); ++i) alive_items.push_back(i);
  std::shuffle(alive_items.begin(), alive_items.end(), r.engine());
  for (int k = 0; k < 64; ++k) ll.unsplice(alive_items[static_cast<std::size_t>(k)]);
  EXPECT_EQ(ll.size(), 64u);
  EXPECT_TRUE(ll.check_invariants());
  for (int k = 0; k < 64; ++k) {
    EXPECT_FALSE(ll.alive(alive_items[static_cast<std::size_t>(k)]));
  }
}

TEST(LevelLists, RedirectPointsAtSurvivor) {
  auto ll = make(16, 37);
  int head = -1;
  for (int i = 0; i < static_cast<int>(ll.arena_size()); ++i) {
    if (ll.prev(i, 0) < 0) head = i;
  }
  ASSERT_GE(head, 0);
  const int second = ll.next(head, 0);
  ll.unsplice(head);
  EXPECT_EQ(ll.redirect(head), second);
}

TEST(LevelLists, UidsAreStableAcrossReuse) {
  auto ll = make(8, 41);
  const auto uid0 = ll.uid(0);
  ll.unsplice(0);
  std::vector<level_lists::neighbors> nbrs(static_cast<std::size_t>(ll.levels()) + 1);
  // Insert a fresh item with no same-prefix neighbours claimed at upper
  // levels and correct level-0 flanks found by brute force.
  const std::uint64_t key = 1;  // workload keys are huge; 1 is fresh and smallest
  const auto bits = skipweb::util::membership_bits{0};
  for (int l = 0; l <= ll.levels(); ++l) {
    int best_right = -1;
    for (int i = 0; i < static_cast<int>(ll.arena_size()); ++i) {
      if (!ll.alive(i) || ll.prefix(i, l) != skipweb::util::prefix_of(bits, l)) continue;
      if (ll.key(i) > key && (best_right < 0 || ll.key(i) < ll.key(best_right))) best_right = i;
    }
    nbrs[static_cast<std::size_t>(l)] = {-1, best_right};
  }
  const int reused = ll.splice_in(key, bits, nbrs);
  EXPECT_EQ(reused, 0);             // arena slot recycled
  EXPECT_NE(ll.uid(reused), uid0);  // identity is not
}

TEST(LevelLists, ChurnRecyclesSlotsWithoutReusingUids) {
  // Randomized insert/erase churn that exercises the free list hard: the
  // arena must recycle slots (bounded growth) while uids stay unique
  // forever, and the structure must stay consistent throughout.
  constexpr std::size_t n0 = 48;
  auto ll = make(n0, 43);
  rng r(47);
  std::set<std::uint64_t> uids_seen;
  for (int i = 0; i < static_cast<int>(ll.arena_size()); ++i) {
    EXPECT_TRUE(uids_seen.insert(ll.uid(i)).second);
  }
  std::size_t live = n0;
  std::size_t max_live = n0;
  for (int round = 0; round < 400; ++round) {
    const bool do_insert = live <= 2 || (live < 96 && r.bit());
    if (do_insert) {
      const int slot =
          oracle_insert(ll, r.uniform_u64(0, std::uint64_t{1} << 62), skipweb::util::draw_membership(r));
      if (slot < 0) continue;  // duplicate key drawn; try again next round
      EXPECT_TRUE(uids_seen.insert(ll.uid(slot)).second)
          << "uid reused on arena slot " << slot;
      ++live;
      max_live = std::max(max_live, live);
    } else {
      // Erase a uniformly random alive item.
      std::vector<int> alive_items;
      for (int i = 0; i < static_cast<int>(ll.arena_size()); ++i) {
        if (ll.alive(i)) alive_items.push_back(i);
      }
      ll.unsplice(alive_items[r.index(alive_items.size())]);
      --live;
    }
    EXPECT_EQ(ll.size(), live);
  }
  // Slots were recycled: the arena never outgrew the high-water mark of live
  // items (growth only happens when the free list is empty).
  EXPECT_LE(ll.arena_size(), max_live);
  EXPECT_TRUE(ll.check_invariants());
}

TEST(LevelLists, AnyAliveStaysLiveUnderChurn) {
  auto ll = make(16, 53);
  rng r(59);
  // Drain the structure one item at a time, interleaved with the occasional
  // re-insert; any_alive() must always return an alive slot (the cached
  // hint must never go stale), and -1 exactly when empty.
  std::size_t live = 16;
  while (live > 0) {
    const int a = ll.any_alive();
    ASSERT_GE(a, 0);
    EXPECT_TRUE(ll.alive(a));
    if (live < 8 && r.index(4) == 0) {
      if (oracle_insert(ll, r.uniform_u64(0, std::uint64_t{1} << 62),
                        skipweb::util::draw_membership(r)) >= 0) {
        ++live;
        continue;
      }
    }
    // Erase the hinted item itself half the time to force hint repair.
    std::vector<int> alive_items;
    for (int i = 0; i < static_cast<int>(ll.arena_size()); ++i) {
      if (ll.alive(i)) alive_items.push_back(i);
    }
    ll.unsplice(r.bit() ? a : alive_items[r.index(alive_items.size())]);
    --live;
  }
  EXPECT_EQ(ll.any_alive(), -1);
  EXPECT_EQ(ll.size(), 0u);
}

}  // namespace
