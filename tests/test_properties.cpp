// Property-based parameterized sweeps (TEST_P grids over sizes, seeds and
// key distributions): the framework's correctness must be independent of the
// data, the randomness, and the memory parameter. Each property is one
// invariant checked across the whole grid.

#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <string>
#include <vector>

#include "core/level_lists.h"
#include "core/skip_quadtree.h"
#include "core/skip_trie.h"
#include "core/skipweb_1d.h"
#include "net/network.h"
#include "util/rng.h"
#include "workloads/workloads.h"

namespace {

using namespace skipweb;
using net::host_id;
using net::network;
using util::rng;
namespace wl = skipweb::workloads;

host_id h(std::uint32_t v) { return host_id{v}; }

// --- grid: (n, seed, distribution) -----------------------------------------

enum class key_dist { uniform, clustered };

struct grid_param {
  std::size_t n;
  std::uint64_t seed;
  key_dist dist;
};

std::vector<std::uint64_t> make_keys(const grid_param& p) {
  rng r(p.seed);
  return p.dist == key_dist::uniform ? wl::uniform_keys(p.n, r) : wl::clustered_keys(p.n, r);
}

std::string grid_name(const ::testing::TestParamInfo<grid_param>& info) {
  return "n" + std::to_string(info.param.n) + "_s" + std::to_string(info.param.seed) +
         (info.param.dist == key_dist::uniform ? "_uni" : "_clu");
}

class OneDimGrid : public ::testing::TestWithParam<grid_param> {};

// Property: every probe's pred/succ matches std::set, from any origin.
TEST_P(OneDimGrid, SearchCorrectness) {
  const auto p = GetParam();
  const auto keys = make_keys(p);
  rng r(p.seed + 1);
  network net(p.n);
  core::skipweb_1d web(keys, p.seed + 2, net, core::skipweb_1d::placement::tower);
  const std::set<std::uint64_t> oracle(keys.begin(), keys.end());
  for (const auto q : wl::probe_keys(keys, 120, r)) {
    const auto res = web.nearest(q, h(static_cast<std::uint32_t>(r.index(p.n))));
    auto it = oracle.upper_bound(q);
    ASSERT_EQ(res.has_pred, it != oracle.begin());
    if (res.has_pred) {
      ASSERT_EQ(res.pred, *std::prev(it));
    }
    ASSERT_EQ(res.has_succ, it != oracle.end());
    if (res.has_succ) {
      ASSERT_EQ(res.succ, *it);
    }
  }
}

// Property: the level lists partition and halve at every level, whatever the
// key distribution (balance comes from coins, not keys).
TEST_P(OneDimGrid, LevelSetsHalve) {
  const auto p = GetParam();
  const auto keys = make_keys(p);
  rng r(p.seed + 3);
  network net(p.n);
  core::skipweb_1d web(keys, p.seed + 4, net, core::skipweb_1d::placement::tower);
  const auto& lists = web.lists();
  std::size_t level1_zero = 0;
  for (int i = 0; i < static_cast<int>(lists.arena_size()); ++i) {
    level1_zero += (lists.prefix(i, 1).bits == 0);
  }
  const double frac = static_cast<double>(level1_zero) / static_cast<double>(p.n);
  EXPECT_NEAR(frac, 0.5, 0.12);
  EXPECT_TRUE(lists.check_invariants());
}

// Property: bucket variant agrees with the tower variant query-for-query.
TEST_P(OneDimGrid, BucketAgreesWithTower) {
  const auto p = GetParam();
  const auto keys = make_keys(p);
  rng r(p.seed + 5);
  network n1(p.n), n2(1);
  core::skipweb_1d tower(keys, p.seed + 6, n1, core::skipweb_1d::placement::tower);
  core::skipweb_1d blocked(keys, p.seed + 7, n2, core::skipweb_1d::bucket{16});
  for (const auto q : wl::probe_keys(keys, 80, r)) {
    const auto a = tower.nearest(q, h(0));
    const auto b = blocked.nearest(q, h(0));
    ASSERT_EQ(a.has_pred, b.has_pred);
    if (a.has_pred) {
      ASSERT_EQ(a.pred, b.pred);
    }
    ASSERT_EQ(a.has_succ, b.has_succ);
    if (a.has_succ) {
      ASSERT_EQ(a.succ, b.succ);
    }
  }
}

// Property: churn preserves every structural invariant.
TEST_P(OneDimGrid, ChurnKeepsInvariants) {
  const auto p = GetParam();
  auto keys = make_keys(p);
  rng r(p.seed + 8);
  network net(1);
  core::skipweb_1d web(keys, p.seed + 9, net, core::skipweb_1d::bucket{16});
  std::set<std::uint64_t> oracle(keys.begin(), keys.end());
  auto fresh = wl::uniform_keys(p.n / 2, r);
  for (const auto k : fresh) {
    if (oracle.insert(k).second) web.insert(k, h(0));
  }
  std::shuffle(keys.begin(), keys.end(), r.engine());
  for (std::size_t i = 0; i < keys.size() / 2; ++i) {
    web.erase(keys[i], h(0));
    oracle.erase(keys[i]);
  }
  EXPECT_TRUE(web.lists().check_invariants());
  EXPECT_TRUE(web.check_block_invariants());
  EXPECT_EQ(web.size(), oracle.size());
}

INSTANTIATE_TEST_SUITE_P(Grid, OneDimGrid,
                         ::testing::Values(grid_param{64, 101, key_dist::uniform},
                                           grid_param{64, 202, key_dist::clustered},
                                           grid_param{256, 303, key_dist::uniform},
                                           grid_param{256, 404, key_dist::clustered},
                                           grid_param{1024, 505, key_dist::uniform},
                                           grid_param{1024, 606, key_dist::clustered}),
                         grid_name);

// --- multi-dimensional subset property sweeps -------------------------------

class SeedSweep : public ::testing::TestWithParam<std::uint64_t> {};

// Property (quadtree): for any sample chain S ⊇ S' ⊇ S'' ..., every node
// cube at a sparser level exists one level denser (what identity hyperlinks
// rely on). Checked through the public locate path: distributed locate must
// match the sequential oracle everywhere.
TEST_P(SeedSweep, QuadtreeLocateMatchesOracle) {
  rng r(GetParam());
  const auto pts = wl::uniform_points<2>(300, r);
  network net(300);
  core::skip_quadtree<2> web(pts, GetParam() + 1, net);
  const seq::quadtree<2> oracle(pts);
  for (int trial = 0; trial < 80; ++trial) {
    seq::qpoint<2> q;
    for (int d = 0; d < 2; ++d) q.x[d] = r.uniform_u64(0, seq::coord_span - 1);
    ASSERT_TRUE(web.locate(q, h(static_cast<std::uint32_t>(trial % 300))).cell ==
                oracle.node(oracle.locate(q)).box);
  }
}

TEST_P(SeedSweep, TrieContainsMatchesOracle) {
  rng r(GetParam());
  const auto keys = wl::random_strings(300, 3, 12, "abc", r);
  network net(300);
  core::skip_trie web(keys, GetParam() + 2, net);
  const std::set<std::string> oracle(keys.begin(), keys.end());
  const auto probes = wl::random_strings(150, 3, 12, "abc", r);
  for (const auto& q : probes) {
    ASSERT_EQ(web.contains(q, h(7)).value, oracle.count(q) > 0) << q;
  }
  for (const auto& k : keys) {
    ASSERT_TRUE(web.contains(k, h(9)).value) << k;
  }
}

// Property: query messages never exceed a generous c·log n at any seed (the
// expected-cost theorems concentrate; this is the practical tail check).
TEST_P(SeedSweep, MessageTailsAreLogarithmic) {
  rng r(GetParam());
  const std::size_t n = 512;
  const auto keys = wl::uniform_keys(n, r);
  network net(n);
  core::skipweb_1d web(keys, GetParam() + 3, net, core::skipweb_1d::placement::tower);
  std::uint64_t worst = 0;
  for (const auto q : wl::probe_keys(keys, 200, r)) {
    worst = std::max(worst, web.nearest(q, h(static_cast<std::uint32_t>(worst % n))).stats.messages);
  }
  EXPECT_LE(worst, 8u * 9u);  // 8x log2(512): far beyond any plausible tail
}

INSTANTIATE_TEST_SUITE_P(Seeds, SeedSweep, ::testing::Values(11u, 22u, 33u, 44u, 55u),
                         [](const auto& info) { return "seed" + std::to_string(info.param); });

}  // namespace
