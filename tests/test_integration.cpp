// Cross-module integration tests: identical workloads driven through every
// 1-D structure simultaneously (they must agree key-for-key), range queries,
// congestion distribution, and determinism of whole sessions.

#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <tuple>
#include <vector>

#include "baselines/bucket_skipgraph.h"
#include "baselines/det_skipnet.h"
#include "baselines/family_tree.h"
#include "baselines/non_skipgraph.h"
#include "baselines/skipgraph.h"
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

// Every 1-D structure in the repo answers the same nearest-neighbour
// question; on a shared workload they must agree with each other (and the
// oracle) exactly.
TEST(Integration, AllOneDimensionalStructuresAgree) {
  rng r(7001);
  const auto keys = wl::uniform_keys(256, r);
  const auto probes = wl::probe_keys(keys, 200, r);

  network n1(256), n2(1), n3(1), n4(1), n5(1), n6(1), n7(1);
  core::skipweb_1d web(keys, 1, n1, core::skipweb_1d::placement::tower);
  core::skipweb_1d bweb(keys, 2, n2, core::skipweb_1d::bucket{16});
  baselines::skip_graph sg(keys, 3, n3);
  baselines::non_skip_graph nsg(keys, 4, n4);
  baselines::bucket_skip_graph bsg(keys, 5, n5, 32);
  baselines::family_tree ft(keys, 6, n6);
  baselines::det_skipnet ds(keys, n7);

  const std::set<std::uint64_t> oracle(keys.begin(), keys.end());
  for (const auto q : probes) {
    auto it = oracle.upper_bound(q);
    const bool has_pred = it != oracle.begin();
    const std::uint64_t pred = has_pred ? *std::prev(it) : 0;

    // Every structure now returns the one shared api::nn_result.
    const std::vector<std::pair<bool, std::uint64_t>> answers = {
        {web.nearest(q, h(0)).has_pred, web.nearest(q, h(0)).pred},
        {bweb.nearest(q, h(0)).has_pred, bweb.nearest(q, h(0)).pred},
        {sg.nearest(q, h(0)).has_pred, sg.nearest(q, h(0)).pred},
        {nsg.nearest(q, h(0)).has_pred, nsg.nearest(q, h(0)).pred},
        {bsg.nearest(q, h(0)).has_pred, bsg.nearest(q, h(0)).pred},
        {ft.nearest(q, h(0)).has_pred, ft.nearest(q, h(0)).pred},
        {ds.nearest(q, h(0)).has_pred, ds.nearest(q, h(0)).pred},
    };
    for (const auto& [got_has, got_pred] : answers) {
      ASSERT_EQ(got_has, has_pred) << q;
      if (has_pred) {
        ASSERT_EQ(got_pred, pred) << q;
      }
    }
  }
}

TEST(Integration, RangeQueriesMatchOracle) {
  rng r(7002);
  const auto keys = wl::uniform_keys(512, r);
  std::vector<std::uint64_t> sorted = keys;
  std::sort(sorted.begin(), sorted.end());

  network n1(512), n2(1);
  core::skipweb_1d web(keys, 11, n1, core::skipweb_1d::placement::tower);
  core::skipweb_1d bweb(keys, 12, n2, core::skipweb_1d::bucket{32});

  for (int trial = 0; trial < 60; ++trial) {
    const std::size_t i = r.index(sorted.size());
    const std::size_t j = i + r.index(sorted.size() - i);
    const std::uint64_t lo = sorted[i], hi = sorted[j];
    std::vector<std::uint64_t> want(sorted.begin() + static_cast<std::ptrdiff_t>(i),
                                    sorted.begin() + static_cast<std::ptrdiff_t>(j) + 1);
    const auto r1 = web.range(lo, hi, h(static_cast<std::uint32_t>(trial % 512)));
    const auto r2 = bweb.range(lo, hi, h(0));
    EXPECT_EQ(r1.value, want);
    EXPECT_EQ(r2.value, want);
    EXPECT_GT(r1.stats.messages, 0u);
    // The blocked layout walks B keys per hop: long ranges must be cheaper.
    if (want.size() > 64) {
      EXPECT_LT(r2.stats.messages, r1.stats.messages);
    }
  }

  // Limit handling + empty ranges.
  const auto capped = web.range(sorted.front(), sorted.back(), h(1), 5);
  EXPECT_EQ(capped.value.size(), 5u);
  const auto empty = web.range(sorted.back() + 1, sorted.back() + 100, h(1));
  EXPECT_TRUE(empty.value.empty());
  EXPECT_THROW((void)web.range(10, 5, h(0)), util::contract_error);
}

TEST(Integration, RangeAfterChurn) {
  rng r(7003);
  auto pool = wl::uniform_keys(400, r);
  const std::vector<std::uint64_t> initial(pool.begin(), pool.begin() + 200);
  network net(1);
  core::skipweb_1d web(initial, 13, net, core::skipweb_1d::bucket{16});
  std::set<std::uint64_t> oracle(initial.begin(), initial.end());
  for (std::size_t i = 200; i < 400; ++i) {
    web.insert(pool[i], h(0));
    oracle.insert(pool[i]);
  }
  for (std::size_t i = 0; i < 100; ++i) {
    web.erase(pool[i * 2], h(0));
    oracle.erase(pool[i * 2]);
  }
  std::vector<std::uint64_t> sorted(oracle.begin(), oracle.end());
  for (int trial = 0; trial < 30; ++trial) {
    const std::size_t i = r.index(sorted.size());
    const std::size_t j = i + r.index(sorted.size() - i);
    const std::vector<std::uint64_t> want(sorted.begin() + static_cast<std::ptrdiff_t>(i),
                                          sorted.begin() + static_cast<std::ptrdiff_t>(j) + 1);
    EXPECT_EQ(web.range(sorted[i], sorted[j], h(0)).value, want);
  }
}

// The structural reason skip-webs exist: query load spreads across hosts,
// unlike root-funnelled trees. Same workload, same host counts.
TEST(Integration, CongestionSpreadsBetterThanRootedTree) {
  rng r(7004);
  const std::size_t n = 512;
  const auto keys = wl::uniform_keys(n, r);
  const auto probes = wl::probe_keys(keys, 400, r);

  network web_net(n);
  core::skipweb_1d web(keys, 21, web_net, core::skipweb_1d::placement::tower);
  network tree_net(1);
  baselines::family_tree tree(keys, 22, tree_net);

  web_net.reset_traffic();
  tree_net.reset_traffic();
  std::uint32_t o = 0;
  for (const auto q : probes) {
    (void)web.nearest(q, h(o));
    (void)tree.nearest(q, h(o));
    o = static_cast<std::uint32_t>((o + 1) % n);
  }
  // The treap's root sees essentially every query; the skip-web's hottest
  // host sees a small fraction.
  EXPECT_GT(tree_net.max_visits(), probes.size() / 2);
  EXPECT_LT(web_net.max_visits(), probes.size() / 4);
}

TEST(Integration, WholeSessionsAreDeterministic) {
  auto run = [] {
    rng r(7005);
    auto keys = wl::uniform_keys(300, r);
    network net(1);
    core::skipweb_1d web(keys, 31, net, core::skipweb_1d::bucket{16});
    std::uint64_t checksum = 0;
    for (int op = 0; op < 200; ++op) {
      const auto q = wl::probe_keys(keys, 1, r)[0];
      checksum = checksum * 31 + web.nearest(q, h(static_cast<std::uint32_t>(op) %
                                                  static_cast<std::uint32_t>(net.host_count())))
                                    .stats.messages;
    }
    return std::tuple{checksum, net.total_messages(), net.max_memory()};
  };
  EXPECT_EQ(run(), run());
}

// Shrink to the minimum allowed size and grow back: ledgers and structure
// survive the full cycle.
TEST(Integration, ShrinkAndRegrow) {
  rng r(7006);
  auto keys = wl::uniform_keys(128, r);
  network net(128);
  core::skipweb_1d web(keys, 41, net, core::skipweb_1d::placement::tower);
  std::shuffle(keys.begin(), keys.end(), r.engine());
  for (std::size_t i = 0; i + 2 < keys.size(); ++i) web.erase(keys[i], h(0));
  EXPECT_EQ(web.size(), 2u);
  for (std::size_t i = 0; i + 2 < keys.size(); ++i) web.insert(keys[i], h(0));
  EXPECT_EQ(web.size(), 128u);
  EXPECT_TRUE(web.lists().check_invariants());
  const std::set<std::uint64_t> oracle(keys.begin(), keys.end());
  for (const auto q : wl::probe_keys(keys, 100, r)) {
    auto it = oracle.upper_bound(q);
    const auto res = web.nearest(q, h(3));
    ASSERT_EQ(res.has_pred, it != oracle.begin());
    if (res.has_pred) {
      EXPECT_EQ(res.pred, *std::prev(it));
    }
  }
}

// Memory ledger sanity across heavy churn: totals return to (near) baseline
// when the population does.
TEST(Integration, MemoryLedgerTracksPopulation) {
  rng r(7007);
  auto keys = wl::uniform_keys(256, r);
  network net(1);
  core::skipweb_1d web(keys, 51, net, core::skipweb_1d::bucket{32});
  const auto baseline_total = net.total_memory();
  auto fresh = wl::uniform_keys(64, r);
  for (const auto k : fresh) web.insert(k, h(0));
  EXPECT_GT(net.total_memory(), baseline_total);
  for (const auto k : fresh) web.erase(k, h(0));
  // Splits may leave a few extra near-empty blocks; totals stay within a
  // small band of the baseline rather than drifting.
  EXPECT_LT(net.total_memory(), baseline_total + baseline_total / 4);
  EXPECT_GE(net.total_memory(), baseline_total - baseline_total / 4);
}

}  // namespace
