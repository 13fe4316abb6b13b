#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <set>
#include <vector>

#include "baselines/bucket_skipgraph.h"
#include "baselines/chord.h"
#include "baselines/det_skipnet.h"
#include "baselines/family_tree.h"
#include "baselines/non_skipgraph.h"
#include "baselines/skipgraph.h"
#include "net/network.h"
#include "oracle_common.h"
#include "util/rng.h"
#include "util/stats.h"
#include "workloads/workloads.h"

namespace {

using namespace skipweb;
using namespace skipweb::baselines;
using net::host_id;
using net::network;
using testing_support::check_oracle;
using util::rng;
namespace wl = skipweb::workloads;

host_id h(std::uint32_t v) { return host_id{v}; }

// Membership as the distributed index answers it for every backend but
// chord: nearest's predecessor test.
template <typename S>
bool member(const S& s, std::uint64_t k, host_id origin) {
  const auto r = s.nearest(k, origin);
  return r.has_pred && r.pred == k;
}

// ---------------------------------------------------------------------------
// skip graph
// ---------------------------------------------------------------------------

TEST(SkipGraph, NearestMatchesOracle) {
  rng r(6001);
  const auto keys = wl::uniform_keys(512, r);
  network net(1);
  skip_graph g(keys, 201, net);
  EXPECT_TRUE(g.check_invariants());
  check_oracle(g, std::set<std::uint64_t>(keys.begin(), keys.end()),
               wl::probe_keys(keys, 300, r), net.host_count());
}

TEST(SkipGraph, TowersAreLogarithmic) {
  rng r(6002);
  const auto keys = wl::uniform_keys(1024, r);
  network net(1);
  skip_graph g(keys, 202, net);
  EXPECT_GE(g.max_height(), 10);       // must reach ~log2 n
  EXPECT_LE(g.max_height(), 10 + 14);  // whp bound
}

TEST(SkipGraph, MixedWorkloadMatchesOracle) {
  rng r(6003);
  auto pool = wl::uniform_keys(400, r);
  const std::vector<std::uint64_t> initial(pool.begin(), pool.begin() + 128);
  network net(1);
  skip_graph g(initial, 203, net);
  std::set<std::uint64_t> oracle(initial.begin(), initial.end());
  for (int op = 0; op < 500; ++op) {
    const auto& k = pool[r.index(pool.size())];
    const auto origin = h(static_cast<std::uint32_t>(r.index(net.host_count())));
    switch (r.index(3)) {
      case 0:
        if (oracle.count(k) == 0) {
          g.insert(k, origin);
          oracle.insert(k);
        }
        break;
      case 1:
        if (oracle.count(k) > 0 && oracle.size() >= 2) {
          g.erase(k, origin);
          oracle.erase(k);
        }
        break;
      default:
        EXPECT_EQ(member(g, k, origin), oracle.count(k) > 0);
    }
  }
  EXPECT_EQ(g.size(), oracle.size());
  EXPECT_TRUE(g.check_invariants());
  check_oracle(g, oracle, wl::probe_keys(pool, 150, r), net.host_count());
}

TEST(SkipGraph, QueriesGrowLogarithmically) {
  rng r(6004);
  auto mean_msgs = [&](std::size_t n) {
    const auto keys = wl::uniform_keys(n, r);
    network net(1);
    skip_graph g(keys, 204, net);
    util::accumulator acc;
    std::uint32_t o = 0;
    for (const auto q : wl::probe_keys(keys, 200, r)) {
      acc.add(static_cast<double>(g.nearest(q, h(o)).stats.messages));
      o = static_cast<std::uint32_t>((o + 1) % net.host_count());
    }
    return acc.mean();
  };
  const double at_256 = mean_msgs(256), at_4096 = mean_msgs(4096);
  EXPECT_GT(at_4096, at_256);
  EXPECT_LT(at_4096, at_256 * 2.5);
}

// ---------------------------------------------------------------------------
// NoN skip graph
// ---------------------------------------------------------------------------

TEST(NonSkipGraph, NearestMatchesOracle) {
  rng r(6011);
  const auto keys = wl::uniform_keys(512, r);
  network net(1);
  non_skip_graph g(keys, 211, net);
  check_oracle(g, std::set<std::uint64_t>(keys.begin(), keys.end()),
               wl::probe_keys(keys, 300, r), net.host_count());
}

TEST(NonSkipGraph, LookaheadBeatsPlainRouting) {
  rng r(6012);
  const std::size_t n = 4096;
  const auto keys = wl::uniform_keys(n, r);
  const auto probes = wl::probe_keys(keys, 300, r);
  network net1(1), net2(1);
  skip_graph plain(keys, 212, net1);
  non_skip_graph non(keys, 212, net2);
  util::accumulator plain_acc, non_acc;
  std::uint32_t o = 0;
  for (const auto q : probes) {
    plain_acc.add(static_cast<double>(plain.nearest(q, h(o)).stats.messages));
    non_acc.add(static_cast<double>(non.nearest(q, h(o)).stats.messages));
    o = static_cast<std::uint32_t>((o + 1) % n);
  }
  EXPECT_LT(non_acc.mean(), plain_acc.mean() * 0.75);  // clearly faster
}

TEST(NonSkipGraph, MemoryIsLogSquared) {
  rng r(6013);
  const std::size_t n = 1024;
  const auto keys = wl::uniform_keys(n, r);
  network net_plain(1), net_non(1);
  skip_graph plain(keys, 213, net_plain);
  non_skip_graph non(keys, 213, net_non);
  // NoN tables blow memory up by ~another log factor.
  EXPECT_GT(net_non.max_memory(), net_plain.max_memory() * 3);
}

TEST(NonSkipGraph, UpdatesCostMoreThanPlain) {
  rng r(6014);
  auto keys = wl::uniform_keys(600, r);
  const std::vector<std::uint64_t> initial(keys.begin(), keys.begin() + 512);
  network net1(1), net2(1);
  skip_graph plain(initial, 214, net1);
  non_skip_graph non(initial, 214, net2);
  util::accumulator plain_acc, non_acc;
  for (std::size_t i = 512; i < 600; ++i) {
    plain_acc.add(static_cast<double>(plain.insert(keys[i], h(0)).messages));
    non_acc.add(static_cast<double>(non.insert(keys[i], h(0)).messages));
  }
  EXPECT_GT(non_acc.mean(), plain_acc.mean() * 2.0);  // the log² n refresh bill
  // Both remain correct afterwards.
  const std::set<std::uint64_t> oracle(keys.begin(), keys.end());
  check_oracle(non, oracle, wl::probe_keys(keys, 100, r), net2.host_count());
}

// ---------------------------------------------------------------------------
// bucket skip graph
// ---------------------------------------------------------------------------

class BucketSkipGraphH : public ::testing::TestWithParam<std::size_t> {};

TEST_P(BucketSkipGraphH, NearestMatchesOracle) {
  rng r(6021);
  const auto keys = wl::uniform_keys(512, r);
  network net(1);
  bucket_skip_graph g(keys, 221, net, GetParam());
  EXPECT_TRUE(g.check_invariants());
  check_oracle(g, std::set<std::uint64_t>(keys.begin(), keys.end()),
               wl::probe_keys(keys, 250, r), net.host_count());
}

TEST_P(BucketSkipGraphH, MixedWorkload) {
  rng r(6022);
  auto pool = wl::uniform_keys(300, r);
  const std::vector<std::uint64_t> initial(pool.begin(), pool.begin() + 128);
  network net(1);
  bucket_skip_graph g(initial, 222, net, GetParam());
  std::set<std::uint64_t> oracle(initial.begin(), initial.end());
  for (int op = 0; op < 300; ++op) {
    const auto& k = pool[r.index(pool.size())];
    const auto origin = h(static_cast<std::uint32_t>(r.index(net.host_count())));
    switch (r.index(3)) {
      case 0:
        if (oracle.count(k) == 0) {
          g.insert(k, origin);
          oracle.insert(k);
        }
        break;
      case 1:
        if (oracle.count(k) > 0 && oracle.size() >= 2) {
          g.erase(k, origin);
          oracle.erase(k);
        }
        break;
      default:
        EXPECT_EQ(member(g, k, origin), oracle.count(k) > 0);
    }
  }
  EXPECT_TRUE(g.check_invariants());
  check_oracle(g, oracle, wl::probe_keys(pool, 100, r), net.host_count());
}

INSTANTIATE_TEST_SUITE_P(Buckets, BucketSkipGraphH, ::testing::Values(4, 16, 64),
                         [](const auto& info) { return "H" + std::to_string(info.param); });

TEST(BucketSkipGraph, FewerBucketsFewerMessages) {
  rng r(6023);
  const auto keys = wl::uniform_keys(2048, r);
  const auto probes = wl::probe_keys(keys, 200, r);
  double prev = 1e18;
  for (const std::size_t buckets : {512u, 64u, 8u}) {
    network net(1);
    bucket_skip_graph g(keys, 223, net, buckets);
    util::accumulator acc;
    for (const auto q : probes) acc.add(static_cast<double>(g.nearest(q, h(0)).stats.messages));
    EXPECT_LT(acc.mean(), prev) << buckets;
    prev = acc.mean();
  }
}

// ---------------------------------------------------------------------------
// family tree (treap substitute)
// ---------------------------------------------------------------------------

TEST(FamilyTree, NearestMatchesOracle) {
  rng r(6031);
  const auto keys = wl::uniform_keys(512, r);
  network net(1);
  family_tree t(keys, 231, net);
  EXPECT_TRUE(t.check_invariants());
  check_oracle(t, std::set<std::uint64_t>(keys.begin(), keys.end()),
               wl::probe_keys(keys, 300, r), net.host_count());
}

TEST(FamilyTree, ConstantDegree) {
  rng r(6032);
  const auto keys = wl::uniform_keys(2048, r);
  network net(1);
  family_tree t(keys, 232, net);
  // 5 structural refs + 1 root anchor + rounding: O(1), independent of n.
  EXPECT_LE(t.max_refs_per_host(), 8u);
}

TEST(FamilyTree, MixedWorkloadMatchesOracle) {
  rng r(6033);
  auto pool = wl::uniform_keys(400, r);
  const std::vector<std::uint64_t> initial(pool.begin(), pool.begin() + 128);
  network net(1);
  family_tree t(initial, 233, net);
  std::set<std::uint64_t> oracle(initial.begin(), initial.end());
  for (int op = 0; op < 400; ++op) {
    const auto& k = pool[r.index(pool.size())];
    const auto origin = h(static_cast<std::uint32_t>(r.index(net.host_count())));
    switch (r.index(3)) {
      case 0:
        if (oracle.count(k) == 0) {
          t.insert(k, origin);
          oracle.insert(k);
        }
        break;
      case 1:
        if (oracle.count(k) > 0 && oracle.size() >= 2) {
          t.erase(k, origin);
          oracle.erase(k);
        }
        break;
      default:
        EXPECT_EQ(member(t, k, origin), oracle.count(k) > 0);
    }
    if (op % 100 == 0) {
      EXPECT_TRUE(t.check_invariants());
    }
  }
  EXPECT_TRUE(t.check_invariants());
  check_oracle(t, oracle, wl::probe_keys(pool, 150, r), net.host_count());
}

TEST(FamilyTree, QueriesGrowLogarithmically) {
  rng r(6034);
  auto mean_msgs = [&](std::size_t n) {
    const auto keys = wl::uniform_keys(n, r);
    network net(1);
    family_tree t(keys, 234, net);
    util::accumulator acc;
    std::uint32_t o = 0;
    for (const auto q : wl::probe_keys(keys, 200, r)) {
      acc.add(static_cast<double>(t.nearest(q, h(o)).stats.messages));
      o = static_cast<std::uint32_t>((o + 1) % net.host_count());
    }
    return acc.mean();
  };
  const double at_256 = mean_msgs(256), at_4096 = mean_msgs(4096);
  EXPECT_LT(at_4096, at_256 * 2.2);
}

// ---------------------------------------------------------------------------
// deterministic SkipNet
// ---------------------------------------------------------------------------

TEST(DetSkipnet, NearestMatchesOracle) {
  rng r(6041);
  const auto keys = wl::uniform_keys(512, r);
  network net(1);
  det_skipnet s(keys, net);
  check_oracle(s, std::set<std::uint64_t>(keys.begin(), keys.end()),
               wl::probe_keys(keys, 300, r), net.host_count());
}

TEST(DetSkipnet, WorstCaseSearchIsLogarithmic) {
  rng r(6042);
  for (const std::size_t n : {256u, 1024u}) {
    const auto keys = wl::uniform_keys(n, r);
    network net(1);
    det_skipnet s(keys, net);
    const double logn = std::log2(static_cast<double>(n));
    // Deterministic: the *maximum* over all keys is O(log n), no tail.
    EXPECT_LE(static_cast<double>(s.worst_case_search_messages()), 4.0 * logn) << n;
  }
}

TEST(DetSkipnet, DeterministicAcrossRuns) {
  rng r1(6043), r2(6043);
  const auto k1 = wl::uniform_keys(256, r1);
  const auto k2 = wl::uniform_keys(256, r2);
  network n1(1), n2(1);
  det_skipnet s1(k1, n1), s2(k2, n2);
  for (int i = 0; i < 50; ++i) {
    const auto q = k1[static_cast<std::size_t>(i * 5)];
    EXPECT_EQ(s1.nearest(q, h(3)).stats.messages, s2.nearest(q, h(3)).stats.messages);
  }
}

TEST(DetSkipnet, UpdatesKeepCorrectnessAcrossRebuilds) {
  rng r(6044);
  auto pool = wl::uniform_keys(500, r);
  const std::vector<std::uint64_t> initial(pool.begin(), pool.begin() + 100);
  network net(1);
  det_skipnet s(initial, net);
  std::set<std::uint64_t> oracle(initial.begin(), initial.end());
  for (std::size_t i = 100; i < 500; ++i) {  // enough updates to force rebuilds
    s.insert(pool[i], h(static_cast<std::uint32_t>(i % net.host_count())));
    oracle.insert(pool[i]);
  }
  check_oracle(s, oracle, wl::probe_keys(pool, 200, r), net.host_count());
}

// ---------------------------------------------------------------------------
// Chord
// ---------------------------------------------------------------------------

TEST(Chord, LookupFindsStoredKeys) {
  rng r(6051);
  const auto keys = wl::uniform_keys(400, r);
  network net(1);
  chord c(64, keys, 251, net);
  for (std::size_t i = 0; i < 100; ++i) {
    const auto res = c.lookup(keys[i], h(static_cast<std::uint32_t>(i % 64)));
    EXPECT_TRUE(res.found) << i;
  }
  const auto probes = wl::uniform_keys(50, r);
  for (const auto q : probes) {
    EXPECT_FALSE(c.lookup(q, h(0)).found);  // fresh random keys are absent
  }
}

TEST(Chord, LookupHopsAreLogarithmicInHosts) {
  rng r(6052);
  const auto keys = wl::uniform_keys(512, r);
  auto mean_hops = [&](std::size_t hosts) {
    network net(1);
    chord c(hosts, keys, 252, net);
    util::accumulator acc;
    for (std::size_t i = 0; i < 200; ++i) {
      acc.add(static_cast<double>(
          c.lookup(keys[i % keys.size()], h(static_cast<std::uint32_t>(i % hosts))).stats.messages));
    }
    return acc.mean();
  };
  const double at_16 = mean_hops(16), at_256 = mean_hops(256);
  EXPECT_LT(at_256, at_16 * 3.0);  // log H growth, not linear
  EXPECT_LT(at_256, 2.0 * std::log2(256.0));
}

TEST(Chord, NearestNeighbourNeedsFlooding) {
  // The motivating contrast: hashing destroys order, so NN costs H messages.
  rng r(6053);
  const auto keys = wl::uniform_keys(256, r);
  network net(1);
  chord c(128, keys, 253, net);
  std::vector<std::uint64_t> sorted = keys;
  std::sort(sorted.begin(), sorted.end());
  const auto probes = wl::probe_keys(keys, 20, r);
  for (const auto q : probes) {
    const auto got = c.nearest_by_flooding(q, h(0));
    const auto it = std::upper_bound(sorted.begin(), sorted.end(), q);
    ASSERT_NE(it, sorted.begin());
    ASSERT_TRUE(got.has_pred);
    EXPECT_EQ(got.pred, *std::prev(it));
    EXPECT_GE(got.stats.messages, 127u);  // visits essentially every host
  }
}

}  // namespace
