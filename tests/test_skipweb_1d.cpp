#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <tuple>
#include <vector>

#include "core/skipweb_1d.h"
#include "net/network.h"
#include "oracle_common.h"
#include "util/rng.h"
#include "util/stats.h"
#include "workloads/workloads.h"

namespace {

using skipweb::core::skipweb_1d;
using skipweb::net::host_id;
using skipweb::net::network;
using skipweb::testing_support::check_oracle;
using skipweb::util::rng;
namespace wl = skipweb::workloads;

host_id h(std::uint32_t v) { return host_id{v}; }

class Skipweb1dPlacement : public ::testing::TestWithParam<skipweb_1d::placement> {};

TEST_P(Skipweb1dPlacement, NearestMatchesOracle) {
  rng r(1001);
  const auto keys = wl::uniform_keys(512, r);
  network net(GetParam() == skipweb_1d::placement::tower ? 512 : 64);
  skipweb_1d web(keys, 42, net, GetParam());
  const std::set<std::uint64_t> oracle(keys.begin(), keys.end());
  check_oracle(web, oracle, wl::probe_keys(keys, 300, r), net.host_count());
  // Exact hits as well.
  for (std::size_t i = 0; i < 50; ++i) {
    EXPECT_TRUE(web.contains(keys[i], h(static_cast<std::uint32_t>(i % net.host_count()))).value);
  }
}

TEST_P(Skipweb1dPlacement, BatchNearestMatchesSerialExactly) {
  // The interleaved batch router must be *observably identical* to serial
  // nearest() — same pred/succ and the same per-op cost receipt — for every
  // query; only wall-clock may differ. Includes batch sizes around the
  // internal chunk boundary, exact-hit probes, and the edge lanes of the
  // two-round batch decision: q = 0 and q = 2^64 - 1 run into the level-0
  // list ends, the smallest and largest stored keys stop right after a
  // compare, and a clustered build packs many keys next to each other.
  rng r(1007);
  for (const bool clustered : {false, true}) {
    SCOPED_TRACE(clustered ? "clustered" : "uniform");
    const auto keys = clustered ? wl::clustered_keys(512, r) : wl::uniform_keys(512, r);
    network net(GetParam() == skipweb_1d::placement::tower ? 512 : 64);
    skipweb_1d web(keys, 77, net, GetParam());
    const auto [lo, hi] = std::minmax_element(keys.begin(), keys.end());
    std::vector<std::uint64_t> probes = {0, ~std::uint64_t{0}, *lo, *hi, keys[3], keys[400]};
    for (const auto q : wl::probe_keys(keys, 61, r)) probes.push_back(q);
    std::uint32_t origin = 0;
    for (const std::size_t take :
         {std::size_t{1}, std::size_t{2}, std::size_t{7}, std::size_t{24}, probes.size()}) {
      const std::vector<std::uint64_t> qs(probes.begin(),
                                          probes.begin() + static_cast<std::ptrdiff_t>(take));
      const auto o = h(origin);
      origin = static_cast<std::uint32_t>((origin + 1) % net.host_count());
      const auto batch = web.nearest_batch(qs, o);
      ASSERT_EQ(batch.size(), qs.size());
      for (std::size_t i = 0; i < qs.size(); ++i) {
        const auto serial = web.nearest(qs[i], o);
        EXPECT_EQ(batch[i].has_pred, serial.has_pred) << "i=" << i;
        EXPECT_EQ(batch[i].has_succ, serial.has_succ) << "i=" << i;
        if (serial.has_pred) {
          EXPECT_EQ(batch[i].pred, serial.pred) << "i=" << i;
        }
        if (serial.has_succ) {
          EXPECT_EQ(batch[i].succ, serial.succ) << "i=" << i;
        }
        EXPECT_EQ(batch[i].stats, serial.stats) << "i=" << i;
      }
    }
    EXPECT_TRUE(web.nearest_batch({}, h(0)).empty());
  }
}

TEST_P(Skipweb1dPlacement, BatchMatchesSerialOverRecycledSlots) {
  // The other batch tests read fresh or insert-only builds, where item i
  // still lives on host i under the tower placement. Here each erase frees
  // an arena slot and the next insert recycles it with a fresh host, so a
  // batch host rule that assumed item i on host i would misprice hops.
  rng r(1008);
  const auto pool = wl::uniform_keys(612, r);
  const std::vector<std::uint64_t> initial(pool.begin(), pool.begin() + 512);
  network net(GetParam() == skipweb_1d::placement::tower ? 512 : 64);
  skipweb_1d web(initial, 78, net, GetParam());
  std::set<std::uint64_t> oracle(initial.begin(), initial.end());
  for (std::size_t i = 0; i < 100; ++i) {
    const auto o = h(static_cast<std::uint32_t>(i % net.host_count()));
    web.erase(initial[5 * i], o);
    oracle.erase(initial[5 * i]);
    web.insert(pool[512 + i], o);
    oracle.insert(pool[512 + i]);
  }
  ASSERT_EQ(web.size(), 512u);
  ASSERT_EQ(web.lists().arena_size(), 512u);  // every insert took a freed slot
  if (GetParam() == skipweb_1d::placement::tower) {
    bool moved = false;
    for (int i = 0; i < static_cast<int>(web.lists().arena_size()); ++i) {
      moved = moved || (web.lists().alive(i) &&
                        web.host_of(i, 0).value != static_cast<std::uint32_t>(i));
    }
    ASSERT_TRUE(moved) << "no live item left the host numbered after it";
  }
  std::vector<std::uint64_t> probes = {0, ~std::uint64_t{0}, initial[0], initial[5], pool[512]};
  for (const auto q : wl::probe_keys(pool, 200, r)) probes.push_back(q);
  check_oracle(web, oracle, probes, net.host_count());
  skipweb::testing_support::expect_nearest_batch_matches_serial(web, probes, {1, 23, 24, 25, 49, 0},
                                                                net.host_count());
}

TEST_P(Skipweb1dPlacement, InsertThenQuery) {
  rng r(1002);
  auto keys = wl::uniform_keys(300, r);
  const std::vector<std::uint64_t> initial(keys.begin(), keys.begin() + 200);
  network net(GetParam() == skipweb_1d::placement::tower ? 200 : 32);
  skipweb_1d web(initial, 43, net, GetParam());
  std::set<std::uint64_t> oracle(initial.begin(), initial.end());

  for (std::size_t i = 200; i < 300; ++i) {
    web.insert(keys[i], h(static_cast<std::uint32_t>(i % net.host_count())));
    oracle.insert(keys[i]);
  }
  EXPECT_EQ(web.size(), 300u);
  EXPECT_TRUE(web.lists().check_invariants());
  check_oracle(web, oracle, wl::probe_keys(keys, 200, r), net.host_count());
}

TEST_P(Skipweb1dPlacement, EraseThenQuery) {
  rng r(1003);
  auto keys = wl::uniform_keys(300, r);
  network net(GetParam() == skipweb_1d::placement::tower ? 300 : 32);
  skipweb_1d web(keys, 44, net, GetParam());
  std::set<std::uint64_t> oracle(keys.begin(), keys.end());

  std::shuffle(keys.begin(), keys.end(), r.engine());
  for (std::size_t i = 0; i < 150; ++i) {
    web.erase(keys[i], h(static_cast<std::uint32_t>(i % net.host_count())));
    oracle.erase(keys[i]);
  }
  EXPECT_EQ(web.size(), 150u);
  EXPECT_TRUE(web.lists().check_invariants());
  check_oracle(web, oracle, wl::probe_keys(keys, 200, r), net.host_count());
}

TEST_P(Skipweb1dPlacement, MixedWorkloadMatchesOracle) {
  rng r(1004);
  auto pool = wl::uniform_keys(400, r);
  const std::vector<std::uint64_t> initial(pool.begin(), pool.begin() + 100);
  network net(GetParam() == skipweb_1d::placement::tower ? 100 : 24);
  skipweb_1d web(initial, 45, net, GetParam());
  std::set<std::uint64_t> oracle(initial.begin(), initial.end());

  for (int op = 0; op < 600; ++op) {
    const auto& k = pool[r.index(pool.size())];
    const auto origin = h(static_cast<std::uint32_t>(r.index(net.host_count())));
    switch (r.index(3)) {
      case 0: {
        if (oracle.count(k) == 0) {
          web.insert(k, origin);
          oracle.insert(k);
        }
        break;
      }
      case 1: {
        if (oracle.count(k) > 0 && oracle.size() >= 2) {
          web.erase(k, origin);
          oracle.erase(k);
        }
        break;
      }
      default:
        EXPECT_EQ(web.contains(k, origin).value, oracle.count(k) > 0);
    }
  }
  EXPECT_EQ(web.size(), oracle.size());
  EXPECT_TRUE(web.lists().check_invariants());
}

INSTANTIATE_TEST_SUITE_P(Placements, Skipweb1dPlacement,
                         ::testing::Values(skipweb_1d::placement::tower,
                                           skipweb_1d::placement::balanced),
                         [](const auto& info) {
                           return info.param == skipweb_1d::placement::tower ? "Tower"
                                                                             : "Balanced";
                         });

TEST(Skipweb1d, RejectsDuplicateInsertAndMissingErase) {
  rng r(1010);
  const auto keys = wl::uniform_keys(32, r);
  network net(32);
  skipweb_1d web(keys, 46, net, skipweb_1d::placement::tower);
  EXPECT_THROW(web.insert(keys[0], h(0)), skipweb::util::contract_error);
  EXPECT_THROW(web.erase(keys[0] + 1, h(0)), skipweb::util::contract_error);
}

TEST(Skipweb1d, QueryMessagesGrowLogarithmically) {
  rng r(1011);
  auto mean_messages = [&](std::size_t n) {
    auto keys = wl::uniform_keys(n, r);
    network net(n);
    skipweb_1d web(keys, 47, net, skipweb_1d::placement::tower);
    skipweb::util::accumulator acc;
    std::uint32_t origin = 0;
    for (const auto q : wl::probe_keys(keys, 200, r)) {
      acc.add(static_cast<double>(web.nearest(q, h(origin)).stats.messages));
      origin = static_cast<std::uint32_t>((origin + 1) % n);
    }
    return acc.mean();
  };
  const double at_256 = mean_messages(256);
  const double at_4096 = mean_messages(4096);
  EXPECT_GT(at_4096, at_256);           // grows
  EXPECT_LT(at_4096, at_256 * 2.5);     // like log n, not n (16x data, ~1.5x cost)
}

TEST(Skipweb1d, TowerMemoryIsLogarithmicPerHost) {
  rng r(1012);
  const std::size_t n = 1024;
  const auto keys = wl::uniform_keys(n, r);
  network net(n);
  skipweb_1d web(keys, 48, net, skipweb_1d::placement::tower);
  // Every host stores exactly one tower: levels+1 nodes and O(levels) refs.
  const auto max_mem = net.max_memory();
  EXPECT_LE(max_mem, 6u * (static_cast<std::uint64_t>(web.levels()) + 2));
  EXPECT_GE(net.mean_memory(), static_cast<double>(web.levels()));
}

TEST(Skipweb1d, BalancedPlacementSpreadsMemory) {
  rng r(1013);
  const std::size_t n = 2048, hosts = 128;
  const auto keys = wl::uniform_keys(n, r);
  network net(hosts);
  skipweb_1d web(keys, 49, net, skipweb_1d::placement::balanced);
  // ~n(levels+1)*4/hosts memory units per host; the max should be within 2x
  // of the mean (hashing balance).
  EXPECT_LT(static_cast<double>(net.max_memory()), 1.6 * net.mean_memory());
}

TEST(Skipweb1d, SearchFromEveryOriginAgrees) {
  rng r(1014);
  const auto keys = wl::uniform_keys(128, r);
  network net(128);
  skipweb_1d web(keys, 50, net, skipweb_1d::placement::tower);
  const std::uint64_t q = wl::probe_keys(keys, 1, r)[0];
  const auto want = web.nearest(q, h(0));
  for (std::uint32_t o = 1; o < 128; o += 7) {
    const auto got = web.nearest(q, h(o));
    EXPECT_EQ(got.has_pred, want.has_pred);
    EXPECT_EQ(got.pred, want.pred);
    EXPECT_EQ(got.has_succ, want.has_succ);
    EXPECT_EQ(got.succ, want.succ);
  }
}

TEST(Skipweb1d, DeterministicForFixedSeeds) {
  rng r1(1015), r2(1015);
  const auto k1 = wl::uniform_keys(200, r1);
  const auto k2 = wl::uniform_keys(200, r2);
  network n1(200), n2(200);
  skipweb_1d w1(k1, 51, n1, skipweb_1d::placement::tower);
  skipweb_1d w2(k2, 51, n2, skipweb_1d::placement::tower);
  const auto q = k1[10] + 1;
  EXPECT_EQ(w1.nearest(q, h(3)).stats.messages, w2.nearest(q, h(3)).stats.messages);
}

TEST(Skipweb1d, SingleItemStructure) {
  network net(1);
  skipweb_1d web({42}, 52, net, skipweb_1d::placement::tower);
  const auto below = web.nearest(41, h(0));
  EXPECT_FALSE(below.has_pred);
  ASSERT_TRUE(below.has_succ);
  EXPECT_EQ(below.succ, 42u);
  const auto hit = web.nearest(42, h(0));
  ASSERT_TRUE(hit.has_pred);
  EXPECT_EQ(hit.pred, 42u);
  EXPECT_THROW(web.erase(42, h(0)), skipweb::util::contract_error);  // never empty
}

TEST(Skipweb1d, EraseOfRootAnchorStillSearchable) {
  rng r(1016);
  auto keys = wl::uniform_keys(64, r);
  network net(64);
  skipweb_1d web(keys, 53, net, skipweb_1d::placement::tower);
  // Erase the anchor items of the first few hosts, then query from them.
  std::sort(keys.begin(), keys.end());
  for (int i = 0; i < 8; ++i) web.erase(keys[static_cast<std::size_t>(i)], h(40));
  for (std::uint32_t o = 0; o < 8; ++o) {
    const auto res = web.nearest(keys[20], h(o));
    EXPECT_TRUE(res.has_pred);
    EXPECT_EQ(res.pred, keys[20]);
  }
}

}  // namespace
