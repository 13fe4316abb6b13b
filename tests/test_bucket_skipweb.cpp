#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
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

class BucketSkipwebM : public ::testing::TestWithParam<std::size_t> {};

TEST_P(BucketSkipwebM, NearestMatchesOracle) {
  const std::size_t M = GetParam();
  rng r(2001);
  const auto keys = wl::uniform_keys(512, r);
  network net(1);
  skipweb_1d web(keys, 142, net, skipweb_1d::bucket{M});
  EXPECT_TRUE(web.check_block_invariants());
  const std::set<std::uint64_t> oracle(keys.begin(), keys.end());
  check_oracle(web, oracle, wl::probe_keys(keys, 300, r), net.host_count());
}

TEST_P(BucketSkipwebM, MixedWorkloadMatchesOracle) {
  const std::size_t M = GetParam();
  rng r(2002);
  auto pool = wl::uniform_keys(400, r);
  const std::vector<std::uint64_t> initial(pool.begin(), pool.begin() + 128);
  network net(1);
  skipweb_1d web(initial, 143, net, skipweb_1d::bucket{M});
  std::set<std::uint64_t> oracle(initial.begin(), initial.end());

  for (int op = 0; op < 500; ++op) {
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
  EXPECT_TRUE(web.check_block_invariants());
  check_oracle(web, oracle, wl::probe_keys(pool, 150, r), net.host_count());
}

INSTANTIATE_TEST_SUITE_P(MemorySizes, BucketSkipwebM, ::testing::Values(4, 8, 16, 64, 256),
                         [](const auto& info) { return "M" + std::to_string(info.param); });

TEST(BucketSkipweb, StratumAnatomy) {
  rng r(2003);
  const auto keys = wl::uniform_keys(1024, r);
  network net(1);
  skipweb_1d web(keys, 144, net, skipweb_1d::bucket{16});
  // M=16: L = 4 levels per stratum; levels_for(1024) = 10 -> strata 0..2.
  EXPECT_EQ(web.stratum_levels(), 4u);
  EXPECT_EQ(web.strata(), 3);
  EXPECT_EQ(web.block_capacity(), 4u);
  EXPECT_TRUE(web.check_block_invariants());
}

TEST(BucketSkipweb, HostCountScalesAsNLogNOverM) {
  rng r(2004);
  const std::size_t n = 1024;
  const auto keys = wl::uniform_keys(n, r);
  for (const std::size_t M : {16u, 64u, 256u}) {
    network net(1);
    skipweb_1d web(keys, 145, net, skipweb_1d::bucket{M});
    const double expect = static_cast<double>(n) * std::log2(static_cast<double>(n)) /
                          static_cast<double>(M);
    const auto blocks = static_cast<double>(web.live_block_count());
    EXPECT_LT(blocks, 6.0 * expect) << "M=" << M;
    EXPECT_GT(blocks, 0.3 * expect) << "M=" << M;
  }
}

TEST(BucketSkipweb, PerHostMemoryIsThetaM) {
  rng r(2005);
  const auto keys = wl::uniform_keys(2048, r);
  for (const std::size_t M : {16u, 64u, 256u}) {
    network net(1);
    skipweb_1d web(keys, 146, net, skipweb_1d::bucket{M});
    // Ledger units per node ~4 (node + 3 refs); block holds <= 2B items over
    // L levels: <= 2*4*M units + constants.
    EXPECT_LE(net.max_memory(), 8 * M + 64) << "M=" << M;
  }
}

TEST(BucketSkipweb, LargerMMeansFewerMessages) {
  rng r(2006);
  const std::size_t n = 4096;
  const auto keys = wl::uniform_keys(n, r);
  const auto probes = wl::probe_keys(keys, 300, r);
  double prev_mean = 1e18;
  for (const std::size_t M : {8u, 64u, 512u}) {
    network net(1);
    skipweb_1d web(keys, 147, net, skipweb_1d::bucket{M});
    skipweb::util::accumulator acc;
    std::uint32_t origin = 0;
    for (const auto q : probes) {
      acc.add(static_cast<double>(web.nearest(q, h(origin)).stats.messages));
      origin = static_cast<std::uint32_t>((origin + 1) % net.host_count());
    }
    EXPECT_LT(acc.mean(), prev_mean) << "M=" << M;
    prev_mean = acc.mean();
  }
}

// The paper's headline: with M = Theta(log n), queries cost
// O(log n / log log n) — strictly fewer messages than the unbucketed
// O(log n) routing, with the gap widening in n.
TEST(BucketSkipweb, BeatsLogNRouting) {
  rng r(2007);
  const std::size_t n = 8192;
  const auto keys = wl::uniform_keys(n, r);
  const std::size_t M = static_cast<std::size_t>(std::log2(n)) * 2;  // Theta(log n)
  network net(1);
  skipweb_1d web(keys, 148, net, skipweb_1d::bucket{M});
  skipweb::util::accumulator acc;
  std::uint32_t origin = 0;
  for (const auto q : wl::probe_keys(keys, 400, r)) {
    acc.add(static_cast<double>(web.nearest(q, h(origin)).stats.messages));
    origin = static_cast<std::uint32_t>((origin + 1) % net.host_count());
  }
  // log2(8192) = 13; log n / log log n ~ 3.5. Allow generous constants but
  // demand clearly sublogarithmic routing.
  EXPECT_LT(acc.mean(), 13.0);
  EXPECT_GT(acc.mean(), 1.0);
}

TEST(BucketSkipweb, BlockSplitsKeepInvariants) {
  rng r(2008);
  auto pool = wl::uniform_keys(600, r);
  const std::vector<std::uint64_t> initial(pool.begin(), pool.begin() + 64);
  network net(1);
  skipweb_1d web(initial, 149, net, skipweb_1d::bucket{16});  // B = 4: splits happen fast
  for (std::size_t i = 64; i < pool.size(); ++i) {
    web.insert(pool[i], h(static_cast<std::uint32_t>(i % net.host_count())));
    if (i % 100 == 0) {
      EXPECT_TRUE(web.check_block_invariants());
    }
  }
  EXPECT_EQ(web.size(), 600u);
  EXPECT_TRUE(web.check_block_invariants());
  const std::set<std::uint64_t> oracle(pool.begin(), pool.end());
  check_oracle(web, oracle, wl::probe_keys(pool, 200, r), net.host_count());
}

TEST(BucketSkipweb, ShrinkToTinyKeepsWorking) {
  rng r(2009);
  auto keys = wl::uniform_keys(256, r);
  network net(1);
  skipweb_1d web(keys, 150, net, skipweb_1d::bucket{32});
  std::shuffle(keys.begin(), keys.end(), r.engine());
  for (std::size_t i = 0; i + 2 < keys.size(); ++i) {
    web.erase(keys[i], h(0));
  }
  EXPECT_EQ(web.size(), 2u);
  EXPECT_TRUE(web.check_block_invariants());
  const auto res = web.nearest(keys[keys.size() - 1], h(0));
  EXPECT_TRUE(res.has_pred);
}

TEST(BucketSkipweb, RejectsTinyM) {
  rng r(2010);
  const auto keys = wl::uniform_keys(16, r);
  network net(1);
  EXPECT_THROW(skipweb_1d(keys, 151, net, skipweb_1d::bucket{2}), skipweb::util::contract_error);
}

TEST(BucketSkipweb, ClusteredKeysUnaffected) {
  // Balance must come from the random level bits, not the key distribution.
  rng r(2011);
  const auto keys = wl::clustered_keys(1024, r);
  network net(1);
  skipweb_1d web(keys, 152, net, skipweb_1d::bucket{32});
  EXPECT_TRUE(web.check_block_invariants());
  const std::set<std::uint64_t> oracle(keys.begin(), keys.end());
  check_oracle(web, oracle, wl::probe_keys(keys, 200, r), net.host_count());
}

// The owner-table placement reproduces the block-table class it replaced op
// for op: these digests were recorded from that class with the same keys,
// seed and ops. They pin the run rules that answers alone cannot see —
// which run an item joins, splits onto fresh hosts, and the fresh host's
// root (queried below from every host).
TEST(BucketSkipweb, ReceiptsMatchTheBlockTableLayout) {
  for (const auto& [M, want_hosts, want] :
       {std::tuple<std::size_t, std::size_t, std::uint64_t>{4, 846, 0xf795a21d7b40e599ull},
        {16, 211, 0x10f2c6fa49ca5562ull}}) {
    rng r(2012);
    const auto pool = wl::uniform_keys(700, r);
    const std::vector<std::uint64_t> initial(pool.begin(), pool.begin() + 200);
    network net(8);
    skipweb_1d web(initial, 153, net, skipweb_1d::bucket{M});
    std::uint64_t digest = 14695981039346656037ull;  // FNV-1a
    const auto mix = [&](std::uint64_t v) { digest = (digest ^ v) * 1099511628211ull; };
    const auto mix_stats = [&](const skipweb::api::op_stats& s) {
      mix(s.messages);
      mix(s.host_visits);
      mix(s.comparisons);
    };
    for (std::size_t i = 200; i < 700; ++i) {
      const auto o = h(static_cast<std::uint32_t>(i % net.host_count()));
      mix_stats(web.insert(pool[i], o));
      if (i % 3 == 0) mix_stats(web.erase(pool[i - 150], o));
    }
    for (std::uint32_t o = 0; o < net.host_count(); ++o) {
      const auto n = web.nearest(pool[(o * 7) % 700], h(o));
      mix(n.pred);
      mix_stats(n.stats);
    }
    mix(net.host_count());
    mix(net.total_memory());
    EXPECT_EQ(net.host_count(), want_hosts) << "M=" << M;
    EXPECT_EQ(digest, want) << "M=" << M;
  }
}

}  // namespace
