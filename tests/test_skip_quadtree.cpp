#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "core/skip_quadtree.h"
#include "net/network.h"
#include "util/rng.h"
#include "util/stats.h"
#include "workloads/workloads.h"

namespace {

using namespace skipweb;
using core::skip_quadtree;
using net::host_id;
using net::network;
using util::rng;
namespace wl = skipweb::workloads;

host_id h(std::uint32_t v) { return host_id{v}; }

template <int D>
seq::qpoint<D> random_probe(rng& r) {
  seq::qpoint<D> q;
  for (int d = 0; d < D; ++d) q.x[d] = r.uniform_u64(0, seq::coord_span - 1);
  return q;
}

TEST(SkipQuadtree, LocateAgreesWithSequentialOracle) {
  rng r(3001);
  const auto pts = wl::uniform_points<2>(512, r);
  network net(512);
  skip_quadtree<2> web(pts, 71, net);
  const seq::quadtree<2> oracle(pts);
  for (int trial = 0; trial < 200; ++trial) {
    const auto q = random_probe<2>(r);
    const auto res = web.locate(q, h(static_cast<std::uint32_t>(trial % 512)));
    const int want = oracle.locate(q);
    EXPECT_TRUE(res.cell == oracle.node(want).box)
        << "distributed locate found a different cell";
  }
}

TEST(SkipQuadtree, ContainsFindsExactPoints) {
  rng r(3002);
  const auto pts = wl::uniform_points<2>(256, r);
  network net(256);
  skip_quadtree<2> web(pts, 72, net);
  for (std::size_t i = 0; i < 64; ++i) {
    EXPECT_TRUE(web.contains(pts[i], h(static_cast<std::uint32_t>(i % 256))).value);
  }
  for (int i = 0; i < 64; ++i) {
    const auto q = random_probe<2>(r);
    EXPECT_FALSE(web.contains(q, h(0)).value);  // random 62-bit points never collide
  }
}

TEST(SkipQuadtree, NearestMatchesSequentialOracle) {
  rng r(3003);
  const auto pts = wl::uniform_points<2>(300, r);
  network net(300);
  skip_quadtree<2> web(pts, 73, net);
  const seq::quadtree<2> oracle(pts);
  for (int trial = 0; trial < 60; ++trial) {
    const auto q = random_probe<2>(r);
    const auto res = web.nearest(q, h(static_cast<std::uint32_t>(trial % 300)));
    const auto want = oracle.nearest(q);
    EXPECT_TRUE(seq::quadtree<2>::point_dist2(res.value, q) ==
                seq::quadtree<2>::point_dist2(want, q));
    EXPECT_GT(res.stats.messages, 0u);
  }
}

TEST(SkipQuadtree, OctreeLocateAgrees) {
  rng r(3004);
  const auto pts = wl::uniform_points<3>(256, r);
  network net(256);
  skip_quadtree<3> web(pts, 74, net);
  const seq::quadtree<3> oracle(pts);
  for (int trial = 0; trial < 80; ++trial) {
    const auto q = random_probe<3>(r);
    const auto res = web.locate(q, h(static_cast<std::uint32_t>(trial % 256)));
    EXPECT_TRUE(res.cell == oracle.node(oracle.locate(q)).box);
  }
}

TEST(SkipQuadtree, InsertThenLocate) {
  rng r(3005);
  auto pts = wl::uniform_points<2>(300, r);
  const std::vector<seq::qpoint<2>> initial(pts.begin(), pts.begin() + 200);
  network net(200);
  skip_quadtree<2> web(initial, 75, net);
  for (std::size_t i = 200; i < 300; ++i) {
    const auto stats = web.insert(pts[i], h(static_cast<std::uint32_t>(i % 200)));
    EXPECT_GT(stats.messages, 0u);
  }
  EXPECT_EQ(web.size(), 300u);
  const seq::quadtree<2> oracle(pts);
  EXPECT_EQ(web.ground_node_count(), oracle.node_count());
  for (int trial = 0; trial < 100; ++trial) {
    const auto q = random_probe<2>(r);
    EXPECT_TRUE(web.locate(q, h(0)).cell == oracle.node(oracle.locate(q)).box);
  }
  for (const auto& p : pts) EXPECT_TRUE(web.contains(p, h(3)).value);
}

TEST(SkipQuadtree, EraseThenLocate) {
  rng r(3006);
  auto pts = wl::uniform_points<2>(300, r);
  network net(300);
  skip_quadtree<2> web(pts, 76, net);
  std::shuffle(pts.begin(), pts.end(), r.engine());
  for (std::size_t i = 0; i < 150; ++i) {
    web.erase(pts[i], h(static_cast<std::uint32_t>(i % 300)));
  }
  EXPECT_EQ(web.size(), 150u);
  const std::vector<seq::qpoint<2>> rest(pts.begin() + 150, pts.end());
  const seq::quadtree<2> oracle(rest);
  EXPECT_EQ(web.ground_node_count(), oracle.node_count());
  for (std::size_t i = 0; i < 150; ++i) EXPECT_FALSE(web.contains(pts[i], h(1)).value);
  for (std::size_t i = 150; i < 300; ++i) EXPECT_TRUE(web.contains(pts[i], h(2)).value);
}

TEST(SkipQuadtree, MessagesLogarithmicOnDeepTree) {
  // The paper's §3.1 claim: O(log n) point-location messages even when the
  // compressed quadtree has linear depth.
  const auto pts = wl::chain_points<2>(56);  // depth ~28 for 56 points
  network net(56);
  skip_quadtree<2> web(pts, 77, net);
  EXPECT_GE(web.depth(), 20);

  rng r(3007);
  skipweb::util::accumulator acc;
  for (int trial = 0; trial < 200; ++trial) {
    // Probe near the origin corner so the search must route down the spine.
    seq::qpoint<2> q;
    const int shift = 1 + static_cast<int>(r.index(58));
    for (int d = 0; d < 2; ++d) q.x[d] = (seq::coord_t{1} << shift) + r.uniform_u64(0, 3);
    const auto res = web.locate(q, h(static_cast<std::uint32_t>(trial % 56)));
    acc.add(static_cast<double>(res.stats.messages));
  }
  // Depth is ~28; log2(56) ~ 5.8. Messages should track the latter.
  EXPECT_LT(acc.mean(), 3.0 * 5.8);
  EXPECT_LT(acc.max(), static_cast<double>(web.depth() * 2));
}

TEST(SkipQuadtree, QueryMessagesGrowLogarithmically) {
  rng r(3008);
  auto mean_messages = [&](std::size_t n) {
    const auto pts = wl::uniform_points<2>(n, r);
    network net(n);
    skip_quadtree<2> web(pts, 78, net);
    skipweb::util::accumulator acc;
    for (int trial = 0; trial < 150; ++trial) {
      const auto q = random_probe<2>(r);
      acc.add(static_cast<double>(
          web.locate(q, h(static_cast<std::uint32_t>(trial % n))).stats.messages));
    }
    return acc.mean();
  };
  const double at_256 = mean_messages(256);
  const double at_2048 = mean_messages(2048);
  EXPECT_GT(at_2048, at_256 * 0.8);
  EXPECT_LT(at_2048, at_256 * 2.2);  // 8x the data, ~1.375x log growth
}

TEST(SkipQuadtree, MemoryPerHostIsLogarithmic) {
  rng r(3009);
  const std::size_t n = 1024;
  const auto pts = wl::uniform_points<2>(n, r);
  network net(n);
  skip_quadtree<2> web(pts, 79, net);
  // Total ~n levels*(node + 5 refs + point) over n hosts: mean O(log n).
  const double mean = net.mean_memory();
  EXPECT_LT(mean, 14.0 * (static_cast<double>(web.levels()) + 1));
  // Hash placement keeps the max within a small factor of the mean.
  EXPECT_LT(static_cast<double>(net.max_memory()), 6.0 * mean + 32.0);
}

TEST(SkipQuadtree, ClusteredDataStillRoutesWell) {
  rng r(3010);
  const auto pts = wl::clustered_points<2>(512, r);
  network net(512);
  skip_quadtree<2> web(pts, 80, net);
  const seq::quadtree<2> oracle(pts);
  skipweb::util::accumulator acc;
  for (int trial = 0; trial < 100; ++trial) {
    const auto q = random_probe<2>(r);
    const auto res = web.locate(q, h(static_cast<std::uint32_t>(trial % 512)));
    EXPECT_TRUE(res.cell == oracle.node(oracle.locate(q)).box);
    acc.add(static_cast<double>(res.stats.messages));
  }
  EXPECT_LT(acc.mean(), 40.0);
}

TEST(SkipQuadtree, RejectsDuplicatesAndMissing) {
  rng r(3011);
  const auto pts = wl::uniform_points<2>(64, r);
  network net(64);
  skip_quadtree<2> web(pts, 81, net);
  EXPECT_THROW(web.insert(pts[0], h(0)), skipweb::util::contract_error);
  EXPECT_THROW(web.erase(random_probe<2>(r), h(0)), skipweb::util::contract_error);
}

// Regression for the erase pruning bug: emptied prefix trees must free (and
// de-charge) their root cubes, so the interesting-cube invariants AND the
// memory ledger stay exact under arbitrary churn — in particular when
// erasing build-time points empties top-level trees and re-inserting grows
// fresh ones.
TEST(SkipQuadtree, InvariantsAndLedgerSurviveChurn) {
  rng r(3012);
  auto pts = wl::uniform_points<2>(300, r);
  const std::vector<seq::qpoint<2>> initial(pts.begin(), pts.begin() + 200);
  network net(200);
  skip_quadtree<2> web(initial, 82, net);
  ASSERT_TRUE(web.check_invariants());

  // Erase build-time points (their singleton top trees die), add new ones,
  // then put the erased ones back with freshly drawn membership vectors.
  for (std::size_t i = 0; i < 120; ++i) {
    web.erase(initial[i], h(static_cast<std::uint32_t>(i % 200)));
  }
  EXPECT_TRUE(web.check_invariants());
  for (std::size_t i = 200; i < 300; ++i) {
    web.insert(pts[i], h(static_cast<std::uint32_t>(i % 200)));
  }
  EXPECT_TRUE(web.check_invariants());
  for (std::size_t i = 0; i < 120; ++i) {
    web.insert(initial[i], h(static_cast<std::uint32_t>((i * 7) % 200)));
  }
  ASSERT_TRUE(web.check_invariants());

  const seq::quadtree<2> oracle(pts);
  EXPECT_EQ(web.size(), pts.size());
  EXPECT_EQ(web.ground_node_count(), oracle.node_count());
  for (int trial = 0; trial < 120; ++trial) {
    const auto q = random_probe<2>(r);
    EXPECT_TRUE(web.locate(q, h(static_cast<std::uint32_t>(trial % 200))).cell ==
                oracle.node(oracle.locate(q)).box);
  }
}

TEST(SkipQuadtree, OrthogonalRangeMatchesBruteForce) {
  rng r(3013);
  const auto pts = wl::clustered_points<2>(400, r);
  network net(400);
  skip_quadtree<2> web(pts, 83, net);
  for (int trial = 0; trial < 40; ++trial) {
    seq::qpoint<2> lo, hi;
    for (int d = 0; d < 2; ++d) {
      const auto a = r.uniform_u64(0, seq::coord_span - 1);
      const auto b = r.uniform_u64(0, seq::coord_span - 1);
      lo.x[d] = std::min(a, b);
      hi.x[d] = std::max(a, b);
    }
    std::vector<seq::qpoint<2>> want;
    for (const auto& p : pts) {
      bool in = true;
      for (int d = 0; d < 2; ++d) in = in && p.x[d] >= lo.x[d] && p.x[d] <= hi.x[d];
      if (in) want.push_back(p);
    }
    std::sort(want.begin(), want.end(),
              [](const auto& a, const auto& b) { return a.x < b.x; });
    const auto got = web.range(lo, hi, h(static_cast<std::uint32_t>(trial % 400)));
    ASSERT_EQ(got.value.size(), want.size()) << "trial " << trial;
    for (std::size_t i = 0; i < want.size(); ++i) EXPECT_TRUE(got.value[i] == want[i]);
    EXPECT_GT(got.stats.host_visits, 0u);
  }
  // Limit caps the walk; reversed bounds violate the contract.
  seq::qpoint<2> lo{}, hi;
  for (int d = 0; d < 2; ++d) hi.x[d] = seq::coord_span - 1;
  EXPECT_EQ(web.range(lo, hi, h(0), 13).value.size(), 13u);
  EXPECT_THROW((void)web.range(hi, lo, h(0)), skipweb::util::contract_error);
}

TEST(SkipQuadtree, LocateBatchReceiptsEqualSerial) {
  rng r(3014);
  const auto pts = wl::uniform_points<2>(512, r);
  network net(512);
  skip_quadtree<2> web(pts, 84, net);
  std::vector<seq::qpoint<2>> qs;
  for (int i = 0; i < 64; ++i) qs.push_back(random_probe<2>(r));
  qs.push_back(pts[3]);  // exact hit inside the batch
  const auto batch = web.locate_batch(qs, h(17));
  ASSERT_EQ(batch.size(), qs.size());
  for (std::size_t i = 0; i < qs.size(); ++i) {
    const auto serial = web.locate(qs[i], h(17));
    EXPECT_TRUE(batch[i].cell == serial.cell) << i;
    EXPECT_EQ(batch[i].is_point, serial.is_point) << i;
    EXPECT_EQ(batch[i].stats.messages, serial.stats.messages) << i;
    EXPECT_EQ(batch[i].stats.host_visits, serial.stats.host_visits) << i;
    EXPECT_EQ(batch[i].stats.comparisons, serial.stats.comparisons) << i;
  }
}

// Every walk carries the cube of the node it stands on, and a node's cube is
// stored only in its parent's entry: after an erase splice, the entry moved
// into the parent holds the only copy of its cube. Interleaved inserts and
// erases over uniform, clustered and deep-chain points, then every walk is
// checked against an oracle: locate cells against seq::quadtree's deepest
// cube, range against a brute-force scan, locate_batch against serial
// locate (cells and receipts), plus the structural invariants.
template <int D>
void churned_walks_match_oracle(std::uint64_t seed) {
  using point = seq::qpoint<D>;
  rng r(seed);
  const std::vector<std::pair<const char*, std::vector<point>>> sets = {
      {"uniform", wl::uniform_points<D>(360, r)},
      {"clustered", wl::clustered_points<D>(360, r)},
      {"chain", wl::chain_points<D>(120)}};
  for (const auto& [name, all] : sets) {
    SCOPED_TRACE(name);
    const std::size_t m = all.size() * 2 / 3;
    std::vector<point> live(all.begin(), all.begin() + static_cast<std::ptrdiff_t>(m));
    std::vector<point> gone(all.begin() + static_cast<std::ptrdiff_t>(m), all.end());
    network net(64);
    skip_quadtree<D> web(live, seed + 1, net);
    const auto take = [&](std::vector<point>& from) {
      const std::size_t i = r.index(from.size());
      const point p = from[i];
      from[i] = from.back();
      from.pop_back();
      return p;
    };
    for (std::uint32_t step = 0; step < 300; ++step) {
      if (step % 2 == 0 && !gone.empty()) {
        const point p = take(gone);
        web.insert(p, h(step % 64));
        live.push_back(p);
      } else {
        const point p = take(live);
        web.erase(p, h(step % 64));
        gone.push_back(p);
      }
      if (step % 50 == 49) {
        ASSERT_TRUE(web.check_invariants()) << "step " << step;
      }
    }
    ASSERT_TRUE(web.check_invariants());
    ASSERT_EQ(web.size(), live.size());
    const seq::quadtree<D> oracle(live);
    EXPECT_EQ(web.ground_node_count(), oracle.node_count());

    // Probes: random points, stored and erased points, and each stored
    // point with its lowest coordinate bit flipped (lands in its deepest
    // cube — deep in the chain set).
    std::vector<point> qs;
    for (int i = 0; i < 48; ++i) qs.push_back(random_probe<D>(r));
    for (std::size_t i = 0; i < live.size(); i += 3) {
      qs.push_back(live[i]);
      point near = live[i];
      near.x[0] ^= 1;
      qs.push_back(near);
    }
    for (std::size_t i = 0; i < gone.size(); i += 5) qs.push_back(gone[i]);
    const auto batch = web.locate_batch(qs, h(5));
    ASSERT_EQ(batch.size(), qs.size());
    for (std::size_t i = 0; i < qs.size(); ++i) {
      const auto serial = web.locate(qs[i], h(5));
      EXPECT_TRUE(serial.cell == oracle.node(oracle.locate(qs[i])).box) << i;
      EXPECT_EQ(serial.is_point, std::find(live.begin(), live.end(), qs[i]) != live.end()) << i;
      EXPECT_TRUE(batch[i].cell == serial.cell) << i;
      EXPECT_EQ(batch[i].is_point, serial.is_point) << i;
      EXPECT_EQ(batch[i].stats, serial.stats) << i;
    }

    // Range: random boxes, and boxes of random dyadic radius around stored
    // points so the skip-level descent of range goes deep.
    for (int trial = 0; trial < 40; ++trial) {
      point lo, hi;
      if (trial % 2 == 0) {
        for (int d = 0; d < D; ++d) {
          const auto a = r.uniform_u64(0, seq::coord_span - 1);
          const auto b = r.uniform_u64(0, seq::coord_span - 1);
          lo.x[d] = std::min(a, b);
          hi.x[d] = std::max(a, b);
        }
      } else {
        const point c = live[r.index(live.size())];
        const seq::coord_t rad = seq::coord_t{1} << r.index(seq::coord_bits);
        for (int d = 0; d < D; ++d) {
          lo.x[d] = c.x[d] > rad ? c.x[d] - rad : 0;
          hi.x[d] = std::min(c.x[d] + rad, seq::coord_span - 1);
        }
      }
      std::vector<point> want;
      for (const auto& p : live) {
        bool in = true;
        for (int d = 0; d < D; ++d) in = in && p.x[d] >= lo.x[d] && p.x[d] <= hi.x[d];
        if (in) want.push_back(p);
      }
      std::sort(want.begin(), want.end(), [](const point& a, const point& b) { return a.x < b.x; });
      const auto got = web.range(lo, hi, h(static_cast<std::uint32_t>(trial % 64)));
      ASSERT_EQ(got.value.size(), want.size()) << "trial " << trial;
      for (std::size_t i = 0; i < want.size(); ++i) EXPECT_TRUE(got.value[i] == want[i]) << trial;
    }
  }
}

TEST(SkipQuadtree, ChurnedWalksMatchOracle) {
  churned_walks_match_oracle<2>(3015);
  churned_walks_match_oracle<3>(3016);
}

// The summed receipts of a fixed stream of range queries: random boxes,
// boxes of random dyadic radius around stored points, and every fourth
// query capped at 5 results.
template <int D>
api::op_stats summed_range_receipts(const std::vector<seq::qpoint<D>>& pts, std::uint64_t seed) {
  using point = seq::qpoint<D>;
  network net(64);
  const skip_quadtree<D> web(pts, seed, net);
  rng r(seed + 1);
  api::op_stats sum;
  for (std::uint32_t trial = 0; trial < 96; ++trial) {
    point lo, hi;
    if (trial % 3 == 0) {
      for (int d = 0; d < D; ++d) {
        const auto a = r.uniform_u64(0, seq::coord_span - 1);
        const auto b = r.uniform_u64(0, seq::coord_span - 1);
        lo.x[d] = std::min(a, b);
        hi.x[d] = std::max(a, b);
      }
    } else {
      const point c = pts[r.index(pts.size())];
      const seq::coord_t rad = seq::coord_t{1} << r.index(seq::coord_bits);
      for (int d = 0; d < D; ++d) {
        lo.x[d] = c.x[d] > rad ? c.x[d] - rad : 0;
        hi.x[d] = std::min(c.x[d] + rad, seq::coord_span - 1);
      }
    }
    sum += web.range(lo, hi, h(trial % 64), trial % 4 == 3 ? 5 : 0).stats;
  }
  return sum;
}

// The range sweep's visit order, hops and cap are its cost model: how the
// sweep loads a row may change, what it charges may not. The sums are pinned
// constants, so a change to the sweep must reproduce them exactly.
TEST(SkipQuadtree, RangeReceiptsPinned) {
  struct pinned {
    const char* set;
    int dims;
    std::uint64_t messages, host_visits, comparisons;
  };
  const pinned want[] = {{"uniform", 2, 2590, 2686, 2111}, {"clustered", 2, 2625, 2721, 1860},
                         {"chain", 2, 1770, 1866, 996},     {"uniform", 3, 1772, 1868, 1621},
                         {"clustered", 3, 1636, 1732, 688}, {"chain", 3, 1321, 1417, 693}};
  const auto receipts = [](const std::string& set, int dims) {
    rng r(3017 + static_cast<std::uint64_t>(dims));
    const auto run = [&](auto pts) { return summed_range_receipts(pts, 3019); };
    if (dims == 2) {
      if (set == "uniform") return run(wl::uniform_points<2>(500, r));
      if (set == "clustered") return run(wl::clustered_points<2>(500, r));
      return run(wl::chain_points<2>(120));
    }
    if (set == "uniform") return run(wl::uniform_points<3>(500, r));
    if (set == "clustered") return run(wl::clustered_points<3>(500, r));
    return run(wl::chain_points<3>(120));
  };
  for (const auto& w : want) {
    const auto got = receipts(w.set, w.dims);
    EXPECT_EQ(got.messages, w.messages) << w.set << " " << w.dims << "-D";
    EXPECT_EQ(got.host_visits, w.host_visits) << w.set << " " << w.dims << "-D";
    EXPECT_EQ(got.comparisons, w.comparisons) << w.set << " " << w.dims << "-D";
  }
}

}  // namespace
