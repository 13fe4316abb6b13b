#include <gtest/gtest.h>

#include <vector>

#include "core/skip_trapmap.h"
#include "net/network.h"
#include "util/rng.h"
#include "util/stats.h"
#include "workloads/workloads.h"

namespace {

using namespace skipweb;
using core::skip_trapmap;
using net::host_id;
using net::network;
using util::rng;
namespace wl = skipweb::workloads;

host_id h(std::uint32_t v) { return host_id{v}; }

skip_trapmap make_web(const std::vector<seq::segment>& segs, std::uint64_t seed, network& net) {
  const auto box = wl::segment_box();
  return skip_trapmap(segs, box.xmin, box.xmax, box.ymin, box.ymax, seed, net);
}

TEST(SkipTrapmap, LocateMatchesGroundOracle) {
  rng r(5001);
  const auto segs = wl::random_disjoint_segments(128, r);
  network net(128);
  auto web = make_web(segs, 111, net);
  for (const auto& [x, y] : wl::interior_probes(300, r)) {
    const auto res = web.locate(x, y, h(static_cast<std::uint32_t>(
                                            static_cast<std::uint64_t>(x * 1e6) % 128)));
    EXPECT_EQ(res.trap, web.ground().locate(x, y)) << "(" << x << "," << y << ")";
  }
}

TEST(SkipTrapmap, SingleSegment) {
  rng r(5002);
  const auto segs = wl::random_disjoint_segments(1, r);
  network net(4);
  auto web = make_web(segs, 112, net);
  EXPECT_EQ(web.ground().trapezoid_count(), 4u);
  for (const auto& [x, y] : wl::interior_probes(50, r)) {
    EXPECT_EQ(web.locate(x, y, h(0)).trap, web.ground().locate(x, y));
  }
}

TEST(SkipTrapmap, MeanConflictsAreConstant) {
  // Lemma 5 inside the assembled structure: conflict lists stay O(1) on
  // average as n grows.
  rng r(5003);
  double prev = 0;
  for (const std::size_t n : {64u, 256u, 1024u}) {
    const auto segs = wl::random_disjoint_segments(n, r);
    network net(n);
    auto web = make_web(segs, 113, net);
    const double mean = web.mean_conflicts();
    EXPECT_LT(mean, 8.0) << "n=" << n;
    if (prev > 0) {
      EXPECT_LT(mean, prev * 1.5 + 1.0);
    }
    prev = mean;
  }
}

TEST(SkipTrapmap, QueryMessagesGrowLogarithmically) {
  rng r(5004);
  auto mean_messages = [&](std::size_t n) {
    const auto segs = wl::random_disjoint_segments(n, r);
    network net(n);
    auto web = make_web(segs, 114, net);
    skipweb::util::accumulator acc;
    std::uint32_t o = 0;
    for (const auto& [x, y] : wl::interior_probes(200, r)) {
      acc.add(static_cast<double>(web.locate(x, y, h(o)).stats.messages));
      o = static_cast<std::uint32_t>((o + 1) % n);
    }
    return acc.mean();
  };
  const double at_128 = mean_messages(128);
  const double at_1024 = mean_messages(1024);
  EXPECT_LT(at_1024, at_128 * 2.4);  // 8x data, log-like growth
}

TEST(SkipTrapmap, ConflictsAllMatchesPairwiseScan) {
  rng r(5005);
  const auto segs = wl::random_disjoint_segments(40, r);
  std::vector<seq::segment> half;
  for (const auto& s : segs) {
    if (r.bit()) half.push_back(s);
  }
  if (half.empty()) GTEST_SKIP();
  const auto box = wl::segment_box();
  const seq::trapmap dense(segs, box.xmin, box.xmax, box.ymin, box.ymax);
  const seq::trapmap sparse(half, box.xmin, box.xmax, box.ymin, box.ymax);
  const auto fast = skip_trapmap::conflicts_all(sparse, dense);
  ASSERT_EQ(fast.size(), sparse.trapezoid_count());
  for (std::size_t t = 0; t < sparse.trapezoid_count(); ++t) {
    auto want = sparse.conflicts(static_cast<int>(t), dense);
    std::sort(want.begin(), want.end());
    EXPECT_EQ(fast[t], want) << "trapezoid " << t;
  }
}

TEST(SkipTrapmap, MemoryPerHostIsLogarithmic) {
  rng r(5006);
  const std::size_t n = 512;
  const auto segs = wl::random_disjoint_segments(n, r);
  network net(n);
  auto web = make_web(segs, 115, net);
  // A trapezoidal map has ~3 trapezoids per segment, each carrying ~9 ledger
  // units (node + 4 neighbour refs + conflict links), so ~30 units per item
  // per level is the expected constant.
  const double mean = net.mean_memory();
  EXPECT_LT(mean, 35.0 * (static_cast<double>(web.levels()) + 1));
  EXPECT_LT(static_cast<double>(net.max_memory()), 4.0 * mean + 64.0);
}

// §4 updates: insert/erase segments, then point location must match a
// freshly built oracle everywhere.
TEST(SkipTrapmap, DynamicUpdatesMatchOracle) {
  rng r(5009);
  auto segs = wl::random_disjoint_segments(96, r);
  const std::vector<seq::segment> initial(segs.begin(), segs.begin() + 64);
  network net(96);
  auto web = make_web(initial, 118, net);

  // Insert the remaining segments one by one.
  for (std::size_t i = 64; i < segs.size(); ++i) {
    const auto stats = web.insert(segs[i], h(static_cast<std::uint32_t>(i % 96)));
    EXPECT_GT(stats.messages, 0u);
  }
  EXPECT_EQ(web.size(), segs.size());

  const auto box = wl::segment_box();
  const seq::trapmap oracle(segs, box.xmin, box.xmax, box.ymin, box.ymax);
  EXPECT_EQ(web.ground().trapezoid_count(), oracle.trapezoid_count());
  for (const auto& [x, y] : wl::interior_probes(200, r)) {
    const auto res = web.locate(x, y, h(1));
    // Compare by the bounding walls (ids differ between maps).
    const auto& got = web.ground().trap(res.trap);
    const auto& want = oracle.trap(oracle.locate(x, y));
    EXPECT_DOUBLE_EQ(got.left_x, want.left_x);
    EXPECT_DOUBLE_EQ(got.right_x, want.right_x);
  }

  // Now erase half and compare against the survivors' oracle.
  for (std::size_t i = 0; i < 48; ++i) {
    web.erase(segs[i], h(static_cast<std::uint32_t>(i % 96)));
  }
  EXPECT_EQ(web.size(), segs.size() - 48);
  const std::vector<seq::segment> rest(segs.begin() + 48, segs.end());
  const seq::trapmap oracle2(rest, box.xmin, box.xmax, box.ymin, box.ymax);
  EXPECT_EQ(web.ground().trapezoid_count(), oracle2.trapezoid_count());
  for (const auto& [x, y] : wl::interior_probes(200, r)) {
    const auto& got = web.ground().trap(web.locate(x, y, h(2)).trap);
    const auto& want = oracle2.trap(oracle2.locate(x, y));
    EXPECT_DOUBLE_EQ(got.left_x, want.left_x);
    EXPECT_DOUBLE_EQ(got.right_x, want.right_x);
  }
}

TEST(SkipTrapmap, UpdateCostIsOutputSensitiveNotLinear) {
  rng r(5010);
  auto segs = wl::random_disjoint_segments(257, r);
  const seq::segment extra = segs.back();
  segs.pop_back();
  network net(256);
  auto web = make_web(segs, 119, net);
  const auto ins_stats = web.insert(extra, h(3));
  // A segment cuts O(1) expected trapezoids per level: total O(log n), far
  // below the 3n+1 trapezoids a naive global rebuild would touch.
  EXPECT_LT(ins_stats.messages, 30u * static_cast<std::uint64_t>(web.levels() + 1));
  EXPECT_GT(ins_stats.messages, 0u);
  const auto del_stats = web.erase(extra, h(4));
  EXPECT_LT(del_stats.messages, 30u * static_cast<std::uint64_t>(web.levels() + 1));
}

TEST(SkipTrapmap, UpdateRejectsDuplicatesAndMissing) {
  rng r(5011);
  const auto segs = wl::random_disjoint_segments(16, r);
  network net(16);
  auto web = make_web(segs, 120, net);
  EXPECT_THROW(web.insert(segs[0], h(0)), skipweb::util::contract_error);
  seq::segment ghost{0.001, 0.0001, 0.002, 0.0001};
  EXPECT_THROW(web.erase(ghost, h(0)), skipweb::util::contract_error);
}

// --- degenerate inputs: the general-position boundary ------------------------
//
// The trapezoidal map's contract is general position: distinct endpoint
// x-coordinates, pairwise-disjoint non-crossing segments. The tests below
// pin the behaviour right at that boundary — collinear fragments of one
// supporting line (y-comparisons tie all along it) and polyline chains whose
// endpoints "share" a vertex up to the contract's mandatory x-perturbation —
// and assert the distributed point location still agrees with the sequential
// oracle everywhere. Inputs that break the contract outright must throw.

TEST(SkipTrapmap, CollinearFragmentsMatchOracle) {
  // 24 disjoint pieces of the single line y = 0.3 + 0.25 x.
  std::vector<seq::segment> segs;
  const double slope = 0.25, y0 = 0.3;
  double x = 0.05;
  for (int i = 0; i < 24; ++i) {
    const double x2 = x + 0.028;
    segs.push_back(seq::segment{x, y0 + slope * x, x2, y0 + slope * x2});
    x = x2 + 0.009;  // gap keeps endpoint x's distinct
  }
  network net(32);
  auto web = make_web(segs, 121, net);
  EXPECT_EQ(web.ground().trapezoid_count(), 3 * segs.size() + 1);

  rng r(5101);
  for (int i = 0; i < 300; ++i) {
    // Probes hug the shared supporting line from both sides (and probe the
    // gaps right on it), where any tie mishandling would misplace them.
    const double px = 0.021 + 0.87 * r.uniform_real();
    const double off = (i % 3 == 0 ? 1e-4 : 0.05) * (i % 2 == 0 ? 1.0 : -1.0);
    const double py = y0 + slope * px + off;
    const auto res = web.locate(px, py, h(static_cast<std::uint32_t>(i % 32)));
    EXPECT_EQ(res.trap, web.ground().locate(px, py)) << "(" << px << "," << py << ")";
  }
}

TEST(SkipTrapmap, SharedEndpointChainMatchesOracle) {
  // A zig-zag polyline whose joints are "shared endpoints" separated only by
  // the contract's x-perturbation (1e-9 — far below every other gap in the
  // input, so the map is combinatorially the shared-vertex subdivision).
  std::vector<seq::segment> segs;
  const double eps = 1e-9;
  double x = 0.06, y = 0.5;
  for (int i = 0; i < 20; ++i) {
    const double x2 = x + 0.04;
    const double y2 = 0.5 + (i % 2 == 0 ? 0.18 : -0.18);
    segs.push_back(seq::segment{x + eps, y, x2 - eps, y2});
    x = x2;
    y = y2;
  }
  network net(20);
  auto web = make_web(segs, 122, net);

  rng r(5102);
  for (int i = 0; i < 300; ++i) {
    const double px = 0.03 + 0.9 * r.uniform_real();
    const double py = 0.06 + 0.88 * r.uniform_real();
    const auto res = web.locate(px, py, h(static_cast<std::uint32_t>(i % 20)));
    EXPECT_EQ(res.trap, web.ground().locate(px, py)) << "(" << px << "," << py << ")";
  }

  // Updates at the degenerate joints keep agreeing with a fresh oracle.
  const seq::segment extra{0.05 + eps, 0.93, 0.95 - eps, 0.94};
  (void)web.insert(extra, h(3));
  auto with = segs;
  with.push_back(extra);
  const auto box = wl::segment_box();
  const seq::trapmap oracle(with, box.xmin, box.xmax, box.ymin, box.ymax);
  EXPECT_EQ(web.ground().trapezoid_count(), oracle.trapezoid_count());
  for (int i = 0; i < 100; ++i) {
    const double px = 0.03 + 0.9 * r.uniform_real();
    const double py = 0.06 + 0.88 * r.uniform_real();
    const auto& got = web.ground().trap(web.locate(px, py, h(1)).trap);
    const auto& want = oracle.trap(oracle.locate(px, py));
    EXPECT_DOUBLE_EQ(got.left_x, want.left_x);
    EXPECT_DOUBLE_EQ(got.right_x, want.right_x);
  }
}

TEST(SkipTrapmap, ExactlySharedEndpointsViolateTheContract) {
  // Two segments meeting at one vertex share an endpoint x: outside general
  // position, and the sequential oracle and the skip-web agree by throwing.
  const std::vector<seq::segment> shared{{0.1, 0.4, 0.5, 0.6}, {0.5, 0.6, 0.9, 0.4}};
  const auto box = wl::segment_box();
  EXPECT_THROW(seq::trapmap(shared, box.xmin, box.xmax, box.ymin, box.ymax),
               skipweb::util::contract_error);
  network net(8);
  EXPECT_THROW(make_web(shared, 123, net), skipweb::util::contract_error);
}

TEST(SkipTrapmap, EveryOriginFindsSameTrapezoid) {
  rng r(5007);
  const auto segs = wl::random_disjoint_segments(64, r);
  network net(64);
  auto web = make_web(segs, 116, net);
  const auto probes = wl::interior_probes(20, r);
  for (const auto& [x, y] : probes) {
    const int want = web.locate(x, y, h(0)).trap;
    for (std::uint32_t o = 1; o < 64; o += 9) {
      EXPECT_EQ(web.locate(x, y, h(o)).trap, want);
    }
  }
}

}  // namespace
