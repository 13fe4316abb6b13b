#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <unordered_set>

#include "util/rng.h"
#include "workloads/workloads.h"

namespace {

using skipweb::util::rng;
namespace wl = skipweb::workloads;

TEST(Workloads, UniformKeysDistinct) {
  rng r(1);
  const auto keys = wl::uniform_keys(5000, r);
  std::set<std::uint64_t> s(keys.begin(), keys.end());
  EXPECT_EQ(s.size(), keys.size());
}

TEST(Workloads, ClusteredKeysDistinct) {
  rng r(2);
  const auto keys = wl::clustered_keys(3000, r);
  std::set<std::uint64_t> s(keys.begin(), keys.end());
  EXPECT_EQ(s.size(), keys.size());
}

TEST(Workloads, ProbesLieWithinKeyRange) {
  rng r(3);
  const auto keys = wl::uniform_keys(100, r);
  const auto probes = wl::probe_keys(keys, 200, r);
  const auto lo = *std::min_element(keys.begin(), keys.end());
  const auto hi = *std::max_element(keys.begin(), keys.end());
  for (auto p : probes) {
    EXPECT_GE(p, lo);
    EXPECT_LE(p, hi);
  }
}

TEST(Workloads, PointsDistinct2D3D) {
  rng r(4);
  const auto p2 = wl::uniform_points<2>(2000, r);
  std::unordered_set<skipweb::seq::qpoint<2>, skipweb::seq::qpoint_hash<2>> s2(p2.begin(), p2.end());
  EXPECT_EQ(s2.size(), p2.size());

  const auto p3 = wl::clustered_points<3>(1000, r);
  std::unordered_set<skipweb::seq::qpoint<3>, skipweb::seq::qpoint_hash<3>> s3(p3.begin(), p3.end());
  EXPECT_EQ(s3.size(), p3.size());
}

TEST(Workloads, ChainPointsAreDistinctAndSized) {
  const auto pts = wl::chain_points<2>(100);
  EXPECT_EQ(pts.size(), 100u);
  std::unordered_set<skipweb::seq::qpoint<2>, skipweb::seq::qpoint_hash<2>> s(pts.begin(), pts.end());
  EXPECT_EQ(s.size(), pts.size());
}

TEST(Workloads, StringsDistinctAndAlphabetRespected) {
  rng r(5);
  const auto strs = wl::random_strings(1000, 2, 12, "xyz", r);
  std::set<std::string> s(strs.begin(), strs.end());
  EXPECT_EQ(s.size(), strs.size());
  for (const auto& str : strs) {
    EXPECT_GE(str.size(), 2u);
    EXPECT_LE(str.size(), 12u);
    EXPECT_EQ(str.find_first_not_of("xyz"), std::string::npos);
  }
}

TEST(Workloads, DnaStringsAreACGT) {
  rng r(6);
  const auto reads = wl::dna_strings(200, 20, r);
  for (const auto& s : reads) {
    EXPECT_EQ(s.size(), 20u);
    EXPECT_EQ(s.find_first_not_of("ACGT"), std::string::npos);
  }
}

TEST(Workloads, SegmentsAreDisjointNonCrossing) {
  rng r(7);
  const auto segs = wl::random_disjoint_segments(100, r);
  EXPECT_EQ(segs.size(), 100u);
  // Distinct endpoint x's.
  std::set<double> xs;
  for (const auto& s : segs) {
    xs.insert(s.x1);
    xs.insert(s.x2);
    EXPECT_LT(s.x1, s.x2);
  }
  EXPECT_EQ(xs.size(), 200u);
  // Pairwise non-crossing: fixed vertical order over any common x-range.
  for (std::size_t i = 0; i < segs.size(); ++i) {
    for (std::size_t j = i + 1; j < segs.size(); ++j) {
      const double lo = std::max(segs[i].x1, segs[j].x1);
      const double hi = std::min(segs[i].x2, segs[j].x2);
      if (lo >= hi) continue;
      const double d_lo = segs[i].y_at(lo) - segs[j].y_at(lo);
      const double d_hi = segs[i].y_at(hi) - segs[j].y_at(hi);
      EXPECT_GT(d_lo * d_hi, 0.0) << "segments " << i << "," << j << " cross or touch";
    }
  }
}

TEST(Workloads, GeneratorsAreDeterministic) {
  rng r1(9), r2(9);
  EXPECT_EQ(wl::uniform_keys(100, r1), wl::uniform_keys(100, r2));
  rng r3(10), r4(10);
  const auto a = wl::random_disjoint_segments(20, r3);
  const auto b = wl::random_disjoint_segments(20, r4);
  EXPECT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) EXPECT_EQ(a[i], b[i]);
}

TEST(Workloads, ChurnScheduleIsDeterministicAndWellFormed) {
  const std::size_t hosts = 48, ops = 400;
  const auto a = wl::churn_schedule(hosts, ops, 0.12, 0.06, 3, 77);
  const auto b = wl::churn_schedule(hosts, ops, 0.12, 0.06, 3, 77);
  // Pure function of its arguments: same inputs, same schedule — this is
  // what makes churn runs thread-count-invariant and replayable.
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].at_op, b[i].at_op);
    EXPECT_EQ(a[i].act, b[i].act);
    EXPECT_EQ(a[i].host.value, b[i].host.value);
  }
  EXPECT_FALSE(a.empty());  // 400 ops at 12% kill rate must produce events
  const auto c = wl::churn_schedule(hosts, ops, 0.12, 0.06, 3, 78);
  bool differs = c.size() != a.size();
  for (std::size_t i = 0; !differs && i < a.size(); ++i) {
    differs = a[i].at_op != c[i].at_op || a[i].act != c[i].act ||
              a[i].host.value != c[i].host.value;
  }
  EXPECT_TRUE(differs);  // the seed actually reaches the draws

  // Well-formedness (the contract fault::injector and the failure bench
  // lean on): events ascend by at_op, host 0 is never killed, kills target
  // live hosts, revives target dead ones, and the live floor holds at every
  // prefix of the schedule.
  std::vector<bool> dead(hosts, false);
  std::size_t live = hosts;
  const std::size_t floor = std::max<std::size_t>(2, hosts / 2);
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (i > 0) {
      EXPECT_LE(a[i - 1].at_op, a[i].at_op);
    }
    ASSERT_LT(a[i].host.value, hosts);
    if (a[i].act == wl::churn_event::action::kill) {
      EXPECT_NE(a[i].host.value, 0u);
      ASSERT_FALSE(dead[a[i].host.value]) << "kill of an already-dead host";
      dead[a[i].host.value] = true;
      --live;
    } else {
      ASSERT_EQ(a[i].act, wl::churn_event::action::revive);
      ASSERT_TRUE(dead[a[i].host.value]) << "revive of a live host";
      dead[a[i].host.value] = false;
      ++live;
    }
    EXPECT_GE(live, floor);
  }
}

}  // namespace
