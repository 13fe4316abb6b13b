// Conformance suite for the unified spatial_index API: the same locate /
// insert / erase / orthogonal_range / approx_nn assertions (against a
// brute-force scan oracle) run over every backend the spatial registry
// knows, selected by name. A new backend earns coverage by registering
// itself — no new test code.

#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <string>
#include <vector>

#include "api/spatial_registry.h"
#include "net/network.h"
#include "oracle_common.h"
#include "util/rng.h"
#include "workloads/workloads.h"

namespace {

using namespace skipweb;
using namespace skipweb::testing_support;
using api::spatial_box;
using api::spatial_point;
using net::host_id;
using net::network;
using util::rng;
namespace wl = skipweb::workloads;

std::vector<spatial_point> points_for(int dims, std::size_t n, rng& r, bool clustered = false) {
  return wl::spatial_points(dims, n, clustered, r);
}

spatial_point probe_for(int dims, rng& r) { return wl::spatial_probe(dims, r); }

std::vector<spatial_point> sorted(std::vector<spatial_point> pts) {
  std::sort(pts.begin(), pts.end());
  return pts;
}

class SpatialConformance : public ::testing::TestWithParam<std::string> {
 protected:
  [[nodiscard]] static api::index_options options() {
    return api::index_options{}.seed(61).initial_hosts(8);
  }
  [[nodiscard]] static int dims() { return api::spatial_backend_dims(GetParam()); }
};

TEST_P(SpatialConformance, RegistryBuildsTheNamedBackend) {
  rng r(9001);
  const auto pts = points_for(dims(), 150, r);
  network net(1);
  const auto idx = api::make_spatial_index(GetParam(), pts, options(), net);
  ASSERT_NE(idx, nullptr);
  EXPECT_EQ(idx->backend(), GetParam());
  EXPECT_EQ(idx->dims(), dims());
  EXPECT_EQ(idx->size(), pts.size());
  EXPECT_GE(net.host_count(), 8u);  // initial_hosts honoured
  EXPECT_TRUE(idx->supports(api::capability::locate));
  EXPECT_TRUE(idx->supports(api::capability::insert));
  EXPECT_TRUE(idx->supports(api::capability::erase));
  EXPECT_TRUE(idx->supports(api::capability::range));  // orthogonal_range
  EXPECT_TRUE(idx->supports(api::capability::approx_nn));
}

TEST_P(SpatialConformance, LocateFindsStoredAndRejectsMissing) {
  rng r(9002);
  const auto pts = points_for(dims(), 200, r);
  network net(1);
  const auto idx = api::make_spatial_index(GetParam(), pts, options(), net);
  std::uint32_t origin = 0;
  for (std::size_t i = 0; i < 80; ++i) {
    const auto res = idx->locate(pts[i], h(origin));
    origin = static_cast<std::uint32_t>((origin + 1) % net.host_count());
    EXPECT_TRUE(res.found) << "stored point " << i;
    EXPECT_GT(res.stats.host_visits, 0u);
  }
  for (int i = 0; i < 80; ++i) {
    // Random 62-bit probes never collide with stored points.
    const auto res = idx->locate(probe_for(dims(), r), h(0));
    EXPECT_FALSE(res.found) << i;
    EXPECT_GT(res.scale, 0u);
  }
}

TEST_P(SpatialConformance, LocateBatchReceiptEqualToSerial) {
  rng r(9003);
  const auto pts = points_for(dims(), 220, r);
  network net(1);
  const auto idx = api::make_spatial_index(GetParam(), pts, options(), net);
  std::vector<spatial_point> qs;
  for (int i = 0; i < 40; ++i) qs.push_back(probe_for(dims(), r));
  qs.push_back(pts[7]);  // one exact hit in the batch
  std::vector<api::spatial_locate_result> serial;
  serial.reserve(qs.size());
  for (const auto& q : qs) serial.push_back(idx->locate(q, h(3)));
  const auto batch = idx->locate_batch(qs, h(3));
  expect_batch_matches_serial(
      batch, serial,
      [](std::size_t i, const api::spatial_locate_result& b,
         const api::spatial_locate_result& s) {
        EXPECT_EQ(b.found, s.found) << i;
        EXPECT_EQ(b.cell, s.cell) << i;
        EXPECT_EQ(b.scale, s.scale) << i;
        EXPECT_EQ(b.stats.messages, s.stats.messages) << i;
        EXPECT_EQ(b.stats.host_visits, s.stats.host_visits) << i;
        EXPECT_EQ(b.stats.comparisons, s.stats.comparisons) << i;
      });
}

TEST_P(SpatialConformance, OrthogonalRangeMatchesBruteForce) {
  rng r(9004);
  const auto pts = points_for(dims(), 250, r, /*clustered=*/true);
  network net(1);
  const auto idx = api::make_spatial_index(GetParam(), pts, options(), net);
  for (int trial = 0; trial < 12; ++trial) {
    spatial_box b;
    for (int d = 0; d < dims(); ++d) {
      const auto i = static_cast<std::size_t>(d);
      const auto a1 = r.uniform_u64(0, seq::coord_span - 1);
      const auto a2 = r.uniform_u64(0, seq::coord_span - 1);
      b.lo.x[i] = std::min(a1, a2);
      b.hi.x[i] = std::max(a1, a2);
    }
    std::vector<spatial_point> want;
    for (const auto& p : pts) {
      bool in = true;
      for (int d = 0; d < dims(); ++d) {
        const auto i = static_cast<std::size_t>(d);
        in = in && p.x[i] >= b.lo.x[i] && p.x[i] <= b.hi.x[i];
      }
      if (in) want.push_back(p);
    }
    const auto got = idx->orthogonal_range(b, h(static_cast<std::uint32_t>(trial % 8)));
    EXPECT_EQ(got.value, sorted(std::move(want))) << "trial " << trial;
  }
  // Limit caps the output; a reversed box violates the shared contract.
  spatial_box all;
  for (int d = 0; d < dims(); ++d) all.hi.x[static_cast<std::size_t>(d)] = seq::coord_span - 1;
  EXPECT_EQ(idx->orthogonal_range(all, h(0), 9).value.size(), 9u);
  spatial_box bad = all;
  std::swap(bad.lo, bad.hi);
  EXPECT_THROW((void)idx->orthogonal_range(bad, h(0)), util::contract_error);
}

TEST_P(SpatialConformance, ApproxNnMatchesBruteForceDistance) {
  rng r(9005);
  const auto pts = points_for(dims(), 200, r, /*clustered=*/true);
  network net(1);
  const auto idx = api::make_spatial_index(GetParam(), pts, options(), net);
  for (int trial = 0; trial < 30; ++trial) {
    const auto q = probe_for(dims(), r);
    const auto res = idx->approx_nn(q, h(static_cast<std::uint32_t>(trial % 8)));
    api::spatial_dist2 best = ~api::spatial_dist2{0};
    for (const auto& p : pts) best = std::min(best, api::spatial_point_dist2(p, q, dims()));
    // Every current backend answers exactly (eps = 0); ties may differ.
    EXPECT_TRUE(api::spatial_point_dist2(res.value, q, dims()) == best) << "trial " << trial;
    EXPECT_GT(res.stats.host_visits, 0u);
  }
  // A stored query point is its own nearest neighbour.
  const auto self = idx->approx_nn(pts[11], h(1));
  EXPECT_TRUE(api::spatial_point_dist2(self.value, pts[11], dims()) == 0);
}

TEST_P(SpatialConformance, InsertEraseRoundTrip) {
  // Seeded mixed tape vs a std::set oracle; a divergence prints the seed and
  // the minimal reproducing op prefix (tests/oracle_common.h).
  rng r(9006);
  const auto pool = points_for(dims(), 240, r);
  const std::vector<spatial_point> initial(pool.begin(), pool.begin() + 160);
  network net(1);
  const auto idx = api::make_spatial_index(GetParam(), initial, options(), net);

  std::set<spatial_point> oracle(initial.begin(), initial.end());
  const auto tape = make_tape<spatial_point>(9006, pool, 160, 220, net.host_count());
  replay_tape(
      tape,
      [&](std::size_t, const tape_row<spatial_point>& row) {
        switch (row.op) {
          case tape_op::insert: {
            if (!oracle.insert(row.key).second) return true;
            const auto stats = idx->insert(row.key, h(row.origin));
            return stats.host_visits > 0 && idx->size() == oracle.size();
          }
          case tape_op::erase:
            if (oracle.erase(row.key) == 0) return true;
            (void)idx->erase(row.key, h(row.origin));
            return idx->size() == oracle.size();
          default:
            return idx->locate(row.key, h(row.origin)).found == (oracle.count(row.key) > 0);
        }
      },
      [&](const spatial_point& p) {
        std::string s = "(";
        for (int d = 0; d < dims(); ++d) {
          if (d > 0) s += ",";
          s += std::to_string(p.x[static_cast<std::size_t>(d)]);
        }
        return s + ")";
      });
  EXPECT_EQ(idx->size(), oracle.size());
  // Duplicates rejected on insert, absent points rejected on erase.
  EXPECT_THROW((void)idx->insert(*oracle.begin(), h(0)), util::contract_error);
  EXPECT_THROW((void)idx->erase(probe_for(dims(), r), h(0)), util::contract_error);
}

TEST_P(SpatialConformance, StatsReceiptsReconcileWithTheLedger) {
  rng r(9007);
  const auto pts = points_for(dims(), 180, r);
  network net(1);
  const auto idx = api::make_spatial_index(GetParam(), pts, options(), net);
  std::vector<spatial_point> qs;
  for (int i = 0; i < 40; ++i) qs.push_back(probe_for(dims(), r));
  expect_receipts_reconcile(net, [&] {
    std::uint64_t messages = 0;
    for (const auto& q : qs) messages += idx->locate(q, h(0)).stats.messages;
    return messages;
  });
}

INSTANTIATE_TEST_SUITE_P(AllSpatialBackends, SpatialConformance,
                         ::testing::ValuesIn(api::registered_spatial_backends()),
                         [](const ::testing::TestParamInfo<std::string>& info) {
                           return info.param;
                         });

// Regression: points sharing an exact grid coordinate (or sitting in
// adjacent grid columns, below double resolution) are legal input for every
// backend — the trapmap adapter's platform x's are salted per point so the
// trapezoidal map's distinct-endpoint-x contract survives such sets.
TEST(SpatialConformanceEdge, SharedAxisCoordinatesAreLegalEverywhere) {
  std::vector<spatial_point> pts;
  const std::uint64_t x0 = seq::coord_span / 3;
  for (std::uint64_t i = 0; i < 12; ++i) {
    spatial_point p;
    p.x[0] = x0 + (i % 3);  // three adjacent grid columns, far below double ulp
    p.x[1] = (i + 1) * (seq::coord_span / 16);
    pts.push_back(p);
  }
  for (const auto& name : api::registered_spatial_backends()) {
    if (api::spatial_backend_dims(name) != 2) continue;
    network net(8);
    const auto idx = api::make_spatial_index(name, pts, api::index_options{}.seed(5), net);
    for (const auto& p : pts) {
      EXPECT_TRUE(idx->locate(p, h(1)).found) << name;
    }
    spatial_box column;
    column.lo.x[0] = x0;
    column.hi.x[0] = x0 + 2;
    column.hi.x[1] = seq::coord_span - 1;
    EXPECT_EQ(idx->orthogonal_range(column, h(0)).value.size(), pts.size()) << name;
  }
}

TEST(SpatialRegistry, KnowsItsBuiltins) {
  for (const char* name : {"skip_quadtree2", "skip_quadtree3", "skip_trie", "skip_trapmap"}) {
    EXPECT_TRUE(api::spatial_backend_known(name)) << name;
  }
  EXPECT_FALSE(api::spatial_backend_known("rtree"));
  EXPECT_GE(api::registered_spatial_backends().size(), 4u);
  EXPECT_EQ(api::spatial_backend_dims("skip_quadtree2"), 2);
  EXPECT_EQ(api::spatial_backend_dims("skip_quadtree3"), 3);
  EXPECT_EQ(api::spatial_backend_dims("skip_trie"), 2);
  EXPECT_EQ(api::spatial_backend_dims("skip_trapmap"), 2);
}

TEST(SpatialRegistry, UnknownBackendThrows) {
  rng r(9100);
  const auto pts = points_for(2, 16, r);
  network net(1);
  EXPECT_THROW((void)api::make_spatial_index("no_such_backend", pts, api::index_options{}, net),
               std::out_of_range);
  EXPECT_THROW((void)api::spatial_backend_dims("no_such_backend"), std::out_of_range);
}

TEST(SpatialRegistry, CustomBackendsCanRegister) {
  api::register_spatial_backend(
      "skip_quadtree2_alias", 2,
      [](std::vector<spatial_point> pts, const api::index_options& opts, net::network& net) {
        return api::make_spatial_index("skip_quadtree2", std::move(pts), opts, net);
      });
  EXPECT_TRUE(api::spatial_backend_known("skip_quadtree2_alias"));
  rng r(9101);
  const auto pts = points_for(2, 64, r);
  network net(16);
  const auto idx = api::make_spatial_index("skip_quadtree2_alias", pts, api::index_options{}, net);
  EXPECT_EQ(idx->size(), 64u);
  EXPECT_TRUE(idx->locate(pts[0], h(1)).found);
}

}  // namespace
