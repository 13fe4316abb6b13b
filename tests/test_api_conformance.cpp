// Conformance suite for the unified distributed_index API: the same
// nearest / contains / insert / erase / range assertions run against every
// backend the registry knows, selected by name. A new backend earns coverage
// by registering itself — no new test code.

#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <string>
#include <vector>

#include "api/registry.h"
#include "net/network.h"
#include "oracle_common.h"
#include "util/rng.h"
#include "workloads/workloads.h"

namespace {

using namespace skipweb;
using namespace skipweb::testing_support;
using net::host_id;
using net::network;
using util::rng;
namespace wl = skipweb::workloads;

class ApiConformance : public ::testing::TestWithParam<std::string> {
 protected:
  [[nodiscard]] static api::index_options options() {
    // Small knobs so bucketed backends exercise several buckets/blocks.
    return api::index_options{}.seed(97).initial_hosts(8).bucket_size(16).buckets(24);
  }
};

TEST_P(ApiConformance, RegistryBuildsTheNamedBackend) {
  rng r(8001);
  const auto keys = wl::uniform_keys(200, r);
  network net(1);
  const auto idx = api::make_index(GetParam(), keys, options(), net);
  ASSERT_NE(idx, nullptr);
  EXPECT_EQ(idx->backend(), GetParam());
  EXPECT_EQ(idx->size(), keys.size());
  EXPECT_GE(net.host_count(), 8u);  // initial_hosts honoured
}

TEST_P(ApiConformance, NearestMatchesOracle) {
  rng r(8002);
  const auto keys = wl::uniform_keys(256, r);
  network net(1);
  const auto idx = api::make_index(GetParam(), keys, options(), net);
  const std::set<std::uint64_t> oracle(keys.begin(), keys.end());
  std::uint32_t origin = 0;
  for (const auto q : wl::probe_keys(keys, 150, r)) {
    const auto res = idx->nearest(q, h(origin));
    origin = static_cast<std::uint32_t>((origin + 1) % net.host_count());
    auto it = oracle.upper_bound(q);
    const bool has_pred = it != oracle.begin();
    ASSERT_EQ(res.has_pred, has_pred) << q;
    if (has_pred) {
      EXPECT_EQ(res.pred, *std::prev(it));
    }
    const bool has_succ = it != oracle.end();
    ASSERT_EQ(res.has_succ, has_succ) << q;
    if (has_succ) {
      EXPECT_EQ(res.succ, *it);
    }
    // The receipt is coherent: a visit per hop plus the origin (backends
    // composing two routing cursors, e.g. bucket_skipgraph, count it twice).
    EXPECT_GT(res.stats.host_visits, res.stats.messages);
    EXPECT_LE(res.stats.host_visits, res.stats.messages + 2);
  }
}

TEST_P(ApiConformance, ContainsMatchesOracle) {
  rng r(8003);
  const auto keys = wl::uniform_keys(200, r);
  network net(1);
  const auto idx = api::make_index(GetParam(), keys, options(), net);
  const std::set<std::uint64_t> oracle(keys.begin(), keys.end());
  for (std::size_t i = 0; i < 60; ++i) {
    EXPECT_TRUE(idx->contains(keys[i], h(static_cast<std::uint32_t>(i % net.host_count()))).value)
        << keys[i];
  }
  for (const auto q : wl::probe_keys(keys, 60, r)) {
    EXPECT_EQ(idx->contains(q, h(0)).value, oracle.count(q) > 0) << q;
  }
}

TEST_P(ApiConformance, InsertEraseRoundTrip) {
  // Seeded mixed tape vs a std::set oracle; a divergence prints the seed and
  // the minimal reproducing op prefix (tests/oracle_common.h).
  rng r(8004);
  const auto pool = wl::uniform_keys(300, r);
  const std::vector<std::uint64_t> initial(pool.begin(), pool.begin() + 200);
  network net(1);
  const auto idx = api::make_index(GetParam(), initial, options(), net);
  ASSERT_TRUE(idx->supports(api::capability::insert));
  ASSERT_TRUE(idx->supports(api::capability::erase));

  std::set<std::uint64_t> oracle(initial.begin(), initial.end());
  const auto tape = make_tape<std::uint64_t>(8004, pool, 200, 260, net.host_count());
  replay_tape(
      tape,
      [&](std::size_t, const tape_row<std::uint64_t>& row) {
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
            return idx->contains(row.key, h(row.origin)).value == (oracle.count(row.key) > 0);
        }
      },
      [](std::uint64_t k) { return std::to_string(k); });
  EXPECT_EQ(idx->size(), oracle.size());
}

TEST_P(ApiConformance, RangeMatchesOracle) {
  rng r(8005);
  const auto keys = wl::uniform_keys(200, r);
  network net(1);
  const auto idx = api::make_index(GetParam(), keys, options(), net);
  ASSERT_TRUE(idx->supports(api::capability::range));

  std::vector<std::uint64_t> sorted = keys;
  std::sort(sorted.begin(), sorted.end());
  for (int trial = 0; trial < 20; ++trial) {
    const std::size_t i = r.index(sorted.size());
    const std::size_t j = i + r.index(std::min<std::size_t>(sorted.size() - i, 30));
    const std::vector<std::uint64_t> want(sorted.begin() + static_cast<std::ptrdiff_t>(i),
                                          sorted.begin() + static_cast<std::ptrdiff_t>(j) + 1);
    const auto got = idx->range(sorted[i], sorted[j], h(0));
    EXPECT_EQ(got.value, want) << "trial " << trial;
  }
  // Limits, empty windows, and the shared lo <= hi contract.
  EXPECT_EQ(idx->range(sorted.front(), sorted.back(), h(0), 7).value.size(), 7u);
  EXPECT_TRUE(idx->range(sorted.back() + 1, sorted.back() + 50, h(0)).value.empty());
  EXPECT_THROW((void)idx->range(10, 5, h(0)), util::contract_error);
}

TEST_P(ApiConformance, BatchMatchesSerialResultsAndReceipts) {
  // The nearest_batch contract — identical results AND identical per-op cost
  // receipts to nearest() called once per query — holds for every backend:
  // the interleaved routers (skipweb1d) by construction, the baselines
  // (chord's flooding, skip_graph, det_skipnet, family_tree, ...) through
  // the default loop. Locking the baselines in here keeps a future
  // interleaved override honest. The probes include the edge lanes: q = 0,
  // q = 2^64 - 1, the smallest and largest stored keys, over a uniform and
  // a clustered build.
  rng r(8007);
  for (const bool clustered : {false, true}) {
    SCOPED_TRACE(clustered ? "clustered" : "uniform");
    const auto keys = clustered ? wl::clustered_keys(220, r) : wl::uniform_keys(220, r);
    network net(1);
    const auto idx = api::make_index(GetParam(), keys, options(), net);
    const auto [lo, hi] = std::minmax_element(keys.begin(), keys.end());
    std::vector<std::uint64_t> qs = {0, ~std::uint64_t{0}, *lo, *hi};
    for (const auto q : wl::probe_keys(keys, 70, r)) qs.push_back(q);

    std::vector<api::nn_result> serial;
    serial.reserve(qs.size());
    for (const auto q : qs) serial.push_back(idx->nearest(q, h(2)));
    const auto batch = idx->nearest_batch(qs, h(2));
    expect_batch_matches_serial(
        batch, serial, [](std::size_t i, const api::nn_result& b, const api::nn_result& s) {
          EXPECT_EQ(b.has_pred, s.has_pred) << i;
          EXPECT_EQ(b.has_succ, s.has_succ) << i;
          if (s.has_pred) {
            EXPECT_EQ(b.pred, s.pred) << i;
          }
          if (s.has_succ) {
            EXPECT_EQ(b.succ, s.succ) << i;
          }
          EXPECT_EQ(b.stats, s.stats) << i;
        });
  }
}

TEST_P(ApiConformance, StatsReceiptsAreNonTrivial) {
  rng r(8006);
  const auto keys = wl::uniform_keys(256, r);
  network net(1);
  const auto idx = api::make_index(GetParam(), keys, options(), net);
  const auto qs = wl::probe_keys(keys, 50, r);
  expect_receipts_reconcile(net, [&] {
    std::uint64_t messages = 0;
    for (const auto q : qs) messages += idx->nearest(q, h(0)).stats.messages;
    return messages;
  });
}

INSTANTIATE_TEST_SUITE_P(AllBackends, ApiConformance,
                         ::testing::ValuesIn(api::registered_backends()),
                         [](const ::testing::TestParamInfo<std::string>& info) {
                           return info.param;
                         });

// Registry misuse and capability edges.
TEST(ApiRegistry, UnknownBackendThrows) {
  rng r(8100);
  const auto keys = wl::uniform_keys(16, r);
  network net(1);
  EXPECT_THROW((void)api::make_index("no_such_backend", keys, api::index_options{}, net),
               std::out_of_range);
}

TEST(ApiRegistry, KnowsItsBuiltins) {
  for (const char* name : {"skipweb1d", "bucket_skipweb", "skip_graph", "non_skipgraph",
                           "bucket_skipgraph", "det_skipnet", "family_tree", "chord"}) {
    EXPECT_TRUE(api::backend_known(name)) << name;
  }
  EXPECT_FALSE(api::backend_known("btree"));
  EXPECT_GE(api::registered_backends().size(), 8u);
}

TEST(ApiRegistry, CustomBackendsCanRegister) {
  api::register_backend("skipweb1d_balanced_alias",
                        [](std::vector<std::uint64_t> keys, const api::index_options& opts,
                           net::network& net) {
                          return api::make_index(
                              "skipweb1d", std::move(keys),
                              api::index_options(opts).placement(api::placement_policy::balanced),
                              net);
                        });
  EXPECT_TRUE(api::backend_known("skipweb1d_balanced_alias"));
  rng r(8101);
  const auto keys = wl::uniform_keys(64, r);
  network net(16);
  const auto idx = api::make_index("skipweb1d_balanced_alias", keys, api::index_options{}, net);
  EXPECT_EQ(idx->size(), 64u);
  EXPECT_TRUE(idx->contains(keys[0], h(1)).value);
}

}  // namespace
