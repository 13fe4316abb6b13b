// The congestion plane: per-op max-host-load accounting, the quiescent-only
// network::congestion_profile() report, Zipfian query streams, and the
// hot-route replica cache (serve/route_cache.h). The cache's contract is the
// load-bearing assertion here: for EVERY registered 1-D and spatial backend,
// answers with the cache attached are byte-identical to an uncached twin —
// only receipts and the congestion ledger may differ.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <map>
#include <set>
#include <string>
#include <vector>

#include "api/registry.h"
#include "api/spatial_registry.h"
#include "api/string_registry.h"
#include "net/cursor.h"
#include "net/network.h"
#include "net/receipt.h"
#include "serve/executor.h"
#include "serve/route_cache.h"
#include "util/rng.h"
#include "workloads/workloads.h"

namespace {

using namespace skipweb;
using net::host_id;
using net::network;
namespace wl = skipweb::workloads;

host_id h(std::uint32_t v) { return host_id{v}; }

// --- per-op max-host-load ------------------------------------------------------

TEST(CongestionReceipt, MaxHostLoadCountsTheHeaviestHost) {
  net::traffic_receipt r;
  EXPECT_EQ(r.max_host_load(), 0u);
  r.record(h(1));
  EXPECT_EQ(r.max_host_load(), 1u);
  r.record(h(2));
  r.record(h(1));
  r.record(h(3));
  r.record(h(1));
  EXPECT_EQ(r.max_host_load(), 3u);
}

TEST(CongestionReceipt, MaxHostLoadSurvivesTheSpill) {
  net::traffic_receipt r;
  const std::size_t hops = net::traffic_receipt::inline_capacity + 20;
  for (std::size_t i = 0; i < hops; ++i) r.record(h(static_cast<std::uint32_t>(i % 3)));
  // hosts 0,1,2 in rotation: host 0 gets the extra rounds.
  EXPECT_EQ(r.max_host_load(), (hops + 2) / 3);
}

TEST(CongestionNetwork, MaxOpHostLoadTracksTheWorstCommittedOp) {
  network net(8);
  net.set_op_load_tracking(true);
  {
    net::cursor a(net, h(0));
    a.move_to(h(1));
    a.move_to(h(2));
    a.move_to(h(1));  // host 1 loaded twice by this op
  }
  {
    net::cursor b(net, h(0));
    b.move_to(h(3));
  }
  EXPECT_EQ(net.max_op_host_load(), 2u);
  net.reset_traffic();
  EXPECT_EQ(net.max_op_host_load(), 0u);
  // Tracking is opt-in (the fold is expensive on hop-heavy receipts): with
  // it off, commits leave the per-op max untouched.
  net.set_op_load_tracking(false);
  {
    net::cursor c(net, h(0));
    c.move_to(h(1));
    c.move_to(h(2));
    c.move_to(h(1));
  }
  EXPECT_EQ(net.max_op_host_load(), 0u);
}

// --- congestion_profile --------------------------------------------------------

TEST(CongestionNetwork, ProfileReconcilesWithTotalMessages) {
  util::rng r(71);
  const auto keys = wl::uniform_keys(256, r);
  network net(1);
  const auto idx = api::make_index("skipweb1d", keys, api::index_options{}.seed(5), net);
  net.set_op_load_tracking(true);
  net.reset_traffic();
  const auto qs = wl::query_stream(keys, 300, 72);
  for (const auto q : qs) (void)idx->nearest(q, h(0));

  const auto p = net.congestion_profile();
  EXPECT_EQ(p.hosts, net.host_count());
  EXPECT_EQ(p.total_visits, net.total_messages());
  EXPECT_EQ(p.max_visits, net.max_visits());
  EXPECT_GT(p.max_visits, 0u);
  EXPECT_GE(p.max_visits, p.p99_visits);
  EXPECT_DOUBLE_EQ(p.mean_visits,
                   static_cast<double>(p.total_visits) / static_cast<double>(p.hosts));
  EXPECT_GE(p.hosts, p.hosts_touched);
  EXPECT_GT(p.hosts_touched, 0u);
  EXPECT_GE(p.max_op_host_load, 1u);
  // Summing the per-host counters reproduces total_visits exactly.
  std::uint64_t sum = 0;
  for (std::uint32_t i = 0; i < net.host_count(); ++i) sum += net.visits(h(i));
  EXPECT_EQ(sum, p.total_visits);
}

// --- Zipf query streams --------------------------------------------------------

TEST(ZipfStream, SeedDeterministicAndSeedSensitive) {
  util::rng r(80);
  const auto keys = wl::uniform_keys(300, r);
  const auto a = wl::zipf_query_stream(keys, 500, 42, 1.1);
  const auto b = wl::zipf_query_stream(keys, 500, 42, 1.1);
  EXPECT_EQ(a, b);
  EXPECT_NE(a, wl::zipf_query_stream(keys, 500, 43, 1.1));
  EXPECT_NE(a, wl::zipf_query_stream(keys, 500, 42, 0.0));
}

TEST(ZipfStream, ProbesAreStoredKeys) {
  util::rng r(81);
  const auto keys = wl::uniform_keys(100, r);
  std::set<std::uint64_t> key_set(keys.begin(), keys.end());
  for (const auto q : wl::zipf_query_stream(keys, 400, 7, 0.8)) {
    EXPECT_TRUE(key_set.count(q)) << q;
  }
}

TEST(ZipfStream, SkewConcentratesTheStream) {
  util::rng r(82);
  const auto keys = wl::uniform_keys(512, r);
  auto top_share = [&](double s) {
    const auto qs = wl::zipf_query_stream(keys, 4000, 9, s);
    std::map<std::uint64_t, std::size_t> freq;
    for (const auto q : qs) ++freq[q];
    std::size_t top = 0;
    for (const auto& [k, c] : freq) top = std::max(top, c);
    return static_cast<double>(top) / static_cast<double>(qs.size());
  };
  const double uniform = top_share(0.0), mild = top_share(0.8), heavy = top_share(1.1);
  EXPECT_LT(uniform, mild);
  EXPECT_LT(mild, heavy);
  EXPECT_GT(heavy, 0.05);  // s=1.1 over 512 keys: the hot key dominates
}

TEST(ZipfStream, ThreadCountInvariantUnderExecutorSlicing) {
  util::rng r(83);
  const auto keys = wl::uniform_keys(200, r);
  const auto qs = wl::zipf_query_stream(keys, 333, 11, 1.1);
  for (const std::size_t T : {1u, 2u, 4u, 8u}) {
    std::vector<std::uint64_t> reassembled;
    for (std::size_t t = 0; t < T; ++t) {
      const auto [lo, hi] = serve::executor::slice(qs.size(), t, T);
      reassembled.insert(reassembled.end(), qs.begin() + static_cast<std::ptrdiff_t>(lo),
                         qs.begin() + static_cast<std::ptrdiff_t>(hi));
    }
    EXPECT_EQ(reassembled, qs) << "T=" << T;
  }
  // Spatial sibling: same purity.
  const auto pts = wl::spatial_points(2, 64, false, r);
  EXPECT_EQ(wl::zipf_spatial_query_stream(pts, 100, 3, 1.1),
            wl::zipf_spatial_query_stream(pts, 100, 3, 1.1));
}

TEST(ZipfStream, RanksFavourLowRanks) {
  const auto ranks = wl::zipf_ranks(100, 2000, 5, 1.1);
  std::size_t low = 0;
  for (const auto rk : ranks) {
    ASSERT_LT(rk, 100u);
    low += (rk < 10);
  }
  // Zipf(1.1) puts well over a third of the mass on the top decile.
  EXPECT_GT(low, ranks.size() / 3);
}

// --- route_cache unit behaviour -------------------------------------------------

net::traffic_receipt receipt_of(std::initializer_list<std::uint32_t> hosts) {
  net::traffic_receipt r;
  for (const auto v : hosts) r.record(h(v));
  return r;
}

TEST(RouteCache, PromotesAfterThresholdAndAbsorbs) {
  serve::route_cache::options o;
  o.capacity = 4;
  o.depth = 8;
  o.promote_after = 3;
  serve::route_cache cache(o);
  EXPECT_FALSE(cache.absorbs(h(7)));
  cache.on_commit(receipt_of({7, 8}));
  cache.on_commit(receipt_of({7, 9}));
  EXPECT_FALSE(cache.absorbs(h(7)));  // two observations: below threshold
  cache.on_commit(receipt_of({7}));
  EXPECT_TRUE(cache.absorbs(h(7)));  // third crosses promote_after
  EXPECT_FALSE(cache.absorbs(h(8)));
  EXPECT_EQ(cache.hits(), 1u);  // only the successful absorb counted
  ASSERT_EQ(cache.replicated().size(), 1u);
  EXPECT_EQ(cache.replicated()[0], h(7));
}

TEST(RouteCache, CapacityEvictsLeastRecentlyConfirmed) {
  serve::route_cache::options o;
  o.capacity = 2;
  o.promote_after = 1;  // admit on first sight
  serve::route_cache cache(o);
  cache.on_commit(receipt_of({1}));
  cache.on_commit(receipt_of({2}));
  EXPECT_TRUE(cache.absorbs(h(1)));
  EXPECT_TRUE(cache.absorbs(h(2)));
  cache.on_commit(receipt_of({1}));  // confirm 1: now 2 is least recent
  cache.on_commit(receipt_of({3}));  // admit 3: evicts 2
  EXPECT_TRUE(cache.absorbs(h(1)));
  EXPECT_TRUE(cache.absorbs(h(3)));
  EXPECT_FALSE(cache.absorbs(h(2)));
  const auto rep = cache.replicated();
  ASSERT_EQ(rep.size(), 2u);
  EXPECT_EQ(rep[0], h(3));  // most recently confirmed first
}

TEST(RouteCache, ClearDropsEverything) {
  serve::route_cache::options o;
  o.promote_after = 1;
  serve::route_cache cache(o);
  cache.on_commit(receipt_of({5}));
  ASSERT_TRUE(cache.absorbs(h(5)));
  cache.clear();
  EXPECT_FALSE(cache.absorbs(h(5)));
  EXPECT_EQ(cache.hits(), 0u);
  EXPECT_EQ(cache.observed_hops(), 0u);
  EXPECT_TRUE(cache.replicated().empty());
}

TEST(RouteCache, CursorAbsorbsOnlyInsideTheDepthWindow) {
  serve::route_cache::options o;
  o.capacity = 4;
  o.depth = 2;  // only the first two hops of an op may be absorbed
  o.promote_after = 1;
  serve::route_cache cache(o);
  cache.on_commit(receipt_of({1}));  // replicate host 1
  network net(4);
  net.attach_hop_cache(&cache);
  {
    net::cursor c(net, h(0));
    c.move_to(h(1));  // hop 1: absorbed
    EXPECT_EQ(c.absorbed(), 1u);
    EXPECT_EQ(c.messages(), 0u);
    c.move_to(h(2));  // hop 2: not replicated, charged
    c.move_to(h(1));  // hop 3: replicated but window (2) exhausted, charged
    EXPECT_EQ(c.absorbed(), 1u);
    EXPECT_EQ(c.messages(), 2u);
    EXPECT_EQ(c.receipt().size(), 2u);
    EXPECT_EQ(c.receipt().at(0), h(2));
    EXPECT_EQ(c.receipt().at(1), h(1));
  }
  EXPECT_EQ(net.total_messages(), 2u);
  EXPECT_EQ(net.visits(h(1)), 1u);  // the absorbed visit never reached the ledger
  net.attach_hop_cache(nullptr);
  {
    net::cursor c(net, h(0));
    c.move_to(h(1));
    EXPECT_EQ(c.absorbed(), 0u);  // detached: back to full pricing
    EXPECT_EQ(c.messages(), 1u);
  }
}

// --- the replica-cache contract: answers identical for every backend -----------

class CachedConformance : public ::testing::TestWithParam<std::string> {};

TEST_P(CachedConformance, AnswersAreByteIdenticalToTheUncachedTwin) {
  util::rng r(9100);
  const auto keys = wl::uniform_keys(256, r);
  const auto qs = wl::zipf_query_stream(keys, 400, 9101, 1.1);
  const auto opts =
      api::index_options{}.seed(97).initial_hosts(8).bucket_size(16).buckets(24);

  network plain_net(1);
  const auto plain = api::make_index(GetParam(), keys, opts, plain_net);

  network cached_net(1);
  serve::route_cache::options co;
  co.capacity = 16;
  co.depth = 8;
  co.promote_after = 4;
  serve::route_cache cache(co);
  const auto cached =
      api::make_index(GetParam(), keys, api::index_options(opts).route_cache(&cache), cached_net);
  ASSERT_EQ(cached_net.attached_hop_cache(), &cache);  // index_options opt-in wired through

  serve::executor ex(2);
  // Two passes: the first trains the cache, the second absorbs. Answers must
  // match hop for hop in BOTH (the cache may only change receipts).
  for (int pass = 0; pass < 2; ++pass) {
    const auto want = ex.run_nearest(*plain, qs, h(0), 16);
    const auto got = ex.run_nearest(*cached, qs, h(0), 16);
    ASSERT_EQ(got.results.size(), want.results.size());
    for (std::size_t i = 0; i < want.results.size(); ++i) {
      EXPECT_EQ(got.results[i].has_pred, want.results[i].has_pred) << i;
      EXPECT_EQ(got.results[i].has_succ, want.results[i].has_succ) << i;
      if (want.results[i].has_pred) {
        EXPECT_EQ(got.results[i].pred, want.results[i].pred) << i;
      }
      if (want.results[i].has_succ) {
        EXPECT_EQ(got.results[i].succ, want.results[i].succ) << i;
      }
    }
  }
  // Range and contains answers too (the generic surfaces route through the
  // same cursors).
  const auto lo = *std::min_element(keys.begin(), keys.end());
  const auto wr = plain->range(lo, lo + (std::uint64_t{1} << 58), h(0), 32);
  const auto gr = cached->range(lo, lo + (std::uint64_t{1} << 58), h(0), 32);
  EXPECT_EQ(gr.value, wr.value);
  const auto wc = plain->contains(qs[0], h(0));
  const auto gc = cached->contains(qs[0], h(0));
  EXPECT_EQ(gc.value, wc.value);

  // Structural plane: a routing replica serves reads, it cannot absorb an
  // update's cost — insert/erase receipts must be bit-identical with the
  // trained cache attached (the structural_section contract), even for
  // backends whose updates route via nested query calls.
  util::rng kr(9106);
  const std::uint64_t fresh = wl::uniform_keys(1, kr)[0];
  const auto wi = plain->insert(fresh, h(0));
  const auto gi = cached->insert(fresh, h(0));
  EXPECT_EQ(gi, wi) << "insert receipt changed under the route cache";
  const auto we = plain->erase(fresh, h(0));
  const auto ge = cached->erase(fresh, h(0));
  EXPECT_EQ(ge, we) << "erase receipt changed under the route cache";
}

INSTANTIATE_TEST_SUITE_P(AllBackends, CachedConformance,
                         ::testing::ValuesIn(api::registered_backends()),
                         [](const ::testing::TestParamInfo<std::string>& info) {
                           return info.param;
                         });

class SpatialCachedConformance : public ::testing::TestWithParam<std::string> {};

TEST_P(SpatialCachedConformance, LocateAndNnAnswersMatchTheUncachedTwin) {
  const int dims = api::spatial_backend_dims(GetParam());
  util::rng r(9102);
  const auto pts = wl::spatial_points(dims, 128, false, r);
  const auto qs = wl::zipf_spatial_query_stream(pts, 200, 9103, 1.1);
  const auto opts = api::index_options{}.seed(11).initial_hosts(64);

  network plain_net(1);
  const auto plain = api::make_spatial_index(GetParam(), pts, opts, plain_net);

  network cached_net(1);
  serve::route_cache::options co;
  co.capacity = 16;
  co.depth = 8;
  co.promote_after = 4;
  serve::route_cache cache(co);
  const auto cached = api::make_spatial_index(GetParam(), pts,
                                              api::index_options(opts).route_cache(&cache),
                                              cached_net);

  serve::executor ex(2);
  for (int pass = 0; pass < 2; ++pass) {
    const auto want = ex.run_locate(*plain, qs, h(0), 16);
    const auto got = ex.run_locate(*cached, qs, h(0), 16);
    ASSERT_EQ(got.results.size(), want.results.size());
    for (std::size_t i = 0; i < want.results.size(); ++i) {
      EXPECT_EQ(got.results[i].found, want.results[i].found) << i;
      EXPECT_EQ(got.results[i].cell, want.results[i].cell) << i;
      EXPECT_EQ(got.results[i].scale, want.results[i].scale) << i;
    }
  }
  // The NN answer (reduction or native) is part of the contract too.
  for (std::size_t i = 0; i < 8; ++i) {
    const auto want = plain->approx_nn(qs[i], h(0));
    const auto got = cached->approx_nn(qs[i], h(0));
    EXPECT_EQ(got.value, want.value) << i;
  }
}

INSTANTIATE_TEST_SUITE_P(AllSpatialBackends, SpatialCachedConformance,
                         ::testing::ValuesIn(api::registered_spatial_backends()),
                         [](const ::testing::TestParamInfo<std::string>& info) {
                           return info.param;
                         });

// The string plane composes with the cache the same way: every registered
// text backend's answers are byte-identical to an uncached twin across the
// whole query surface, trained or cold.
class StringCachedConformance : public ::testing::TestWithParam<std::string> {};

TEST_P(StringCachedConformance, AnswersAreByteIdenticalToTheUncachedTwin) {
  util::rng r(9108);
  const auto keys = wl::url_paths(200, r);
  const auto qs = wl::zipf_string_query_stream(keys, 300, 9109, 1.1);
  const auto prefixes = wl::prefix_stream(keys, 40, 9109);
  const auto opts = api::index_options{}.seed(97).initial_hosts(8);

  network plain_net(1);
  const auto plain = api::make_string_index(GetParam(), keys, opts, plain_net);

  network cached_net(1);
  serve::route_cache::options co;
  co.capacity = 16;
  co.depth = 8;
  co.promote_after = 4;
  serve::route_cache cache(co);
  const auto cached = api::make_string_index(
      GetParam(), keys, api::index_options(opts).route_cache(&cache), cached_net);
  ASSERT_EQ(cached_net.attached_hop_cache(), &cache);

  serve::executor ex(2);
  // Two passes: the first trains the cache, the second absorbs. Answers must
  // match in BOTH (the cache may only change receipts).
  for (int pass = 0; pass < 2; ++pass) {
    const auto want = ex.run_contains(*plain, qs, h(0), 16);
    const auto got = ex.run_contains(*cached, qs, h(0), 16);
    ASSERT_EQ(got.results.size(), want.results.size());
    for (std::size_t i = 0; i < want.results.size(); ++i) {
      EXPECT_EQ(got.results[i].value, want.results[i].value) << "pass " << pass << " q " << i;
    }
    for (const auto& p : prefixes) {
      EXPECT_EQ(cached->prefix_match(p, h(0)).value, plain->prefix_match(p, h(0)).value) << p;
      EXPECT_EQ(cached->top_k(p, 5, h(0)).value, plain->top_k(p, 5, h(0)).value) << p;
    }
  }
  EXPECT_EQ(cached->lex_range(keys[3], keys[3] + "~", h(0)).value,
            plain->lex_range(keys[3], keys[3] + "~", h(0)).value);
  const auto terms = api::string_tokens(keys[0]);
  EXPECT_EQ(cached->intersect(terms, h(0)).value, plain->intersect(terms, h(0)).value);

  // Structural plane: update receipts stay bit-identical with the trained
  // cache attached (structural cursors never absorb).
  const std::string fresh = keys[0] + "-fresh";
  const auto wi = plain->insert(fresh, h(0));
  const auto gi = cached->insert(fresh, h(0));
  EXPECT_EQ(gi, wi) << "insert receipt changed under the route cache";
  const auto we = plain->erase(fresh, h(0));
  const auto ge = cached->erase(fresh, h(0));
  EXPECT_EQ(ge, we) << "erase receipt changed under the route cache";
}

INSTANTIATE_TEST_SUITE_P(AllStringBackends, StringCachedConformance,
                         ::testing::ValuesIn(api::registered_string_backends()),
                         [](const ::testing::TestParamInfo<std::string>& info) {
                           return info.param;
                         });

// --- and the point of it all: the cache absorbs skewed congestion --------------

TEST(CongestionDrop, ReplicaCacheReducesMaxHostVisitsUnderZipf) {
  util::rng r(9104);
  const auto keys = wl::uniform_keys(512, r);
  const auto qs = wl::zipf_query_stream(keys, 2000, 9105, 1.1);

  auto max_visits = [&](net::hop_cache* cache) {
    network net(1);
    auto opts = api::index_options{}.seed(3);
    if (cache != nullptr) opts.route_cache(cache);
    const auto idx = api::make_index("skipweb1d", keys, opts, net);
    serve::executor ex(1);
    (void)ex.run_nearest(*idx, qs, h(0), 16);  // warm/train
    net.reset_traffic();
    (void)ex.run_nearest(*idx, qs, h(0), 16);
    return net.congestion_profile().max_visits;
  };

  const auto uncached = max_visits(nullptr);
  serve::route_cache cache;  // default bench-shaped options
  const auto cached = max_visits(&cache);
  EXPECT_GT(cache.hits(), 0u);
  // The acceptance bar is a >= 20% drop; assert half of that so seed drift
  // can never flake the suite while a real regression still fails.
  EXPECT_LT(static_cast<double>(cached), 0.9 * static_cast<double>(uncached))
      << "uncached=" << uncached << " cached=" << cached;
}

}  // namespace
