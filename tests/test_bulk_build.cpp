// The big-n plane's correctness contract (DESIGN.md §12). The level lists
// must equal the partition-pass oracle below — same keys, membership bits,
// uids and links — however many prefix sets link them, and structures on
// them save the same file at every split. The skip quadtree's level-major,
// pipelined build must be BYTE-IDENTICAL to its point-by-point twin, which
// runs the same level visit in the other order: same arenas, answers and
// cost receipts, also as the registry builds it. Plus the big-n regression
// smoke: uid stability and structural invariants across arena growth, the
// split links at 2^20 keys, and the skip quadtree's rows after churn,
// env-gated so CI stays fast (SKIPWEB_BIGN=1 raises n to 1M keys and 2^17
// points).

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstdlib>
#include <functional>
#include <numeric>
#include <string>
#include <utility>
#include <vector>

#include "api/registry.h"
#include "api/spatial_registry.h"
#include "baselines/det_skipnet.h"
#include "core/level_lists.h"
#include "core/skip_quadtree.h"
#include "core/skipweb_1d.h"
#include "net/network.h"
#include "oracle_common.h"
#include "persist/snapshot.h"
#include "temp_files.h"
#include "util/membership.h"
#include "util/rng.h"
#include "util/sw_assert.h"
#include "workloads/workloads.h"

namespace {

using namespace skipweb;
using net::host_id;
using net::network;
using testing_support::file_bytes;
using testing_support::snap_path;
using util::rng;
namespace wl = skipweb::workloads;

host_id h(std::uint32_t v) { return host_id{v}; }

// A bulk-built index already is its compacted self: no slack, and an
// explicit compact() changes no byte of the footprint.
template <typename Index>
void expect_built_is_compacted(Index& idx) {
  const auto built = idx.footprint();
  EXPECT_EQ(built.slack_bytes, 0u);
  idx.compact();
  const auto compacted = idx.footprint();
  EXPECT_EQ(built.arena_bytes, compacted.arena_bytes);
  EXPECT_EQ(built.link_bytes, compacted.link_bytes);
  EXPECT_EQ(built.directory_bytes, compacted.directory_bytes);
  EXPECT_EQ(built.slack_bytes, compacted.slack_bytes);
}

// The oracle: the level lists of items with membership vectors `bits`, in
// key order, by the paper's rule (§2.3) — the level-l list of S_b holds the
// items whose vectors start with b, in key order — built by partition
// passes. Each level's stable partition by the next membership bit keeps
// the items grouped by their l-bit prefix, key-sorted within each group, so
// the level-l lists are exactly the maximal runs of equal prefixes. Rows are
// item-major, levels + 1 links each, like the arena's pools.
struct link_rows {
  std::vector<std::int32_t> next, prev;
};

link_rows partition_links(const std::vector<util::membership_bits>& bits, int levels) {
  const std::size_t n = bits.size();
  const auto stride = static_cast<std::size_t>(levels) + 1;
  link_rows out{std::vector<std::int32_t>(n * stride, -1),
                std::vector<std::int32_t>(n * stride, -1)};
  std::vector<std::int32_t> order(n);
  std::iota(order.begin(), order.end(), 0);
  for (int l = 0; l <= levels; ++l) {
    if (l > 0) {
      std::stable_partition(order.begin(), order.end(), [&](std::int32_t i) {
        return !util::membership_bit(bits[static_cast<std::size_t>(i)], l - 1);
      });
    }
    for (std::size_t k = 1; k < n; ++k) {
      const auto a = static_cast<std::size_t>(order[k - 1]);
      const auto b = static_cast<std::size_t>(order[k]);
      if (util::prefix_of(bits[a], l) == util::prefix_of(bits[b], l)) {
        out.next[a * stride + static_cast<std::size_t>(l)] = order[k];
        out.prev[b * stride + static_cast<std::size_t>(l)] = order[k - 1];
      }
    }
  }
  return out;
}

// The membership vectors a build from rng seed `seed` draws: one per key, in
// key order.
std::vector<util::membership_bits> drawn_bits(std::size_t n, std::uint64_t seed) {
  rng r(seed);
  std::vector<util::membership_bits> bits(n);
  for (auto& b : bits) b = util::draw_membership(r);
  return bits;
}

// Compares a freshly built arena with the oracle: every slot's key, bits
// and uid (slot i holds key i with uid i), then every link at every level.
// The first link that differs is reported as item * (levels + 1) + level;
// one comparison per link suits arenas too big for an assertion per link.
void expect_matches_partition_reference(const core::level_lists& lists,
                                        const std::vector<std::uint64_t>& keys,
                                        const std::vector<util::membership_bits>& bits) {
  ASSERT_EQ(lists.arena_size(), keys.size());
  ASSERT_EQ(lists.size(), keys.size());
  for (int i = 0; i < static_cast<int>(keys.size()); ++i) {
    const auto at = static_cast<std::size_t>(i);
    ASSERT_TRUE(lists.alive(i)) << i;
    ASSERT_EQ(lists.key(i), keys[at]) << i;
    ASSERT_EQ(lists.bits(i), bits[at]) << i;
    ASSERT_EQ(lists.uid(i), at) << i;
  }
  const auto want = partition_links(bits, lists.levels());
  const auto stride = static_cast<std::size_t>(lists.levels()) + 1;
  long long first_difference = -1;
  for (std::size_t at = 0; at < want.next.size() && first_difference < 0; ++at) {
    const int item = static_cast<int>(at / stride);
    const int level = static_cast<int>(at % stride);
    if (lists.next(item, level) != want.next[at] || lists.prev(item, level) != want.prev[at]) {
      first_difference = static_cast<long long>(at);
    }
  }
  EXPECT_EQ(first_difference, -1) << "first link differing from the oracle";
}

// Forces the bulk build's prefix-set count on this thread for one scope.
class forced_sets {
 public:
  explicit forced_sets(std::size_t sets) { core::level_lists::forced_link_sets = sets; }
  ~forced_sets() { core::level_lists::forced_link_sets = 0; }
  forced_sets(const forced_sets&) = delete;
  forced_sets& operator=(const forced_sets&) = delete;
};

// det_skipnet's vectors: the sorted rank itself.
std::vector<util::membership_bits> rank_bits(std::size_t n) {
  std::vector<util::membership_bits> bits(n);
  for (std::size_t r = 0; r < n; ++r) bits[r] = r;
  return bits;
}

// --- layer 1: the level_lists arena itself ----------------------------------

TEST(BulkBuild, LevelListsMatchPartitionReference) {
  rng r(4242);
  auto keys = wl::uniform_keys(2000, r);
  std::sort(keys.begin(), keys.end());
  rng rb(77);
  const core::level_lists lists(keys, rb, util::levels_for(keys.size()));
  expect_matches_partition_reference(lists, keys, drawn_bits(keys.size(), 77));
  EXPECT_TRUE(lists.check_invariants());
}

TEST(BulkBuild, ExplicitBitsMatchPartitionReference) {
  rng r(555);
  auto keys = wl::uniform_keys(700, r);
  std::sort(keys.begin(), keys.end());
  std::vector<util::membership_bits> bits(keys.size());
  for (auto& b : bits) b = util::draw_membership(r);
  const core::level_lists lists(keys, bits, util::levels_for(keys.size()));
  expect_matches_partition_reference(lists, keys, bits);
}

// The links split into several prefix sets: 1 (the serial passes), 2, 3
// (rounded up to 4), 4, 8 and 64, the last splitting above every level of
// the 5-item arena, so there every list spans several sets. Every arena
// equals the partition-pass oracle, through the rng-bits constructor and
// through the explicit rank bits det_skipnet uses, whose sets are exact
// residues of the rank and whose upper lists hold one item each.
TEST(BulkBuild, SplitLinksMatchPartitionReference) {
  rng r(3030);
  for (const std::size_t n : {std::size_t{5}, std::size_t{4099}}) {
    auto keys = wl::uniform_keys(n, r);
    std::sort(keys.begin(), keys.end());
    const int levels = util::levels_for(n);
    const auto ranks = rank_bits(n);
    const auto drawn_ref = drawn_bits(n, 88);
    for (const std::size_t sets : {1, 2, 3, 4, 8, 64}) {
      SCOPED_TRACE(::testing::Message() << n << " items, " << sets << " sets");
      const forced_sets force(sets);
      rng rb(88);
      const core::level_lists drawn(keys, rb, levels);
      expect_matches_partition_reference(drawn, keys, drawn_ref);
      const core::level_lists ranked(keys, ranks, levels);
      expect_matches_partition_reference(ranked, keys, ranks);
      EXPECT_TRUE(drawn.check_invariants());
    }
  }
}

// The level count is a precondition: at most ceil(log2 n) + 1 levels, which
// keeps the link passes' tables within a few entries per item. One level
// more is a contract error at every size; the bound itself builds valid
// lists.
TEST(BulkBuild, LevelCountAboveBoundIsAContractError) {
  if (SW_CONTRACTS == 0) GTEST_SKIP() << "the level bound is a contract";
  rng r(6161);
  for (const std::size_t n : {std::size_t{1}, std::size_t{5}, std::size_t{4099}}) {
    SCOPED_TRACE(::testing::Message() << n << " items");
    auto keys = wl::uniform_keys(n, r);
    std::sort(keys.begin(), keys.end());
    rng ra(12), rb(12);
    EXPECT_THROW((void)core::level_lists(keys, ra, util::levels_for(n) + 2), util::contract_error);
    const core::level_lists lists(keys, rb, util::levels_for(n) + 1);
    EXPECT_TRUE(lists.check_invariants());
    expect_matches_partition_reference(lists, keys, drawn_bits(n, 12));
  }
}

// Above the size at which bulk builds start using several cores, every
// structure on the level lists saves the same file whether it linked in
// one prefix set, in eight or in as many as this machine picks:
// skipweb_1d's tower, balanced and bucket placements, the tower with two
// replicas, and det_skipnet's lists.
TEST(BulkBuild, SplitBuildSnapshotsByteIdentical) {
  const std::size_t n = core::level_lists::parallel_build_min_items + 1001;
  rng r(3131);
  const auto keys = wl::uniform_keys(n, r);
  using core::skipweb_1d;
  const auto save = [&](const std::string& name, std::size_t sets) {
    const auto path = snap_path(name + "_" + std::to_string(sets));
    const forced_sets force(sets);
    network net(64);
    persist::writer w(path);
    if (name == "det_skipnet") {
      baselines::det_skipnet(keys, net).lists().save(w, "lists");
    } else if (name == "bucket") {
      skipweb_1d(keys, 5, net, skipweb_1d::bucket{16}).save_snapshot(w);
    } else {
      const auto p = name == "balanced" ? skipweb_1d::placement::balanced
                                        : skipweb_1d::placement::tower;
      skipweb_1d(keys, 5, net, p, name == "tower_k2" ? 2 : 0).save_snapshot(w);
    }
    w.finish();
    return file_bytes(path);
  };
  for (const std::string name : {"tower", "balanced", "tower_k2", "bucket", "det_skipnet"}) {
    const auto one = save(name, 1);
    for (const std::size_t sets : {std::size_t{8}, std::size_t{0}}) {  // 0: the machine's
      const auto many = save(name, sets);
      ASSERT_EQ(one.size(), many.size()) << name << ", " << sets << " sets";
      const auto diff = std::mismatch(one.begin(), one.end(), many.begin());
      EXPECT_TRUE(diff.first == one.end())
          << name << ", " << sets << " sets: first difference at byte "
          << (diff.first - one.begin());
    }
  }
}

// Two lists damaged in a snapshot file, each restored and checked: a level-1
// list cut after its head (the head's next and its successor's prev both
// unlinked), and the head given a back link to item 1. Every link the check
// follows from a head still agrees with its reverse, so only the walk's
// count of the alive items, or its one list per prefix, sees the damage.
TEST(BulkBuild, InvariantCheckRejectsDamagedLists) {
  rng r(808);
  auto keys = wl::uniform_keys(300, r);
  std::sort(keys.begin(), keys.end());
  rng rb(9);
  const core::level_lists lists(keys, rb, util::levels_for(keys.size()));
  ASSERT_TRUE(lists.check_invariants());
  constexpr int level = 1;
  const int after = lists.next(0, level);  // item 0 holds the least key: a head
  ASSERT_GE(after, 0);
  ASSERT_EQ(lists.prev(0, level), core::level_lists::no_link);
  const auto healthy = snap_path("healthy");
  {
    persist::writer w(healthy);
    lists.save(w, "l");
    w.finish();
  }
  const auto at = [&](int item) {
    return static_cast<std::size_t>(item) * static_cast<std::size_t>(lists.levels() + 1) + level;
  };
  using links = std::vector<std::int32_t>;
  const std::vector<std::pair<std::string, std::function<void(links&, links&)>>> damages = {
      {"cut",
       [&](links& next, links& prev) {
         next[at(0)] = core::level_lists::no_link;
         prev[at(after)] = core::level_lists::no_link;
       }},
      {"back_link", [&](links&, links& prev) { prev[at(0)] = 1; }},
  };
  for (const auto& [name, damage] : damages) {
    SCOPED_TRACE(name);
    const persist::reader rd(healthy, persist::restore_mode::load);
    auto next = rd.vec<std::int32_t>("l.next");
    auto prev = rd.vec<std::int32_t>("l.prev");
    damage(next, prev);
    const auto path = snap_path(name);
    {
      persist::writer w(path);
      for (const char* section :
           {"l.shape", "l.keys", "l.bits", "l.uids", "l.redirect", "l.alive", "l.free"}) {
        const auto v = rd.section(section);
        w.add(section, v.data, v.bytes);
      }
      w.add_vector("l.next", next);
      w.add_vector("l.prev", prev);
      w.finish();
    }
    persist::reader damaged(path, persist::restore_mode::load);
    EXPECT_FALSE(core::level_lists(damaged, "l").check_invariants());
  }
}

// --- layer 2: the quadtree twins stay identical under later routed updates ---

TEST(BulkBuild, QuadtreeIncrementalTwinReceiptsIdentical) {
  rng r(2718);
  const auto pts = wl::uniform_points<2>(400, r);
  const std::vector<seq::qpoint<2>> prefix(pts.begin(), pts.begin() + 300);
  network net_a(64), net_b(64);
  core::skip_quadtree<2> a(prefix, 5, net_a, 0, /*bulk=*/true);
  core::skip_quadtree<2> b(prefix, 5, net_b, 0, /*bulk=*/false);
  for (std::size_t i = 300; i < pts.size(); ++i) {
    const auto origin = h(static_cast<std::uint32_t>(i % 64));
    const auto sa = a.insert(pts[i], origin);
    const auto sb = b.insert(pts[i], origin);
    ASSERT_EQ(sa, sb) << "insert receipt diverged at " << i;
  }
  ASSERT_EQ(net_a.total_memory(), net_b.total_memory());
  EXPECT_TRUE(a.check_invariants());
  EXPECT_TRUE(b.check_invariants());
  for (int i = 0; i < 200; ++i) {
    const auto q = wl::uniform_points<2>(1, r)[0];
    const auto ra = a.locate(q, h(7));
    const auto rb = b.locate(q, h(7));
    ASSERT_EQ(ra.cell, rb.cell);
    ASSERT_EQ(ra.is_point, rb.is_point);
    ASSERT_EQ(ra.stats, rb.stats);
    const auto na = a.nearest(q, h(7));
    const auto nb = b.nearest(q, h(7));
    ASSERT_EQ(na.value, nb.value);
    ASSERT_EQ(na.stats, nb.stats);
  }
}

// --- layer 3: the registry's build against the core constructors ----------

// The registry's index must be indistinguishable from the structure built
// directly through the public surface: same hosts, ledger, answers and
// receipts, so the registry passes the keys, seed and placement through
// unchanged. skipweb1d covers the tower and balanced placements,
// bucket_skipweb the bucket one. The skip quadtrees are held to their
// point-by-point twin.
class BulkBuildConformance : public ::testing::TestWithParam<std::string> {};

TEST_P(BulkBuildConformance, ReceiptsIdenticalThroughRegistry) {
  rng r(1234);
  const auto keys = wl::uniform_keys(400, r);
  using core::skipweb_1d;
  const bool bucket = GetParam() == "bucket_skipweb";
  for (const auto p : {skipweb_1d::placement::tower, skipweb_1d::placement::balanced}) {
    if (bucket && p != skipweb_1d::placement::tower) continue;
    const auto opts = api::index_options{}.seed(42).initial_hosts(8).bucket_size(16).placement(
        p == skipweb_1d::placement::balanced ? api::placement_policy::balanced
                                             : api::placement_policy::tower);
    network net_a(1), net_b(8);
    const auto fast = api::make_index(GetParam(), keys, opts, net_a);
    const auto ref = bucket ? skipweb_1d(keys, 42, net_b, skipweb_1d::bucket{16})
                            : skipweb_1d(keys, 42, net_b, p);
    ASSERT_EQ(net_a.host_count(), net_b.host_count());
    EXPECT_EQ(net_a.total_memory(), net_b.total_memory());
    std::uint32_t origin = 0;
    rng pr(999);
    for (const auto q : wl::probe_keys(keys, 120, pr)) {
      const auto o = h(origin);
      origin = static_cast<std::uint32_t>((origin + 1) % net_a.host_count());
      const auto na = fast->nearest(q, o);
      const auto nb = ref.nearest(q, o);
      ASSERT_EQ(na.pred, nb.pred) << q;
      ASSERT_EQ(na.succ, nb.succ) << q;
      ASSERT_EQ(na.stats, nb.stats) << q;
      const auto ca = fast->contains(q, o);
      const auto cb = ref.contains(q, o);
      ASSERT_EQ(ca.value, cb.value);
      ASSERT_EQ(ca.stats, cb.stats);
    }
    const auto ra = fast->range(keys[5], keys[5] + (std::uint64_t{1} << 60), h(2), 50);
    const auto rb = ref.range(keys[5], keys[5] + (std::uint64_t{1} << 60), h(2), 50);
    EXPECT_EQ(ra.value, rb.value);
    EXPECT_EQ(ra.stats, rb.stats);
  }
}

INSTANTIATE_TEST_SUITE_P(AllBackends, BulkBuildConformance,
                         ::testing::Values("skipweb1d", "bucket_skipweb"),
                         [](const auto& info) { return info.param; });

class SpatialBulkBuildConformance : public ::testing::TestWithParam<std::string> {};

template <int D>
void expect_quadtree_matches_reference(const std::string& name) {
  rng r(4321);
  const auto pts = wl::spatial_points(D, 200, false, r);
  std::vector<seq::qpoint<D>> native;
  for (const auto& p : pts) native.push_back(api::from_spatial<D>(p));
  network net_a(1), net_b(8);
  const auto fast =
      api::make_spatial_index(name, pts, api::index_options{}.seed(17).initial_hosts(8), net_a);
  const core::skip_quadtree<D> ref(native, 17, net_b, 0, /*bulk=*/false);
  ASSERT_EQ(net_a.host_count(), net_b.host_count());
  EXPECT_EQ(net_a.total_memory(), net_b.total_memory());
  for (int i = 0; i < 100; ++i) {
    const auto q = wl::spatial_probe(D, r);
    const auto o = h(static_cast<std::uint32_t>(i % net_a.host_count()));
    const auto la = fast->locate(q, o);
    const auto lb = ref.locate(api::from_spatial<D>(q), o);
    ASSERT_EQ(la.found, lb.is_point);
    ASSERT_EQ(la.cell, seq::qcube_hash<D>{}(lb.cell));
    ASSERT_EQ(la.scale, lb.cell.side());
    ASSERT_EQ(la.stats, lb.stats);
    const auto na = fast->approx_nn(q, o);
    const auto nb = ref.nearest(api::from_spatial<D>(q), o);
    ASSERT_EQ(na.value, api::to_spatial<D>(nb.value));
    ASSERT_EQ(na.stats, nb.stats);
  }
}

TEST_P(SpatialBulkBuildConformance, ReceiptsIdenticalThroughRegistry) {
  if (api::spatial_backend_dims(GetParam()) == 3) {
    expect_quadtree_matches_reference<3>(GetParam());
  } else {
    expect_quadtree_matches_reference<2>(GetParam());
  }
}

// The bulk build reserves n + 1 node slots per level and gives back what no
// node took, so the built index holds only its real nodes.
TEST_P(SpatialBulkBuildConformance, BuiltIndexIsItsCompactedSelf) {
  rng r(2025);
  const auto pts = wl::spatial_points(api::spatial_backend_dims(GetParam()), 3000, true, r);
  network net(1);
  const auto idx =
      api::make_spatial_index(GetParam(), pts, api::index_options{}.seed(23).initial_hosts(16), net);
  expect_built_is_compacted(*idx);
}

INSTANTIATE_TEST_SUITE_P(AllSpatialBackends, SpatialBulkBuildConformance,
                         ::testing::Values("skip_quadtree2", "skip_quadtree3"),
                         [](const auto& info) { return info.param; });

// A built index's levels are exactly sized, so the first insert into each
// level grows its arrays. The big ones live in mappings and grow by an
// eighth, not a doubling: 2048 inserts into 2^16 points leave the footprint
// within a quarter of the built one.
TEST(BulkBuild, InsertsAfterBuildDoNotDoubleTheArena) {
  constexpr std::size_t n = std::size_t{1} << 16;
  constexpr std::size_t inserts = 2048;
  rng r(2626);
  const auto pts = wl::clustered_points<2>(n + inserts, r);
  const std::vector<seq::qpoint<2>> built(pts.begin(),
                                          pts.begin() + static_cast<std::ptrdiff_t>(n));
  network net(64);
  core::skip_quadtree<2> web(built, 27, net);
  const auto before = web.footprint().total_bytes();
  for (std::size_t i = 0; i < inserts; ++i) {
    web.insert(pts[n + i], h(static_cast<std::uint32_t>(i % 64)));
  }
  const auto after = web.footprint().total_bytes();
  EXPECT_GT(after, before);
  EXPECT_LE(static_cast<double>(after), 1.25 * static_cast<double>(before))
      << before << " -> " << after;
}

// --- layer 4: the memory surface the big-n bench reports ---------------------

TEST(BulkBuild, FootprintSurfaceReportsForCoreBackends) {
  rng r(14);
  const auto keys = wl::uniform_keys(300, r);
  network net(1);
  const auto opts = api::index_options{}.seed(7).initial_hosts(8).bucket_size(16).buckets(24);
  for (const auto& name : api::registered_backends()) {
    network n2(1);
    const auto idx = api::make_index(name, keys, opts, n2);
    const auto f = idx->footprint();
    // Every registered 1-D backend implements the surface.
    EXPECT_GT(f.total_bytes(), 0u) << name;
    EXPECT_GT(f.arena_bytes, 0u) << name;
    EXPECT_GT(f.bytes_per_key(idx->size()), 0.0) << name;
  }
  for (const auto& name : api::registered_spatial_backends()) {
    rng r2(15);
    const auto pts = wl::spatial_points(api::spatial_backend_dims(name), 150, false, r2);
    network n2(1);
    const auto idx = api::make_spatial_index(name, pts, api::index_options{}.seed(7), n2);
    const auto f = idx->footprint();
    EXPECT_GT(f.total_bytes(), 0u) << name;
    EXPECT_GT(f.arena_bytes, 0u) << name;
  }
}

// --- layer 5: the skip quadtree's pipelined level passes ---------------------

// Builds `pts` with the bulk build and with the point-by-point reference,
// saves both and requires equal files: every arena slot, down link,
// directory slot, anchor and ledger row.
template <int D>
void expect_bulk_snapshot_identical(const std::vector<seq::qpoint<D>>& pts,
                                    std::size_t replication, const std::string& name) {
  network net_bulk(64), net_ref(64);
  const core::skip_quadtree<D> bulk(pts, 91, net_bulk, replication, /*bulk=*/true);
  const core::skip_quadtree<D> ref(pts, 91, net_ref, replication, /*bulk=*/false);
  EXPECT_TRUE(bulk.check_invariants()) << name;
  EXPECT_TRUE(ref.check_invariants()) << name;
  const auto save = [](const core::skip_quadtree<D>& idx, const std::string& path) {
    persist::writer w(path);
    idx.save_snapshot(w);
    w.finish();
  };
  const auto bulk_path = snap_path(name + "_bulk");
  const auto ref_path = snap_path(name + "_ref");
  save(bulk, bulk_path);
  save(ref, ref_path);
  const auto a = file_bytes(bulk_path);
  const auto b = file_bytes(ref_path);
  ASSERT_EQ(a.size(), b.size()) << name;
  const auto diff = std::mismatch(a.begin(), a.end(), b.begin());
  EXPECT_TRUE(diff.first == a.end()) << name << ": first difference at byte "
                                      << (diff.first - a.begin());
}

// Twice the size at which the bulk build starts running its level passes on
// several cores, so the pipeline runs wherever the machine has them.
TEST(BulkBuild, PipelinedQuadtreeSnapshotsByteIdentical) {
  constexpr std::size_t n2 = 2 * core::skip_quadtree<2>::pipeline_min_points;
  constexpr std::size_t n3 = 2 * core::skip_quadtree<3>::pipeline_min_points;
  rng r(2828);
  expect_bulk_snapshot_identical<2>(wl::clustered_points<2>(n2, r), 0, "clustered2_k0");
  expect_bulk_snapshot_identical<2>(wl::uniform_points<2>(n2, r), 2, "uniform2_k2");
  expect_bulk_snapshot_identical<3>(wl::clustered_points<3>(n3, r), 1, "clustered3_k1");
}

// A pass that throws ends the whole build: a duplicate point at the end of a
// pipelined-size input fails the distinct-point contract in some pass, every
// waiting pass stops, the helpers are joined and the constructor rethrows. A
// hang, or a helper left running into std::terminate, would never reach the
// expectation.
TEST(BulkBuild, FailingPassEndsThePipelinedBuild) {
  if (SW_CONTRACTS == 0) GTEST_SKIP() << "the distinct-point check is a contract";
  rng r(2929);
  auto pts = wl::clustered_points<2>(2 * core::skip_quadtree<2>::pipeline_min_points, r);
  pts.push_back(pts[pts.size() / 2]);
  network net(64);
  EXPECT_THROW((void)core::skip_quadtree<2>(pts, 3, net), util::contract_error);
}

// --- layer 6: big-n regression smoke (env-gated) -----------------------------

// Arena growth across routed inserts must never move or re-issue a live
// slot's uid, and the structural invariants must hold at scale. Default n
// keeps CI fast; SKIPWEB_BIGN=1 raises it to the paper-scale 1M debug smoke
// (contracts on).
TEST(BulkBuildBigN, UidStabilityAndInvariantsAcrossGrowth) {
  const bool big = std::getenv("SKIPWEB_BIGN") != nullptr;
  const std::size_t n = big ? 1000000 : 20000;
  rng r(123);
  auto keys = wl::uniform_keys(n + n / 10, r);
  std::sort(keys.begin(), keys.end());
  std::vector<std::uint64_t> initial(keys.begin(), keys.begin() + n);
  // Interleave the held-out keys across the key space: erase every 10th
  // from `initial`'s tail growth set instead — simplest: hold out the keys
  // at positions ≡ 9 (mod 10) for later insertion.
  std::vector<std::uint64_t> build_keys, grow_keys;
  build_keys.reserve(keys.size());
  for (std::size_t i = 0; i < keys.size(); ++i) {
    (i % 10 == 9 ? grow_keys : build_keys).push_back(keys[i]);
  }
  network net(64);
  core::skipweb_1d idx(build_keys, 7, net, core::skipweb_1d::placement::tower);
  const auto& lists = idx.lists();
  // Bulk build assigns uids in sorted-key order.
  ASSERT_EQ(lists.arena_size(), build_keys.size());
  for (int i = 0; i < static_cast<int>(lists.arena_size()); i += 97) {
    ASSERT_EQ(lists.uid(i), static_cast<std::uint64_t>(i));
    ASSERT_EQ(lists.key(i), build_keys[static_cast<std::size_t>(i)]);
  }
  // Record a sample of live records, grow the arena by ~10%, verify nothing
  // recorded moved: same key and same uid at the same slot.
  struct sample {
    int slot;
    std::uint64_t key, uid;
  };
  std::vector<sample> before;
  for (int i = 0; i < static_cast<int>(lists.arena_size()); i += 31) {
    before.push_back({i, lists.key(i), lists.uid(i)});
  }
  for (std::size_t i = 0; i < grow_keys.size(); ++i) {
    idx.insert(grow_keys[i], h(static_cast<std::uint32_t>(i % net.host_count())));
  }
  ASSERT_EQ(idx.size(), keys.size());
  for (const auto& s : before) {
    ASSERT_TRUE(lists.alive(s.slot));
    ASSERT_EQ(lists.key(s.slot), s.key);
    ASSERT_EQ(lists.uid(s.slot), s.uid);
  }
  EXPECT_TRUE(lists.check_invariants());
  // The footprint surface stays coherent as the arena grows.
  const auto f = idx.footprint();
  EXPECT_GT(f.arena_bytes, 0u);
  EXPECT_GT(f.link_bytes, f.arena_bytes / 4);
  // The interleaved batch router agrees with the serial one over the grown
  // arena, answers and receipts alike.
  const auto probes = wl::probe_keys(keys, 4096, r);
  const auto batch = idx.nearest_batch(probes, h(5));
  ASSERT_EQ(batch.size(), probes.size());
  for (std::size_t i = 0; i < probes.size(); ++i) {
    const auto serial = idx.nearest(probes[i], h(5));
    ASSERT_EQ(batch[i].has_pred, serial.has_pred) << i;
    ASSERT_EQ(batch[i].has_succ, serial.has_succ) << i;
    ASSERT_EQ(batch[i].pred, serial.pred) << i;
    ASSERT_EQ(batch[i].succ, serial.succ) << i;
    ASSERT_EQ(batch[i].stats, serial.stats) << i;
  }
}

// The batch router over recycled slots at the benchmark's scale, under the
// tower placement: erases free arena slots and inserts recycle them, each
// with a fresh host, as perfbench's update tape does every round. The batch
// answers and receipts must equal the serial ones, so the batch host rule
// must read the owner table rather than assume item i on host i.
// SKIPWEB_BIGN=1 raises n from 2^16 to 2^20.
TEST(BulkBuildBigN, BatchMatchesSerialOverRecycledSlots) {
  const bool big = std::getenv("SKIPWEB_BIGN") != nullptr;
  const std::size_t n = std::size_t{1} << (big ? 20 : 16);
  constexpr std::size_t pairs = 4096;
  rng r(2121);
  const auto pool = wl::uniform_keys(n + pairs, r);
  const std::vector<std::uint64_t> initial(pool.begin(),
                                           pool.begin() + static_cast<std::ptrdiff_t>(n));
  network net(64);
  core::skipweb_1d idx(initial, 8, net, core::skipweb_1d::placement::tower);
  for (std::size_t i = 0; i < pairs; ++i) {
    const auto o = h(static_cast<std::uint32_t>(i % 64));
    idx.erase(initial[i * (n / pairs)], o);
    idx.insert(pool[n + i], o);
  }
  ASSERT_EQ(idx.lists().arena_size(), n);  // every insert took a freed slot
  EXPECT_TRUE(idx.lists().check_invariants());
  std::vector<std::uint64_t> probes = wl::probe_keys(pool, 4096, r);
  for (std::size_t i = 0; i < 64; ++i) probes.push_back(pool[n + i]);
  testing_support::expect_nearest_batch_matches_serial(idx, probes, {24, 0}, 64);
}

// The split links at the benchmark's scale: both pools of a 2^20-key build
// in four and in eight prefix sets equal the partition-pass oracle, at
// every level: the ones below the split, whose lists span several sets,
// and the top ones, where most lists hold one or two items.
// SKIPWEB_BIGN=1 raises n from 2^17 to 2^20.
TEST(BulkBuildBigN, SplitLinksAtScale) {
  const bool big = std::getenv("SKIPWEB_BIGN") != nullptr;
  const std::size_t n = std::size_t{1} << (big ? 20 : 17);
  rng r(4040);
  auto keys = wl::uniform_keys(n, r);
  std::sort(keys.begin(), keys.end());
  const auto bits = drawn_bits(n, 6);
  for (const std::size_t sets : {4, 8}) {
    SCOPED_TRACE(::testing::Message() << sets << " sets");
    const forced_sets force(sets);
    rng rb(6);
    const core::level_lists split(keys, rb, util::levels_for(n));
    expect_matches_partition_reference(split, keys, bits);
  }
}

// The skip quadtree's rows at the spatial benchmark's scale: each node's
// down link lives in every entry of its child row, and the walks read it
// from the entry they stopped on. The build leaves no slack, so the churn
// starts from exactly sized arenas. After a bulk build and churn that splices
// cubes out and recycles their slots, the rows must still pass
// check_invariants() (which compares every copy of a link), and the batched
// walks must match the serial ones in cells and receipts. SKIPWEB_BIGN=1
// raises n from 2^12 to 2^17 clustered points.
TEST(BulkBuildBigN, QuadtreeRowsAtScale) {
  const bool big = std::getenv("SKIPWEB_BIGN") != nullptr;
  const std::size_t n = std::size_t{1} << (big ? 17 : 12);
  constexpr std::size_t pairs = 2048;
  rng r(1717);
  const auto pts = wl::clustered_points<2>(n + pairs, r);
  const std::vector<seq::qpoint<2>> built(pts.begin(),
                                          pts.begin() + static_cast<std::ptrdiff_t>(n));
  network net(64);
  core::skip_quadtree<2> web(built, 19, net);
  expect_built_is_compacted(web);
  const std::size_t slots = web.structure().slot_count(0);
  for (std::size_t i = 0; i < pairs; ++i) {
    const auto o = h(static_cast<std::uint32_t>(i % 64));
    web.erase(built[i * (n / pairs)], o);
    web.insert(pts[n + i], o);
  }
  ASSERT_EQ(web.size(), n);
  // Inserts took the slots that erases' splices freed.
  EXPECT_LT(web.structure().slot_count(0), slots + pairs / 2);
  EXPECT_TRUE(web.check_invariants());
  // Probes: stored points, erased points and uniform points.
  std::vector<seq::qpoint<2>> probes;
  for (std::size_t i = 0; i < 4096; ++i) {
    switch (i % 3) {
      case 0: probes.push_back(pts[r.index(pts.size())]); break;
      case 1: probes.push_back(built[(i % pairs) * (n / pairs)]); break;
      default: probes.push_back(wl::uniform_points<2>(1, r)[0]);
    }
  }
  const auto batch = web.locate_batch(probes, h(5));
  ASSERT_EQ(batch.size(), probes.size());
  for (std::size_t i = 0; i < probes.size(); ++i) {
    const auto serial = web.locate(probes[i], h(5));
    ASSERT_TRUE(batch[i].cell == serial.cell) << i;
    ASSERT_EQ(batch[i].is_point, serial.is_point) << i;
    ASSERT_EQ(batch[i].stats, serial.stats) << i;
  }
}

}  // namespace
