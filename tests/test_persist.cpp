// The persistence plane's correctness contract (DESIGN.md §13): a restored
// index must be indistinguishable from its never-persisted twin through the
// public surface — same answers, same uids, same cost receipts, same
// deployment ledger — in both restore modes (owned read and zero-copy mmap),
// and it must STAY indistinguishable under routed inserts/erases after the
// restore (the mmap mode's copy-on-first-write). Corruption is always a
// clean persist::error, never UB — these tests run under ASan in CI.

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstddef>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <functional>
#include <iterator>
#include <memory>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "api/registry.h"
#include "api/spatial_registry.h"
#include "api/string_registry.h"
#include "core/level_lists.h"
#include "core/quad_levels.h"
#include "core/skip_quadtree.h"
#include "fault/repair.h"
#include "net/network.h"
#include "persist/flat_table.h"
#include "persist/replay_log.h"
#include "persist/snapshot.h"
#include "seq/quadtree.h"
#include "serve/executor.h"
#include "serve/route_cache.h"
#include "temp_files.h"
#include "util/rng.h"
#include "workloads/workloads.h"

namespace {

using namespace skipweb;
using net::host_id;
using net::network;
using testing_support::file_bytes;
using testing_support::snap_path;
using util::rng;
namespace fs = std::filesystem;
namespace wl = skipweb::workloads;

host_id h(std::uint32_t v) { return host_id{v}; }

void flip_byte(const std::string& path, std::uint64_t offset) {
  std::FILE* f = std::fopen(path.c_str(), "r+b");
  ASSERT_NE(f, nullptr);
  ASSERT_EQ(std::fseek(f, static_cast<long>(offset), SEEK_SET), 0);
  const int c = std::fgetc(f);
  ASSERT_NE(c, EOF);
  ASSERT_EQ(std::fseek(f, static_cast<long>(offset), SEEK_SET), 0);
  std::fputc(c ^ 0x40, f);
  std::fclose(f);
}

// The deployment round trip: every host's memory row, kind by kind.
void expect_same_ledger(const network& a, const network& b, const char* when) {
  ASSERT_EQ(a.host_count(), b.host_count()) << when;
  for (std::uint32_t i = 0; i < a.host_count(); ++i) {
    for (int k = 0; k < 4; ++k) {
      const auto kind = static_cast<net::memory_kind>(k);
      ASSERT_EQ(a.memory_used(h(i), kind), b.memory_used(h(i), kind))
          << when << " host " << i << " kind " << k;
    }
  }
}

// --- layer 1: the arena round-trip itself ------------------------------------

void expect_lists_identical(const core::level_lists& a, const core::level_lists& b) {
  ASSERT_EQ(a.arena_size(), b.arena_size());
  ASSERT_EQ(a.levels(), b.levels());
  ASSERT_EQ(a.size(), b.size());
  for (int i = 0; i < static_cast<int>(a.arena_size()); ++i) {
    ASSERT_EQ(a.alive(i), b.alive(i)) << i;
    ASSERT_EQ(a.key(i), b.key(i)) << i;
    ASSERT_EQ(a.bits(i), b.bits(i)) << i;
    ASSERT_EQ(a.uid(i), b.uid(i)) << i;
    if (!a.alive(i)) continue;
    for (int l = 0; l <= a.levels(); ++l) {
      ASSERT_EQ(a.next(i, l), b.next(i, l)) << i << " level " << l;
      ASSERT_EQ(a.prev(i, l), b.prev(i, l)) << i << " level " << l;
    }
  }
}

TEST(Persist, LevelListsRoundTripBothModes) {
  rng r(4242);
  auto keys = wl::uniform_keys(3000, r);
  std::sort(keys.begin(), keys.end());
  rng rb(77);
  const core::level_lists lists(keys, rb, util::levels_for(keys.size()));
  const auto path = snap_path("level_lists");
  {
    persist::writer w(path);
    lists.save(w, "lists");
    w.finish();
  }
  for (const auto mode : {persist::restore_mode::load, persist::restore_mode::map}) {
    persist::reader rd(path, mode);
    core::level_lists restored(rd, "lists");
    expect_lists_identical(lists, restored);
    EXPECT_TRUE(restored.check_invariants());
  }
}

TEST(Persist, UnfinishedWriterLeavesNoFile) {
  const auto path = snap_path("unfinished");
  {
    persist::writer w(path);
    w.add_u64("a", 1);
    // No finish(): destructor must remove the torn file.
  }
  EXPECT_FALSE(fs::exists(path));
}

// --- layer 2: corruption is a clean error, never UB --------------------------

class PersistCorruption : public ::testing::Test {
 protected:
  // A real snapshot to damage: skipweb1d over 400 keys.
  void SetUp() override {
    rng r(9);
    keys_ = wl::uniform_keys(400, r);
    path_ = snap_path("corruption");
    network net(1);
    const auto idx =
        api::make_index("skipweb1d", keys_, api::index_options{}.seed(3).initial_hosts(8), net);
    api::save_index_snapshot(*idx, path_);
  }
  std::vector<std::uint64_t> keys_;
  std::string path_;
};

TEST_F(PersistCorruption, BadMagicRejectedInBothModes) {
  flip_byte(path_, 1);
  network net(1);
  EXPECT_THROW((void)api::restore_index(path_, persist::restore_mode::load, net),
               persist::error);
  EXPECT_THROW((void)api::restore_index(path_, persist::restore_mode::map, net), persist::error);
}

TEST_F(PersistCorruption, FlippedPayloadByteFailsOwnedReadChecksum) {
  // Offset 64 is the first payload byte (sections are 64-byte aligned after
  // the header) — load mode verifies every payload checksum eagerly.
  flip_byte(path_, 64);
  network net(1);
  EXPECT_THROW((void)api::restore_index(path_, persist::restore_mode::load, net),
               persist::error);
}

TEST_F(PersistCorruption, FlippedTableByteRejectedInBothModes) {
  // The section table sits at the end of the file; both modes verify it.
  flip_byte(path_, fs::file_size(path_) - 10);
  network net(1);
  EXPECT_THROW((void)api::restore_index(path_, persist::restore_mode::load, net),
               persist::error);
  EXPECT_THROW((void)api::restore_index(path_, persist::restore_mode::map, net), persist::error);
}

TEST_F(PersistCorruption, TruncatedFileRejected) {
  fs::resize_file(path_, fs::file_size(path_) / 2);
  network net(1);
  EXPECT_THROW((void)api::restore_index(path_, persist::restore_mode::load, net),
               persist::error);
  EXPECT_THROW((void)api::restore_index(path_, persist::restore_mode::map, net), persist::error);
}

TEST_F(PersistCorruption, WrongIndexKindRejected) {
  network net(1);
  EXPECT_THROW((void)api::restore_spatial_index(path_, persist::restore_mode::load, net),
               persist::error);
}

// --- layer 3: restored twins through the 1-D registry ------------------------

class PersistConformance : public ::testing::TestWithParam<std::string> {};

// For every snapshot-capable backend: save, restore in both modes onto fresh
// networks, and drive original + both twins through the same routed query
// and mutation sequences — answers, receipts and the deployment ledger must
// never diverge (the enforcement style of test_bulk_build.cpp). Backends
// without the capability must refuse with unsupported_operation.
TEST_P(PersistConformance, RestoredTwinIndistinguishable) {
  rng r(1234);
  const auto all = wl::uniform_keys(500, r);
  const std::vector<std::uint64_t> build(all.begin(), all.begin() + 400);
  const std::vector<std::uint64_t> extra(all.begin() + 400, all.end());
  const auto opts = api::index_options{}.seed(42).initial_hosts(8).bucket_size(16).buckets(24);
  network net_o(1);
  const auto orig = api::make_index(GetParam(), build, opts, net_o);
  const auto path = snap_path("conf_" + GetParam());
  if (!has(orig->capabilities(), api::capability::snapshot)) {
    EXPECT_THROW(api::save_index_snapshot(*orig, path), api::unsupported_operation);
    return;
  }
  ASSERT_TRUE(api::backend_restorable(GetParam()));
  api::save_index_snapshot(*orig, path);
  network net_l(1), net_m(1);
  const auto twin_l = api::restore_index(path, persist::restore_mode::load, net_l);
  const auto twin_m = api::restore_index(path, persist::restore_mode::map, net_m);
  const std::vector<std::pair<api::distributed_index*, network*>> twins = {
      {twin_l.get(), &net_l}, {twin_m.get(), &net_m}};
  for (const auto& [twin, net] : twins) {
    ASSERT_EQ(twin->backend(), GetParam());
    ASSERT_EQ(twin->size(), orig->size());
    ASSERT_EQ(net->host_count(), net_o.host_count());
    ASSERT_EQ(net->total_memory(), net_o.total_memory());
    expect_same_ledger(net_o, *net, "fresh restore");
  }
  const auto probe_all = [&](const char* when) {
    rng pr(999);
    std::uint32_t origin = 0;
    for (const auto q : wl::probe_keys(all, 80, pr)) {
      const auto o = h(origin);
      origin = static_cast<std::uint32_t>((origin + 1) % net_o.host_count());
      const auto na = orig->nearest(q, o);
      const auto ca = orig->contains(q, o);
      for (const auto& [twin, net] : twins) {
        const auto nb = twin->nearest(q, o);
        ASSERT_EQ(na.pred, nb.pred) << when << " " << q;
        ASSERT_EQ(na.succ, nb.succ) << when << " " << q;
        ASSERT_EQ(na.stats, nb.stats) << when << " " << q;
        const auto cb = twin->contains(q, o);
        ASSERT_EQ(ca.value, cb.value) << when << " " << q;
        ASSERT_EQ(ca.stats, cb.stats) << when << " " << q;
      }
    }
    const auto ra = orig->range(all[5], all[5] + (std::uint64_t{1} << 60), h(2), 50);
    for (const auto& [twin, net] : twins) {
      const auto rb = twin->range(all[5], all[5] + (std::uint64_t{1} << 60), h(2), 50);
      ASSERT_EQ(ra.value, rb.value) << when;
      ASSERT_EQ(ra.stats, rb.stats) << when;
    }
  };
  probe_all("fresh restore");
  // Post-restore routed mutations: inserts of held-out keys, then erases of
  // built keys. Identical receipts op by op; the map twin's arenas copy on
  // first write here.
  for (std::size_t i = 0; i < extra.size(); ++i) {
    const auto o = h(static_cast<std::uint32_t>(i % net_o.host_count()));
    const auto sa = orig->insert(extra[i], o);
    for (const auto& [twin, net] : twins) {
      ASSERT_EQ(sa, twin->insert(extra[i], o)) << "insert " << i;
    }
  }
  for (std::size_t i = 0; i < 60; ++i) {
    const auto o = h(static_cast<std::uint32_t>(i % net_o.host_count()));
    const auto sa = orig->erase(build[i * 3], o);
    for (const auto& [twin, net] : twins) {
      ASSERT_EQ(sa, twin->erase(build[i * 3], o)) << "erase " << i;
    }
  }
  for (const auto& [twin, net] : twins) {
    ASSERT_EQ(twin->size(), orig->size());
    ASSERT_EQ(net->total_memory(), net_o.total_memory());
    expect_same_ledger(net_o, *net, "after mutations");
  }
  probe_all("after mutations");
  // The mutated twin can itself be snapshotted: one more full cycle.
  const auto path2 = snap_path("conf2_" + GetParam());
  api::save_index_snapshot(*twin_l, path2);
  network net_2(1);
  const auto twin_2 = api::restore_index(path2, persist::restore_mode::map, net_2);
  rng pr(321);
  for (const auto q : wl::probe_keys(all, 30, pr)) {
    const auto na = orig->nearest(q, h(1));
    const auto nb = twin_2->nearest(q, h(1));
    ASSERT_EQ(na.pred, nb.pred);
    ASSERT_EQ(na.succ, nb.succ);
    ASSERT_EQ(na.stats, nb.stats);
  }
}

INSTANTIATE_TEST_SUITE_P(AllBackends, PersistConformance,
                         ::testing::ValuesIn(api::registered_backends()),
                         [](const auto& info) { return info.param; });

// --- layer 3b: a map-restored twin under concurrent serving ------------------
//
// A restored network starts with a visit ledger no commit has touched and a
// memory ledger borrowed from the file. Four workers commit into it at once:
// answers and receipts must equal a serial loop over the saving index, and
// the per-host visit counters must equal the serial run's and reconcile
// with total_messages(). Both native 1-D layouts take the executor's batch
// path over their borrowed owner tables.
TEST(Persist, MapRestoredTwinServesConcurrently) {
  for (const std::string backend : {"skipweb1d", "bucket_skipweb"}) {
    SCOPED_TRACE(backend);
    rng r(2718);
    const auto keys = wl::uniform_keys(2000, r);
    network net_o(1);
    const auto orig =
        api::make_index(backend, keys, api::index_options{}.seed(8).initial_hosts(8), net_o);
    const auto path = snap_path("served_twin_" + backend);
    api::save_index_snapshot(*orig, path);
    network net_m(1);
    const auto twin = api::restore_index(path, persist::restore_mode::map, net_m);
    const auto qs = wl::query_stream(keys, 1500, 2719);

    serve::executor ex(4);
    const auto out = ex.run_nearest(*twin, qs, h(0), 16);

    net_o.reset_traffic();
    api::op_stats serial_total;
    ASSERT_EQ(out.results.size(), qs.size());
    for (std::size_t i = 0; i < qs.size(); ++i) {
      const auto want = orig->nearest(qs[i], h(0));
      serial_total += want.stats;
      const auto& got = out.results[i];
      ASSERT_EQ(got.has_pred, want.has_pred) << i;
      ASSERT_EQ(got.pred, want.pred) << i;
      ASSERT_EQ(got.has_succ, want.has_succ) << i;
      ASSERT_EQ(got.succ, want.succ) << i;
      ASSERT_EQ(got.stats, want.stats) << i;
    }
    EXPECT_EQ(out.total, serial_total);
    ASSERT_EQ(net_m.host_count(), net_o.host_count());
    EXPECT_EQ(net_m.total_messages(), net_o.total_messages());
    std::uint64_t visits = 0;
    for (std::uint32_t i = 0; i < net_m.host_count(); ++i) {
      ASSERT_EQ(net_m.visits(h(i)), net_o.visits(h(i))) << "host " << i;
      visits += net_m.visits(h(i));
    }
    EXPECT_EQ(visits, net_m.total_messages());
    expect_same_ledger(net_o, net_m, "after serving");
  }
}

// The spatial twin of the test above: a map-restored skip_quadtree2 serves
// point location from four workers at once, every one of them reading the
// borrowed tree directories and anchors. Cells, receipts and per-host visits
// must equal a serial loop over the saving index.
TEST(Persist, MapRestoredQuadtreeServesConcurrently) {
  rng r(3141);
  const auto pts = wl::spatial_points(2, 2000, true, r);
  network net_o(1);
  const auto orig = api::make_spatial_index("skip_quadtree2", pts,
                                            api::index_options{}.seed(8).initial_hosts(16), net_o);
  const auto path = snap_path("served_quadtree");
  api::save_spatial_snapshot(*orig, path);
  network net_m(1);
  const auto twin = api::restore_spatial_index(path, persist::restore_mode::map, net_m);
  // Half stored points, half probes between them.
  std::vector<api::spatial_point> qs;
  rng pr(3142);
  for (std::size_t i = 0; i < 1500; ++i) {
    qs.push_back(i % 2 == 0 ? pts[pr.index(pts.size())] : wl::spatial_probe(2, pr));
  }

  serve::executor ex(4);
  const auto out = ex.run_locate(*twin, qs, h(0), 16);

  net_o.reset_traffic();
  api::op_stats serial_total;
  ASSERT_EQ(out.results.size(), qs.size());
  for (std::size_t i = 0; i < qs.size(); ++i) {
    const auto want = orig->locate(qs[i], h(0));
    serial_total += want.stats;
    const auto& got = out.results[i];
    ASSERT_EQ(got.found, want.found) << i;
    ASSERT_EQ(got.cell, want.cell) << i;
    ASSERT_EQ(got.scale, want.scale) << i;
    ASSERT_EQ(got.stats, want.stats) << i;
  }
  EXPECT_EQ(out.total, serial_total);
  ASSERT_EQ(net_m.host_count(), net_o.host_count());
  EXPECT_EQ(net_m.total_messages(), net_o.total_messages());
  std::uint64_t visits = 0;
  for (std::uint32_t i = 0; i < net_m.host_count(); ++i) {
    ASSERT_EQ(net_m.visits(h(i)), net_o.visits(h(i))) << "host " << i;
    visits += net_m.visits(h(i));
  }
  EXPECT_EQ(visits, net_m.total_messages());
  expect_same_ledger(net_o, net_m, "after serving");
}

// A map-mode twin borrows its arrays from the file it was restored from.
// Saving it over that same file must neither read a truncated mapping nor
// pull the pages out from under the twin: the writer unlinks the old file
// instead of truncating it, and the twin keeps serving afterwards.
TEST(Persist, MapRestoredTwinSavesOverItsOwnFile) {
  rng r(8080);
  const auto keys = wl::uniform_keys(1500, r);
  network net_o(1);
  const auto orig =
      api::make_index("skipweb1d", keys, api::index_options{}.seed(12).initial_hosts(8), net_o);
  const auto path = snap_path("own_file");
  api::save_index_snapshot(*orig, path);
  network net_m(1);
  const auto twin = api::restore_index(path, persist::restore_mode::map, net_m);
  api::save_index_snapshot(*twin, path);
  network net_2(1);
  const auto again = api::restore_index(path, persist::restore_mode::load, net_2);
  expect_same_ledger(net_o, net_2, "re-saved");
  rng pr(8081);
  for (const auto q : wl::probe_keys(keys, 40, pr)) {
    const auto na = orig->nearest(q, h(2));
    for (const auto* idx : {twin.get(), again.get()}) {
      const auto nb = idx->nearest(q, h(2));
      ASSERT_EQ(na.pred, nb.pred) << q;
      ASSERT_EQ(na.succ, nb.succ) << q;
      ASSERT_EQ(na.stats, nb.stats) << q;
    }
  }
}

// --- layer 4: restored twins through the spatial registry --------------------

class SpatialPersistConformance : public ::testing::TestWithParam<std::string> {};

TEST_P(SpatialPersistConformance, RestoredTwinIndistinguishable) {
  rng r(4321);
  const int dims = api::spatial_backend_dims(GetParam());
  const auto all = wl::spatial_points(dims, 260, false, r);
  const std::vector<api::spatial_point> build(all.begin(), all.begin() + 200);
  const std::vector<api::spatial_point> extra(all.begin() + 200, all.end());
  const auto opts = api::index_options{}.seed(17).initial_hosts(8);
  network net_o(1);
  const auto orig = api::make_spatial_index(GetParam(), build, opts, net_o);
  const auto path = snap_path("sconf_" + GetParam());
  if (!has(orig->capabilities(), api::capability::snapshot)) {
    EXPECT_THROW(api::save_spatial_snapshot(*orig, path), api::unsupported_operation);
    return;
  }
  api::save_spatial_snapshot(*orig, path);
  network net_l(1), net_m(1);
  const auto twin_l = api::restore_spatial_index(path, persist::restore_mode::load, net_l);
  const auto twin_m = api::restore_spatial_index(path, persist::restore_mode::map, net_m);
  const std::vector<std::pair<api::spatial_index*, network*>> twins = {{twin_l.get(), &net_l},
                                                                       {twin_m.get(), &net_m}};
  for (const auto& [twin, net] : twins) {
    ASSERT_EQ(twin->backend(), GetParam());
    ASSERT_EQ(twin->dims(), dims);
    ASSERT_EQ(twin->size(), orig->size());
    ASSERT_EQ(net->host_count(), net_o.host_count());
    ASSERT_EQ(net->total_memory(), net_o.total_memory());
    expect_same_ledger(net_o, *net, "fresh restore");
  }
  const auto probe_all = [&](const char* when) {
    rng pr(111);
    for (int i = 0; i < 60; ++i) {
      const auto q = wl::spatial_probe(dims, pr);
      const auto o = h(static_cast<std::uint32_t>(i % net_o.host_count()));
      const auto la = orig->locate(q, o);
      const auto na = orig->approx_nn(q, o);
      for (const auto& [twin, net] : twins) {
        const auto lb = twin->locate(q, o);
        ASSERT_EQ(la.found, lb.found) << when << " " << i;
        ASSERT_EQ(la.cell, lb.cell) << when << " " << i;
        ASSERT_EQ(la.scale, lb.scale) << when << " " << i;
        ASSERT_EQ(la.stats, lb.stats) << when << " " << i;
        const auto nb = twin->approx_nn(q, o);
        ASSERT_EQ(na.value, nb.value) << when << " " << i;
        ASSERT_EQ(na.stats, nb.stats) << when << " " << i;
      }
    }
    api::spatial_box box;
    box.lo = build[3];
    box.hi = build[3];
    for (int d = 0; d < dims; ++d) {
      const auto i = static_cast<std::size_t>(d);
      box.lo.x[i] = std::min(box.lo.x[i], build[7].x[i]);
      box.hi.x[i] = std::max(box.hi.x[i], build[7].x[i]);
    }
    const auto ra = orig->orthogonal_range(box, h(2), 0);
    for (const auto& [twin, net] : twins) {
      const auto rb = twin->orthogonal_range(box, h(2), 0);
      ASSERT_EQ(ra.value, rb.value) << when;
      ASSERT_EQ(ra.stats, rb.stats) << when;
    }
  };
  probe_all("fresh restore");
  for (std::size_t i = 0; i < extra.size(); ++i) {
    const auto o = h(static_cast<std::uint32_t>(i % net_o.host_count()));
    const auto sa = orig->insert(extra[i], o);
    for (const auto& [twin, net] : twins) {
      ASSERT_EQ(sa, twin->insert(extra[i], o)) << "insert " << i;
    }
  }
  for (std::size_t i = 0; i < 40; ++i) {
    const auto o = h(static_cast<std::uint32_t>(i % net_o.host_count()));
    const auto sa = orig->erase(build[i * 4], o);
    for (const auto& [twin, net] : twins) {
      ASSERT_EQ(sa, twin->erase(build[i * 4], o)) << "erase " << i;
    }
  }
  for (const auto& [twin, net] : twins) {
    ASSERT_EQ(twin->size(), orig->size());
    ASSERT_EQ(net->total_memory(), net_o.total_memory());
    expect_same_ledger(net_o, *net, "after mutations");
  }
  probe_all("after mutations");
}

INSTANTIATE_TEST_SUITE_P(AllSpatialBackends, SpatialPersistConformance,
                         ::testing::ValuesIn(api::registered_spatial_backends()),
                         [](const auto& info) { return info.param; });

// --- layer 4b: restored twins through the string registry --------------------

class StringPersistConformance : public ::testing::TestWithParam<std::string> {};

// String snapshots are replay logs, not arenas: the restore rebuilds the
// backend from the saved build set (same seed, same pre-grow host count) and
// replays the op log, so the twin must be receipt-identical — not just
// answer-identical — across the whole text surface, and must stay so under
// routed mutations after the restore.
TEST_P(StringPersistConformance, RestoredTwinIndistinguishable) {
  rng r(5252);
  const auto all = wl::url_paths(260, r);
  const std::vector<std::string> build(all.begin(), all.begin() + 200);
  const std::vector<std::string> extra(all.begin() + 200, all.end());
  const auto opts = api::index_options{}.seed(42).initial_hosts(8);
  network net_o(1);
  const auto orig = api::make_string_index(GetParam(), build, opts, net_o);
  ASSERT_TRUE(orig->supports(api::capability::snapshot));

  // Mutate before saving so the replay log is non-trivial: the snapshot must
  // carry history, not just the build set.
  for (std::size_t i = 0; i < 20; ++i) {
    orig->insert(extra[i], h(static_cast<std::uint32_t>(i % net_o.host_count())));
  }
  for (std::size_t i = 0; i < 10; ++i) {
    orig->erase(build[i * 7], h(static_cast<std::uint32_t>(i % net_o.host_count())));
  }
  const auto path = snap_path("strconf_" + GetParam());
  api::save_string_snapshot(*orig, path);

  network net_l(1), net_m(1);
  const auto twin_l = api::restore_string_index(path, persist::restore_mode::load, net_l);
  const auto twin_m = api::restore_string_index(path, persist::restore_mode::map, net_m);
  const std::vector<std::pair<api::string_index*, network*>> twins = {{twin_l.get(), &net_l},
                                                                      {twin_m.get(), &net_m}};
  for (const auto& [twin, net] : twins) {
    ASSERT_EQ(twin->backend(), GetParam());
    ASSERT_EQ(twin->size(), orig->size());
    ASSERT_EQ(net->host_count(), net_o.host_count());
  }
  const auto probe_all = [&](const char* when) {
    std::uint32_t origin = 0;
    for (const auto& q : wl::string_query_stream(all, 60, 5353)) {
      const auto o = h(origin);
      origin = static_cast<std::uint32_t>((origin + 1) % net_o.host_count());
      const auto ca = orig->contains(q, o);
      for (const auto& [twin, net] : twins) {
        const auto cb = twin->contains(q, o);
        ASSERT_EQ(ca.value, cb.value) << when << " " << q;
        ASSERT_EQ(ca.stats, cb.stats) << when << " " << q;
      }
    }
    for (const auto& p : wl::prefix_stream(all, 20, 5353)) {
      const auto pa = orig->prefix_match(p, h(1));
      const auto ta = orig->top_k(p, 5, h(1));
      for (const auto& [twin, net] : twins) {
        const auto pb = twin->prefix_match(p, h(1));
        ASSERT_EQ(pa.value, pb.value) << when << " " << p;
        ASSERT_EQ(pa.stats, pb.stats) << when << " " << p;
        const auto tb = twin->top_k(p, 5, h(1));
        ASSERT_EQ(ta.value, tb.value) << when << " " << p;
        ASSERT_EQ(ta.stats, tb.stats) << when << " " << p;
      }
    }
    const auto ra = orig->lex_range(build[2], build[2] + "~", h(2));
    const auto terms = api::string_tokens(build[4]);
    const auto ia = orig->intersect(terms, h(2));
    for (const auto& [twin, net] : twins) {
      const auto rb = twin->lex_range(build[2], build[2] + "~", h(2));
      ASSERT_EQ(ra.value, rb.value) << when;
      ASSERT_EQ(ra.stats, rb.stats) << when;
      const auto ib = twin->intersect(terms, h(2));
      ASSERT_EQ(ia.value, ib.value) << when;
      ASSERT_EQ(ia.stats, ib.stats) << when;
    }
  };
  probe_all("fresh restore");
  // Post-restore routed mutations: receipts must track op by op.
  for (std::size_t i = 20; i < extra.size(); ++i) {
    const auto o = h(static_cast<std::uint32_t>(i % net_o.host_count()));
    const auto sa = orig->insert(extra[i], o);
    for (const auto& [twin, net] : twins) {
      ASSERT_EQ(sa, twin->insert(extra[i], o)) << "insert " << i;
    }
  }
  for (std::size_t i = 0; i < 15; ++i) {
    const auto o = h(static_cast<std::uint32_t>(i % net_o.host_count()));
    const auto sa = orig->erase(build[100 + i * 6], o);
    for (const auto& [twin, net] : twins) {
      ASSERT_EQ(sa, twin->erase(build[100 + i * 6], o)) << "erase " << i;
    }
  }
  for (const auto& [twin, net] : twins) {
    ASSERT_EQ(twin->size(), orig->size());
  }
  probe_all("after mutations");
  // The mutated twin can itself be snapshotted: one more full cycle.
  const auto path2 = snap_path("strconf2_" + GetParam());
  api::save_string_snapshot(*twin_l, path2);
  network net_2(1);
  const auto twin_2 = api::restore_string_index(path2, persist::restore_mode::map, net_2);
  ASSERT_EQ(twin_2->size(), orig->size());
  for (const auto& q : wl::string_query_stream(all, 30, 5454)) {
    const auto a = orig->contains(q, h(1));
    const auto b = twin_2->contains(q, h(1));
    ASSERT_EQ(a.value, b.value) << q;
    ASSERT_EQ(a.stats, b.stats) << q;
  }
}

INSTANTIATE_TEST_SUITE_P(AllStringBackends, StringPersistConformance,
                         ::testing::ValuesIn(api::registered_string_backends()),
                         [](const auto& info) { return info.param; });

TEST(StringPersist, WrongIndexKindRejected) {
  // A 1-D ordered-key snapshot must not restore as a text index (and vice
  // versa — the index_kind field in the meta section tells them apart).
  rng r(5555);
  const auto keys = wl::uniform_keys(120, r);
  const auto path = snap_path("string_kind");
  network net(1);
  const auto idx =
      api::make_index("skipweb1d", keys, api::index_options{}.seed(3).initial_hosts(8), net);
  api::save_index_snapshot(*idx, path);
  network net2(1);
  EXPECT_THROW((void)api::restore_string_index(path, persist::restore_mode::load, net2),
               persist::error);

  const auto spath = snap_path("string_kind2");
  rng r2(5556);
  const auto skeys = wl::dictionary_words(60, r2);
  network net3(1);
  const auto sidx = api::make_string_index("string_skiptrie", skeys,
                                           api::index_options{}.seed(3).initial_hosts(8), net3);
  api::save_string_snapshot(*sidx, spath);
  network net4(1);
  EXPECT_THROW((void)api::restore_index(spath, persist::restore_mode::load, net4),
               persist::error);
}

TEST(StringPersist, CorruptStringSnapshotRejected) {
  rng r(5557);
  const auto keys = wl::dictionary_words(100, r);
  const auto path = snap_path("string_corrupt");
  network net(1);
  const auto idx = api::make_string_index("string_sorted", keys,
                                          api::index_options{}.seed(9).initial_hosts(8), net);
  api::save_string_snapshot(*idx, path);
  flip_byte(path, 64);  // first payload byte
  network net2(1);
  EXPECT_THROW((void)api::restore_string_index(path, persist::restore_mode::load, net2),
               persist::error);
}

// --- layer 4c: hostile replay files -----------------------------------------
//
// Replay snapshots are written by hand here (persist::writer + the shared
// persist::replay_log layout), so each test controls exactly one hostile
// field. Every case must end in a clean persist::error from the lifecycle's
// restore, in both modes.

template <typename Key>
void write_replay(const std::string& path, const std::string& backend, std::uint64_t index_kind,
                  const persist::replay_log<Key>& log) {
  persist::writer w(path);
  w.add_string("meta.backend", backend);
  w.add_u64("meta.index_kind", index_kind);
  w.add_u64("meta.n", log.build_keys.size());
  log.save(w);
  w.finish();
}

// A valid skip_trie log (one insert) and a valid string_sorted log (one
// erase) over 8 pre-build hosts; the tests below break one field each.
persist::replay_log<api::spatial_point> trie_log() {
  rng r(6161);
  auto pts = wl::spatial_points(2, 41, false, r);
  const auto extra = pts.back();
  pts.pop_back();
  persist::replay_log<api::spatial_point> log{5, 8, std::move(pts), {}, {}};
  log.record(persist::replay_op::insert, h(3), extra);
  return log;
}

persist::replay_log<std::string> string_log() {
  rng r(6162);
  auto words = wl::dictionary_words(40, r);
  const auto victim = words[7];
  persist::replay_log<std::string> log{5, 8, std::move(words), {}, {}};
  log.record(persist::replay_op::erase, h(3), victim);
  return log;
}

void expect_spatial_rejected(const std::string& path) {
  for (const auto mode : {persist::restore_mode::load, persist::restore_mode::map}) {
    network net(1);
    EXPECT_THROW((void)api::restore_spatial_index(path, mode, net), persist::error);
  }
}

void expect_string_rejected(const std::string& path) {
  for (const auto mode : {persist::restore_mode::load, persist::restore_mode::map}) {
    network net(1);
    EXPECT_THROW((void)api::restore_string_index(path, mode, net), persist::error);
  }
}

TEST(Persist, HandWrittenReplayFilesRestore) {
  // The control: the unbroken logs restore, so every rejection below is
  // down to the one field its test breaks.
  const auto tpath = snap_path("hostile_trie_ok");
  write_replay(tpath, "skip_trie", 1, trie_log());
  network tnet(1);
  EXPECT_EQ(api::restore_spatial_index(tpath, persist::restore_mode::load, tnet)->size(), 41u);
  const auto spath = snap_path("hostile_string_ok");
  write_replay(spath, "string_sorted", 2, string_log());
  network snet(1);
  EXPECT_EQ(api::restore_string_index(spath, persist::restore_mode::map, snet)->size(), 39u);
}

TEST(Persist, ReplayOriginBeyondHostCountRejected) {
  // 2^32 + 3 must not narrow to host 3; a plain out-of-range host must not
  // reach the cursor.
  for (const std::uint64_t origin : {(std::uint64_t{1} << 32) + 3, std::uint64_t{1'000'000}}) {
    auto tlog = trie_log();
    tlog.ops[0].origin = origin;
    const auto tpath = snap_path("hostile_trie_origin");
    write_replay(tpath, "skip_trie", 1, tlog);
    expect_spatial_rejected(tpath);
    auto slog = string_log();
    slog.ops[0].origin = origin;
    const auto spath = snap_path("hostile_string_origin");
    write_replay(spath, "string_sorted", 2, slog);
    expect_string_rejected(spath);
  }
}

TEST(Persist, ReplayUnknownOpCodeRejected) {
  auto tlog = trie_log();
  tlog.ops[0].op = static_cast<persist::replay_op>(7);
  const auto tpath = snap_path("hostile_trie_op");
  write_replay(tpath, "skip_trie", 1, tlog);
  expect_spatial_rejected(tpath);
  auto slog = string_log();
  slog.ops[0].op = static_cast<persist::replay_op>(2);
  const auto spath = snap_path("hostile_string_op");
  write_replay(spath, "string_sorted", 2, slog);
  expect_string_rejected(spath);
}

TEST(Persist, ReplayKeyColumnLengthMismatchRejected) {
  auto tlog = trie_log();
  tlog.ops.push_back(tlog.ops[0]);  // two rows, one key
  const auto tpath = snap_path("hostile_trie_cols");
  write_replay(tpath, "skip_trie", 1, tlog);
  expect_spatial_rejected(tpath);
  auto slog = string_log();
  slog.op_keys.push_back("orphan");  // one row, two keys
  const auto spath = snap_path("hostile_string_cols");
  write_replay(spath, "string_sorted", 2, slog);
  expect_string_rejected(spath);
}

TEST(Persist, UnregisteredBackendNameRejected) {
  const auto tpath = snap_path("hostile_trie_backend");
  write_replay(tpath, "no_such_backend", 1, trie_log());
  expect_spatial_rejected(tpath);
  const auto spath = snap_path("hostile_string_backend");
  write_replay(spath, "no_such_backend", 2, string_log());
  expect_string_rejected(spath);
  network net(1);
  const auto opath = snap_path("hostile_1d_backend");
  persist::replay_log<std::uint64_t> olog{5, 8, {1, 2, 3}, {}, {}};
  write_replay(opath, "btree", 0, olog);
  EXPECT_THROW((void)api::restore_index(opath, persist::restore_mode::load, net), persist::error);
}

TEST(Persist, HostileReplayHostCountRejected) {
  // The restore grows the network to "replay.pre_hosts" before the build;
  // a count beyond the u32 host ids is rejected before any host is added
  // (2^62 would otherwise grow the network until memory runs out).
  for (const std::uint64_t hosts : {std::uint64_t{1} << 62, std::uint64_t{1} << 32}) {
    auto tlog = trie_log();
    tlog.pre_hosts = hosts;
    const auto tpath = snap_path("hostile_trie_hosts");
    write_replay(tpath, "skip_trie", 1, tlog);
    expect_spatial_rejected(tpath);
    auto slog = string_log();
    slog.pre_hosts = hosts;
    const auto spath = snap_path("hostile_string_hosts");
    write_replay(spath, "string_sorted", 2, slog);
    expect_string_rejected(spath);
  }
}

// --- layer 4d: hostile host counts in native snapshots ----------------------
//
// A native snapshot's host count is the row count of its "net.memory_rows"
// section. These files copy a real skipweb1d snapshot section by section and
// rewrite only the two network sections. (Sections are addressed by name
// hash, so a copy lists the names.)

struct section_bytes {
  std::string name;
  std::vector<char> bytes;
};

template <typename T>
section_bytes section_of(std::string name, const std::vector<T>& v) {
  std::vector<char> bytes(v.size() * sizeof(T));
  if (!bytes.empty()) std::memcpy(bytes.data(), v.data(), bytes.size());
  return {std::move(name), std::move(bytes)};
}

// Copies the named sections of `from` except the ones `replaced` names,
// then writes `replaced` (which may also add sections).
void rewrite_sections(const std::string& from, const std::string& to,
                      const std::vector<std::string>& names,
                      const std::vector<section_bytes>& replaced) {
  persist::reader r(from, persist::restore_mode::load);
  persist::writer w(to);
  for (const auto& name : names) {
    const auto it = std::find_if(replaced.begin(), replaced.end(),
                                 [&](const section_bytes& s) { return s.name == name; });
    if (it != replaced.end()) continue;
    const auto v = r.section(name);
    w.add(name, v.data, v.bytes);
  }
  for (const auto& s : replaced) w.add(s.name, s.bytes.data(), s.bytes.size());
  w.finish();
}

const std::vector<std::string> kSkipweb1dSections = {
    "meta.backend", "meta.index_kind", "meta.n", "lists.meta", "lists.keys", "lists.bits",
    "lists.uids", "lists.redirect", "lists.alive", "lists.next", "lists.prev", "lists.next_rep",
    "lists.prev_rep", "lists.free", "impl.policy", "impl.rng", "impl.owner", "impl.root_item"};

void rewrite_network(const std::string& from, const std::string& to, std::uint64_t host_count,
                     const std::vector<std::uint64_t>& rows) {
  rewrite_sections(from, to, kSkipweb1dSections,
                   {section_of("net.host_count", std::vector<std::uint64_t>{host_count}),
                    section_of("net.memory_rows", rows)});
}

TEST(Persist, HostileHostCountsRejected) {
  rng r(5150);
  const auto keys = wl::uniform_keys(300, r);
  network net_o(1);
  const auto orig =
      api::make_index("skipweb1d", keys, api::index_options{}.seed(6).initial_hosts(8), net_o);
  const auto path = snap_path("source");
  api::save_index_snapshot(*orig, path);
  persist::reader src(path, persist::restore_mode::load);
  const auto rows = src.vec<std::uint64_t>("net.memory_rows");
  const std::uint64_t hosts = net_o.host_count();
  ASSERT_EQ(rows.size(), hosts * 4);

  // The control: the copy with its own network sections restores, so each
  // rejection below is down to the host count alone.
  const auto ok = snap_path("ok");
  rewrite_network(path, ok, hosts, rows);
  for (const auto mode : {persist::restore_mode::load, persist::restore_mode::map}) {
    network net(1);
    EXPECT_EQ(api::restore_index(ok, mode, net)->size(), keys.size());
    expect_same_ledger(net_o, net, "control");
  }

  // 2^62 hosts over an empty ledger (hosts * 4 wraps to 0), a count beyond
  // the u32 host ids, and a count one short of the rows.
  const std::vector<std::pair<std::uint64_t, std::vector<std::uint64_t>>> hostile = {
      {std::uint64_t{1} << 62, {}},
      {(std::uint64_t{1} << 32) + hosts, rows},
      {hosts - 1, rows}};
  for (const auto& [count, ledger] : hostile) {
    const auto bad = snap_path("bad");
    rewrite_network(path, bad, count, ledger);
    for (const auto mode : {persist::restore_mode::load, persist::restore_mode::map}) {
      network net(1);
      EXPECT_THROW((void)api::restore_index(bad, mode, net), persist::error) << count;
    }
  }

  // A network that already has more hosts than the snapshot cannot adopt it.
  network big(hosts + 1);
  EXPECT_THROW((void)api::restore_index(ok, persist::restore_mode::map, big), persist::error);
}

// --- layer 4e: skipweb_1d snapshots -------------------------------------------
//
// One layout per structure (DESIGN.md §13): a link is a bare 4-byte slot in
// "lists.next"/"lists.prev" and the replica lists "lists.next_rep"/
// "lists.prev_rep", and the placement is the "impl.policy" word plus one
// owner table. These tests restore the saved file itself.

std::vector<std::string> skipweb1d_sections(bool bucket) {
  auto names = kSkipweb1dSections;
  names.insert(names.end(), {"net.host_count", "net.memory_rows"});
  if (bucket) names.push_back("impl.bucket");
  return names;
}

void expect_index_rejected(const std::string& path, const std::string& what) {
  for (const auto mode : {persist::restore_mode::load, persist::restore_mode::map}) {
    network net(1);
    EXPECT_THROW((void)api::restore_index(path, mode, net), persist::error) << what;
  }
}

// A backend built over 480 of 600 keys and saved after 60 insert+erase
// pairs, so its arena holds erase-freed slots (and a bucket placement's runs
// have split and shrunk). Keys 540 on stay held out for later inserts.
struct saved_index {
  std::unique_ptr<api::distributed_index> idx;
  std::string path;
};
saved_index churned_snapshot(const std::string& backend, const api::index_options& opts,
                             network& net, std::vector<std::uint64_t>& keys) {
  rng r(8080);
  keys = wl::uniform_keys(600, r);
  auto idx = api::make_index(backend, std::vector<std::uint64_t>(keys.begin(), keys.begin() + 480),
                             opts, net);
  for (std::uint32_t i = 0; i < 60; ++i) {
    idx->insert(keys[480 + i], h(i % 8));
    idx->erase(keys[i * 3], h((i * 5) % 8));
  }
  auto path = snap_path("source_" + backend);
  api::save_index_snapshot(*idx, path);
  return {std::move(idx), std::move(path)};
}

// A saved bucket_skipweb (M = 8), churned as churned_snapshot does.
saved_index churned_bucket_snapshot(network& net, std::vector<std::uint64_t>& keys) {
  return churned_snapshot("bucket_skipweb",
                          api::index_options{}.seed(12).initial_hosts(8).bucket_size(8), net, keys);
}

// Every skipweb_1d placement restored from a churned file — freed arena
// slots, replica lists, split bucket runs — must serve probes and ranges,
// take routed inserts and erases, and route around dead hosts exactly like
// the index that saved it, in both modes.
TEST(Persist, RestoredSkipwebPlacementsServeAndMutate) {
  const auto base = api::index_options{}.seed(14).initial_hosts(8);
  struct file_case {
    const char* what;
    std::string backend;
    api::index_options opts;
  };
  const std::vector<file_case> cases = {
      {"tower", "skipweb1d", base},
      {"tower k=2", "skipweb1d", api::index_options(base).replication(2)},
      {"balanced", "skipweb1d",
       api::index_options(base).placement(api::placement_policy::balanced)},
      {"bucket", "bucket_skipweb", api::index_options(base).bucket_size(8)}};
  for (const auto& c : cases) {
    SCOPED_TRACE(c.what);
    network net_o(1);
    std::vector<std::uint64_t> keys;
    const auto [orig, path] = churned_snapshot(c.backend, c.opts, net_o, keys);
    {
      const persist::reader rd(path, persist::restore_mode::load);
      ASSERT_FALSE(rd.vec<int>("lists.free").empty());
      if (c.opts.replication() > 0) {
        ASSERT_FALSE(rd.vec<std::int32_t>("lists.next_rep").empty());
      }
    }
    network net_l(1), net_m(1);
    const auto twin_l = api::restore_index(path, persist::restore_mode::load, net_l);
    const auto twin_m = api::restore_index(path, persist::restore_mode::map, net_m);
    const std::vector<std::pair<api::distributed_index*, network*>> twins = {
        {twin_l.get(), &net_l}, {twin_m.get(), &net_m}};
    const auto probe_all = [&](const char* when) {
      rng pr(9191);
      std::uint32_t origin = 0;
      for (const auto q : wl::probe_keys(keys, 80, pr)) {
        const auto o = h(origin);
        origin = static_cast<std::uint32_t>((origin + 7) % net_o.host_count());
        const auto na = orig->nearest(q, o);
        const auto ra = orig->range(q, q + (std::uint64_t{1} << 58), o, 20);
        for (const auto& [twin, net] : twins) {
          const auto nb = twin->nearest(q, o);
          ASSERT_EQ(na.pred, nb.pred) << when << " " << q;
          ASSERT_EQ(na.succ, nb.succ) << when << " " << q;
          ASSERT_EQ(na.stats, nb.stats) << when << " " << q;
          const auto rb = twin->range(q, q + (std::uint64_t{1} << 58), o, 20);
          ASSERT_EQ(ra.value, rb.value) << when << " " << q;
          ASSERT_EQ(ra.stats, rb.stats) << when << " " << q;
        }
      }
      for (const auto& [twin, net] : twins) {
        ASSERT_EQ(twin->size(), orig->size()) << when;
        expect_same_ledger(net_o, *net, when);
      }
    };
    probe_all("restore");
    // 60 insert+erase pairs: held-out keys in, built keys out.
    for (std::uint32_t i = 0; i < 60; ++i) {
      const auto o = h(i % 8);
      const auto sa = orig->insert(keys[540 + i], o);
      const auto ea = orig->erase(keys[i * 3 + 1], o);
      for (const auto& [twin, net] : twins) {
        ASSERT_EQ(sa, twin->insert(keys[540 + i], o)) << "insert " << i;
        ASSERT_EQ(ea, twin->erase(keys[i * 3 + 1], o)) << "erase " << i;
      }
    }
    probe_all("after mutations");
    if (c.opts.replication() > 0) {
      // Dead hosts send queries down the replica lists.
      for (const std::uint32_t dead : {5u, 6u, 40u}) {
        net_o.kill_host(h(dead));
        for (const auto& [twin, net] : twins) net->kill_host(h(dead));
      }
      probe_all("with dead hosts");
    }
  }
}

// "lists.meta" holds {levels, stride, replication, next uid, alive count,
// alive hint}, the hint saved as its int64 value. The words are compared as
// u64 before they are narrowed: a levels word past 32 bits must not pass as
// its low half, and the hint must be "none" (2^64 - 1) or an arena slot,
// because any_alive() indexes the arena with it. The pools' record counts
// are checked against the meta too.
TEST(Persist, HostileListsMetaRejected) {
  network net_o(1);
  std::vector<std::uint64_t> keys;
  const auto src = churned_snapshot(
      "skipweb1d", api::index_options{}.seed(15).initial_hosts(8).replication(2), net_o, keys);
  const auto names = skipweb1d_sections(false);
  persist::reader rd(src.path, persist::restore_mode::load);
  const auto meta = rd.vec<std::uint64_t>("lists.meta");
  const std::uint64_t arena = rd.vec<std::uint64_t>("lists.keys").size();
  ASSERT_EQ(meta.size(), 6u);
  const auto with_word = [&](std::size_t i, std::uint64_t v) {
    auto m = meta;
    m[i] = v;
    return section_of("lists.meta", m);
  };

  // The control: a copy whose hint is "none" restores and serves.
  const auto ok = snap_path("ok");
  rewrite_sections(src.path, ok, names, {with_word(5, ~std::uint64_t{0})});
  for (const auto mode : {persist::restore_mode::load, persist::restore_mode::map}) {
    network net(1);
    const auto twin = api::restore_index(ok, mode, net);
    EXPECT_EQ(twin->size(), 480u);
    expect_same_ledger(net_o, net, "control");
    const auto a = src.idx->nearest(keys[100], h(3));
    const auto b = twin->nearest(keys[100], h(3));
    EXPECT_EQ(a.pred, b.pred);
    EXPECT_EQ(a.stats, b.stats);
  }

  const auto next = rd.vec<std::int32_t>("lists.next");
  const std::vector<std::pair<std::string, section_bytes>> hostile = {
      {"levels 2^32 + levels", with_word(0, (std::uint64_t{1} << 32) + meta[0])},
      {"hint at the arena size", with_word(5, arena)},
      {"hint 2^30", with_word(5, std::uint64_t{1} << 30)},
      {"one next slot short",
       section_of("lists.next", std::vector<std::int32_t>(next.begin(), next.end() - 1))}};
  for (const auto& [what, replaced] : hostile) {
    const auto bad = snap_path("bad");
    rewrite_sections(src.path, bad, names, {replaced});
    expect_index_rejected(bad, what);
  }
}

// Redirect and root-item slots are payload words that a map restore does
// not check. A chase through them must stay inside the arena and end: a
// slot outside it, or a cycle of dead items, falls back to any live item,
// which is a valid entry tower, so every answer still equals the oracle.
TEST(Persist, HostileRootSlotsAnswerCorrectly) {
  rng r(5353);
  auto keys = wl::uniform_keys(300, r);
  std::sort(keys.begin(), keys.end());
  network net_o(1);
  auto orig =
      api::make_index("skipweb1d", keys, api::index_options{}.seed(15).initial_hosts(8), net_o);
  // The bulk build puts the i-th smallest key in slot i, and host h's root
  // item is slot h: erasing slots 5 and 6 leaves hosts 5 and 6 on dead roots.
  orig->erase(keys[5], h(0));
  orig->erase(keys[6], h(0));
  std::set<std::uint64_t> oracle(keys.begin(), keys.end());
  oracle.erase(keys[5]);
  oracle.erase(keys[6]);
  const auto path = snap_path("source");
  api::save_index_snapshot(*orig, path);
  persist::reader src(path, persist::restore_mode::load);
  const auto alive = src.vec<std::uint8_t>("lists.alive");
  ASSERT_EQ(src.vec<std::uint64_t>("lists.keys").at(5), keys[5]);
  ASSERT_EQ(alive.at(5), 0);
  ASSERT_EQ(alive.at(6), 0);
  const auto roots = src.vec<std::int32_t>("impl.root_item");
  ASSERT_EQ(roots.at(5), 5);
  const auto redirect = src.vec<std::int32_t>("lists.redirect");
  const auto with = [](std::vector<std::int32_t> v, std::size_t i, std::int32_t x) {
    v.at(i) = x;
    return v;
  };
  const auto cycle = with(with(redirect, 5, 6), 6, 5);
  auto hint_in_cycle = src.vec<std::uint64_t>("lists.meta");
  hint_in_cycle.at(5) = 5;  // any_alive() starts its chase at the hint
  constexpr std::int32_t far = std::int32_t{1} << 30;
  const std::vector<std::pair<std::string, std::vector<section_bytes>>> hostile = {
      {"redirect past the arena", {section_of("lists.redirect", with(redirect, 5, far))}},
      {"root item past the arena", {section_of("impl.root_item", with(roots, 5, far))}},
      {"redirect cycle", {section_of("lists.redirect", cycle)}},
      {"redirect cycle under the alive hint",
       {section_of("lists.redirect", cycle), section_of("lists.meta", hint_in_cycle)}}};
  for (const auto& [what, replaced] : hostile) {
    const auto bad = snap_path("bad");
    rewrite_sections(path, bad, skipweb1d_sections(false), replaced);
    for (const auto mode : {persist::restore_mode::load, persist::restore_mode::map}) {
      network net(1);
      const auto twin = api::restore_index(bad, mode, net);
      rng pr(5454);
      std::uint32_t origin = 0;
      for (const auto q : wl::probe_keys(keys, 64, pr)) {
        const auto o = h(origin);
        origin = (origin + 1) % 8;  // hosts 5 and 6 start on the hostile slots
        const auto res = twin->nearest(q, o);
        const auto it = oracle.upper_bound(q);
        ASSERT_EQ(res.has_pred, it != oracle.begin()) << what << " " << q;
        if (res.has_pred) {
          ASSERT_EQ(res.pred, *std::prev(it)) << what << " " << q;
        }
        ASSERT_EQ(res.has_succ, it != oracle.end()) << what << " " << q;
        if (res.has_succ) {
          ASSERT_EQ(res.succ, *it) << what << " " << q;
        }
      }
    }
  }
}

// --- layer 4f: bucket skip-web snapshots --------------------------------------
//
// A bucket_skipweb file holds the §2.4.1 placement as one owner table (a
// host per arena slot and stratum) plus the geometry {M, strata} in
// "impl.bucket".

TEST(Persist, HostileBucketFilesRejected) {
  network net_o(1);
  std::vector<std::uint64_t> keys;
  const auto path = churned_bucket_snapshot(net_o, keys).path;
  persist::reader src(path, persist::restore_mode::load);
  const auto geometry = src.vec<std::uint64_t>("impl.bucket");
  const auto owner = src.vec<host_id>("impl.owner");
  const std::uint64_t M = geometry.at(0), strata = geometry.at(1);
  const auto levels = static_cast<std::uint64_t>(src.vec<std::uint64_t>("lists.meta").at(0));
  const auto L = static_cast<std::uint64_t>(std::bit_width(M - 1));

  // The control: an unmodified copy restores.
  const auto ok = snap_path("ok");
  rewrite_sections(path, ok, skipweb1d_sections(/*bucket=*/true), {});
  for (const auto mode : {persist::restore_mode::load, persist::restore_mode::map}) {
    network net(1);
    EXPECT_EQ(api::restore_index(ok, mode, net)->size(), 480u);
    expect_same_ledger(net_o, net, "control");
  }

  // Each file breaks one field.
  const auto too_many = levels / L + 2;  // basic level (too_many - 1)·L is past the top
  const std::vector<std::pair<std::string, std::vector<section_bytes>>> hostile = {
      {"owner table one entry short",
       {section_of("impl.owner", std::vector<host_id>(owner.begin(), owner.end() - 1))}},
      {"M = 3", {section_of("impl.bucket", std::vector<std::uint64_t>{3, strata})}},
      {"zero strata",
       {section_of("impl.bucket", std::vector<std::uint64_t>{M, 0}),
        section_of("impl.owner", std::vector<host_id>{})}},
      {"strata past the levels",
       {section_of("impl.bucket", std::vector<std::uint64_t>{M, too_many}),
        section_of("impl.owner", std::vector<host_id>(owner.size() / strata * too_many))}},
      // With a one-stratum owner table the file is otherwise a well-formed
      // tower file, so only the policy word is wrong.
      {"policy 7",
       {section_of("impl.policy", std::vector<std::uint64_t>{7}),
        section_of("impl.owner",
                   std::vector<host_id>(owner.begin(),
                                        owner.begin() + static_cast<std::ptrdiff_t>(
                                                            owner.size() / strata)))}}};
  for (const auto& [what, replaced] : hostile) {
    const auto bad = snap_path("bad");
    rewrite_sections(path, bad, skipweb1d_sections(/*bucket=*/true), replaced);
    expect_index_rejected(bad, what);
  }
}

// --- layer 4g: rewritten skip quadtree snapshots ----------------------------
//
// These files copy a real skip_quadtree2/3 snapshot section by section and
// replace or add some sections.

// Every section name of a skip_quadtree2/3 file over levels 0..`levels`.
std::vector<std::string> quadtree_sections(std::uint64_t levels) {
  std::vector<std::string> names = {"meta.backend", "meta.index_kind", "meta.n", "q.meta",
                                    "q.pts",        "q.pbits",         "q.pfree"};
  for (std::uint64_t l = 0; l <= levels; ++l) {
    for (const char* s :
         {".live_nodes", ".quads", ".parent", ".occupied", ".alive", ".free", ".dir"}) {
      names.push_back("q.lv" + std::to_string(l) + s);
    }
  }
  for (const char* s : {"impl.rehome", "impl.meta", "impl.rng", "impl.anchors", "net.host_count",
                        "net.memory_rows"}) {
    names.emplace_back(s);
  }
  return names;
}

std::uint64_t quadtree_levels(const std::string& path) {
  return persist::reader(path, persist::restore_mode::load).vec<std::uint64_t>("q.meta").at(0);
}

void rewrite_quadtree(const std::string& from, const std::string& to,
                      const std::vector<section_bytes>& replaced) {
  rewrite_sections(from, to, quadtree_sections(quadtree_levels(from)), replaced);
}

struct saved_spatial_index {
  std::unique_ptr<api::spatial_index> idx;
  std::string path;
};

// A saved skip_quadtree2/3 whose arenas hold erase-freed slots.
saved_spatial_index churned_quadtree_snapshot(const std::string& backend, network& net) {
  rng r(7070);
  const auto pts = wl::spatial_points(api::spatial_backend_dims(backend), 300, true, r);
  auto idx = api::make_spatial_index(
      backend, std::vector<api::spatial_point>(pts.begin(), pts.begin() + 240),
      api::index_options{}.seed(8).initial_hosts(16), net);
  for (std::uint32_t i = 0; i < 60; ++i) {
    idx->insert(pts[240 + i], h(i % 16));
    idx->erase(pts[i * 3], h((i * 5) % 16));
  }
  auto path = snap_path("source_" + backend);
  api::save_spatial_snapshot(*idx, path);
  return {std::move(idx), std::move(path)};
}

TEST(Persist, HostileQuadtreeMetaRejected) {
  network net_o(1);
  const auto path = churned_quadtree_snapshot("skip_quadtree2", net_o).path;
  persist::reader src(path, persist::restore_mode::load);
  const auto qmeta = src.vec<std::uint64_t>("q.meta");
  const auto levels = qmeta.at(0);
  const auto pts = src.vec<seq::qpoint<2>>("q.pts").size();
  const auto slots = src.vec<std::int32_t>("q.lv0.parent").size();
  using tree_slot = persist::flat_table<core::quad_levels<2>::tree_ref>::slot;

  // The control: an unmodified copy restores.
  const auto ok = snap_path("ok");
  rewrite_quadtree(path, ok, {});
  for (const auto mode : {persist::restore_mode::load, persist::restore_mode::map}) {
    network net(1);
    EXPECT_EQ(api::restore_spatial_index(ok, mode, net)->size(), qmeta.at(1));
    expect_same_ledger(net_o, net, "control");
  }

  const std::uint64_t wide = (std::uint64_t{1} << 32) + levels;  // narrows to `levels`
  std::vector<int> long_free(pts + 2, 0);  // more free slots than point slots
  const std::vector<std::vector<section_bytes>> hostile = {
      {section_of("q.meta", std::vector<std::uint64_t>{wide, qmeta.at(1)})},
      {section_of("impl.meta", std::vector<std::uint64_t>{wide, 0})},
      // The build clamps replication to 8; every insert charges k+1 replicas.
      {section_of("impl.meta", std::vector<std::uint64_t>{levels, std::uint64_t{1} << 60})},
      // live points + free slots wraps to the point-slot count.
      {section_of("q.meta", std::vector<std::uint64_t>{levels, ~std::uint64_t{0} - 1}),
       section_of("q.pfree", long_free)},
      // ... and live nodes + free slots to a level's node-slot count.
      {section_of("q.lv0.live_nodes", std::vector<std::uint64_t>{~std::uint64_t{0} - 1}),
       section_of("q.lv0.free", std::vector<std::int32_t>(slots + 2, 0))},
      // No ground tree: every walk would start from a missing root.
      {section_of("q.lv0.dir", std::vector<tree_slot>{})},
      // A ground tree rooted past the level-0 slots.
      {section_of("q.lv0.dir",
                  std::vector<tree_slot>{{0, {static_cast<std::int32_t>(slots), 1}}})},
      // A directory whose length is not a power of two.
      {section_of("q.lv" + std::to_string(levels) + ".dir", std::vector<tree_slot>(3))}};
  for (std::size_t i = 0; i < hostile.size(); ++i) {
    const auto bad = snap_path("bad");
    rewrite_quadtree(path, bad, hostile[i]);
    for (const auto mode : {persist::restore_mode::load, persist::restore_mode::map}) {
      network net(1);
      EXPECT_THROW((void)api::restore_spatial_index(bad, mode, net), persist::error) << i;
    }
  }
}

TEST(Persist, QuadtreeFilesWithBoxSectionsRestore) {
  // Earlier files also stored every node's cube in a per-level
  // "q.lvN.box" section. The reader ignores sections it does not name;
  // filling these with garbage shows that nothing depends on them.
  for (const std::string backend : {"skip_quadtree2", "skip_quadtree3"}) {
    SCOPED_TRACE(backend);
    network net_o(1);
    const auto path = churned_quadtree_snapshot(backend, net_o).path;
    const std::size_t cube_bytes = backend == "skip_quadtree2" ? sizeof(seq::qcube<2>)
                                                               : sizeof(seq::qcube<3>);
    persist::reader src(path, persist::restore_mode::load);
    std::vector<section_bytes> boxes;
    for (std::uint64_t l = 0; l <= src.vec<std::uint64_t>("q.meta").at(0); ++l) {
      const std::string lp = "q.lv" + std::to_string(l);
      const auto slots = src.vec<std::int32_t>(lp + ".parent").size();
      boxes.push_back({lp + ".box", std::vector<char>(slots * cube_bytes, '\xa5')});
    }
    const auto old = snap_path("with_boxes");
    rewrite_quadtree(path, old, boxes);
    network net_s(1);
    const auto saved = api::restore_spatial_index(path, persist::restore_mode::load, net_s);
    for (const auto mode : {persist::restore_mode::load, persist::restore_mode::map}) {
      network net(1);
      const auto twin = api::restore_spatial_index(old, mode, net);
      expect_same_ledger(net_o, net, "restore");
      rng pr(7171);
      for (int i = 0; i < 60; ++i) {
        const auto q = wl::spatial_probe(api::spatial_backend_dims(backend), pr);
        const auto o = h(static_cast<std::uint32_t>(i % 16));
        const auto a = saved->locate(q, o);
        const auto b = twin->locate(q, o);
        ASSERT_EQ(a.found, b.found) << i;
        ASSERT_EQ(a.cell, b.cell) << i;
        ASSERT_EQ(a.stats, b.stats) << i;
      }
    }
  }
}

// Every entry of a node's child row carries the node's down link, and a
// walk reads whichever entry its last step loaded, so the copies must agree.
// check_invariants() finds a row where one of them does not.
TEST(Persist, QuadtreeRowWithDisagreeingLinksFailsInvariants) {
  using entry = core::quad_levels<2>::entry;
  network net_o(1);
  const auto path = churned_quadtree_snapshot("skip_quadtree2", net_o).path;
  persist::reader src(path, persist::restore_mode::load);
  auto rows = src.vec<entry>("q.lv1.quads");
  const auto alive = src.vec<std::uint8_t>("q.lv1.alive");
  const auto live = std::find(alive.begin(), alive.end(), std::uint8_t{1});
  ASSERT_NE(live, alive.end());
  const auto slot = static_cast<std::size_t>(live - alive.begin());
  entry& e = rows.at(slot * core::quad_levels<2>::fanout + 2);
  ASSERT_GE(e.down, 0);
  e.down += 1;
  const auto bad = snap_path("bad");
  rewrite_quadtree(path, bad, {section_of("q.lv1.quads", rows)});
  for (const auto& [file, whole] : {std::pair{path, true}, std::pair{bad, false}}) {
    network net(1);
    persist::reader rd(file, persist::restore_mode::load);
    const core::skip_quadtree<2> twin(rd, net);
    EXPECT_EQ(twin.check_invariants(), whole) << file;
  }
}

// A point entry carries its point's coordinates beside the point's slot, and
// the walks compare against the entry alone, so the two copies must agree.
// check_invariants() finds an entry whose coordinates differ from its
// "q.pts" record, in a map-restored twin that reads the file in place.
TEST(Persist, QuadtreeRowWithStaleCoordinatesFailsInvariants) {
  using entry = core::quad_levels<2>::entry;
  network net_o(1);
  const auto path = churned_quadtree_snapshot("skip_quadtree2", net_o).path;
  persist::reader src(path, persist::restore_mode::load);
  auto rows = src.vec<entry>("q.lv0.quads");
  const auto alive = src.vec<std::uint8_t>("q.lv0.alive");
  entry* stale = nullptr;
  for (std::size_t i = 0; i < rows.size() && stale == nullptr; ++i) {
    if (rows[i].point >= 0 && alive.at(i / core::quad_levels<2>::fanout) != 0) stale = &rows[i];
  }
  ASSERT_NE(stale, nullptr);
  ASSERT_EQ(stale->level, seq::coord_bits);
  stale->corner[1] ^= 1;  // still in its quadrant: only the copy disagrees
  const auto bad = snap_path("bad");
  rewrite_quadtree(path, bad, {section_of("q.lv0.quads", rows)});
  for (const auto& [file, whole] : {std::pair{path, true}, std::pair{bad, false}}) {
    network net(1);
    persist::reader rd(file, persist::restore_mode::map);
    const core::skip_quadtree<2> twin(rd, net);
    EXPECT_EQ(twin.check_invariants(), whole) << file;
  }
}

// A replicated skip_quadtree2/3 whose repair re-homed records before the
// save, so its "impl.rehome" table is not empty. The killed hosts come back
// after the save: a twin's fresh network has every host alive, and so does
// the saving index's from then on.
saved_spatial_index rehomed_quadtree_snapshot(const std::string& backend, network& net) {
  rng r(7272);
  const auto pts = wl::spatial_points(api::spatial_backend_dims(backend), 300, true, r);
  auto idx = api::make_spatial_index(
      backend, pts, api::index_options{}.seed(9).initial_hosts(16).replication(1), net);
  constexpr std::uint32_t dead[] = {3, 7, 12};
  for (const auto d : dead) net.kill_host(h(d));
  EXPECT_GT(fault::repair_to_quiescence(*idx, h(0)).repaired, 0u);
  auto path = snap_path("rehomed_" + backend);
  api::save_spatial_snapshot(*idx, path);
  for (const auto d : dead) net.revive_host(h(d));
  return {std::move(idx), std::move(path)};
}

// A restored skip quadtree — churned arenas, and a non-empty re-home table —
// must serve, mutate and charge exactly like the index that saved it, in
// both modes.
TEST(Persist, RestoredQuadtreeServesAndMutates) {
  for (const std::string backend : {"skip_quadtree2", "skip_quadtree3"}) {
    for (const bool rehomed : {false, true}) {
      SCOPED_TRACE(backend + (rehomed ? " with re-homed records" : ""));
      const int dims = api::spatial_backend_dims(backend);
      network net_o(1);
      const auto [orig, path] = rehomed ? rehomed_quadtree_snapshot(backend, net_o)
                                        : churned_quadtree_snapshot(backend, net_o);
      {
        const persist::reader rd(path, persist::restore_mode::load);
        std::size_t rehomes = 0;
        persist::flat_table<std::uint32_t>(rd, "impl.rehome")
            .visit([&](std::uint64_t, std::uint32_t) {
              ++rehomes;
              return true;
            });
        ASSERT_EQ(rehomes == 0, !rehomed);
      }
      network net_l(1), net_m(1);
      const auto twin_l = api::restore_spatial_index(path, persist::restore_mode::load, net_l);
      const auto twin_m = api::restore_spatial_index(path, persist::restore_mode::map, net_m);
      const std::vector<std::pair<api::spatial_index*, network*>> twins = {
          {twin_l.get(), &net_l}, {twin_m.get(), &net_m}};
      const auto probe_all = [&](const char* when) {
        rng pr(7171);
        for (int i = 0; i < 60; ++i) {
          const auto q = wl::spatial_probe(dims, pr);
          const auto o = h(static_cast<std::uint32_t>(i % 16));
          const auto la = orig->locate(q, o);
          const auto na = orig->approx_nn(q, o);
          for (const auto& [twin, net] : twins) {
            const auto lb = twin->locate(q, o);
            ASSERT_EQ(la.found, lb.found) << when << " " << i;
            ASSERT_EQ(la.cell, lb.cell) << when << " " << i;
            ASSERT_EQ(la.scale, lb.scale) << when << " " << i;
            ASSERT_EQ(la.stats, lb.stats) << when << " " << i;
            const auto nb = twin->approx_nn(q, o);
            ASSERT_EQ(na.value, nb.value) << when << " " << i;
            ASSERT_EQ(na.stats, nb.stats) << when << " " << i;
          }
        }
        for (const auto& [twin, net] : twins) expect_same_ledger(net_o, *net, when);
      };
      probe_all("restore");
      // 60 insert+erase pairs: fresh points in, stored points out.
      api::spatial_box everything;
      for (int d = 0; d < dims; ++d) {
        everything.hi.x[static_cast<std::size_t>(d)] = seq::coord_span - 1;
      }
      const auto stored = orig->orthogonal_range(everything, h(0), 0).value;
      ASSERT_GE(stored.size(), 120u);
      rng ir(7373);
      for (std::size_t i = 0; i < 60; ++i) {
        const auto o = h(static_cast<std::uint32_t>(i % 16));
        const auto p = wl::spatial_probe(dims, ir);
        const auto sa = orig->insert(p, o);
        const auto ea = orig->erase(stored[i * 2], o);
        for (const auto& [twin, net] : twins) {
          ASSERT_EQ(sa, twin->insert(p, o)) << "insert " << i;
          ASSERT_EQ(ea, twin->erase(stored[i * 2], o)) << "erase " << i;
        }
      }
      probe_all("after mutations");
    }
  }
}

// --- layer 4h: retired layouts ------------------------------------------------
//
// A layout change renames every section whose bytes change meaning, so a
// file in a retired layout lacks a section the reader needs and fails on
// it, in both modes, naming that section; it is rebuilt, never converted
// (DESIGN.md §13). Each retired layout is built here by renaming the current
// sections it replaced.

// Copies `from` to `to` with each {current, retired} pair of `renames`
// written under its retired name.
void rename_sections(const std::string& from, const std::string& to,
                     std::vector<std::string> names,
                     const std::vector<std::pair<std::string, std::string>>& renames) {
  const persist::reader r(from, persist::restore_mode::load);
  std::vector<section_bytes> moved;
  for (const auto& [current, retired] : renames) {
    const auto v = r.section(current);
    const auto* bytes = static_cast<const char*>(v.data);
    moved.push_back({retired, std::vector<char>(bytes, bytes + v.bytes)});
    std::erase(names, current);
  }
  rewrite_sections(from, to, names, moved);
}

// Restores `path` onto a fresh network through the 1-D or the spatial
// lifecycle.
void restore_file(const std::string& path, persist::restore_mode mode, bool spatial) {
  network net(1);
  if (spatial) {
    (void)api::restore_spatial_index(path, mode, net);
  } else {
    (void)api::restore_index(path, mode, net);
  }
}

TEST(Persist, RetiredLayoutsRejected) {
  network net_t(1), net_b(1), net_q(1);
  std::vector<std::uint64_t> keys;
  const auto tower = churned_snapshot(
      "skipweb1d", api::index_options{}.seed(16).initial_hosts(8).replication(2), net_t, keys);
  const auto bucket = churned_bucket_snapshot(net_b, keys);
  const auto quadtree = churned_quadtree_snapshot("skip_quadtree2", net_q);
  auto no_policy = skipweb1d_sections(/*bucket=*/true);
  std::erase(no_policy, "impl.policy");
  const auto quadtree_levels_n = quadtree_levels(quadtree.path);
  const auto quadtree_names = quadtree_sections(quadtree_levels_n);
  // Each level's rows under a retired name: "child" held no down links,
  // "rows" no point coordinates.
  const auto rows_as = [&](const std::string& retired) {
    std::vector<std::pair<std::string, std::string>> renames;
    for (std::uint64_t l = 0; l <= quadtree_levels_n; ++l) {
      const std::string lp = "q.lv" + std::to_string(l);
      renames.emplace_back(lp + ".quads", lp + retired);
    }
    return renames;
  };
  struct retired_layout {
    const char* what;
    std::string from;
    bool spatial;
    std::vector<std::string> names;
    std::vector<std::pair<std::string, std::string>> renames;
    std::string missing;  // the current section the error must name
  };
  const std::vector<retired_layout> cases = {
      {"link pools as half-links",
       tower.path,
       false,
       skipweb1d_sections(false),
       {{"lists.next", "lists.fwd"},
        {"lists.prev", "lists.bwd"},
        {"lists.next_rep", "lists.fwd_rep"},
        {"lists.prev_rep", "lists.bwd_rep"}},
       "lists.next"},
      {"bucket file without a policy word", bucket.path, false, no_policy, {}, "impl.policy"},
      {"ground directory as tree rows",
       quadtree.path,
       true,
       quadtree_names,
       {{"q.lv0.dir", "q.lv0.trees"}},
       "q.lv0.dir"},
      {"re-home table as columns",
       quadtree.path,
       true,
       quadtree_names,
       {{"impl.rehome", "impl.rehome_keys"}},
       "impl.rehome"},
      {"child rows without their down links", quadtree.path, true, quadtree_names,
       rows_as(".child"), "q.lv0.quads"},
      {"point entries without their coordinates", quadtree.path, true, quadtree_names,
       rows_as(".rows"), "q.lv0.quads"}};
  for (const auto& c : cases) {
    const auto bad = snap_path("retired");
    rename_sections(c.from, bad, c.names, c.renames);
    for (const auto mode : {persist::restore_mode::load, persist::restore_mode::map}) {
      try {
        restore_file(bad, mode, c.spatial);
        ADD_FAILURE() << c.what << ": restored";
      } catch (const persist::error& e) {
        EXPECT_NE(std::string(e.what()).find("missing section '" + c.missing + "'"),
                  std::string::npos)
            << c.what << ": " << e.what();
      }
    }
  }
}

// --- layer 4i: seeded corruption of every native layout -----------------------
//
// One churned file per native layout — skipweb1d's tower with replicas, the
// bucket placement and the skip quadtree — damaged kMutations times per kind,
// each mutation from its own seed: truncated to a random length; one byte
// flipped in the header or the section table, which both modes verify; and
// one byte flipped anywhere past the header, which load mode's payload
// checksums catch unless it lands in the zero padding between sections. No
// checksum covers that padding, so a twin restored from such a file must
// equal the saved index. Map mode trusts payload bytes by design (DESIGN.md
// §13), so payload flips are not restored in map mode.

void write_file(const std::string& path, const std::vector<char>& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
}

// A twin restored from `path` in load mode must answer, charge and account
// like the index that saved it.
void expect_twin_of(const std::string& path, const api::distributed_index& saved,
                    const network& net_o, const std::vector<std::uint64_t>& keys) {
  network net(1);
  const auto twin = api::restore_index(path, persist::restore_mode::load, net);
  expect_same_ledger(net_o, net, "twin");
  rng pr(4343);
  for (const auto q : wl::probe_keys(keys, 40, pr)) {
    const auto a = saved.nearest(q, h(1));
    const auto b = twin->nearest(q, h(1));
    ASSERT_EQ(a.pred, b.pred) << q;
    ASSERT_EQ(a.succ, b.succ) << q;
    ASSERT_EQ(a.stats, b.stats) << q;
  }
}

void expect_twin_of(const std::string& path, const api::spatial_index& saved,
                    const network& net_o) {
  network net(1);
  const auto twin = api::restore_spatial_index(path, persist::restore_mode::load, net);
  expect_same_ledger(net_o, net, "twin");
  rng pr(4444);
  for (int i = 0; i < 40; ++i) {
    const auto q = wl::spatial_probe(saved.dims(), pr);
    const auto a = saved.locate(q, h(1));
    const auto b = twin->locate(q, h(1));
    ASSERT_EQ(a.found, b.found) << i;
    ASSERT_EQ(a.cell, b.cell) << i;
    ASSERT_EQ(a.stats, b.stats) << i;
  }
}

TEST(Persist, SeededCorruptionOfNativeLayouts) {
  constexpr std::uint64_t kMutations = 64;
  network net_t(1), net_b(1), net_q(1);
  std::vector<std::uint64_t> tower_keys, bucket_keys;
  const auto tower = churned_snapshot(
      "skipweb1d", api::index_options{}.seed(17).initial_hosts(8).replication(2), net_t,
      tower_keys);
  const auto bucket = churned_bucket_snapshot(net_b, bucket_keys);
  const auto quadtree = churned_quadtree_snapshot("skip_quadtree2", net_q);
  struct native_file {
    const char* what;
    std::string path;
    bool spatial;
    std::function<void(const std::string&)> expect_twin;
  };
  const std::vector<native_file> files = {
      {"skipweb1d tower k=2", tower.path, false,
       [&](const std::string& p) { expect_twin_of(p, *tower.idx, net_t, tower_keys); }},
      {"bucket_skipweb M=8", bucket.path, false,
       [&](const std::string& p) { expect_twin_of(p, *bucket.idx, net_b, bucket_keys); }},
      {"skip_quadtree2", quadtree.path, true,
       [&](const std::string& p) { expect_twin_of(p, *quadtree.idx, net_q); }}};

  constexpr std::uint64_t header = sizeof(persist::file_header);
  const auto both = {persist::restore_mode::load, persist::restore_mode::map};
  for (const auto& f : files) {
    SCOPED_TRACE(f.what);
    const auto clean = file_bytes(f.path);
    persist::file_header hdr;
    ASSERT_GE(clean.size(), header);
    std::memcpy(&hdr, clean.data(), header);
    ASSERT_EQ(hdr.table_offset + hdr.table_bytes, clean.size());
    std::vector<persist::section_entry> table(hdr.section_count);
    std::memcpy(table.data(), clean.data() + hdr.table_offset, hdr.table_bytes);
    // A byte between the header and the table that no section covers.
    const auto in_padding = [&](std::uint64_t at) {
      return at >= header && at < hdr.table_offset &&
             std::none_of(table.begin(), table.end(), [at](const persist::section_entry& e) {
               return at >= e.offset && at < e.offset + e.bytes;
             });
    };
    const auto bad = snap_path("mutated");
    const auto write_flipped = [&](std::uint64_t at, rng& r) {
      auto bytes = clean;
      bytes[at] = static_cast<char>(bytes[at] ^ static_cast<char>(1 + r.index(255)));
      write_file(bad, bytes);
    };
    const auto expect_rejected = [&](std::initializer_list<persist::restore_mode> modes,
                                     const std::string& what) {
      for (const auto mode : modes) {
        EXPECT_THROW(restore_file(bad, mode, f.spatial), persist::error)
            << what << (mode == persist::restore_mode::map ? " (map)" : " (load)");
      }
    };
    std::uint64_t padding_flips = 0;
    for (std::uint64_t i = 0; i < kMutations; ++i) {
      const std::uint64_t seed = 0x5eed0000 + i;
      rng r(seed);
      const auto seed_is = "seed " + std::to_string(seed);

      const auto length = static_cast<std::ptrdiff_t>(r.index(clean.size()));
      write_file(bad, std::vector<char>(clean.begin(), clean.begin() + length));
      expect_rejected(both, seed_is + ": truncated to " + std::to_string(length));

      // One byte of the header or of the section table.
      const auto k = r.index(header + hdr.table_bytes);
      const std::uint64_t meta_at = k < header ? k : hdr.table_offset + (k - header);
      write_flipped(meta_at, r);
      expect_rejected(both, seed_is + ": metadata byte " + std::to_string(meta_at));

      // One byte anywhere past the header.
      const std::uint64_t at = header + r.index(clean.size() - header);
      write_flipped(at, r);
      if (in_padding(at)) {
        ++padding_flips;
        SCOPED_TRACE(seed_is + ": padding byte " + std::to_string(at));
        f.expect_twin(bad);
      } else {
        expect_rejected({persist::restore_mode::load}, seed_is + ": byte " + std::to_string(at));
      }
    }
    // However the seeds fell, the padding case runs at least once: the last
    // padding byte before the table.
    std::uint64_t last_pad = hdr.table_offset;
    while (last_pad > header && !in_padding(last_pad)) --last_pad;
    ASSERT_TRUE(in_padding(last_pad));
    rng r(0x5eed0000 + kMutations);
    write_flipped(last_pad, r);
    SCOPED_TRACE("padding byte " + std::to_string(last_pad) + " (" +
                 std::to_string(padding_flips) + " drawn)");
    f.expect_twin(bad);
  }
}

// The reader checks the header's and the table's geometry without sums or
// products, so a crafted file whose checksums are recomputed cannot wrap an
// offset plus a length, or a count times 32, past 2^64 into a passing check.
TEST(Persist, HostileSectionGeometryRejected) {
  rng r(2064);
  const auto keys = wl::uniform_keys(300, r);
  network net_o(1);
  const auto orig =
      api::make_index("skipweb1d", keys, api::index_options{}.seed(6).initial_hosts(8), net_o);
  const auto path = snap_path("source");
  api::save_index_snapshot(*orig, path);
  const auto clean = file_bytes(path);
  persist::file_header hdr;
  std::memcpy(&hdr, clean.data(), sizeof(hdr));
  std::vector<persist::section_entry> table(hdr.section_count);
  std::memcpy(table.data(), clean.data() + hdr.table_offset, hdr.table_bytes);

  // Writes `head` and `t` (at the file's real table offset), their
  // checksums recomputed as a forger would.
  const auto bad = snap_path("bad");
  const auto write_crafted = [&](persist::file_header head,
                                 const std::vector<persist::section_entry>& t) {
    auto bytes = clean;
    std::memcpy(bytes.data() + hdr.table_offset, t.data(), hdr.table_bytes);
    head.table_checksum = persist::checksum64(t.data(), head.table_bytes);
    head.header_checksum =
        persist::checksum64(&head, offsetof(persist::file_header, header_checksum));
    std::memcpy(bytes.data(), &head, sizeof(head));
    write_file(bad, bytes);
  };

  // The control: rewritten unchanged, the file restores.
  write_crafted(hdr, table);
  for (const auto mode : {persist::restore_mode::load, persist::restore_mode::map}) {
    network net(1);
    EXPECT_EQ(api::restore_index(bad, mode, net)->size(), keys.size());
  }

  // An entry whose offset + length wraps to 64.
  auto wrapped = table;
  const auto kind = std::find_if(wrapped.begin(), wrapped.end(), [](const auto& e) {
    return e.id == persist::section_id("meta.index_kind");
  });
  ASSERT_NE(kind, wrapped.end());
  kind->offset = std::uint64_t{0} - (std::uint64_t{1} << 40);
  kind->bytes = (std::uint64_t{1} << 40) + 64;
  write_crafted(hdr, wrapped);
  expect_index_rejected(bad, "entry offset + bytes wraps");

  // 2^59 sections over an empty table: the count times 32 wraps to 0.
  auto counted = hdr;
  counted.section_count = std::uint64_t{1} << 59;
  counted.table_bytes = 0;
  write_crafted(counted, table);
  expect_index_rejected(bad, "section_count * 32 wraps");

  // A table offset whose sum with the table's length wraps to 64.
  auto offset = hdr;
  offset.table_offset = std::uint64_t{0} - hdr.table_bytes + 64;
  write_crafted(offset, table);
  expect_index_rejected(bad, "table_offset + table_bytes wraps");
}

// The repair plane re-homes one record per step, in the order it scans the
// tree directories. A restored twin scans them in the saving index's slot
// order, so the same kills must give the same steps — counts and receipts —
// on the original and on both twins. Saved again after the repair, the
// re-home table must put every record on the same host.
TEST(Persist, RestoredQuadtreeRepairsInSameOrder) {
  rng r(6464);
  const auto pts = wl::clustered_points<2>(2000, r);
  network net_o(64);
  core::skip_quadtree<2> orig(pts, 29, net_o, 1);
  const auto save_to = [](const core::skip_quadtree<2>& q, const std::string& path) {
    persist::writer w(path);
    q.save_snapshot(w);
    w.finish();
  };
  const auto path = snap_path("repair_order");
  save_to(orig, path);
  network net_l(1), net_m(1);
  persist::reader rd_l(path, persist::restore_mode::load);
  persist::reader rd_m(path, persist::restore_mode::map);
  core::skip_quadtree<2> twin_l(rd_l, net_l);
  core::skip_quadtree<2> twin_m(rd_m, net_m);
  const std::vector<std::pair<core::skip_quadtree<2>*, network*>> twins = {{&twin_l, &net_l},
                                                                          {&twin_m, &net_m}};
  const host_id dead = h(27);
  net_o.kill_host(dead);
  for (const auto& [twin, net] : twins) net->kill_host(dead);
  std::size_t steps = 0;
  for (;; ++steps) {
    const auto want = orig.repair_step(h(0));
    for (const auto& [twin, net] : twins) {
      const auto got = twin->repair_step(h(0));
      ASSERT_EQ(got.value, want.value) << "step " << steps;
      ASSERT_EQ(got.stats, want.stats) << "step " << steps;
    }
    if (want.value == 0) break;
  }
  EXPECT_GT(steps, 300u);
  for (const auto& [twin, net] : twins) {
    expect_same_ledger(net_o, *net, "repaired");
    EXPECT_TRUE(twin->check_invariants());
  }

  const auto path2 = snap_path("repaired");
  save_to(twin_m, path2);
  for (const auto mode : {persist::restore_mode::load, persist::restore_mode::map}) {
    network net(1);
    persist::reader rd(path2, mode);
    const core::skip_quadtree<2> again(rd, net);
    expect_same_ledger(net_o, net, "restored after repair");
    std::size_t records = 0, moved = 0, differ = 0;
    for (int l = 0; l <= orig.levels(); ++l) {
      orig.structure().for_each_tree(l, [&](std::uint64_t prefix, const auto& tr) {
        std::vector<int> stack{tr.root};
        while (!stack.empty()) {
          const int v = stack.back();
          stack.pop_back();
          ++records;
          if (orig.host_of(l, prefix, v) != orig.replica_host(l, prefix, v, 0)) ++moved;
          if (again.host_of(l, prefix, v) != orig.host_of(l, prefix, v)) ++differ;
          for (int c = 0; c < core::skip_quadtree<2>::fanout; ++c) {
            const int child = orig.structure().child_at(l, v, c).node;
            if (child >= 0) stack.push_back(child);
          }
        }
        return true;
      });
    }
    EXPECT_GT(records, pts.size());
    EXPECT_GT(moved, 100u);
    EXPECT_EQ(differ, 0u);
  }
}

// A snapshot's bytes are a function of the index: two same-seed replicated
// builds whose repair re-homed records (so "impl.rehome" holds entries) write
// identical files. A slot of that table is {u64 key, u32 value}; its last
// four bytes are a member of their own, zeroed, so no uninitialized byte
// reaches the file or its checksums.
TEST(Persist, ReplicatedQuadtreeSavesDeterministicBytes) {
  std::vector<std::vector<char>> files;
  for (int run = 0; run < 2; ++run) {
    rng r(6565);
    const auto pts = wl::spatial_points(2, 600, true, r);
    network net(1);
    const auto idx = api::make_spatial_index(
        "skip_quadtree2", pts, api::index_options{}.seed(31).initial_hosts(1024).replication(2),
        net);
    for (std::uint32_t i = 0; i < 102; ++i) net.kill_host(h(3 + 10 * i));  // 10% of the hosts
    EXPECT_GT(fault::repair_to_quiescence(*idx, h(0)).repaired, 0u);
    const auto path = snap_path("deterministic_" + std::to_string(run));
    api::save_spatial_snapshot(*idx, path);
    files.push_back(file_bytes(path));
  }
  ASSERT_FALSE(files[0].empty());
  EXPECT_TRUE(files[0] == files[1]);
}

// --- layer 4j: the writer's helper thread -----------------------------------

// Sections of persist::hash_beside_bytes or more are hashed on a helper
// thread while the same bytes are written. At 2^16 keys each of skipweb1d's
// link pools is about 4.4 MB, so its file takes that path: two saves write
// the same bytes, a load-mode restore verifies every payload checksum, and a
// flipped byte inside any large section is rejected.
TEST(Persist, LargeSectionsHashedBesideTheWrite) {
  rng r(6553);
  const auto keys = wl::uniform_keys(std::size_t{1} << 16, r);
  network net_o(1);
  const auto idx =
      api::make_index("skipweb1d", keys, api::index_options{}.seed(9).initial_hosts(8), net_o);
  const auto path = snap_path("large");
  const auto again = snap_path("large_again");
  api::save_index_snapshot(*idx, path);
  api::save_index_snapshot(*idx, again);
  const auto clean = file_bytes(path);
  ASSERT_TRUE(clean == file_bytes(again));

  persist::file_header hdr;
  ASSERT_GE(clean.size(), sizeof(hdr));
  std::memcpy(&hdr, clean.data(), sizeof(hdr));
  std::vector<persist::section_entry> table(hdr.section_count);
  std::memcpy(table.data(), clean.data() + hdr.table_offset, hdr.table_bytes);
  std::vector<persist::section_entry> large;
  std::copy_if(table.begin(), table.end(), std::back_inserter(large), [](const auto& e) {
    return e.bytes >= persist::hash_beside_bytes;
  });
  ASSERT_GE(large.size(), 2u);  // at least the next and prev link pools
  for (const auto& e : large) {
    EXPECT_EQ(e.checksum, persist::checksum64(clean.data() + e.offset, e.bytes)) << e.offset;
  }

  expect_twin_of(path, *idx, net_o, keys);

  const auto bad = snap_path("flipped");
  for (const auto& e : large) {
    auto bytes = clean;
    bytes[e.offset + e.bytes / 2] = static_cast<char>(bytes[e.offset + e.bytes / 2] ^ 0x20);
    write_file(bad, bytes);
    EXPECT_THROW(restore_file(bad, persist::restore_mode::load, false), persist::error)
        << "section at " << e.offset;
  }
}

// The raw writer: one 3 MiB section of random bytes between two small ones
// round-trips through both restore modes.
TEST(Persist, LargeRawSectionRoundTrips) {
  rng r(3141);
  std::vector<std::uint64_t> blob((std::size_t{3} << 20) / sizeof(std::uint64_t));
  for (auto& v : blob) v = r.next_u64();
  const auto path = snap_path("raw");
  {
    persist::writer w(path);
    w.add_u64("before", 7);
    w.add_vector("blob", blob);
    w.add_u64("after", 9);
    w.finish();
  }
  for (const auto mode : {persist::restore_mode::load, persist::restore_mode::map}) {
    persist::reader rd(path, mode);
    EXPECT_EQ(rd.u64("before"), 7u);
    EXPECT_EQ(rd.u64("after"), 9u);
    EXPECT_TRUE(rd.vec<std::uint64_t>("blob") == blob);
  }
}

// --- layer 5: the build-or-restore entry points ------------------------------

TEST(Persist, SnapshotPathBuildsThenRestores) {
  rng r(5);
  const auto keys = wl::uniform_keys(600, r);
  const auto path = snap_path("build_or_restore");
  const auto opts = api::index_options{}.seed(11).initial_hosts(8).snapshot_path(path);
  network net_a(1);
  const auto built = api::make_index("skipweb1d", keys, opts, net_a);
  ASSERT_TRUE(fs::exists(path));  // first start: built, compacted, saved
  network net_b(1);
  const auto restored = api::make_index("skipweb1d", {}, opts, net_b);  // keys ignored
  ASSERT_EQ(restored->size(), built->size());
  ASSERT_EQ(net_b.host_count(), net_a.host_count());
  rng pr(66);
  for (const auto q : wl::probe_keys(keys, 60, pr)) {
    const auto na = built->nearest(q, h(3));
    const auto nb = restored->nearest(q, h(3));
    ASSERT_EQ(na.pred, nb.pred);
    ASSERT_EQ(na.succ, nb.succ);
    ASSERT_EQ(na.stats, nb.stats);
  }
}

TEST(Persist, SnapshotPathIgnoredByNonSnapshotBackends) {
  rng r(6);
  const auto keys = wl::uniform_keys(200, r);
  const auto path = snap_path("chord_ignores");
  network net(1);
  const auto idx = api::make_index(
      "chord", keys, api::index_options{}.seed(1).initial_hosts(8).buckets(24).snapshot_path(path),
      net);
  EXPECT_EQ(idx->size(), keys.size());
  EXPECT_FALSE(fs::exists(path));  // the plane is silently skipped
}

TEST(Persist, SpatialSnapshotPathBuildsThenRestores) {
  rng r(7);
  const auto pts = wl::spatial_points(2, 300, false, r);
  const auto path = snap_path("spatial_build_or_restore");
  const auto opts = api::index_options{}.seed(13).initial_hosts(8).snapshot_path(path);
  network net_a(1);
  const auto built = api::make_spatial_index("skip_quadtree2", pts, opts, net_a);
  ASSERT_TRUE(fs::exists(path));
  network net_b(1);
  const auto restored = api::make_spatial_index("skip_quadtree2", {}, opts, net_b);
  ASSERT_EQ(restored->size(), built->size());
  rng pr(8);
  for (int i = 0; i < 40; ++i) {
    const auto q = wl::spatial_probe(2, pr);
    const auto la = built->locate(q, h(2));
    const auto lb = restored->locate(q, h(2));
    ASSERT_EQ(la.cell, lb.cell);
    ASSERT_EQ(la.stats, lb.stats);
  }
}

TEST(Persist, StringSnapshotPathBuildsThenRestores) {
  rng r(15);
  const auto keys = wl::url_paths(300, r);
  const auto path = snap_path("string_build_or_restore");
  const auto opts = api::index_options{}.seed(19).initial_hosts(8).snapshot_path(path);
  network net_a(1);
  const auto built = api::make_string_index("string_skiptrie", keys, opts, net_a);
  ASSERT_TRUE(fs::exists(path));  // first start: built and saved
  network net_b(1);
  const auto restored = api::make_string_index("string_skiptrie", {}, opts, net_b);
  ASSERT_EQ(restored->size(), built->size());
  ASSERT_EQ(net_b.host_count(), net_a.host_count());
  for (const auto& q : wl::string_query_stream(keys, 50, 16)) {
    const auto a = built->contains(q, h(3));
    const auto b = restored->contains(q, h(3));
    ASSERT_EQ(a.value, b.value) << q;
    ASSERT_EQ(a.stats, b.stats) << q;
  }
  for (const auto& p : wl::prefix_stream(keys, 15, 16)) {
    ASSERT_EQ(built->top_k(p, 4, h(0)).value, restored->top_k(p, 4, h(0)).value) << p;
  }
}

// The restore branch of build-or-restore wires the same planes as a build:
// a second start with a route cache and a deadline must leave both attached
// to the fresh network and answer like the first start. Answers only —
// receipts under a cache depend on its training history.
constexpr std::uint64_t restart_deadline_ns = 5'000'000;

TEST(Persist, SnapshotPathRestoreWiresCacheAndDeadline) {
  rng r(25);
  const auto keys = wl::uniform_keys(500, r);
  const auto path = snap_path("restore_wiring_1d");
  const auto opts = api::index_options{}.seed(11).initial_hosts(8).snapshot_path(path);
  network net_a(1);
  const auto built = api::make_index("skipweb1d", keys, opts, net_a);
  ASSERT_TRUE(fs::exists(path));
  serve::route_cache c;
  network net_b(1);
  const auto restored = api::make_index(
      "skipweb1d", {}, api::index_options(opts).route_cache(&c).deadline(restart_deadline_ns),
      net_b);
  EXPECT_EQ(net_b.attached_hop_cache(), &c);
  EXPECT_EQ(net_b.op_deadline_ns(), restart_deadline_ns);
  ASSERT_EQ(restored->size(), built->size());
  rng pr(26);
  for (const auto q : wl::probe_keys(keys, 60, pr)) {
    const auto na = built->nearest(q, h(3));
    const auto nb = restored->nearest(q, h(3));
    ASSERT_EQ(na.pred, nb.pred);
    ASSERT_EQ(na.succ, nb.succ);
  }
  ASSERT_EQ(built->range(keys[3], keys[40], h(1)).value,
            restored->range(keys[3], keys[40], h(1)).value);
}

TEST(Persist, SpatialSnapshotPathRestoreWiresCacheAndDeadline) {
  rng r(27);
  const auto pts = wl::spatial_points(2, 300, false, r);
  const auto path = snap_path("restore_wiring_spatial");
  const auto opts = api::index_options{}.seed(13).initial_hosts(8).snapshot_path(path);
  network net_a(1);
  const auto built = api::make_spatial_index("skip_quadtree2", pts, opts, net_a);
  ASSERT_TRUE(fs::exists(path));
  serve::route_cache c;
  network net_b(1);
  const auto restored = api::make_spatial_index(
      "skip_quadtree2", {}, api::index_options(opts).route_cache(&c).deadline(restart_deadline_ns),
      net_b);
  EXPECT_EQ(net_b.attached_hop_cache(), &c);
  EXPECT_EQ(net_b.op_deadline_ns(), restart_deadline_ns);
  ASSERT_EQ(restored->size(), built->size());
  rng pr(28);
  for (int i = 0; i < 40; ++i) {
    const auto q = wl::spatial_probe(2, pr);
    const auto la = built->locate(q, h(2));
    const auto lb = restored->locate(q, h(2));
    ASSERT_EQ(la.found, lb.found);
    ASSERT_EQ(la.cell, lb.cell);
  }
}

TEST(Persist, StringSnapshotPathRestoreWiresCacheAndDeadline) {
  rng r(29);
  const auto keys = wl::url_paths(300, r);
  const auto path = snap_path("restore_wiring_string");
  const auto opts = api::index_options{}.seed(19).initial_hosts(8).snapshot_path(path);
  network net_a(1);
  const auto built = api::make_string_index("string_skiptrie", keys, opts, net_a);
  ASSERT_TRUE(fs::exists(path));
  serve::route_cache c;
  network net_b(1);
  const auto restored = api::make_string_index(
      "string_skiptrie", {}, api::index_options(opts).route_cache(&c).deadline(restart_deadline_ns),
      net_b);
  EXPECT_EQ(net_b.attached_hop_cache(), &c);
  EXPECT_EQ(net_b.op_deadline_ns(), restart_deadline_ns);
  ASSERT_EQ(restored->size(), built->size());
  for (const auto& q : wl::string_query_stream(keys, 50, 30)) {
    ASSERT_EQ(built->contains(q, h(3)).value, restored->contains(q, h(3)).value) << q;
  }
  for (const auto& p : wl::prefix_stream(keys, 15, 30)) {
    ASSERT_EQ(built->prefix_match(p, h(0)).value, restored->prefix_match(p, h(0)).value) << p;
  }
}

// --- layer 6: compaction squares the footprint with the file -----------------

TEST(Persist, CompactDrivesSlackToZeroAndFileCoversArena) {
  rng r(21);
  const auto keys = wl::uniform_keys(2000, r);
  network net(1);
  const auto idx =
      api::make_index("skipweb1d", keys, api::index_options{}.seed(2).initial_hosts(8), net);
  // Grow past the build so the arenas carry slack, then compact via save.
  rng kr(22);
  for (int i = 0; i < 200; ++i) idx->insert(kr.next_u64() >> 1, h(0));
  const auto path = snap_path("footprint");
  api::save_index_snapshot(*idx, path);  // compacts first (DESIGN.md §13)
  const auto f = idx->footprint();
  EXPECT_LE(f.slack_bytes, 1024u);  // shrunk to fit (allocator rounding aside)
  // Every resident arena byte is on disk: the file also carries headers,
  // the section table and the ledger, so it can only be larger.
  EXPECT_GE(fs::file_size(path), f.arena_bytes);
}

// --- layer 7: the crash-restart smoke ----------------------------------------

// Build, persist, "crash" (destroy every in-memory object), restore from the
// file alone and serve a first query — the headline path of the restart
// bench, kept here as a correctness smoke.
TEST(Persist, CrashRestartServesFirstQuery) {
  const auto path = snap_path("crash_restart");
  std::uint64_t probe = 0;
  std::uint64_t expect_pred = 0, expect_succ = 0;
  {
    rng r(31);
    const auto keys = wl::uniform_keys(5000, r);
    probe = keys[1234] + 1;
    network net(1);
    const auto idx =
        api::make_index("skipweb1d", keys, api::index_options{}.seed(4).initial_hosts(16), net);
    const auto n = idx->nearest(probe, h(5));
    expect_pred = n.pred;
    expect_succ = n.succ;
    api::save_index_snapshot(*idx, path);
  }  // <- crash: nothing survives but the file
  network net(1);
  const auto idx = api::restore_index(path, persist::restore_mode::map, net);
  const auto n = idx->nearest(probe, h(5));
  EXPECT_EQ(n.pred, expect_pred);
  EXPECT_EQ(n.succ, expect_succ);
}

}  // namespace
