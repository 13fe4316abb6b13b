// The persistence plane's correctness contract (DESIGN.md §13): a restored
// index must be indistinguishable from its never-persisted twin through the
// public surface — same answers, same uids, same cost receipts, same
// deployment ledger — in both restore modes (owned read and zero-copy mmap),
// and it must STAY indistinguishable under routed inserts/erases after the
// restore (the mmap mode's copy-on-first-write). Corruption is always a
// clean persist::error, never UB — these tests run under ASan in CI.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <string>
#include <vector>

#include "api/registry.h"
#include "api/spatial_registry.h"
#include "api/string_registry.h"
#include "core/level_lists.h"
#include "net/network.h"
#include "persist/replay_log.h"
#include "persist/snapshot.h"
#include "serve/executor.h"
#include "serve/route_cache.h"
#include "util/rng.h"
#include "workloads/workloads.h"

namespace {

using namespace skipweb;
using net::host_id;
using net::network;
using util::rng;
namespace fs = std::filesystem;
namespace wl = skipweb::workloads;

host_id h(std::uint32_t v) { return host_id{v}; }

// Per-test snapshot path, prefixed with the running test's full name so
// tests that run in parallel processes never share a file; removed on the
// way in so build-or-restore tests start from a clean slate.
std::string snap_path(const std::string& name) {
  const auto* info = ::testing::UnitTest::GetInstance()->current_test_info();
  std::string test = std::string(info->test_suite_name()) + "." + info->name();
  std::replace(test.begin(), test.end(), '/', '_');
  const auto p = fs::path(::testing::TempDir()) / ("skipweb_" + test + "_" + name + ".snap");
  std::error_code ec;
  fs::remove(p, ec);
  return p.string();
}

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
      ASSERT_EQ(a.next_key(i, l), b.next_key(i, l)) << i << " level " << l;
      ASSERT_EQ(a.prev_key(i, l), b.prev_key(i, l)) << i << " level " << l;
    }
  }
}

TEST(Persist, LevelListsRoundTripBothModes) {
  rng r(4242);
  auto keys = wl::uniform_keys(3000, r);
  std::sort(keys.begin(), keys.end());
  rng rb(77);
  auto lists =
      core::level_lists::build_from_sorted(keys, rb, core::level_lists::levels_for(keys.size()));
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
// with total_messages().
TEST(Persist, MapRestoredTwinServesConcurrently) {
  rng r(2718);
  const auto keys = wl::uniform_keys(2000, r);
  network net_o(1);
  const auto orig = api::make_index("skipweb1d", keys,
                                    api::index_options{}.seed(8).initial_hosts(8), net_o);
  const auto path = snap_path("served_twin");
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
  if (!has(orig->capabilities(), api::spatial_capability::snapshot)) {
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
  ASSERT_TRUE(orig->supports(api::string_capability::snapshot));

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

// --- layer 4d: hostile host counts in native snapshots ----------------------
//
// A native snapshot's host count is the row count of its "net.memory_rows"
// section. These files copy a real skipweb1d snapshot section by section and
// rewrite only the two network sections.

const std::vector<std::string> kSkipweb1dSections = {
    "meta.backend", "meta.index_kind", "meta.n", "lists.meta", "lists.keys", "lists.bits",
    "lists.uids", "lists.redirect", "lists.alive", "lists.fwd", "lists.bwd", "lists.fwd_rep",
    "lists.bwd_rep", "lists.free", "impl.policy", "impl.rng", "impl.owner", "impl.root_item"};

void rewrite_network(const std::string& from, const std::string& to, std::uint64_t host_count,
                     const std::vector<std::uint64_t>& rows) {
  persist::reader r(from, persist::restore_mode::load);
  persist::writer w(to);
  for (const auto& name : kSkipweb1dSections) {
    const auto v = r.section(name);
    w.add(name, v.data, v.bytes);
  }
  w.add_u64("net.host_count", host_count);
  w.add_vector("net.memory_rows", rows);
  w.finish();
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
