// The failure plane (DESIGN.md §10): fault injection on net::network,
// replicated routing that survives dead hosts, and self-repair under churn.
// Suite names matter: the CI TSan job runs everything matching
// Failure|Repair|Churn, and RepairDaemon.* is the headline repair-racing-
// the-query-plane target.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <mutex>
#include <set>
#include <shared_mutex>
#include <stdexcept>
#include <string>
#include <thread>
#include <tuple>
#include <vector>

#include "api/registry.h"
#include "api/spatial_registry.h"
#include "api/string_registry.h"
#include "core/skip_quadtree.h"
#include "core/skipweb_1d.h"
#include "fault/injector.h"
#include "fault/repair.h"
#include "net/cursor.h"
#include "net/latency.h"
#include "net/network.h"
#include "oracle_common.h"
#include "util/rng.h"
#include "workloads/workloads.h"

namespace {

using namespace skipweb;
using core::skipweb_1d;
using net::host_id;
using net::network;
using testing_support::expect_matches_oracle;
using util::rng;
namespace wl = skipweb::workloads;

host_id h(std::uint32_t v) { return host_id{v}; }

// Kill every 10th host starting at 1 (host 0 stays alive — tests issue from
// it). Returns the victims.
std::vector<host_id> kill_tenth(network& net) {
  std::vector<host_id> dead;
  for (std::uint32_t v = 1; v < net.host_count(); v += 10) {
    net.kill_host(h(v));
    dead.push_back(h(v));
  }
  return dead;
}

// The keys the structure still holds, discovered through the public surface
// (under fault routing, contains() answers against live flanks only).
std::set<std::uint64_t> surviving_keys(const skipweb_1d& web,
                                       const std::vector<std::uint64_t>& keys) {
  std::set<std::uint64_t> out;
  for (const auto k : keys) {
    if (web.contains(k, h(0)).value) out.insert(k);
  }
  return out;
}

// --- zero-fault identity ----------------------------------------------------

// With no fault active, building with replication(k) must not change a
// single routed answer or receipt — replication is pure redundancy, and the
// fault-aware code paths must be completely dormant. Run over every 1-D
// backend: the fault-tolerant ones prove cost-neutrality, the rest prove
// the knob is inert.
TEST(FailureFreeIdentity, ReplicationIsReceiptNeutralForEveryBackend) {
  rng r(4801);
  const auto keys = wl::uniform_keys(192, r);
  const auto probes = wl::query_stream(keys, 120, 4802);
  for (const auto& name : api::registered_backends()) {
    network plain_net(1), repl_net(1);
    const auto opts = api::index_options{}.seed(55).initial_hosts(8).bucket_size(16).buckets(24);
    const auto plain = api::make_index(name, keys, opts, plain_net);
    const auto repl =
        api::make_index(name, keys, api::index_options(opts).replication(3), repl_net);
    std::uint32_t origin = 0;
    for (const auto q : probes) {
      const auto a = plain->nearest(q, h(origin));
      const auto b = repl->nearest(q, h(origin));
      origin = static_cast<std::uint32_t>((origin + 1) % plain_net.host_count());
      ASSERT_EQ(a.has_pred, b.has_pred) << name;
      ASSERT_EQ(a.has_succ, b.has_succ) << name;
      if (a.has_pred) {
        ASSERT_EQ(a.pred, b.pred) << name;
      }
      if (a.has_succ) {
        ASSERT_EQ(a.succ, b.succ) << name;
      }
      ASSERT_EQ(a.stats, b.stats) << name << " q=" << q;  // receipts, byte for byte
      ASSERT_FALSE(b.stats.failed) << name;
    }
    // Range sweeps too: a replicated sweep checks its next item's liveness
    // without a probe on a healthy network.
    std::vector<std::uint64_t> sorted = keys;
    std::sort(sorted.begin(), sorted.end());
    for (std::size_t i = 0; i + 12 < sorted.size(); i += 23) {
      for (const std::size_t limit : {std::size_t{0}, std::size_t{4}}) {
        const auto o = h(static_cast<std::uint32_t>(i % plain_net.host_count()));
        const auto a = plain->range(sorted[i] - 1, sorted[i + 12], o, limit);
        const auto b = repl->range(sorted[i] - 1, sorted[i + 12], o, limit);
        ASSERT_EQ(a.value, b.value) << name << " range " << i;
        ASSERT_EQ(a.stats, b.stats) << name << " range " << i << " limit " << limit;
        ASSERT_FALSE(b.stats.failed) << name;
      }
    }
  }
}

// A dead host that no route touches must cost nothing: with k = 3 and the
// tower of the largest key killed, every range over the lower half of the
// keys answers exactly like a healthy twin, receipt for receipt. The sweep
// checks hi, the limit and the deadline before it hops to the next live
// item, so it never visits an item it does not report.
TEST(FailureFreeIdentity, DormantFaultLeavesRangeReceiptsUnchanged) {
  rng r(4806);
  const auto keys = wl::uniform_keys(256, r);
  std::vector<std::uint64_t> sorted = keys;
  std::sort(sorted.begin(), sorted.end());
  network healthy_net(keys.size()), faulty_net(keys.size());
  const skipweb_1d healthy(keys, 23, healthy_net, skipweb_1d::placement::tower, 3);
  const skipweb_1d faulty(keys, 23, faulty_net, skipweb_1d::placement::tower, 3);
  int top = faulty.lists().any_alive();
  for (int i = 0; i < static_cast<int>(faulty.lists().arena_size()); ++i) {
    if (faulty.lists().alive(i) && faulty.lists().key(i) > faulty.lists().key(top)) top = i;
  }
  faulty_net.kill_host(faulty.host_of(top, 0));
  ASSERT_TRUE(faulty_net.faults_active());
  for (std::size_t i = 0; i + 9 < sorted.size() / 2; i += 3) {
    for (const std::size_t limit : {std::size_t{0}, std::size_t{5}}) {
      const auto a = healthy.range(sorted[i], sorted[i + 9], h(0), limit);
      const auto b = faulty.range(sorted[i], sorted[i + 9], h(0), limit);
      ASSERT_EQ(a.value, b.value) << "range " << i << " limit " << limit;
      ASSERT_EQ(a.stats, b.stats) << "range " << i << " limit " << limit;
      ASSERT_FALSE(b.stats.failed);
    }
  }
}

TEST(FailureFreeIdentity, SpatialReplicationIsReceiptNeutralForEveryBackend) {
  rng r(4803);
  const auto pts2 = wl::spatial_points(2, 160, false, r);
  const auto pts3 = wl::spatial_points(3, 160, false, r);
  for (const auto& name : api::registered_spatial_backends()) {
    const auto& pts = api::spatial_backend_dims(name) == 3 ? pts3 : pts2;
    const auto probes =
        wl::spatial_query_stream(api::spatial_backend_dims(name), 100, 4804);
    network plain_net(1), repl_net(1);
    const auto opts = api::index_options{}.seed(56).initial_hosts(8);
    const auto plain = api::make_spatial_index(name, pts, opts, plain_net);
    const auto repl =
        api::make_spatial_index(name, pts, api::index_options(opts).replication(3), repl_net);
    std::uint32_t origin = 0;
    for (const auto& q : probes) {
      const auto a = plain->locate(q, h(origin));
      const auto b = repl->locate(q, h(origin));
      origin = static_cast<std::uint32_t>((origin + 1) % plain_net.host_count());
      ASSERT_EQ(a.found, b.found) << name;
      ASSERT_EQ(a.cell, b.cell) << name;
      ASSERT_EQ(a.scale, b.scale) << name;
      ASSERT_EQ(a.stats, b.stats) << name;
      ASSERT_FALSE(b.stats.failed) << name;
    }
  }
}

TEST(FailureFreeIdentity, StringReplicationIsReceiptNeutralForEveryBackend) {
  // The replication knob composes with the string plane without perturbing a
  // single receipt on a healthy network — for every registered text backend.
  rng r(4821);
  const auto keys = wl::url_paths(160, r);
  const auto probes = wl::string_query_stream(keys, 90, 4822);
  const auto prefixes = wl::prefix_stream(keys, 30, 4822);
  for (const auto& name : api::registered_string_backends()) {
    network plain_net(1), repl_net(1);
    const auto opts = api::index_options{}.seed(57).initial_hosts(8);
    const auto plain = api::make_string_index(name, keys, opts, plain_net);
    const auto repl =
        api::make_string_index(name, keys, api::index_options(opts).replication(3), repl_net);
    std::uint32_t origin = 0;
    for (const auto& q : probes) {
      const auto a = plain->contains(q, h(origin));
      const auto b = repl->contains(q, h(origin));
      origin = static_cast<std::uint32_t>((origin + 1) % plain_net.host_count());
      ASSERT_EQ(a.value, b.value) << name << " q=" << q;
      ASSERT_EQ(a.stats, b.stats) << name << " q=" << q;
      ASSERT_FALSE(b.stats.failed) << name;
    }
    for (const auto& p : prefixes) {
      const auto a = plain->prefix_match(p, h(0));
      const auto b = repl->prefix_match(p, h(0));
      ASSERT_EQ(a.value, b.value) << name << " p=" << p;
      ASSERT_EQ(a.stats, b.stats) << name << " p=" << p;
      const auto ta = plain->top_k(p, 4, h(0));
      const auto tb = repl->top_k(p, 4, h(0));
      ASSERT_EQ(ta.value, tb.value) << name << " p=" << p;
      ASSERT_EQ(ta.stats, tb.stats) << name << " p=" << p;
    }
    const auto terms = api::string_tokens(keys[5]);
    ASSERT_EQ(plain->intersect(terms, h(0)).value, repl->intersect(terms, h(0)).value) << name;
  }
}

// Through the base every kind shares, three facts about fault tolerance hold
// together or not at all: the fault_tolerant capability, a repair_step that
// runs instead of throwing unsupported_operation, and replication() > 0.
// Returns whether they hold.
bool fault_surface_agrees(api::index_base& idx) {
  const bool advertised = idx.supports(api::capability::fault_tolerant);
  bool repairs = true;
  try {
    (void)idx.repair_step(h(0));
  } catch (const api::unsupported_operation&) {
    repairs = false;
  }
  EXPECT_EQ(repairs, advertised) << idx.backend();
  EXPECT_EQ(idx.replication() > 0, advertised) << idx.backend();
  return advertised;
}

TEST(FailureFreeIdentity, CapabilityAdvertisedOnlyWhenReplicated) {
  // Every registered backend of every kind, built with replication 0 and 2:
  // only the backends that install replicas advertise fault tolerance, and
  // only when asked to.
  rng r(4805);
  const auto keys = wl::uniform_keys(64, r);
  const auto pts2 = wl::spatial_points(2, 64, false, r);
  const auto pts3 = wl::spatial_points(3, 64, false, r);
  const auto strs = wl::url_paths(64, r);
  for (const std::size_t k : {0, 2}) {
    const auto opts = api::index_options{}.seed(5).replication(k);
    std::set<std::string> tolerant;
    const auto note = [&](api::index_base& idx) {
      if (fault_surface_agrees(idx)) tolerant.insert(std::string(idx.backend()));
    };
    for (const auto& name : api::registered_backends()) {
      network net(1);
      note(*api::make_index(name, keys, opts, net));
    }
    for (const auto& name : api::registered_spatial_backends()) {
      network net(1);
      note(*api::make_spatial_index(name, api::spatial_backend_dims(name) == 3 ? pts3 : pts2,
                                    opts, net));
    }
    for (const auto& name : api::registered_string_backends()) {
      network net(1);
      note(*api::make_string_index(name, strs, opts, net));
    }
    const std::set<std::string> replicated{"skipweb1d", "skip_quadtree2", "skip_quadtree3"};
    EXPECT_EQ(tolerant, k == 0 ? std::set<std::string>{} : replicated) << "replication " << k;
  }
}

// --- fault injection on the network itself ----------------------------------

TEST(FailureInjection, KillReviveAndProfileSkipDeadHosts) {
  network net(6);
  // Record some traffic so the profile has something to report; alternating
  // hops make host 5 unambiguously the busiest.
  {
    net::cursor cur(net, h(0));
    cur.move_to(h(5));
    cur.move_to(h(1));
    cur.move_to(h(5));
    cur.move_to(h(2));
    cur.move_to(h(5));
  }
  const auto before = net.congestion_profile();
  EXPECT_EQ(before.hosts, 6u);
  EXPECT_EQ(before.hosts_killed, 0u);

  net.kill_host(h(5));
  EXPECT_FALSE(net.host_alive(h(5)));
  EXPECT_EQ(net.live_host_count(), 5u);
  const auto after = net.congestion_profile();
  EXPECT_EQ(after.hosts, 5u);
  EXPECT_EQ(after.hosts_killed, 1u);
  // The dead slot leaves the live aggregates but not the grand total: the
  // ledger still reconciles with total_messages().
  EXPECT_EQ(after.total_visits, before.total_visits);
  EXPECT_LT(after.max_visits, before.max_visits);

  net.revive_host(h(5));
  EXPECT_TRUE(net.host_alive(h(5)));
  EXPECT_EQ(net.congestion_profile().hosts, 6u);
  EXPECT_FALSE(net.faults_active());
}

TEST(FailureInjection, PartitionsCutReachabilityWithoutKilling) {
  network net(4);
  EXPECT_TRUE(net.reachable(h(0), h(3)));
  net.set_partitions({{h(0), h(1)}, {h(2), h(3)}});
  EXPECT_TRUE(net.faults_active());
  EXPECT_TRUE(net.reachable(h(0), h(1)));
  EXPECT_FALSE(net.reachable(h(1), h(2)));
  EXPECT_TRUE(net.host_alive(h(2)));  // partitioned, not dead
  net.clear_partitions();
  EXPECT_FALSE(net.faults_active());
  EXPECT_TRUE(net.reachable(h(1), h(2)));
}

TEST(FailureInjection, MessageLossIsChargedAndDeterministic) {
  rng r(4811);
  const auto keys = wl::uniform_keys(128, r);
  const auto probes = wl::query_stream(keys, 60, 4812);

  network net(static_cast<std::size_t>(keys.size()));
  skipweb_1d web(keys, 7, net, skipweb_1d::placement::tower);
  std::vector<api::op_stats> clean;
  for (const auto q : probes) clean.push_back(web.nearest(q, h(0)).stats);

  net.set_message_loss(0.25, 99);
  EXPECT_TRUE(net.faults_active());
  const std::set<std::uint64_t> oracle(keys.begin(), keys.end());
  std::uint64_t lost_retries = 0;
  for (std::size_t i = 0; i < probes.size(); ++i) {
    const auto a = web.nearest(probes[i], h(0));
    const auto b = web.nearest(probes[i], h(0));
    expect_matches_oracle(a, oracle, probes[i]);  // retries never change answers
    EXPECT_EQ(a.stats, b.stats);                  // loss draws are replayable
    EXPECT_GE(a.stats.messages, clean[i].messages);
    lost_retries += a.stats.messages - clean[i].messages;
  }
  EXPECT_GT(lost_retries, 0u);  // at p = 0.25 some attempt was dropped
  net.set_message_loss(0.0, 0);
  EXPECT_FALSE(net.faults_active());
}

TEST(FailureInjection, StringMessageLossIsChargedAndDeterministic) {
  // Text ops ride the same priced cursor plane, so lossy links surface the
  // same way: answers never change, receipts grow by the replayable retries.
  rng r(4815);
  const auto keys = wl::dictionary_words(150, r);
  const auto probes = wl::string_query_stream(keys, 50, 4816);
  const auto prefixes = wl::prefix_stream(keys, 15, 4816);

  for (const auto& name : api::registered_string_backends()) {
    network net(1);
    const auto idx = api::make_string_index(
        name, keys, api::index_options{}.seed(58).initial_hosts(8), net);
    std::vector<api::op_stats> clean;
    std::vector<bool> clean_hits;
    for (const auto& q : probes) {
      const auto res = idx->contains(q, h(0));
      clean.push_back(res.stats);
      clean_hits.push_back(res.value);
    }
    std::vector<std::vector<std::string>> clean_prefix;
    for (const auto& p : prefixes) clean_prefix.push_back(idx->prefix_match(p, h(0)).value);

    net.set_message_loss(0.25, 99);
    EXPECT_TRUE(net.faults_active());
    std::uint64_t lost_retries = 0;
    for (std::size_t i = 0; i < probes.size(); ++i) {
      const auto a = idx->contains(probes[i], h(0));
      const auto b = idx->contains(probes[i], h(0));
      EXPECT_EQ(a.value, clean_hits[i]) << name;  // retries never change answers
      EXPECT_EQ(a.stats, b.stats) << name;        // loss draws are replayable
      EXPECT_GE(a.stats.messages, clean[i].messages) << name;
      lost_retries += a.stats.messages - clean[i].messages;
    }
    for (std::size_t i = 0; i < prefixes.size(); ++i) {
      EXPECT_EQ(idx->prefix_match(prefixes[i], h(0)).value, clean_prefix[i]) << name;
    }
    EXPECT_GT(lost_retries, 0u) << name;  // at p = 0.25 some attempt was dropped
    net.set_message_loss(0.0, 0);
    EXPECT_FALSE(net.faults_active());
  }
}

// Fault-unaware structures keep their answers under kills (the simulation
// routes mechanically through ghost hops) but every op that leaned on a dead
// host says so — the honesty contract the availability metrics build on.
TEST(FailureGhostHops, UnawareBackendFlagsDeadRoutes) {
  rng r(4821);
  const auto keys = wl::uniform_keys(256, r);
  const auto probes = wl::query_stream(keys, 150, 4822);
  network net(1);
  const auto idx =
      api::make_index("skip_graph", keys, api::index_options{}.seed(77).initial_hosts(64), net);
  std::vector<api::nn_result> clean;
  for (const auto q : probes) clean.push_back(idx->nearest(q, h(0)));

  kill_tenth(net);
  std::size_t failed = 0;
  for (std::size_t i = 0; i < probes.size(); ++i) {
    const auto fr = idx->nearest(probes[i], h(0));
    EXPECT_EQ(fr.has_pred, clean[i].has_pred);
    EXPECT_EQ(fr.has_succ, clean[i].has_succ);
    if (fr.has_pred) {
      EXPECT_EQ(fr.pred, clean[i].pred);
    }
    if (fr.has_succ) {
      EXPECT_EQ(fr.succ, clean[i].succ);
    }
    if (fr.stats.failed) ++failed;
  }
  EXPECT_GT(failed, 0u);  // 10% dead hosts cannot go unnoticed
}

// --- replicated routing (1-D) -----------------------------------------------

TEST(Replication1D, RoutesAroundTenPercentDeadHosts) {
  rng r(4831);
  const auto keys = wl::uniform_keys(512, r);
  const auto probes = wl::query_stream(keys, 300, 4832);
  network net(keys.size());
  skipweb_1d web(keys, 21, net, skipweb_1d::placement::tower, 3);
  EXPECT_EQ(web.replication(), 3u);

  kill_tenth(net);
  const auto live = surviving_keys(web, keys);
  EXPECT_LT(live.size(), keys.size());  // some towers really are dead
  EXPECT_GT(live.size(), keys.size() * 8 / 10);

  std::size_t failed = 0;
  for (const auto q : probes) {
    const auto res = web.nearest(q, h(0));
    if (res.stats.failed) {
      ++failed;
      continue;
    }
    // An available answer is correct with respect to the live key set.
    expect_matches_oracle(res, live, q);
  }
  // k = 3 replicas tolerate 3 consecutive dead towers; at 10% killed the
  // chance of a blocked route is ~1e-4 per position.
  EXPECT_GE(static_cast<double>(probes.size() - failed),
            0.99 * static_cast<double>(probes.size()));

  // Batched fault-mode lookups stay identical to serial ones.
  const std::vector<std::uint64_t> batch(probes.begin(), probes.begin() + 50);
  const auto batched = web.nearest_batch(batch, h(0));
  for (std::size_t i = 0; i < batch.size(); ++i) {
    const auto serial = web.nearest(batch[i], h(0));
    EXPECT_EQ(batched[i].stats, serial.stats);
    if (serial.has_pred) {
      EXPECT_EQ(batched[i].pred, serial.pred);
    }
    if (serial.has_succ) {
      EXPECT_EQ(batched[i].succ, serial.succ);
    }
  }

  // Range queries walk the live base list.
  const auto lo = *live.begin();
  const auto hi = *std::prev(live.end());
  const auto rr = web.range(lo, hi, h(0), 0);
  if (!rr.stats.failed) {
    EXPECT_EQ(rr.value.size(), live.size());
  }
}

// A replicated route steps over a dead run on the level-0 list: each dead
// candidate costs one timed-out probe and its retry backoff, and a run longer
// than k leaves the route without a live flank. Runs of 1, 2, 3 and 4 dead
// towers (placed by key rank) lie across a k = 3 skipweb1d; probes on both
// sides of each run and ranges across them must answer for the live keys and
// fail exactly where the route meets the run of 4, and their summed messages,
// retries and simulated time are pinned constants: how the walk reads the
// successor list may change, what it charges may not.
TEST(Replication1D, DeadRunReceiptsPinned) {
  rng r(4841);
  auto keys = wl::uniform_keys(512, r);
  network net(keys.size());
  const skipweb_1d web(keys, 23, net, skipweb_1d::placement::tower, 3);
  std::sort(keys.begin(), keys.end());
  struct dead_run {
    std::size_t first, length;  // by key rank
  };
  const dead_run runs[] = {{100, 1}, {200, 2}, {300, 3}, {400, 4}};
  std::set<std::uint64_t> live(keys.begin(), keys.end());
  for (const auto& [first, length] : runs) {
    for (std::size_t i = first; i < first + length; ++i) {
      // The bulk build puts the i-th smallest key in slot i.
      ASSERT_EQ(web.lists().key(static_cast<int>(i)), keys[i]);
      net.kill_host(web.host_of(static_cast<int>(i), 0));
      live.erase(keys[i]);
    }
  }
  net.set_latency_model(net::latency_model::lognormal(1000, 0.5, 7));
  api::op_stats sum;
  for (const auto& [first, length] : runs) {
    const bool over = length > web.replication();
    // Every key from two before the run to two after it, and the value just
    // above each.
    for (std::size_t i = first - 2; i < first + length + 2; ++i) {
      for (const std::uint64_t q : {keys[i], keys[i] + 1}) {
        const auto res = web.nearest(q, h(0));
        sum += res.stats;
        // From the run's left neighbour on, the successor (or the level-0
        // walk to the probe) lies past the run, beyond the k + 1 neighbours
        // a list names.
        EXPECT_EQ(res.stats.failed, over && q >= keys[first - 1]) << length << " " << i;
        if (!res.stats.failed) expect_matches_oracle(res, live, q);
      }
    }
    const std::uint64_t lo = keys[first - 3], hi = keys[first + length + 2];
    const auto rr = web.range(lo, hi, h(0), 0);
    sum += rr.stats;
    EXPECT_EQ(rr.stats.failed, over) << length;
    if (!over) {
      EXPECT_EQ(rr.value, std::vector<std::uint64_t>(live.lower_bound(lo), live.upper_bound(hi)));
    }
  }
  EXPECT_EQ(sum.messages, 684u);
  EXPECT_EQ(sum.retries, 188u);
  EXPECT_EQ(sum.sim_latency_ns, 3134945u);
}

// --- plane combinations (1-D) ----------------------------------------------

// The receipts of a run of queries, summed to reconcile with the ledger:
// reset_traffic() first, add() every op, then the ledger must agree on
// messages and simulated time — probes, loss retries and backoffs included.
struct receipt_tally {
  std::uint64_t messages = 0, sim_ns = 0;
  void add(const api::op_stats& s) {
    messages += s.messages;
    sim_ns += s.sim_latency_ns;
  }
  void expect_ledger(const network& net) const {
    EXPECT_GT(messages, 0u);
    EXPECT_EQ(messages, net.total_messages());
    EXPECT_EQ(sim_ns, net.total_sim_ns());
  }
};

// Every skipweb_1d layout under every fault and latency plane, against a
// brute-force oracle. Replicated routes answer for the keys whose towers are
// reachable from the origin; unreplicated ones route through dead hosts as
// ghost hops and answer for every key, flagging the op failed.
enum class layout_1d { tower_k0, tower_k3, balanced, bucket };
enum class plane_1d {
  healthy,
  kill10,
  partition,
  loss,
  deadline,
  detours,
  kill_loss,
  kill_loss_latency
};

class PlaneCombinations1D
    : public ::testing::TestWithParam<std::tuple<layout_1d, plane_1d>> {};

TEST_P(PlaneCombinations1D, AnswersMatchOracle) {
  const auto [layout, plane] = GetParam();
  rng r(4901);
  const auto keys = wl::uniform_keys(256, r);
  network net(64);
  skipweb_1d web = layout == layout_1d::bucket
                       ? skipweb_1d(keys, 71, net, skipweb_1d::bucket{16})
                   : layout == layout_1d::balanced
                       ? skipweb_1d(keys, 71, net, skipweb_1d::placement::balanced)
                       : skipweb_1d(keys, 71, net, skipweb_1d::placement::tower,
                                    layout == layout_1d::tower_k3 ? 3 : 0);
  const std::uint32_t hosts = static_cast<std::uint32_t>(net.host_count());
  const bool lossy = plane == plane_1d::kill_loss || plane == plane_1d::kill_loss_latency;
  const bool kills = plane == plane_1d::kill10 || lossy;
  if (kills) kill_tenth(net);
  if (plane == plane_1d::partition) {
    std::vector<host_id> cut;
    for (std::uint32_t v = 3; v < hosts; v += 7) cut.push_back(h(v));
    net.set_partitions({cut});
  }
  if (plane == plane_1d::loss || lossy) net.set_message_loss(0.2, 9);
  // Latency with faults prices probe timeouts and retry backoffs too.
  if (plane == plane_1d::deadline || plane == plane_1d::detours ||
      plane == plane_1d::kill_loss_latency) {
    net.set_latency_model(net::latency_model::lognormal(1000, 0.5, 7));
  }
  if (plane == plane_1d::deadline) net.set_op_deadline(14000);
  if (plane == plane_1d::detours) {
    for (std::uint32_t v = 2; v < hosts; v += 9) net.set_host_slowdown(h(v), 25.0);
    net.set_slow_host_threshold(10.0);
  }

  const auto& lists = web.lists();
  std::set<std::uint64_t> oracle;
  for (int i = 0; i < static_cast<int>(lists.arena_size()); ++i) {
    if (!lists.alive(i)) continue;
    if (web.replication() == 0 || net.reachable(h(0), web.host_of(i, 0))) {
      oracle.insert(lists.key(i));
    }
  }
  std::size_t failed = 0;
  net.reset_traffic();
  receipt_tally tally;
  rng pr(4902);
  const auto probes = wl::probe_keys(keys, 150, pr);
  for (const auto q : probes) {
    const auto res = web.nearest(q, h(0));
    tally.add(res.stats);
    failed += res.stats.failed ? 1 : 0;
    if (!res.stats.failed && !res.stats.degraded) expect_matches_oracle(res, oracle, q);
    const auto c = web.contains(q, h(0));
    tally.add(c.stats);
    if (!c.stats.failed && !c.stats.degraded) {
      EXPECT_EQ(c.value, oracle.count(q) == 1) << q;
    }
  }
  std::vector<std::uint64_t> sorted(keys);
  std::sort(sorted.begin(), sorted.end());
  for (std::size_t i = 0; i + 20 < sorted.size(); i += 9) {
    const std::uint64_t lo = sorted[i] - (i % 2);
    const std::uint64_t hi = sorted[i + 4 + i % 17];
    for (const std::size_t limit : {std::size_t{0}, std::size_t{5}}) {
      const auto res = web.range(lo, hi, h(0), limit);
      tally.add(res.stats);
      failed += res.stats.failed ? 1 : 0;
      if (res.stats.failed) continue;
      std::vector<std::uint64_t> want(oracle.lower_bound(lo), oracle.upper_bound(hi));
      if (limit != 0 && want.size() > limit) want.resize(limit);
      if (res.stats.degraded) {
        // An honest prefix: ascending keys of the oracle's answer.
        ASSERT_LE(res.value.size(), want.size()) << lo;
        EXPECT_TRUE(std::equal(res.value.begin(), res.value.end(), want.begin())) << lo;
      } else {
        EXPECT_EQ(res.value, want) << "lo=" << lo << " hi=" << hi << " limit=" << limit;
      }
    }
  }
  if (kills && web.replication() == 0) {
    EXPECT_GT(failed, 0u);  // ghost hops are flagged
  }

  const std::vector<std::uint64_t> batch(probes.begin(), probes.begin() + 60);
  const auto batched = web.nearest_batch(batch, h(0));
  for (std::size_t i = 0; i < batch.size(); ++i) {
    const auto serial = web.nearest(batch[i], h(0));
    tally.add(batched[i].stats);
    tally.add(serial.stats);
    ASSERT_EQ(batched[i].has_pred, serial.has_pred) << i;
    ASSERT_EQ(batched[i].has_succ, serial.has_succ) << i;
    ASSERT_EQ(batched[i].pred, serial.pred) << i;
    ASSERT_EQ(batched[i].succ, serial.succ) << i;
    ASSERT_EQ(batched[i].stats, serial.stats) << i;
  }
  tally.expect_ledger(net);

  if (web.replication() > 0) {
    while (web.repair_step(h(0)).value > 0) ASSERT_TRUE(lists.check_invariants());
    ASSERT_FALSE(web.needs_repair());
  }
  // A partition is never repaired, and a splice needs direct flanks, not
  // merely reachable ones: replicated updates wait for the partition to heal.
  if (plane == plane_1d::partition && web.replication() > 0) return;
  rng ur(4903);
  for (int u = 0; u < 20; ++u) {
    std::uint64_t k = ur.uniform_u64(0, (std::uint64_t{1} << 62) - 1);
    while (std::binary_search(sorted.begin(), sorted.end(), k)) ++k;
    (void)web.insert(k, h(0));
    (void)web.erase(k, h(0));
  }
  EXPECT_TRUE(lists.check_invariants());
  if (layout == layout_1d::bucket) {
    EXPECT_TRUE(web.check_block_invariants());
  }
}

std::string plane_case_name(
    const ::testing::TestParamInfo<std::tuple<layout_1d, plane_1d>>& info) {
  static const char* const layouts[] = {"tower_k0", "tower_k3", "balanced", "bucket"};
  static const char* const planes[] = {"healthy", "kill10",  "partition", "loss",
                                       "deadline", "detours", "kill_loss",
                                       "kill_loss_latency"};
  return std::string(layouts[static_cast<int>(std::get<0>(info.param))]) + "_" +
         planes[static_cast<int>(std::get<1>(info.param))];
}

INSTANTIATE_TEST_SUITE_P(
    Planes, PlaneCombinations1D,
    ::testing::Combine(::testing::Values(layout_1d::tower_k0, layout_1d::tower_k3,
                                         layout_1d::balanced, layout_1d::bucket),
                       ::testing::Values(plane_1d::healthy, plane_1d::kill10,
                                         plane_1d::partition, plane_1d::loss,
                                         plane_1d::deadline, plane_1d::detours,
                                         plane_1d::kill_loss,
                                         plane_1d::kill_loss_latency)),
    plane_case_name);

// --- self-repair (1-D) ------------------------------------------------------

TEST(Repair1D, StepsRestoreInvariantsAndAvailability) {
  rng r(4841);
  const auto keys = wl::uniform_keys(384, r);
  network net(keys.size());
  skipweb_1d web(keys, 31, net, skipweb_1d::placement::tower, 3);

  kill_tenth(net);
  ASSERT_TRUE(web.needs_repair());
  std::size_t repaired = 0, rounds = 0;
  for (;;) {
    const auto step = web.repair_step(h(0));
    ++rounds;
    ASSERT_TRUE(web.lists().check_invariants()) << "after repair round " << rounds;
    if (step.value == 0) break;
    repaired += step.value;
    EXPECT_GT(step.stats.messages, 0u);  // detection probes + relinks are priced
  }
  EXPECT_GT(repaired, 0u);
  EXPECT_FALSE(web.needs_repair());

  // Fully repaired: every stored key is live-owned, queries never fail, and
  // answers match the surviving key set exactly.
  const auto live = surviving_keys(web, keys);
  EXPECT_EQ(live.size(), web.size());
  const auto probes = wl::query_stream(keys, 200, 4842);
  for (const auto q : probes) {
    const auto res = web.nearest(q, h(0));
    EXPECT_FALSE(res.stats.failed);
    expect_matches_oracle(res, live, q);
  }
}

TEST(Repair1D, RegistryDrivesRepairToQuiescence) {
  rng r(4851);
  const auto keys = wl::uniform_keys(256, r);
  network net(1);
  auto idx = api::make_index("skipweb1d", keys,
                             api::index_options{}.seed(61).replication(3), net);
  ASSERT_TRUE(idx->supports(api::capability::fault_tolerant));
  kill_tenth(net);
  const auto rep = fault::repair_to_quiescence(*idx, h(0));
  EXPECT_GT(rep.repaired, 0u);
  EXPECT_EQ(rep.rounds, rep.repaired + 1);  // one record per step + the clean round
  EXPECT_GT(rep.cost.messages, 0u);
  // Quiescent: one more step is free of work.
  EXPECT_EQ(idx->repair_step(h(0)).value, 0u);
}

// --- self-repair (spatial) --------------------------------------------------

TEST(RepairQuadtree, RehomesRecordsAndKeepsLedgerExact) {
  rng r(4861);
  const auto pts = wl::uniform_points<2>(256, r);
  network net(256);
  core::skip_quadtree<2> qt(pts, 41, net, 3);
  ASSERT_TRUE(qt.check_invariants());

  // Fault-free probes for the byte-identity check below.
  std::vector<core::skip_quadtree<2>::locate_result> clean;
  for (const auto& p : pts) clean.push_back(qt.locate(p, h(0)));

  kill_tenth(net);
  ASSERT_TRUE(qt.check_invariants());  // kills move no memory
  std::size_t pre_failed = 0;
  net.reset_traffic();
  receipt_tally tally;
  for (std::size_t i = 0; i < pts.size(); ++i) {
    const auto res = qt.locate(pts[i], h(0));
    tally.add(res.stats);
    // Ghost/replica hops never change the located cell.
    EXPECT_EQ(res.cell.corner, clean[i].cell.corner);
    EXPECT_TRUE(res.is_point);
    if (res.stats.failed) ++pre_failed;
  }
  tally.expect_ledger(net);

  std::size_t repaired = 0, rounds = 0;
  ASSERT_TRUE(qt.needs_repair());
  for (;;) {
    const auto step = qt.repair_step(h(0));
    ++rounds;
    ASSERT_TRUE(qt.check_invariants()) << "after repair round " << rounds;
    if (step.value == 0) break;
    repaired += step.value;
    EXPECT_GT(step.stats.messages, 0u);
  }
  EXPECT_GT(repaired, 0u);
  EXPECT_FALSE(qt.needs_repair());

  // Re-homed: locate routes entirely over live replicas.
  std::size_t post_failed = 0;
  for (const auto& p : pts) {
    const auto res = qt.locate(p, h(0));
    EXPECT_TRUE(res.is_point);
    if (res.stats.failed) ++post_failed;
  }
  EXPECT_LE(post_failed, pre_failed);
  EXPECT_GE(static_cast<double>(pts.size() - post_failed),
            0.99 * static_cast<double>(pts.size()));

  // Structural edits on the repaired structure keep the ledger exact.
  auto extra = wl::uniform_points<2>(8, r);
  for (const auto& p : extra) {
    (void)qt.insert(p, h(0));
    ASSERT_TRUE(qt.check_invariants());
  }
  for (const auto& p : extra) {
    (void)qt.erase(p, h(0));
    ASSERT_TRUE(qt.check_invariants());
  }
}

TEST(RepairQuadtree, UnreplicatedRunsFailMeasurablyAtTenPercent) {
  rng r(4871);
  const auto pts = wl::uniform_points<2>(256, r);
  network net(256);
  core::skip_quadtree<2> qt(pts, 41, net);  // replication off
  kill_tenth(net);
  std::size_t failed = 0;
  for (const auto& p : pts) {
    if (qt.locate(p, h(0)).stats.failed) ++failed;
  }
  EXPECT_GT(failed, 0u);
}

// --- sustained churn --------------------------------------------------------

TEST(ChurnSustained, KillRepairUpdateCyclesHoldInvariants) {
  rng r(4881);
  auto keys = wl::uniform_keys(256, r);
  network net(keys.size());
  skipweb_1d web(keys, 51, net, skipweb_1d::placement::tower, 3);

  const std::size_t ops = 120;
  fault::injector inj(net, wl::churn_schedule(net.host_count(), ops, 0.08, 0.04, 2, 4882));
  std::set<std::uint64_t> oracle(keys.begin(), keys.end());
  rng opr(4883);
  for (std::size_t op = 0; op < ops; ++op) {
    if (inj.advance_to(op) > 0 && web.needs_repair()) {
      while (web.repair_step(h(0)).value > 0) {
        ASSERT_TRUE(web.lists().check_invariants());
      }
      // Repair dropped the dead-owned keys; resync the oracle through the
      // public surface.
      for (auto it = oracle.begin(); it != oracle.end();) {
        if (!web.contains(*it, h(0)).value) it = oracle.erase(it);
        else ++it;
      }
    }
    switch (op % 3) {
      case 0: {  // insert a fresh key
        const auto k = opr.uniform_u64(0, (std::uint64_t{1} << 62) - 1);
        if (oracle.insert(k).second) (void)web.insert(k, h(0));
        break;
      }
      case 1: {  // erase a surviving key
        if (oracle.size() > 2) {
          auto it = oracle.begin();
          std::advance(it, static_cast<std::ptrdiff_t>(opr.index(oracle.size())));
          (void)web.erase(*it, h(0));
          oracle.erase(it);
        }
        break;
      }
      default: {  // query between ops
        const auto q = opr.uniform_u64(0, (std::uint64_t{1} << 62) - 1);
        const auto res = web.nearest(q, h(0));
        EXPECT_FALSE(res.stats.failed);
        expect_matches_oracle(res, oracle, q);
        break;
      }
    }
  }
  inj.finish();
  while (web.needs_repair() && web.repair_step(h(0)).value > 0) {
  }
  ASSERT_TRUE(web.lists().check_invariants());
  for (auto it = oracle.begin(); it != oracle.end();) {
    if (!web.contains(*it, h(0)).value) it = oracle.erase(it);
    else ++it;
  }
  EXPECT_EQ(oracle.size(), web.size());
  const auto probes = wl::query_stream({oracle.begin(), oracle.end()}, 100, 4884);
  for (const auto q : probes) {
    const auto res = web.nearest(q, h(0));
    EXPECT_FALSE(res.stats.failed);
    expect_matches_oracle(res, oracle, q);
  }
}

TEST(ChurnSustained, InjectorReplaysTheScheduleExactly) {
  network net(32);
  const auto events = wl::churn_schedule(32, 50, 0.3, 0.15, 2, 7);
  fault::injector inj(net, events);
  std::size_t fired = 0;
  for (std::size_t op = 0; op < 50; ++op) fired += inj.advance_to(op);
  fired += inj.finish();
  EXPECT_EQ(fired, events.size());
  EXPECT_EQ(inj.remaining(), 0u);
  // The network's liveness equals the schedule's net effect.
  std::size_t killed = 0;
  std::vector<bool> dead(32, false);
  for (const auto& e : events) {
    dead[e.host.value] = e.act == wl::churn_event::action::kill;
  }
  for (const auto d : dead) killed += d ? 1u : 0u;
  EXPECT_EQ(net.hosts_killed(), killed);
}

// --- background repair racing the query plane (the TSan headline) -----------

TEST(RepairDaemon, BackgroundRepairRacesQueriesCleanly) {
  rng r(4891);
  const auto keys = wl::uniform_keys(256, r);
  network net(keys.size());
  skipweb_1d web(keys, 61, net, skipweb_1d::placement::tower, 3);
  kill_tenth(net);
  ASSERT_TRUE(web.needs_repair());

  fault::repair_daemon daemon([&web] { return web.repair_step(h(0)).value; },
                              std::chrono::microseconds(50));
  const auto probes = wl::query_stream(keys, 400, 4892);
  constexpr std::size_t threads = 4;
  daemon.start();
  // The 400 queries can finish before a loaded machine first schedules the
  // daemon thread, and a daemon stopped then has run no round: let it run
  // its first round (10 s at most) before the queries start racing it.
  const auto first_round_by = std::chrono::steady_clock::now() + std::chrono::seconds(10);
  while (daemon.snapshot().rounds == 0 && std::chrono::steady_clock::now() < first_round_by) {
    std::this_thread::yield();
  }
  {
    std::vector<std::thread> workers;
    workers.reserve(threads);
    for (std::size_t t = 0; t < threads; ++t) {
      workers.emplace_back([&, t] {
        // Each op takes the read side of the daemon's gate: queries run
        // concurrently with each other, never with a repair step.
        for (std::size_t i = t; i < probes.size(); i += threads) {
          const std::shared_lock<std::shared_mutex> lk(daemon.gate());
          const auto res = web.nearest(probes[i], h(static_cast<std::uint32_t>(t)));
          (void)res;
        }
      });
    }
    for (auto& w : workers) w.join();
  }
  daemon.stop();
  EXPECT_GT(daemon.snapshot().rounds, 0u);

  // Finish whatever repair remains, then the structure must be whole.
  while (web.repair_step(h(0)).value > 0) {
  }
  ASSERT_TRUE(web.lists().check_invariants());
  EXPECT_FALSE(web.needs_repair());
  const auto live = surviving_keys(web, keys);
  for (const auto q : wl::query_stream(keys, 100, 4893)) {
    const auto res = web.nearest(q, h(0));
    EXPECT_FALSE(res.stats.failed);
    expect_matches_oracle(res, live, q);
  }
}

// A step that throws ends the daemon's steps, not the process: stop()
// rethrows it with the gate released, and the daemon then starts again and
// runs clean steps.
TEST(RepairDaemon, ThrowingStepReachesStop) {
  std::atomic<std::size_t> calls{0};
  std::atomic<bool> failing{true};
  fault::repair_daemon daemon(
      [&]() -> std::size_t {
        calls.fetch_add(1);
        if (failing) throw std::runtime_error("step failed");
        return 1;
      },
      std::chrono::microseconds(50));
  const auto wait_for = [](const auto& done) {
    const auto by = std::chrono::steady_clock::now() + std::chrono::seconds(10);
    while (!done() && std::chrono::steady_clock::now() < by) std::this_thread::yield();
  };
  daemon.start();
  wait_for([&] { return calls.load() > 0; });
  ASSERT_GT(calls.load(), 0u);
  try {
    daemon.stop();
    ADD_FAILURE() << "stop() swallowed the step's exception";
  } catch (const std::runtime_error& e) {
    EXPECT_STREQ(e.what(), "step failed");
  }
  EXPECT_FALSE(daemon.running());
  EXPECT_EQ(calls.load(), 1u);  // the steps ended at the throw
  EXPECT_EQ(daemon.snapshot().rounds, 0u);
  {
    const std::unique_lock<std::shared_mutex> lk(daemon.gate(), std::try_to_lock);
    EXPECT_TRUE(lk.owns_lock());
  }

  failing = false;
  daemon.start();
  wait_for([&] { return daemon.snapshot().rounds >= 3; });
  EXPECT_NO_THROW(daemon.stop());
  const auto after = daemon.snapshot();
  EXPECT_GE(after.rounds, 3u);
  EXPECT_EQ(after.repaired, after.rounds);
}

}  // namespace
