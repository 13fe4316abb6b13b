// The latency/deadline plane (DESIGN.md §11): simulated per-hop time,
// per-host slowdowns, op deadlines with degraded partial results, retry
// backoff, hedged open-loop serving, and the arrival streams that drive it.
// Suite names matter: the CI TSan job runs everything matching
// Latency|Deadline|Hedge (alongside the executor suites).

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <string>
#include <vector>

#include "api/registry.h"
#include "api/spatial_registry.h"
#include "api/string_registry.h"
#include "fault/injector.h"
#include "net/cursor.h"
#include "net/latency.h"
#include "net/network.h"
#include "serve/executor.h"
#include "util/rng.h"
#include "workloads/workloads.h"

namespace {

using namespace skipweb;
using net::host_id;
using net::latency_model;
using net::network;
namespace wl = skipweb::workloads;

host_id h(std::uint32_t v) { return host_id{v}; }

bool same_answer(const api::nn_result& a, const api::nn_result& b) {
  return a.has_pred == b.has_pred && a.has_succ == b.has_succ &&
         (!a.has_pred || a.pred == b.pred) && (!a.has_succ || a.succ == b.succ);
}

// --- the model itself --------------------------------------------------------

TEST(Latency, ModelDrawsAreStatelessDeterministicAndShaped) {
  const auto c = latency_model::constant(500);
  EXPECT_TRUE(c.active());
  EXPECT_EQ(c.sample_ns(h(1), h(2), 0), 500u);
  EXPECT_EQ(c.sample_ns(h(7), h(9), 123), 500u);

  const auto ln = latency_model::lognormal(1000, 0.5, 42);
  // Pure function of (from, to, serial): replays exactly, varies by serial.
  EXPECT_EQ(ln.sample_ns(h(1), h(2), 5), ln.sample_ns(h(1), h(2), 5));
  EXPECT_NE(ln.sample_ns(h(1), h(2), 5), ln.sample_ns(h(1), h(2), 6));
  EXPECT_NE(ln.sample_ns(h(1), h(2), 5), ln.sample_ns(h(2), h(1), 5));
  // base_ns is the median: about half the draws land on each side.
  std::size_t above = 0;
  constexpr std::size_t kDraws = 4000;
  for (std::size_t s = 0; s < kDraws; ++s) {
    if (ln.sample_ns(h(3), h(4), s) > 1000) ++above;
  }
  EXPECT_GT(above, kDraws / 3);
  EXPECT_LT(above, 2 * kDraws / 3);

  // Backoff: capped exponential, zero base = free.
  EXPECT_EQ(c.backoff_ns(0), 500u);
  EXPECT_EQ(c.backoff_ns(1), 1000u);
  EXPECT_EQ(c.backoff_ns(10), c.backoff_cap_ns);
  EXPECT_EQ(c.backoff_ns(200), c.backoff_cap_ns);  // huge attempt: no UB shift
  EXPECT_EQ(latency_model::none().backoff_ns(3), 0u);
}

// --- the identity contract: an inactive (or timing-only) plane never
// --- perturbs routing --------------------------------------------------------

class LatencyConformance : public ::testing::TestWithParam<std::string> {};

TEST_P(LatencyConformance, ConstantModelPricesHopsWithoutPerturbingRoutes) {
  util::rng r(7101);
  const auto keys = wl::uniform_keys(192, r);
  const auto qs = wl::query_stream(keys, 128, 7102);
  const auto opts = api::index_options{}.seed(5).initial_hosts(8).bucket_size(16).buckets(24);

  // Twin A: plane never touched. Twin B: constant model active. Same build,
  // same queries — answers and message/visit/comparison receipts must be
  // byte-identical; only the sim clock differs (exactly base_ns per hop:
  // no faults, so no retries or probe timeouts).
  network net_a(1);
  const auto idx_a = api::make_index(GetParam(), keys, opts, net_a);
  network net_b(1);
  const auto idx_b = api::make_index(GetParam(), keys, opts, net_b);
  constexpr std::uint64_t kHop = 250;
  net_b.set_latency_model(latency_model::constant(kHop));
  net_b.reset_traffic();
  net_a.reset_traffic();

  for (const auto q : qs) {
    const auto a = idx_a->nearest(q, h(0));
    const auto b = idx_b->nearest(q, h(0));
    EXPECT_TRUE(same_answer(a, b));
    EXPECT_EQ(a.stats.messages, b.stats.messages);
    EXPECT_EQ(a.stats.host_visits, b.stats.host_visits);
    EXPECT_EQ(a.stats.comparisons, b.stats.comparisons);
    EXPECT_EQ(a.stats.sim_latency_ns, 0u);  // plane off: fields invisible
    EXPECT_FALSE(a.stats.timed_out);
    EXPECT_EQ(b.stats.sim_latency_ns, b.stats.messages * kHop);
    EXPECT_EQ(b.stats.retries, 0u);
    EXPECT_FALSE(b.stats.timed_out);
    EXPECT_FALSE(b.stats.degraded);
  }
  EXPECT_EQ(net_a.total_sim_ns(), 0u);
  EXPECT_EQ(net_b.total_sim_ns(), net_b.total_messages() * kHop);
}

INSTANTIATE_TEST_SUITE_P(AllBackends, LatencyConformance,
                         ::testing::ValuesIn(api::registered_backends()),
                         [](const ::testing::TestParamInfo<std::string>& info) {
                           return info.param;
                         });

TEST(Latency, SpatialLocatePricesHopsWithoutPerturbingRoutes) {
  util::rng r(7103);
  const auto pts = wl::spatial_points(2, 96, false, r);
  const auto qs = wl::spatial_query_stream(2, 64, 7104);
  network net_a(1);
  const auto idx_a =
      api::make_spatial_index("skip_quadtree2", pts, api::index_options{}.seed(3).initial_hosts(16),
                              net_a);
  network net_b(1);
  const auto idx_b =
      api::make_spatial_index("skip_quadtree2", pts, api::index_options{}.seed(3).initial_hosts(16),
                              net_b);
  constexpr std::uint64_t kHop = 400;
  net_b.set_latency_model(latency_model::constant(kHop));
  for (const auto& q : qs) {
    const auto a = idx_a->locate(q, h(0));
    const auto b = idx_b->locate(q, h(0));
    EXPECT_EQ(a.found, b.found);
    EXPECT_EQ(a.cell, b.cell);
    EXPECT_EQ(a.stats.messages, b.stats.messages);
    EXPECT_EQ(a.stats.sim_latency_ns, 0u);
    EXPECT_EQ(b.stats.sim_latency_ns, b.stats.messages * kHop);
  }
}

TEST(Latency, SlowHostDetoursKeepAnswersIdentical) {
  // With slow-host avoidance on, upper-level hops toward slowed hosts turn
  // into early descents — a pure detour: every answer must stay identical
  // to the undetoured twin's, only the time (and possibly hops) change.
  util::rng r(7105);
  const auto keys = wl::uniform_keys(256, r);
  const auto qs = wl::query_stream(keys, 192, 7106);
  network net_a(1);
  const auto idx_a = api::make_index("skipweb1d", keys, api::index_options{}.seed(9), net_a);
  net_a.set_latency_model(latency_model::lognormal(1000, 0.4, 11));

  network net_b(1);
  const auto idx_b = api::make_index("skipweb1d", keys, api::index_options{}.seed(9), net_b);
  net_b.set_latency_model(latency_model::lognormal(1000, 0.4, 11));
  for (std::uint32_t v = 5; v < net_b.host_count(); v += 50) {
    net_b.set_host_slowdown(h(v), 25.0);
  }
  net_b.set_slow_host_threshold(10.0);
  ASSERT_TRUE(net_b.slow_detours_active());
  ASSERT_TRUE(net_b.adaptive_routing_active());

  std::size_t detoured = 0;
  for (const auto q : qs) {
    const auto a = idx_a->nearest(q, h(0));
    const auto b = idx_b->nearest(q, h(0));
    EXPECT_TRUE(same_answer(a, b));
    detoured += (a.stats.messages != b.stats.messages) ? 1u : 0u;
  }
  EXPECT_GT(detoured, 0u);  // the threshold actually bent some routes
}

// --- determinism: totals invariant under the thread count --------------------

TEST(Latency, SimTotalsAreThreadCountInvariant) {
  util::rng r(7107);
  const auto keys = wl::uniform_keys(256, r);
  const auto qs = wl::query_stream(keys, 160, 7108);
  network net(1);
  const auto idx = api::make_index("skipweb1d", keys, api::index_options{}.seed(13), net);
  net.set_latency_model(latency_model::lognormal(2000, 0.6, 99));
  net.reset_traffic();

  api::op_stats serial_total;
  for (const auto q : qs) serial_total += idx->nearest(q, h(0)).stats;
  const std::uint64_t serial_sim = net.total_sim_ns();
  EXPECT_EQ(serial_total.sim_latency_ns, serial_sim);
  EXPECT_GT(serial_sim, 0u);

  for (const std::size_t T : {1u, 2u, 4u}) {
    net.reset_traffic();
    serve::executor ex(T);
    const auto out = ex.run_nearest(*idx, qs, h(0), 24);
    EXPECT_EQ(out.total, serial_total) << "T=" << T;
    EXPECT_EQ(net.total_sim_ns(), serial_sim) << "T=" << T;
  }
}

// --- receipt spill (regression): the inline hop log overflows cleanly --------

TEST(Latency, SpilledReceiptsReconcileMessagesAndSimWithTheLedger) {
  // A route longer than the receipt's 48-slot inline buffer spills to the
  // heap; messages, per-host multiplicities and the sim clock must all
  // survive the spill.
  network net(8);
  constexpr std::uint64_t kHop = 100;
  net.set_latency_model(latency_model::constant(kHop));
  constexpr std::size_t kHops = 130;  // > 2x inline capacity
  {
    net::cursor cur(net, h(0));
    for (std::size_t i = 1; i <= kHops; ++i) {
      cur.move_to(h(static_cast<std::uint32_t>(i % 8)));
    }
    ASSERT_EQ(cur.messages(), kHops);
    ASSERT_EQ(cur.receipt().size(), kHops);
    EXPECT_EQ(cur.receipt().sim_ns(), kHops * kHop);
    EXPECT_EQ(cur.sim_ns(), kHops * kHop);
    // Round-robin over 7 distinct destinations spilled across the buffer
    // boundary: multiplicity counting must agree with the closed form.
    EXPECT_GE(cur.receipt().max_host_load(), kHops / 8);
  }
  EXPECT_EQ(net.total_messages(), kHops);
  EXPECT_EQ(net.total_sim_ns(), kHops * kHop);

  // The same through a public flood: chord's nearest visits every host, far
  // past the inline buffer, and the committed totals still reconcile.
  util::rng r(7109);
  const auto keys = wl::uniform_keys(128, r);
  network cnet(1);
  const auto chord =
      api::make_index("chord", keys, api::index_options{}.seed(3).buckets(96), cnet);
  cnet.set_latency_model(latency_model::constant(kHop));
  cnet.reset_traffic();
  const auto res = chord->nearest(keys[5] + 1, h(0));
  EXPECT_GT(res.stats.messages, net::traffic_receipt::inline_capacity);
  EXPECT_EQ(res.stats.sim_latency_ns, res.stats.messages * kHop);
  EXPECT_EQ(cnet.total_messages(), res.stats.messages);
  EXPECT_EQ(cnet.total_sim_ns(), res.stats.sim_latency_ns);
}

// --- retries: loss and dead-host fallbacks are priced --------------------------

TEST(Latency, LossRetriesAreCountedAndBackedOff) {
  util::rng r(7110);
  const auto keys = wl::uniform_keys(192, r);
  const auto qs = wl::query_stream(keys, 128, 7111);
  network net(1);
  const auto idx =
      api::make_index("skipweb1d", keys, api::index_options{}.seed(21).replication(3), net);
  net.set_message_loss(0.08, 4242);
  constexpr std::uint64_t kHop = 100;
  net.set_latency_model(latency_model::constant(kHop));

  api::op_stats total;
  for (const auto q : qs) total += idx->nearest(q, h(0)).stats;
  EXPECT_GT(total.retries, 0u);  // 8% loss over thousands of hops must retry
  // Every hop costs kHop and every retry additionally waits a backoff of at
  // least the base: the sim clock must exceed the hop-only floor.
  EXPECT_GT(total.sim_latency_ns, total.messages * kHop);
  EXPECT_LE(total.sim_latency_ns,
            total.messages * kHop + total.retries * net.hop_latency().backoff_cap_ns);

  // Deterministic replay: same seeds, same receipts.
  api::op_stats again;
  for (const auto q : qs) again += idx->nearest(q, h(0)).stats;
  EXPECT_EQ(again, total);
}

// --- S1: replication honored only up to the deployment size ------------------

TEST(Latency, ReplicationIsClampedToTheDeployment) {
  // 4 records: a 4th successor replica cannot exist, so replication(8) is
  // honored as 3 — and reported as such through the public surface.
  const std::vector<std::uint64_t> tiny = {10, 20, 30, 40};
  network net(1);
  const auto idx =
      api::make_index("skipweb1d", tiny, api::index_options{}.seed(1).replication(8), net);
  EXPECT_EQ(idx->replication(), 3u);
  EXPECT_TRUE(idx->supports(api::capability::fault_tolerant));

  // A deployment that can hold the request honors it unclamped.
  util::rng r(7112);
  const auto keys = wl::uniform_keys(64, r);
  network net2(1);
  const auto idx2 =
      api::make_index("skipweb1d", keys, api::index_options{}.seed(1).replication(4), net2);
  EXPECT_EQ(idx2->replication(), 4u);

  // Backends without fault support report 0 regardless of the request.
  network net3(1);
  const auto idx3 =
      api::make_index("det_skipnet", keys, api::index_options{}.seed(1).replication(4), net3);
  EXPECT_EQ(idx3->replication(), 0u);
}

// --- S6: arrival streams are pure functions of their seeds -------------------

TEST(Latency, ArrivalStreamsAreDeterministicAndWellFormed) {
  const auto a = wl::poisson_arrivals(500, 1000.0, 31);
  const auto b = wl::poisson_arrivals(500, 1000.0, 31);
  EXPECT_EQ(a, b);  // pure function of (count, mean, seed)
  const auto c = wl::poisson_arrivals(500, 1000.0, 32);
  EXPECT_NE(a, c);  // the seed reaches the draws
  ASSERT_EQ(a.size(), 500u);
  for (std::size_t i = 1; i < a.size(); ++i) EXPECT_LE(a[i - 1], a[i]);
  // Long-run rate near 1/mean: the 500th arrival lands around 500 * mean.
  EXPECT_GT(a.back(), 250u * 1000u);
  EXPECT_LT(a.back(), 1000u * 1000u);

  const auto d = wl::burst_arrivals(500, 1000.0, 8, 31);
  EXPECT_EQ(d, wl::burst_arrivals(500, 1000.0, 8, 31));
  ASSERT_EQ(d.size(), 500u);
  std::size_t coincident = 0;
  for (std::size_t i = 1; i < d.size(); ++i) {
    EXPECT_LE(d[i - 1], d[i]);
    coincident += (d[i] == d[i - 1]) ? 1u : 0u;
  }
  // Groups of 8 share an instant: the overwhelming majority of consecutive
  // pairs are coincident.
  EXPECT_GT(coincident, d.size() / 2);
}

TEST(Latency, SlowdownScheduleIsWellFormedAndInjectorAppliesIt) {
  const std::size_t hosts = 32, ops = 300;
  const auto sched = wl::slowdown_schedule(hosts, ops, 0.10, 0.05, 25.0, 55);
  const auto replay = wl::slowdown_schedule(hosts, ops, 0.10, 0.05, 25.0, 55);
  ASSERT_EQ(sched.size(), replay.size());  // pure function of its arguments
  for (std::size_t i = 0; i < sched.size(); ++i) {
    EXPECT_EQ(sched[i].at_op, replay[i].at_op);
    EXPECT_EQ(sched[i].act, replay[i].act);
    EXPECT_EQ(sched[i].host.value, replay[i].host.value);
    EXPECT_EQ(sched[i].factor, replay[i].factor);
  }
  EXPECT_FALSE(sched.empty());
  std::vector<bool> slowed(hosts, false);
  std::size_t nslow = 0;
  for (std::size_t i = 0; i < sched.size(); ++i) {
    if (i > 0) {
      EXPECT_LE(sched[i - 1].at_op, sched[i].at_op);
    }
    const auto& e = sched[i];
    ASSERT_LT(e.host.value, hosts);
    EXPECT_NE(e.host.value, 0u);  // host 0 is never slowed
    if (e.act == wl::churn_event::action::slow) {
      EXPECT_EQ(e.factor, 25.0);
      ASSERT_FALSE(slowed[e.host.value]);
      slowed[e.host.value] = true;
      ++nslow;
    } else {
      ASSERT_EQ(e.act, wl::churn_event::action::restore);
      ASSERT_TRUE(slowed[e.host.value]);
      slowed[e.host.value] = false;
      --nslow;
    }
    EXPECT_LE(nslow, hosts / 2);
  }

  // The injector drives the network's slowdown table from the schedule, and
  // merge_schedules composes it with kill/revive churn in at_op order.
  const auto churn = wl::churn_schedule(hosts, ops, 0.05, 0.05, 1, 55);
  const auto merged = wl::merge_schedules(churn, sched);
  EXPECT_EQ(merged.size(), churn.size() + sched.size());
  for (std::size_t i = 1; i < merged.size(); ++i) {
    EXPECT_LE(merged[i - 1].at_op, merged[i].at_op);
  }
  network net(hosts);
  net.set_latency_model(latency_model::constant(100));
  fault::injector inj(net, sched);
  inj.finish();
  std::size_t now_slow = 0;
  for (std::uint32_t v = 0; v < hosts; ++v) {
    if (net.host_slowdown(h(v)) != 1.0) {
      EXPECT_EQ(net.host_slowdown(h(v)), 25.0);
      ++now_slow;
    }
  }
  EXPECT_EQ(now_slow, nslow);  // net effect of the schedule
}

// --- deadlines: timed-out ops and honest degraded prefixes -------------------

TEST(Deadline, ExhaustedBudgetFlagsTimedOutAndDegraded) {
  util::rng r(7120);
  const auto keys = wl::uniform_keys(256, r);
  network net(1);
  // A 1ns budget with 500ns hops: the first hop blows it, so every query
  // gives up at its first level boundary.
  net.set_latency_model(latency_model::constant(500));
  const auto idx = api::make_index("skipweb1d", keys,
                                   api::index_options{}.seed(17).deadline(1), net);
  ASSERT_EQ(net.op_deadline_ns(), 1u);
  ASSERT_TRUE(net.adaptive_routing_active());
  const auto res = idx->nearest(keys[100] + 1, h(0));
  EXPECT_TRUE(res.stats.timed_out);
  EXPECT_TRUE(res.stats.degraded);

  // Give-up is cheap: fewer hops than the undegraded twin's full descent.
  network net2(1);
  const auto full = api::make_index("skipweb1d", keys, api::index_options{}.seed(17), net2);
  net2.set_latency_model(latency_model::constant(500));
  const auto truth = full->nearest(keys[100] + 1, h(0));
  EXPECT_FALSE(truth.stats.timed_out);
  EXPECT_FALSE(truth.stats.degraded);
  EXPECT_LT(res.stats.messages, truth.stats.messages);
}

// The honest-prefix promise holds for every registered 1-D backend.
class DeadlineRange : public ::testing::TestWithParam<std::string> {};

TEST_P(DeadlineRange, DegradedRangeIsAnHonestPrefix) {
  util::rng r(7121);
  auto keys = wl::uniform_keys(256, r);
  std::sort(keys.begin(), keys.end());
  const std::uint64_t lo = keys[20], hi = keys[200];

  // Ground truth: same build, no deadline.
  network net_full(1);
  const auto full = api::make_index(GetParam(), keys, api::index_options{}.seed(23), net_full);
  net_full.set_latency_model(latency_model::lognormal(1000, 0.5, 7));
  const auto want = full->range(lo, hi, h(0)).value;
  ASSERT_EQ(want.size(), 181u);

  // Budgeted twin: sweep a ladder of deadlines; every degraded result must
  // be a strict prefix of the truth, and generous budgets must recover it.
  bool saw_degraded = false, saw_full = false;
  for (const std::uint64_t budget : {2000u, 20000u, 100000u, 100000000u}) {
    network net(1);
    const auto idx = api::make_index(
        GetParam(), keys, api::index_options{}.seed(23).deadline(budget), net);
    net.set_latency_model(latency_model::lognormal(1000, 0.5, 7));
    const auto got = idx->range(lo, hi, h(0));
    ASSERT_LE(got.value.size(), want.size());
    for (std::size_t i = 0; i < got.value.size(); ++i) {
      EXPECT_EQ(got.value[i], want[i]) << "budget=" << budget << " i=" << i;
    }
    if (got.stats.degraded) {
      saw_degraded = true;
      EXPECT_TRUE(got.stats.timed_out);
      EXPECT_LT(got.value.size(), want.size());
    }
    if (got.value.size() == want.size()) saw_full = true;
  }
  EXPECT_TRUE(saw_degraded);  // the tight budgets actually bit
  EXPECT_TRUE(saw_full);      // and the generous one recovered the answer
}

TEST_P(DeadlineRange, BareOpDeadlineEndsTheSweepOnAnHonestPrefix) {
  // The op deadline set on the network directly, without index_options::
  // deadline: the generic fallback has no sweep budget, and each of its
  // constituent queries may give up on its own, among dead hosts. The sweep
  // must still end, ascending, on a prefix of the truth. The limit makes a
  // runaway sweep fail this test instead of exhausting memory.
  util::rng r(36);
  auto keys = wl::uniform_keys(300, r);
  std::sort(keys.begin(), keys.end());
  const std::vector<std::uint64_t> want(keys.begin(), keys.begin() + 41);

  network net(1);
  const auto idx = api::make_index(GetParam(), keys, api::index_options{}.seed(1), net);
  for (std::uint32_t v = 1; v < net.host_count(); v += 10) net.kill_host(h(v));
  net.set_latency_model(latency_model::lognormal(1000, 0.5, 7));
  net.set_op_deadline(3000);
  const auto got = idx->range(keys[0], keys[40], h(0), 1000);

  for (std::size_t i = 1; i < got.value.size(); ++i) {
    ASSERT_LT(got.value[i - 1], got.value[i]) << "i=" << i;
  }
  ASSERT_LE(got.value.size(), want.size());
  for (std::size_t i = 0; i < got.value.size(); ++i) EXPECT_EQ(got.value[i], want[i]) << "i=" << i;
  if (got.value.size() < want.size()) {
    EXPECT_TRUE(got.stats.degraded);
  }
}

INSTANTIATE_TEST_SUITE_P(AllBackends, DeadlineRange,
                         ::testing::ValuesIn(api::registered_backends()),
                         [](const auto& info) { return info.param; });

TEST(Deadline, DegradedStringPrefixAndRangeAreHonestPrefixes) {
  // Same honesty contract on the string plane: a budgeted prefix_match or
  // lex_range may stop early, but what it returns is a lexicographic prefix
  // of the full answer and the receipt admits the truncation — for every
  // registered text backend.
  util::rng r(7131);
  const auto keys = wl::url_paths(220, r);
  std::vector<std::string> sorted = keys;
  std::sort(sorted.begin(), sorted.end());
  const std::string prefix = sorted[10].substr(0, 5);
  const std::string lo = sorted[15], hi = sorted[190];

  for (const auto& name : api::registered_string_backends()) {
    // Ground truth: same build, no deadline.
    network net_full(1);
    const auto full =
        api::make_string_index(name, keys, api::index_options{}.seed(29).initial_hosts(8),
                               net_full);
    net_full.set_latency_model(latency_model::lognormal(1000, 0.5, 7));
    const auto want_prefix = full->prefix_match(prefix, h(0)).value;
    const auto want_range = full->lex_range(lo, hi, h(0)).value;
    ASSERT_FALSE(want_range.empty()) << name;

    bool saw_degraded = false, saw_full = false;
    for (const std::uint64_t budget : {2000u, 20000u, 100000u, 100000000u}) {
      network net(1);
      const auto idx = api::make_string_index(
          name, keys,
          api::index_options{}.seed(29).initial_hosts(8).deadline(budget), net);
      net.set_latency_model(latency_model::lognormal(1000, 0.5, 7));

      const auto gp = idx->prefix_match(prefix, h(0));
      ASSERT_LE(gp.value.size(), want_prefix.size()) << name;
      for (std::size_t i = 0; i < gp.value.size(); ++i) {
        EXPECT_EQ(gp.value[i], want_prefix[i]) << name << " budget=" << budget;
      }
      const auto gr = idx->lex_range(lo, hi, h(0));
      ASSERT_LE(gr.value.size(), want_range.size()) << name;
      for (std::size_t i = 0; i < gr.value.size(); ++i) {
        EXPECT_EQ(gr.value[i], want_range[i]) << name << " budget=" << budget;
      }
      if (gr.stats.degraded) {
        saw_degraded = true;
        EXPECT_TRUE(gr.stats.timed_out) << name;
        EXPECT_LT(gr.value.size(), want_range.size()) << name;
      }
      if (gp.stats.degraded) {
        saw_degraded = true;
        EXPECT_TRUE(gp.stats.timed_out) << name;
      }
      if (gr.value.size() == want_range.size() && gp.value.size() == want_prefix.size()) {
        saw_full = true;
      }
    }
    EXPECT_TRUE(saw_degraded) << name;  // the tight budgets actually bit
    EXPECT_TRUE(saw_full) << name;      // and the generous one recovered the answer
  }
}

TEST(Deadline, GenericRangeFallbackTruncatesAcrossConstituentQueries) {
  // Chord's range is the inherited default (one flood per result key): the
  // per-sweep budget set by make_index must cut the sweep off between
  // constituent queries and tag the prefix degraded.
  util::rng r(7122);
  auto keys = wl::uniform_keys(96, r);
  std::sort(keys.begin(), keys.end());
  network net_full(1);
  const auto full = api::make_index("chord", keys, api::index_options{}.seed(3).buckets(48),
                                    net_full);
  net_full.set_latency_model(latency_model::constant(100));
  const auto want = full->range(keys[10], keys[60], h(0)).value;
  ASSERT_EQ(want.size(), 51u);

  network net(1);
  const auto idx = api::make_index(
      "chord", keys, api::index_options{}.seed(3).buckets(48).deadline(60000), net);
  net.set_latency_model(latency_model::constant(100));
  const auto got = idx->range(keys[10], keys[60], h(0));
  EXPECT_TRUE(got.stats.degraded);
  EXPECT_TRUE(got.stats.timed_out);
  ASSERT_LT(got.value.size(), want.size());
  for (std::size_t i = 0; i < got.value.size(); ++i) EXPECT_EQ(got.value[i], want[i]);
}

TEST(Deadline, StructuralOpsIgnoreTheBudget) {
  util::rng r(7123);
  const auto keys = wl::uniform_keys(128, r);
  network net(1);
  net.set_latency_model(latency_model::constant(500));
  const auto idx = api::make_index("skipweb1d", keys,
                                   api::index_options{}.seed(29).deadline(1), net);
  // An insert must run to completion: no give-up, no timed_out — updates
  // finish what they started even when every query would blow the budget.
  const auto st = idx->insert(keys[50] + 1, h(0));
  EXPECT_FALSE(st.timed_out);
  EXPECT_FALSE(st.degraded);
  EXPECT_GT(st.messages, 4u);  // a real descent, not a give-up stub
  net.set_op_deadline(0);  // lift the budget so the probe below can't degrade
  EXPECT_TRUE(idx->contains(keys[50] + 1, h(0)).value);
}

// --- hedged open-loop serving ------------------------------------------------

TEST(Hedge, OpenLoopRunServesAllQueriesWithHonestAccounting) {
  util::rng r(7130);
  const auto keys = wl::uniform_keys(256, r);
  const auto qs = wl::query_stream(keys, 300, 7131);
  const auto arrivals = wl::poisson_arrivals(qs.size(), 50000.0, 7132);
  network net(1);
  const auto idx = api::make_index("skipweb1d", keys, api::index_options{}.seed(31), net);
  net.set_latency_model(latency_model::lognormal(1000, 0.6, 17));

  // Serial ground truth for the answers.
  std::vector<api::nn_result> want;
  for (const auto q : qs) want.push_back(idx->nearest(q, h(0)));

  serve::executor ex(2);
  serve::executor::open_loop_config cfg;
  cfg.origin = h(0);
  const auto out = ex.run_open_loop(*idx, qs, arrivals, cfg);
  ASSERT_EQ(out.results.size(), qs.size());
  ASSERT_EQ(out.latency_ns.size(), qs.size());
  api::op_stats sum;
  for (std::size_t i = 0; i < qs.size(); ++i) {
    EXPECT_TRUE(same_answer(out.results[i], want[i])) << i;
    EXPECT_GE(out.latency_ns[i], out.results[i].stats.sim_latency_ns);  // queueing adds
    sum += out.results[i].stats;
  }
  EXPECT_EQ(out.total, sum);
  EXPECT_EQ(out.hedged, 0u);  // hedging off
  EXPECT_EQ(out.total.hedges, 0u);
  EXPECT_GE(out.makespan_ns, arrivals.back());

  // A one-slot window serializes each worker's stream: its makespan can only
  // grow against the wide window's.
  serve::executor::open_loop_config narrow = cfg;
  narrow.inflight = 1;
  const auto out1 = ex.run_open_loop(*idx, qs, arrivals, narrow);
  EXPECT_GE(out1.makespan_ns, out.makespan_ns);
}

TEST(Hedge, HedgingCutsTailLatencyUnderSlowHosts) {
  util::rng r(7133);
  const auto keys = wl::uniform_keys(256, r);
  const auto qs = wl::query_stream(keys, 400, 7134);
  const auto arrivals = wl::poisson_arrivals(qs.size(), 100000.0, 7135);
  network net(1);
  const auto idx = api::make_index("skipweb1d", keys, api::index_options{}.seed(37), net);
  net.set_latency_model(latency_model::lognormal(1000, 0.5, 23));
  // ~2% of hosts are 25x slow: the gray-failure regime hedging is built for.
  for (std::uint32_t v = 5; v < net.host_count(); v += 50) {
    net.set_host_slowdown(h(v), 25.0);
  }

  serve::executor ex(2);
  serve::executor::open_loop_config plain;
  plain.origin = h(0);
  const auto base = ex.run_open_loop(*idx, qs, arrivals, plain);
  std::vector<std::uint64_t> services;
  for (const auto& res : base.results) services.push_back(res.stats.sim_latency_ns);
  const std::uint64_t p99 = serve::executor::percentile_ns(services, 0.99);

  serve::executor::open_loop_config hedged = plain;
  hedged.hedge_origin = h(1);
  hedged.hedge_delay_ns = p99 / 2;
  const auto out = ex.run_open_loop(*idx, qs, arrivals, hedged);

  // Answers unchanged; duplicates issued, counted, and sometimes winning.
  for (std::size_t i = 0; i < qs.size(); ++i) {
    EXPECT_TRUE(same_answer(out.results[i], base.results[i])) << i;
  }
  EXPECT_GT(out.hedged, 0u);
  EXPECT_GE(out.hedged, out.hedge_wins);
  EXPECT_EQ(out.total.hedges, out.hedged);
  // Cancel-and-account: both routes' messages are charged, so the hedged
  // run's message bill can only grow.
  EXPECT_GT(out.total.messages, base.total.messages);

  // The headline: hedging cuts the service-time tail.
  std::vector<std::uint64_t> hedged_services;
  for (const auto& res : out.results) hedged_services.push_back(res.stats.sim_latency_ns);
  EXPECT_LT(serve::executor::percentile_ns(hedged_services, 0.99), p99);
}

}  // namespace
