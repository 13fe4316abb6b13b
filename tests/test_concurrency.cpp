// Concurrency suite for the serving executor and the receipt-based
// accounting plane: for every registered 1-D and spatial backend, driving
// the same query stream at T ∈ {1, 2, 3, 4, 8} workers and batch widths
// {1, 7, 24} must produce results and summed op_stats receipts identical to
// the serial loop, and the network's traffic ledger must reconcile
// afterwards (the string plane's twin is StringConformance.
// ExecutorContainsMatchesSerial). This is also the binary the CI
// ThreadSanitizer job runs — the assertions double as the racing workload
// TSan instruments.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <mutex>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "api/registry.h"
#include "api/spatial_registry.h"
#include "net/cursor.h"
#include "net/latency.h"
#include "net/network.h"
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

constexpr std::size_t kThreadCounts[] = {1, 2, 3, 4, 8};
// Batch widths for the group dispatch; the conformance streams' lengths are
// multiples of none but 1.
constexpr std::size_t kBatchWidths[] = {1, 7, 24};

bool same_nn(const api::nn_result& a, const api::nn_result& b) {
  return a.has_pred == b.has_pred && a.has_succ == b.has_succ &&
         (!a.has_pred || a.pred == b.pred) && (!a.has_succ || a.succ == b.succ) &&
         a.stats == b.stats;
}

bool same_locate(const api::spatial_locate_result& a, const api::spatial_locate_result& b) {
  return a.found == b.found && a.cell == b.cell && a.scale == b.scale && a.stats == b.stats;
}

void expect_same_profile(const net::congestion_profile& a, const net::congestion_profile& b,
                         std::size_t T) {
  EXPECT_EQ(a.hosts, b.hosts) << "T=" << T;
  EXPECT_EQ(a.hosts_killed, b.hosts_killed) << "T=" << T;
  EXPECT_EQ(a.hosts_touched, b.hosts_touched) << "T=" << T;
  EXPECT_EQ(a.max_visits, b.max_visits) << "T=" << T;
  EXPECT_EQ(a.p99_visits, b.p99_visits) << "T=" << T;
  EXPECT_EQ(a.mean_visits, b.mean_visits) << "T=" << T;
  EXPECT_EQ(a.total_visits, b.total_visits) << "T=" << T;
  EXPECT_EQ(a.max_op_host_load, b.max_op_host_load) << "T=" << T;
}

// --- executor plumbing -------------------------------------------------------

TEST(Executor, SlicesPartitionTheIndexSpace) {
  constexpr std::size_t ns[] = {0, 1, 7, 64, 1000};
  constexpr std::size_t Ts[] = {1, 2, 3, 4, 8, 13};
  for (const std::size_t n : ns) {
    for (const std::size_t T : Ts) {
      std::size_t expect_lo = 0;
      for (std::size_t t = 0; t < T; ++t) {
        const auto [lo, hi] = serve::executor::slice(n, t, T);
        EXPECT_EQ(lo, expect_lo) << "n=" << n << " T=" << T << " t=" << t;
        EXPECT_LE(hi - lo, n / T + 1);
        expect_lo = hi;
      }
      EXPECT_EQ(expect_lo, n);
    }
  }
}

TEST(Executor, ClampsToAtLeastOneThreadAndHandlesEmptyStreams) {
  serve::executor ex(0);
  EXPECT_EQ(ex.threads(), 1u);
  util::rng r(42);
  const auto keys = wl::uniform_keys(64, r);
  network net(1);
  const auto idx = api::make_index("skipweb1d", keys, api::index_options{}.seed(3), net);
  const auto out = ex.run_nearest(*idx, {}, h(0));
  EXPECT_TRUE(out.results.empty());
  EXPECT_EQ(out.total, api::op_stats{});
}

TEST(Executor, PoolIsReusableAcrossRuns) {
  util::rng r(43);
  const auto keys = wl::uniform_keys(128, r);
  network net(1);
  const auto idx = api::make_index("skipweb1d", keys, api::index_options{}.seed(3), net);
  const auto qs = wl::query_stream(keys, 96, 7);
  serve::executor ex(4);
  const auto first = ex.run_nearest(*idx, qs, h(0));
  const auto second = ex.run_nearest(*idx, qs, h(0));
  ASSERT_EQ(first.results.size(), second.results.size());
  for (std::size_t i = 0; i < first.results.size(); ++i) {
    EXPECT_TRUE(same_nn(first.results[i], second.results[i])) << i;
  }
  EXPECT_EQ(first.total, second.total);
}

TEST(Executor, ForSlicesRunsEachStaticSliceOnItsOwnHelper) {
  // for_slices keeps its static partition: worker w gets slice(n, w, T) and
  // runs on helper w, a thread of its own; the calling thread serves none.
  EXPECT_EQ(serve::executor::slice(10, 0, 3), std::make_pair(std::size_t{0}, std::size_t{3}));
  EXPECT_EQ(serve::executor::slice(10, 1, 3), std::make_pair(std::size_t{3}, std::size_t{6}));
  EXPECT_EQ(serve::executor::slice(10, 2, 3), std::make_pair(std::size_t{6}, std::size_t{10}));
  constexpr std::size_t n = 1000;
  for (const std::size_t T : kThreadCounts) {
    serve::executor ex(T);
    std::vector<std::thread::id> ran_on(T);
    std::vector<std::pair<std::size_t, std::size_t>> got(T);
    ex.for_slices(n, [&](std::size_t w, std::size_t lo, std::size_t hi) {
      ran_on[w] = std::this_thread::get_id();
      got[w] = {lo, hi};
    });
    for (std::size_t w = 0; w < T; ++w) {
      EXPECT_EQ(got[w], serve::executor::slice(n, w, T)) << "T=" << T << " w=" << w;
      EXPECT_NE(ran_on[w], std::this_thread::get_id()) << "T=" << T << " w=" << w;
    }
    std::sort(ran_on.begin(), ran_on.end());
    EXPECT_EQ(std::adjacent_find(ran_on.begin(), ran_on.end()), ran_on.end()) << "T=" << T;
  }
}

TEST(Executor, BackToBackAndSpacedRunsAgree) {
  // Back-to-back runs publish while the helpers may still be finishing the
  // last run; runs spaced by a sleep find them blocked in the epoch wait.
  // Both finish and agree with the serial loop.
  util::rng r(44);
  const auto keys = wl::uniform_keys(128, r);
  network net(1);
  const auto idx = api::make_index("skipweb1d", keys, api::index_options{}.seed(3), net);
  const auto qs = wl::query_stream(keys, 101, 8);
  std::vector<api::nn_result> serial;
  api::op_stats serial_total;
  for (const auto q : qs) {
    serial.push_back(idx->nearest(q, h(0)));
    serial_total += serial.back().stats;
  }
  serve::executor ex(4);
  for (int run = 0; run < 12; ++run) {
    if (run >= 8) std::this_thread::sleep_for(std::chrono::milliseconds(10));
    const auto out = ex.run_nearest(*idx, qs, h(0), 5);
    ASSERT_EQ(out.results.size(), serial.size()) << run;
    for (std::size_t i = 0; i < serial.size(); ++i) {
      EXPECT_TRUE(same_nn(out.results[i], serial[i])) << "run " << run << " i=" << i;
    }
    EXPECT_EQ(out.total, serial_total) << run;
  }
}

// A backend for the executor's error path. It answers from a real index,
// but its batch router throws on the chosen call: the first group any
// worker serves, or a later one. With a nap, every other group sleeps that
// long and the throwing one a quarter of it first, so workers are mid-group
// when the throw lands; without one, nothing sleeps.
class throwing_index final : public api::distributed_index {
 public:
  throwing_index(const api::distributed_index& real, int throw_at,
                 std::chrono::milliseconds nap = std::chrono::milliseconds(20))
      : real_(real), throw_at_(throw_at), nap_(nap) {}

  [[nodiscard]] std::string_view backend() const override { return "throwing"; }
  [[nodiscard]] std::size_t size() const override { return real_.size(); }
  [[nodiscard]] api::capability capabilities() const override { return real_.capabilities(); }
  [[nodiscard]] api::nn_result nearest(std::uint64_t q, host_id origin) const override {
    return real_.nearest(q, origin);
  }
  api::op_stats insert(std::uint64_t, host_id) override { return {}; }
  api::op_stats erase(std::uint64_t, host_id) override { return {}; }

  [[nodiscard]] std::vector<api::nn_result> nearest_batch(const std::vector<std::uint64_t>& qs,
                                                          host_id origin) const override {
    if (calls_.fetch_add(1) == throw_at_) {
      std::this_thread::sleep_for(nap_ / 4);
      throw std::runtime_error("call " + std::to_string(throw_at_));
    }
    started.fetch_add(1);
    std::this_thread::sleep_for(nap_);
    auto out = real_.nearest_batch(qs, origin);
    finished.fetch_add(1);
    return out;
  }

  mutable std::atomic<int> started{0}, finished{0};

 private:
  const api::distributed_index& real_;
  int throw_at_;
  std::chrono::milliseconds nap_;
  mutable std::atomic<int> calls_{0};
};

TEST(Executor, WorkerExceptionReachesTheCaller) {
  // A throwing group, the first one served or a later one, reaches the
  // caller only after every worker has stopped: each group that started has
  // finished when the exception arrives, and no group is claimed after the
  // throw. The pool then serves a clean run like the serial loop.
  util::rng r(45);
  const auto keys = wl::uniform_keys(128, r);
  network net(1);
  const auto idx = api::make_index("skipweb1d", keys, api::index_options{}.seed(3), net);
  const auto qs = wl::query_stream(keys, 64, 9);
  std::vector<api::nn_result> serial;
  for (const auto q : qs) serial.push_back(idx->nearest(q, h(0)));
  serve::executor ex(4);
  for (const int throw_at : {0, 6}) {
    const throwing_index bad(*idx, throw_at);
    try {
      (void)ex.run_nearest(bad, qs, h(0), 1);
      ADD_FAILURE() << "the executor swallowed the exception";
    } catch (const std::runtime_error& e) {
      EXPECT_EQ(std::string(e.what()), "call " + std::to_string(throw_at));
      EXPECT_EQ(bad.started.load(), bad.finished.load()) << throw_at;
      EXPECT_GE(bad.started.load(), throw_at) << throw_at;
      EXPECT_LT(bad.started.load(), 63) << throw_at;  // claiming stopped at the throw
    }
    const auto out = ex.run_nearest(*idx, qs, h(0), 7);
    ASSERT_EQ(out.results.size(), serial.size());
    for (std::size_t i = 0; i < serial.size(); ++i) {
      EXPECT_TRUE(same_nn(out.results[i], serial[i])) << throw_at << " i=" << i;
    }
  }
  // Mid-stream on a long stream, without naps: the throw lands while the
  // caller may still be sizing the answers, so the workers hold answers of
  // groups they served, and they must drop them. The pool then serves the
  // long stream like the serial loop.
  const auto long_qs = wl::query_stream(keys, std::size_t{1} << 16, 11);
  const throwing_index bad(*idx, 8, std::chrono::milliseconds(0));
  try {
    (void)ex.run_nearest(bad, long_qs, h(0), 24);
    ADD_FAILURE() << "the executor swallowed the mid-stream exception";
  } catch (const std::runtime_error& e) {
    EXPECT_EQ(std::string(e.what()), "call 8");
    EXPECT_EQ(bad.started.load(), bad.finished.load());
    EXPECT_GE(bad.started.load(), 8);
  }
  const auto out = ex.run_nearest(*idx, long_qs, h(0), 24);
  ASSERT_EQ(out.results.size(), long_qs.size());
  std::size_t differ = 0;
  for (std::size_t i = 0; i < long_qs.size(); ++i) {
    differ += same_nn(out.results[i], idx->nearest(long_qs[i], h(0))) ? 0 : 1;
  }
  EXPECT_EQ(differ, 0u);
}

// Backends that answer from a real index and record the thread of every
// batch call the executor makes.
struct thread_log {
  void note() const {
    const std::lock_guard lock(mu);
    ids.push_back(std::this_thread::get_id());
  }
  mutable std::mutex mu;
  mutable std::vector<std::thread::id> ids;
};

class recording_index final : public api::distributed_index {
 public:
  explicit recording_index(const api::distributed_index& real) : real_(real) {}

  [[nodiscard]] std::string_view backend() const override { return "recording"; }
  [[nodiscard]] std::size_t size() const override { return real_.size(); }
  [[nodiscard]] api::capability capabilities() const override { return real_.capabilities(); }
  [[nodiscard]] api::nn_result nearest(std::uint64_t q, host_id origin) const override {
    return real_.nearest(q, origin);
  }
  api::op_stats insert(std::uint64_t, host_id) override { return {}; }
  api::op_stats erase(std::uint64_t, host_id) override { return {}; }
  [[nodiscard]] std::vector<api::nn_result> nearest_batch(const std::vector<std::uint64_t>& qs,
                                                          host_id origin) const override {
    calls.note();
    return real_.nearest_batch(qs, origin);
  }

  thread_log calls;

 private:
  const api::distributed_index& real_;
};

class recording_spatial_index final : public api::spatial_index {
 public:
  explicit recording_spatial_index(const api::spatial_index& real) : real_(real) {}

  [[nodiscard]] std::string_view backend() const override { return "recording"; }
  [[nodiscard]] int dims() const override { return real_.dims(); }
  [[nodiscard]] std::size_t size() const override { return real_.size(); }
  [[nodiscard]] api::capability capabilities() const override { return real_.capabilities(); }
  [[nodiscard]] api::spatial_locate_result locate(const api::spatial_point& q,
                                                  host_id origin) const override {
    return real_.locate(q, origin);
  }
  api::op_stats insert(const api::spatial_point&, host_id) override { return {}; }
  api::op_stats erase(const api::spatial_point&, host_id) override { return {}; }
  [[nodiscard]] api::op_result<std::vector<api::spatial_point>> orthogonal_range(
      const api::spatial_box& b, host_id origin, std::size_t limit) const override {
    return real_.orthogonal_range(b, origin, limit);
  }
  [[nodiscard]] std::vector<api::spatial_locate_result> locate_batch(
      const std::vector<api::spatial_point>& qs, host_id origin) const override {
    calls.note();
    return real_.locate_batch(qs, origin);
  }

  thread_log calls;

 private:
  const api::spatial_index& real_;
};

TEST(Executor, CallerServesNoGroup) {
  // The calling thread publishes a run and sizes its answers, and serves no
  // group of it (DESIGN.md §8): every batch call runs on a helper, at every
  // thread count.
  util::rng r(46);
  const auto keys = wl::uniform_keys(256, r);
  const auto pts = wl::spatial_points(2, 256, false, r);
  network net(1);
  const auto idx = api::make_index("skipweb1d", keys, api::index_options{}.seed(3), net);
  const auto sidx =
      api::make_spatial_index("skip_quadtree2", pts, api::index_options{}.seed(3), net);
  const auto qs = wl::query_stream(keys, 700, 12);
  const auto sqs = wl::spatial_query_stream(2, 700, 13);
  constexpr std::size_t batch = 7;
  for (const std::size_t T : {1, 2, 4}) {
    serve::executor ex(T);
    const recording_index one_d(*idx);
    const recording_spatial_index spatial(*sidx);
    EXPECT_EQ(ex.run_nearest(one_d, qs, h(0), batch).results.size(), qs.size()) << T;
    EXPECT_EQ(ex.run_locate(spatial, sqs, h(0), batch).results.size(), sqs.size()) << T;
    for (const auto* log : {&one_d.calls, &spatial.calls}) {
      EXPECT_EQ(log->ids.size(), qs.size() / batch) << "T=" << T;
      EXPECT_EQ(std::count(log->ids.begin(), log->ids.end(), std::this_thread::get_id()), 0)
          << "T=" << T;
    }
  }
}

// --- every 1-D backend: executor == serial loop, any thread count ------------

class ExecutorConformance : public ::testing::TestWithParam<std::string> {};

TEST_P(ExecutorConformance, NearestMatchesSerialLoopAtEveryThreadCount) {
  util::rng r(9001);
  const auto keys = wl::uniform_keys(256, r);
  network net(1);
  const auto idx = api::make_index(
      GetParam(), keys, api::index_options{}.seed(97).initial_hosts(8).bucket_size(16).buckets(24),
      net);
  std::vector<std::vector<std::uint64_t>> streams = {wl::query_stream(keys, 167, 9002)};
  // A long stream too, for skipweb1d only (it is long under TSan): the
  // caller sizes the 2^16 answers after it publishes the run, so the
  // helpers serve their first groups before the vector is sized and hold
  // those answers until it is. Held or stored at once, each answer must
  // land at its input position.
  if (GetParam() == "skipweb1d") {
    streams.push_back(wl::query_stream(keys, std::size_t{1} << 16, 9003));
  }

  for (const auto& qs : streams) {
    net.reset_traffic();
    std::vector<api::nn_result> serial;
    serial.reserve(qs.size());
    api::op_stats serial_total;
    for (const auto q : qs) {
      serial.push_back(idx->nearest(q, h(0)));
      serial_total += serial.back().stats;
    }
    const std::uint64_t serial_messages = net.total_messages();
    EXPECT_EQ(serial_total.messages, serial_messages);
    const auto serial_profile = net.congestion_profile();

    for (const std::size_t T : kThreadCounts) {
      serve::executor ex(T);
      for (const std::size_t batch : kBatchWidths) {
        net.reset_traffic();
        const auto out = ex.run_nearest(*idx, qs, h(0), batch);
        const auto where = "n=" + std::to_string(qs.size()) + " T=" + std::to_string(T) +
                           " batch=" + std::to_string(batch);
        ASSERT_EQ(out.results.size(), serial.size()) << where;
        std::size_t differ = 0;
        std::size_t first = serial.size();
        for (std::size_t i = 0; i < serial.size(); ++i) {
          if (same_nn(out.results[i], serial[i])) continue;
          ++differ;
          first = std::min(first, i);
        }
        EXPECT_EQ(differ, 0u) << where << " first i=" << first;
        EXPECT_EQ(out.total, serial_total) << where;
        // The workers' committed receipts reconcile with the ledger: each
        // worker writes its own shard, and the folded totals and per-host
        // counts never depend on the interleaving.
        EXPECT_EQ(net.total_messages(), serial_messages) << where;
        expect_same_profile(net.congestion_profile(), serial_profile, T);
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(AllBackends, ExecutorConformance,
                         ::testing::ValuesIn(api::registered_backends()),
                         [](const ::testing::TestParamInfo<std::string>& info) {
                           return info.param;
                         });

// --- every spatial backend: run_locate == serial loop ------------------------

class SpatialExecutorConformance : public ::testing::TestWithParam<std::string> {};

TEST_P(SpatialExecutorConformance, LocateMatchesSerialLoopAtEveryThreadCount) {
  const int dims = api::spatial_backend_dims(GetParam());
  util::rng r(9003);
  const auto pts = wl::spatial_points(dims, 128, false, r);
  network net(1);
  const auto idx = api::make_spatial_index(
      GetParam(), pts, api::index_options{}.seed(11).initial_hosts(32), net);
  const auto qs = wl::spatial_query_stream(dims, 97, 9004);

  net.reset_traffic();
  std::vector<api::spatial_locate_result> serial;
  serial.reserve(qs.size());
  api::op_stats serial_total;
  for (const auto& q : qs) {
    serial.push_back(idx->locate(q, h(0)));
    serial_total += serial.back().stats;
  }
  const std::uint64_t serial_messages = net.total_messages();
  const auto serial_profile = net.congestion_profile();

  for (const std::size_t T : kThreadCounts) {
    serve::executor ex(T);
    for (const std::size_t batch : kBatchWidths) {
      net.reset_traffic();
      const auto out = ex.run_locate(*idx, qs, h(0), batch);
      ASSERT_EQ(out.results.size(), serial.size()) << "T=" << T << " batch=" << batch;
      for (std::size_t i = 0; i < serial.size(); ++i) {
        EXPECT_TRUE(same_locate(out.results[i], serial[i]))
            << "T=" << T << " batch=" << batch << " i=" << i;
      }
      EXPECT_EQ(out.total, serial_total) << "T=" << T << " batch=" << batch;
      EXPECT_EQ(net.total_messages(), serial_messages) << "T=" << T << " batch=" << batch;
      expect_same_profile(net.congestion_profile(), serial_profile, T);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(AllSpatialBackends, SpatialExecutorConformance,
                         ::testing::ValuesIn(api::registered_spatial_backends()),
                         [](const ::testing::TestParamInfo<std::string>& info) {
                           return info.param;
                         });

// --- churned structures: the lazily-repaired root hints race benignly --------

TEST(ExecutorConcurrency, ChurnedAnchorsAreSafeUnderConcurrentQueries) {
  // Erase many anchor items so root_for() chases redirects and repairs the
  // level_lists alive-hint from several threads at once (the one atomic on
  // the query path); TSan watches, the assertions check determinism.
  util::rng r(9005);
  auto keys = wl::uniform_keys(192, r);
  network net(1);
  const auto idx = api::make_index("skipweb1d", keys, api::index_options{}.seed(5), net);
  for (std::size_t i = 0; i < 120; ++i) {
    (void)idx->erase(keys[i], h(0));
  }
  const std::vector<std::uint64_t> live(keys.begin() + 120, keys.end());
  const auto qs = wl::query_stream(live, 128, 9006);

  std::vector<api::nn_result> serial;
  api::op_stats serial_total;
  for (const auto q : qs) {
    serial.push_back(idx->nearest(q, h(3)));
    serial_total += serial.back().stats;
  }
  serve::executor ex(8);
  const auto out = ex.run_nearest(*idx, qs, h(3), 8);
  for (std::size_t i = 0; i < serial.size(); ++i) {
    EXPECT_TRUE(same_nn(out.results[i], serial[i])) << i;
  }
  EXPECT_EQ(out.total, serial_total);
}

// --- the hot-route replica cache under concurrent serving --------------------

TEST(ExecutorConcurrency, RouteCacheServingIsRaceFreeAndAnswerIdentical) {
  // Workers commit receipts (feeding route_cache::on_commit through the
  // network's cache seam) while other workers' cursors concurrently consult
  // absorbs() — the exact read/learn race the cache's lock-free slot array
  // and try-lock learning are built for. TSan watches; the assertions check
  // the replica-cache contract: answers identical to an uncached twin at
  // every thread count, even though receipts may legitimately differ.
  util::rng r(9010);
  const auto keys = wl::uniform_keys(256, r);
  const auto qs = wl::zipf_query_stream(keys, 256, 9011, 1.1);

  network plain_net(1);
  const auto plain = api::make_index("skipweb1d", keys, api::index_options{}.seed(7), plain_net);
  std::vector<api::nn_result> want;
  for (const auto q : qs) want.push_back(plain->nearest(q, h(0)));

  network net(1);
  serve::route_cache::options co;
  co.capacity = 16;
  co.depth = 8;
  co.promote_after = 4;
  serve::route_cache cache(co);
  const auto idx = api::make_index("skipweb1d", keys,
                                   api::index_options{}.seed(7).route_cache(&cache), net);
  for (const std::size_t T : kThreadCounts) {
    serve::executor ex(T);
    const auto out = ex.run_nearest(*idx, qs, h(0), 16);
    ASSERT_EQ(out.results.size(), want.size()) << "T=" << T;
    for (std::size_t i = 0; i < want.size(); ++i) {
      EXPECT_EQ(out.results[i].has_pred, want[i].has_pred) << "T=" << T << " i=" << i;
      EXPECT_EQ(out.results[i].has_succ, want[i].has_succ) << "T=" << T << " i=" << i;
      if (want[i].has_pred) {
        EXPECT_EQ(out.results[i].pred, want[i].pred) << "T=" << T << " i=" << i;
      }
      if (want[i].has_succ) {
        EXPECT_EQ(out.results[i].succ, want[i].succ) << "T=" << T << " i=" << i;
      }
    }
  }
  // After the first pass trained it, the cache must have actually absorbed
  // traffic (quiescent read: the executor joined its waves).
  EXPECT_GT(cache.hits(), 0u);
}

// --- cross-plane composition: loss + latency + replication + cache -----------

TEST(LatencyComposition, AllPlanesComposeDeterministicallyAcrossThreadCounts) {
  // Every stochastic plane at once — replicated routing, message loss with
  // its retries, and a LogNormal hop clock — and the executor must STILL
  // reproduce the serial loop bit-for-bit at every thread count: answers,
  // per-op receipts (summed), and the network's simulated-time ledger. This
  // is the strongest form of the determinism contract: each plane draws only
  // from (seed, from, to, cursor-private serial), so their composition
  // cannot couple concurrent operations either.
  util::rng r(9020);
  const auto keys = wl::uniform_keys(224, r);
  const auto qs = wl::query_stream(keys, 192, 9021);
  network net(1);
  const auto idx = api::make_index("skipweb1d", keys,
                                   api::index_options{}.seed(11).replication(3), net);
  net.set_message_loss(0.05, 9022);
  net.set_latency_model(net::latency_model::lognormal(1500, 0.5, 9023));
  net.reset_traffic();

  std::vector<api::nn_result> serial;
  api::op_stats serial_total;
  for (const auto q : qs) {
    serial.push_back(idx->nearest(q, h(0)));
    serial_total += serial.back().stats;
  }
  const std::uint64_t serial_sim = net.total_sim_ns();
  const std::uint64_t serial_msgs = net.total_messages();
  EXPECT_GT(serial_total.retries, 0u);       // the loss plane actually fired
  EXPECT_GT(serial_total.sim_latency_ns, 0u);  // and the clock actually ran

  for (const std::size_t T : {1u, 2u, 4u}) {
    net.reset_traffic();
    serve::executor ex(T);
    const auto out = ex.run_nearest(*idx, qs, h(0), 16);
    ASSERT_EQ(out.results.size(), serial.size()) << "T=" << T;
    for (std::size_t i = 0; i < serial.size(); ++i) {
      EXPECT_TRUE(same_nn(out.results[i], serial[i])) << "T=" << T << " i=" << i;
    }
    EXPECT_EQ(out.total, serial_total) << "T=" << T;
    EXPECT_EQ(net.total_sim_ns(), serial_sim) << "T=" << T;
    EXPECT_EQ(net.total_messages(), serial_msgs) << "T=" << T;
  }
}

TEST(LatencyComposition, RouteCacheComposesWithLossLatencyAndReplication) {
  // Same composition plus the hot-route replica cache: absorbed hops change
  // the receipts (legitimately — that's the cache working), so the contract
  // weakens to answer-identity against an uncached twin, at every thread
  // count, while TSan watches the cache's lock-free learning race against
  // cursors drawing loss and latency from the same commits.
  util::rng r(9024);
  const auto keys = wl::uniform_keys(224, r);
  const auto qs = wl::zipf_query_stream(keys, 224, 9025, 1.1);

  network plain_net(1);
  const auto plain = api::make_index("skipweb1d", keys,
                                     api::index_options{}.seed(11).replication(3), plain_net);
  plain_net.set_message_loss(0.05, 9026);
  plain_net.set_latency_model(net::latency_model::lognormal(1500, 0.5, 9027));
  std::vector<api::nn_result> want;
  for (const auto q : qs) want.push_back(plain->nearest(q, h(0)));

  network net(1);
  serve::route_cache::options co;
  co.capacity = 16;
  co.depth = 8;
  co.promote_after = 4;
  serve::route_cache cache(co);
  const auto idx = api::make_index(
      "skipweb1d", keys,
      api::index_options{}.seed(11).replication(3).route_cache(&cache), net);
  net.set_message_loss(0.05, 9026);
  net.set_latency_model(net::latency_model::lognormal(1500, 0.5, 9027));

  for (const std::size_t T : {1u, 2u, 4u}) {
    serve::executor ex(T);
    const auto out = ex.run_nearest(*idx, qs, h(0), 16);
    ASSERT_EQ(out.results.size(), want.size()) << "T=" << T;
    for (std::size_t i = 0; i < want.size(); ++i) {
      EXPECT_EQ(out.results[i].has_pred, want[i].has_pred) << "T=" << T << " i=" << i;
      EXPECT_EQ(out.results[i].has_succ, want[i].has_succ) << "T=" << T << " i=" << i;
      if (want[i].has_pred) {
        EXPECT_EQ(out.results[i].pred, want[i].pred) << "T=" << T << " i=" << i;
      }
      if (want[i].has_succ) {
        EXPECT_EQ(out.results[i].succ, want[i].succ) << "T=" << T << " i=" << i;
      }
    }
  }
  EXPECT_GT(cache.hits(), 0u);
}

// The spatial counterpart: the skip quadtree's batch router under every
// plane at once — replicated routing around a tenth of the hosts killed,
// message loss and a LogNormal hop clock. Per op, each locate_batch answer
// and receipt (messages, visits, comparisons, failed flag, simulated time)
// equals a serial locate from the same origin, and run_locate reproduces
// the serial totals and the network's time and message ledgers.
TEST(LatencyComposition, SpatialLocateBatchComposesWithEveryPlane) {
  for (const char* name : {"skip_quadtree2", "skip_quadtree3"}) {
    const int dims = api::spatial_backend_dims(name);
    util::rng r(9030);
    const auto pts = wl::spatial_points(dims, 192, false, r);
    const auto qs = wl::spatial_query_stream(dims, 150, 9031);
    network net(1);
    const auto idx = api::make_spatial_index(
        name, pts, api::index_options{}.seed(12).initial_hosts(40).replication(2), net);
    for (std::uint32_t v = 1; v < net.host_count(); v += 10) net.kill_host(h(v));
    net.set_message_loss(0.05, 9032);
    net.set_latency_model(net::latency_model::lognormal(1500, 0.5, 9033));

    for (const std::uint32_t origin : {0u, 2u, 7u}) {
      const auto batched = idx->locate_batch(qs, h(origin));
      ASSERT_EQ(batched.size(), qs.size()) << name;
      for (std::size_t i = 0; i < qs.size(); ++i) {
        EXPECT_TRUE(same_locate(batched[i], idx->locate(qs[i], h(origin))))
            << name << " origin=" << origin << " i=" << i;
      }
    }

    net.reset_traffic();
    std::vector<api::spatial_locate_result> serial;
    api::op_stats serial_total;
    for (const auto& q : qs) {
      serial.push_back(idx->locate(q, h(0)));
      serial_total += serial.back().stats;
    }
    const std::uint64_t serial_sim = net.total_sim_ns();
    const std::uint64_t serial_msgs = net.total_messages();
    EXPECT_GT(serial_total.retries, 0u) << name;         // loss and dead replicas fired
    EXPECT_GT(serial_total.sim_latency_ns, 0u) << name;  // and the clock ran

    for (const std::size_t T : {1u, 2u, 4u}) {
      net.reset_traffic();
      serve::executor ex(T);
      const auto out = ex.run_locate(*idx, qs, h(0), 16);
      ASSERT_EQ(out.results.size(), serial.size()) << name << " T=" << T;
      for (std::size_t i = 0; i < serial.size(); ++i) {
        EXPECT_TRUE(same_locate(out.results[i], serial[i])) << name << " T=" << T << " i=" << i;
      }
      EXPECT_EQ(out.total, serial_total) << name << " T=" << T;
      EXPECT_EQ(net.total_sim_ns(), serial_sim) << name << " T=" << T;
      EXPECT_EQ(net.total_messages(), serial_msgs) << name << " T=" << T;
    }
  }
}

// The same planes with the hot-route cache attached: absorbed hops change
// the receipts, so locate_batch and run_locate must match an uncached twin's
// answers only.
TEST(LatencyComposition, SpatialRouteCacheComposesWithEveryPlane) {
  for (const char* name : {"skip_quadtree2", "skip_quadtree3"}) {
    const int dims = api::spatial_backend_dims(name);
    util::rng r(9034);
    const auto pts = wl::spatial_points(dims, 192, false, r);
    const auto qs = wl::zipf_spatial_query_stream(pts, 200, 9035, 1.1);
    const auto opts = api::index_options{}.seed(12).initial_hosts(40).replication(2);
    const auto degrade = [](network& n) {
      for (std::uint32_t v = 1; v < n.host_count(); v += 10) n.kill_host(h(v));
      n.set_message_loss(0.05, 9036);
      n.set_latency_model(net::latency_model::lognormal(1500, 0.5, 9037));
    };

    network plain_net(1);
    const auto plain = api::make_spatial_index(name, pts, opts, plain_net);
    degrade(plain_net);
    std::vector<api::spatial_locate_result> want;
    for (const auto& q : qs) want.push_back(plain->locate(q, h(0)));

    network net(1);
    serve::route_cache::options co;
    co.capacity = 16;
    co.depth = 8;
    co.promote_after = 4;
    serve::route_cache cache(co);
    const auto idx =
        api::make_spatial_index(name, pts, api::index_options(opts).route_cache(&cache), net);
    degrade(net);
    const auto same_answer = [](const api::spatial_locate_result& a,
                                const api::spatial_locate_result& b) {
      return a.found == b.found && a.cell == b.cell && a.scale == b.scale;
    };
    const auto batched = idx->locate_batch(qs, h(0));
    for (std::size_t i = 0; i < want.size(); ++i) {
      EXPECT_TRUE(same_answer(batched[i], want[i])) << name << " i=" << i;
    }
    for (const std::size_t T : {1u, 2u, 4u}) {
      serve::executor ex(T);
      const auto out = ex.run_locate(*idx, qs, h(0), 16);
      ASSERT_EQ(out.results.size(), want.size()) << name << " T=" << T;
      for (std::size_t i = 0; i < want.size(); ++i) {
        EXPECT_TRUE(same_answer(out.results[i], want[i])) << name << " T=" << T << " i=" << i;
      }
    }
    EXPECT_GT(cache.hits(), 0u) << name;
  }
}

// --- seed-determinism: splittable streams & workload generation --------------

TEST(RngStreams, AreStatelessAndIndependent) {
  // stream() is a pure function of (seed, which): no parent state consumed,
  // so derivation order cannot matter.
  auto a0 = util::rng::stream(77, 0);
  auto a1 = util::rng::stream(77, 1);
  auto b1 = util::rng::stream(77, 1);
  auto b0 = util::rng::stream(77, 0);
  for (int i = 0; i < 32; ++i) {
    EXPECT_EQ(a0.next_u64(), b0.next_u64());
    EXPECT_EQ(a1.next_u64(), b1.next_u64());
  }
  // Nearby tags yield unrelated streams.
  auto c0 = util::rng::stream(77, 0);
  auto c1 = util::rng::stream(77, 1);
  EXPECT_NE(c0.next_u64(), c1.next_u64());
  // Unlike split(), which consumes parent state.
  util::rng parent1(77), parent2(77);
  (void)parent2.next_u64();
  EXPECT_NE(parent1.split(0).next_u64(), parent2.split(0).next_u64());
}

TEST(WorkloadDeterminism, QueryStreamIsThreadCountInvariant) {
  util::rng r(9007);
  const auto keys = wl::uniform_keys(200, r);
  // The stream is a pure function of (keys, count, seed)...
  const auto qs1 = wl::query_stream(keys, 300, 123);
  const auto qs2 = wl::query_stream(keys, 300, 123);
  EXPECT_EQ(qs1, qs2);
  EXPECT_NE(qs1, wl::query_stream(keys, 300, 124));
  // ...and the executor partition reassembles it exactly, so every thread
  // count serves the identical query set in the identical global order.
  for (const std::size_t T : kThreadCounts) {
    std::vector<std::uint64_t> reassembled;
    for (std::size_t t = 0; t < T; ++t) {
      const auto [lo, hi] = serve::executor::slice(qs1.size(), t, T);
      reassembled.insert(reassembled.end(), qs1.begin() + static_cast<std::ptrdiff_t>(lo),
                         qs1.begin() + static_cast<std::ptrdiff_t>(hi));
    }
    EXPECT_EQ(reassembled, qs1) << "T=" << T;
  }
  const auto sq1 = wl::spatial_query_stream(2, 50, 55);
  const auto sq2 = wl::spatial_query_stream(2, 50, 55);
  EXPECT_EQ(sq1, sq2);
}

// --- raw commit contention: many threads, one ledger -------------------------

TEST(NetworkCommit, ConcurrentCommitsAreExact) {
  network net(64);
  constexpr std::size_t kThreads = 8, kOpsPerThread = 200, kHopsPerOp = 10;
  {
    serve::executor ex(kThreads);
    ex.for_slices(kThreads * kOpsPerThread, [&](std::size_t, std::size_t lo, std::size_t hi) {
      for (std::size_t op = lo; op < hi; ++op) {
        net::cursor cur(net, h(0));
        for (std::size_t i = 1; i <= kHopsPerOp; ++i) {
          // Hosts 1..63 only: never the origin, and consecutive hops are
          // distinct, so every iteration is a real (charged) hop.
          cur.move_to(h(static_cast<std::uint32_t>((op + i) % 63 + 1)));
        }
      }
    });
  }
  EXPECT_TRUE(net.traffic_quiescent());
  std::uint64_t visit_sum = 0;
  for (std::uint32_t i = 0; i < 64; ++i) visit_sum += net.visits(h(i));
  EXPECT_EQ(net.total_messages(), kThreads * kOpsPerThread * kHopsPerOp);
  EXPECT_EQ(visit_sum, net.total_messages());
}

// One thread's share of a ledger phase: op k starts at host k % hosts and
// bounces between its two next neighbours for 1 + k % 11 hops, so receipts
// differ in length, sim time and per-op host load. Returns the messages its
// cursors charged.
std::uint64_t run_ops(network& net, std::size_t lo, std::size_t hi) {
  std::uint64_t messages = 0;
  const auto hosts = static_cast<std::uint32_t>(net.host_count());
  for (std::size_t k = lo; k < hi; ++k) {
    const auto origin = static_cast<std::uint32_t>(k % hosts);
    net::cursor cur(net, h(origin));
    for (std::size_t i = 0; i < 1 + k % 11; ++i) {
      cur.move_to(h((origin + 1 + static_cast<std::uint32_t>(i % 2)) % hosts));
    }
    messages += cur.messages();
  }
  return messages;
}

TEST(NetworkCommit, ShardedLedgerIsExactUnderThreadChurnGrowthAndResets) {
  // Each committing thread writes its own shard; the getters fold them. Run
  // executors of 1, 2, 4 and 8 workers in turn (each destroyed before the
  // next, so thread slots are recycled), main-thread commits between them,
  // host growth, a reset, and a thread whose commits alternate between two
  // networks, so its shard cache misses on every one. After every phase the
  // folded ledger must equal a serial tally, and the time and per-op load
  // totals a one-thread twin that committed the same ops.
  network net(40), twin(40), other(40);
  for (network* n : {&net, &twin, &other}) {
    n->set_latency_model(net::latency_model::lognormal(1000, 0.5, 3));
    n->set_op_load_tracking(true);
  }
  std::vector<std::uint64_t> tally(net.host_count(), 0);
  std::uint64_t receipt_messages = 0;
  std::size_t next_op = 0;

  // Ops [base, base + ops), committed serially into the twin and tallied.
  const auto mirror = [&](std::size_t base, std::size_t ops) {
    run_ops(twin, base, base + ops);
    const auto hosts = static_cast<std::uint32_t>(net.host_count());
    for (std::size_t k = base; k < base + ops; ++k) {
      const auto origin = static_cast<std::uint32_t>(k % hosts);
      for (std::size_t i = 0; i < 1 + k % 11; ++i) ++tally[(origin + 1 + i % 2) % hosts];
    }
  };
  // The next `ops` ops on `net` from T workers (0 = this thread), mirrored.
  const auto phase = [&](std::size_t ops, std::size_t T) {
    const std::size_t base = next_op;
    next_op += ops;
    if (T == 0) {
      receipt_messages += run_ops(net, base, base + ops);
    } else {
      std::vector<std::uint64_t> per_worker(T, 0);
      serve::executor ex(T);
      ex.for_slices(ops, [&](std::size_t t, std::size_t lo, std::size_t hi) {
        per_worker[t] = run_ops(net, base + lo, base + hi);
      });
      for (const auto m : per_worker) receipt_messages += m;
    }
    mirror(base, ops);
  };
  const auto check = [&](const std::string& when) {
    SCOPED_TRACE(when);
    std::uint64_t visit_sum = 0, busiest = 0;
    for (std::uint32_t i = 0; i < net.host_count(); ++i) {
      EXPECT_EQ(net.visits(h(i)), tally[i]) << "host " << i;
      visit_sum += net.visits(h(i));
      busiest = std::max(busiest, tally[i]);
    }
    EXPECT_EQ(net.total_messages(), visit_sum);
    EXPECT_EQ(net.total_messages(), receipt_messages);
    EXPECT_EQ(net.max_visits(), busiest);
    EXPECT_EQ(net.congestion_profile().total_visits, visit_sum);
    EXPECT_EQ(net.total_sim_ns(), twin.total_sim_ns());
    EXPECT_GT(net.total_sim_ns(), 0u);
    EXPECT_EQ(net.max_op_host_load(), twin.max_op_host_load());
  };

  phase(50, 0);
  check("main thread");
  for (const std::size_t T : kThreadCounts) {
    phase(400, T);
    check("executor T=" + std::to_string(T));
    phase(25, 0);
    check("main thread after T=" + std::to_string(T));
  }

  for (network* n : {&net, &twin, &other}) n->add_hosts(600);
  tally.resize(net.host_count(), 0);
  phase(300, 4);
  phase(25, 0);
  check("after add_hosts");

  // One thread, two networks: every commit misses the thread's shard cache
  // and registers through the network's mutex.
  const std::size_t base = next_op;
  next_op += 200;
  std::uint64_t alternating = 0, bystander = 0;
  std::thread([&] {
    for (std::size_t k = base; k < base + 200; ++k) {
      alternating += run_ops(net, k, k + 1);
      bystander += run_ops(other, k, k + 1);
    }
  }).join();
  receipt_messages += alternating;
  mirror(base, 200);
  check("one thread alternating between two networks");
  EXPECT_EQ(other.total_messages(), bystander);

  for (network* n : {&net, &twin}) n->reset_traffic();
  std::fill(tally.begin(), tally.end(), 0);
  receipt_messages = 0;
  EXPECT_EQ(net.total_messages(), 0u);
  EXPECT_EQ(net.total_sim_ns(), 0u);
  EXPECT_EQ(net.max_op_host_load(), 0u);
  phase(300, 2);
  phase(25, 0);
  phase(300, 8);
  check("after reset_traffic");
}

TEST(NetworkCommit, HardwareReport) {
  // Not an assertion — records what the scaling numbers in BENCH_*.json were
  // up against on this machine.
  ::testing::Test::RecordProperty("hardware_concurrency",
                                  static_cast<int>(std::thread::hardware_concurrency()));
  SUCCEED();
}

}  // namespace
