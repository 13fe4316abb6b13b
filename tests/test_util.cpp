#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cmath>
#include <set>
#include <stdexcept>
#include <thread>
#include <vector>

#include "util/membership.h"
#include "util/pool.h"
#include "util/rng.h"
#include "util/stats.h"
#include "util/sw_assert.h"

namespace {

using namespace skipweb::util;

TEST(Rng, DeterministicForSameSeed) {
  rng a(42), b(42);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.next_u64(), b.next_u64());
}

TEST(Rng, DifferentSeedsDiverge) {
  rng a(1), b(2);
  int equal = 0;
  for (int i = 0; i < 64; ++i) equal += (a.next_u64() == b.next_u64());
  EXPECT_LT(equal, 4);
}

TEST(Rng, BitIsRoughlyFair) {
  rng r(7);
  int ones = 0;
  const int trials = 100000;
  for (int i = 0; i < trials; ++i) ones += r.bit();
  EXPECT_NEAR(static_cast<double>(ones) / trials, 0.5, 0.02);
}

TEST(Rng, UniformRespectsBounds) {
  rng r(9);
  for (int i = 0; i < 1000; ++i) {
    const auto v = r.uniform_u64(10, 20);
    EXPECT_GE(v, 10u);
    EXPECT_LE(v, 20u);
  }
}

TEST(Rng, IndexRespectsBound) {
  rng r(11);
  std::set<std::size_t> seen;
  for (int i = 0; i < 1000; ++i) seen.insert(r.index(7));
  EXPECT_EQ(seen.size(), 7u);
  EXPECT_EQ(*seen.rbegin(), 6u);
}

TEST(Rng, SplitStreamsAreIndependentAndReproducible) {
  rng parent1(5), parent2(5);
  rng a = parent1.split(1);
  rng b = parent2.split(1);
  for (int i = 0; i < 32; ++i) EXPECT_EQ(a.next_u64(), b.next_u64());

  rng parent3(5);
  rng c = parent3.split(2);
  rng parent4(5);
  rng d = parent4.split(1);
  int equal = 0;
  for (int i = 0; i < 64; ++i) equal += (c.next_u64() == d.next_u64());
  EXPECT_LT(equal, 4);
}

TEST(Rng, ExpectsThrowsOnBadArguments) {
  rng r(1);
  EXPECT_THROW(r.uniform_u64(5, 4), contract_error);
  EXPECT_THROW(r.index(0), contract_error);
  EXPECT_THROW(r.uniform_real(1.0, 1.0), contract_error);
}

TEST(Membership, BitExtraction) {
  const membership_bits m = 0b1011;
  EXPECT_TRUE(membership_bit(m, 0));
  EXPECT_TRUE(membership_bit(m, 1));
  EXPECT_FALSE(membership_bit(m, 2));
  EXPECT_TRUE(membership_bit(m, 3));
  EXPECT_FALSE(membership_bit(m, 63));
}

TEST(Membership, LevelsForIsCeilLog2) {
  EXPECT_EQ(levels_for(0), 0);
  EXPECT_EQ(levels_for(1), 0);
  EXPECT_EQ(levels_for(2), 1);
  EXPECT_EQ(levels_for(3), 2);
  EXPECT_EQ(levels_for(4), 2);
  EXPECT_EQ(levels_for(5), 3);
  EXPECT_EQ(levels_for(1024), 10);
  EXPECT_EQ(levels_for(1025), 11);
}

TEST(Membership, PrefixChildParentRoundTrip) {
  level_prefix root{};
  EXPECT_EQ(root.length, 0);
  const auto p01 = root.child(false).child(true);
  EXPECT_EQ(p01.length, 2);
  EXPECT_EQ(p01.bits, 0b10u);
  EXPECT_EQ(p01.parent(), root.child(false));
  EXPECT_EQ(p01.parent().parent(), root);
}

TEST(Membership, InLevelSetMatchesPrefix) {
  const membership_bits m = 0b1101;
  EXPECT_TRUE(in_level_set(m, level_prefix{}));
  EXPECT_TRUE(in_level_set(m, prefix_of(m, 4)));
  EXPECT_TRUE(in_level_set(m, level_prefix{1, 0b1}));
  EXPECT_FALSE(in_level_set(m, level_prefix{1, 0b0}));
  EXPECT_TRUE(in_level_set(m, level_prefix{3, 0b101}));
  EXPECT_FALSE(in_level_set(m, level_prefix{3, 0b001}));
}

TEST(Membership, EveryItemInExactlyOneLevelSetPerDepth) {
  rng r(13);
  for (int trial = 0; trial < 200; ++trial) {
    const membership_bits m = draw_membership(r);
    for (int depth = 1; depth <= 8; ++depth) {
      int containing = 0;
      for (std::uint64_t bits = 0; bits < (1ull << depth); ++bits) {
        containing += in_level_set(m, level_prefix{depth, bits});
      }
      EXPECT_EQ(containing, 1) << "depth " << depth;
    }
  }
}

TEST(Membership, HalvingInExpectation) {
  rng r(17);
  const int n = 20000;
  int survivors = 0;
  for (int i = 0; i < n; ++i) {
    survivors += in_level_set(draw_membership(r), level_prefix{1, 0});
  }
  EXPECT_NEAR(static_cast<double>(survivors) / n, 0.5, 0.02);
}

TEST(Stats, AccumulatorBasics) {
  accumulator a;
  for (double x : {1.0, 2.0, 3.0, 4.0}) a.add(x);
  EXPECT_EQ(a.count(), 4u);
  EXPECT_DOUBLE_EQ(a.mean(), 2.5);
  EXPECT_DOUBLE_EQ(a.min(), 1.0);
  EXPECT_DOUBLE_EQ(a.max(), 4.0);
  EXPECT_DOUBLE_EQ(a.sum(), 10.0);
  EXPECT_NEAR(a.variance(), 5.0 / 3.0, 1e-12);
}

TEST(Stats, EmptyAccumulatorIsZero) {
  accumulator a;
  EXPECT_EQ(a.count(), 0u);
  EXPECT_EQ(a.mean(), 0.0);
  EXPECT_EQ(a.variance(), 0.0);
}

TEST(Stats, FitSlopeRecoversLine) {
  std::vector<double> xs, ys;
  for (int i = 1; i <= 20; ++i) {
    xs.push_back(i);
    ys.push_back(3.0 * i + 7.0);
  }
  EXPECT_NEAR(fit_slope(xs, ys), 3.0, 1e-9);
}

TEST(Stats, CorrelationDetectsLinearMatch) {
  std::vector<double> xs, ys, flat;
  for (int i = 1; i <= 16; ++i) {
    xs.push_back(std::log2(static_cast<double>(1 << i)));
    ys.push_back(2.0 * xs.back() + 1.0);
    flat.push_back(5.0);
  }
  EXPECT_NEAR(correlation(xs, ys), 1.0, 1e-9);
  EXPECT_NEAR(correlation(xs, flat), 0.0, 1e-9);
}

TEST(Stats, LogOverLoglogIsSane) {
  EXPECT_NEAR(log_over_loglog(1024.0), 10.0 / std::log2(10.0), 1e-12);
  EXPECT_GT(log_over_loglog(1 << 20), log_over_loglog(1 << 10));
}

// Every task runs once, on a worker index below the count asked for, and
// more workers than tasks start no idle helper.
TEST(FanOut, RunsEveryTaskOnce) {
  for (const std::size_t workers : {std::size_t{1}, std::size_t{3}, std::size_t{8}}) {
    std::vector<std::atomic<int>> runs(37);
    std::atomic<bool> worker_in_range{true};
    fan_out(runs.size(), workers, [&](std::size_t t, std::size_t w) {
      runs[t].fetch_add(1);
      if (w >= workers) worker_in_range = false;
    });
    for (const auto& r : runs) EXPECT_EQ(r.load(), 1) << workers;
    EXPECT_TRUE(worker_in_range) << workers;
  }
  fan_out(0, 4, [](std::size_t, std::size_t) { FAIL() << "no task to run"; });
  EXPECT_GE(fan_out_workers(1000), 1u);
  EXPECT_EQ(fan_out_workers(1), 1u);
  EXPECT_EQ(fan_out_workers(0), 1u);
}

// A throwing task is rethrown after every worker has joined: each task that
// started, here while task 0 was still running, has finished by the time
// the caller sees the exception, and no task starts after the throw.
TEST(FanOut, RethrowsOnlyAfterEveryWorkerJoined) {
  std::atomic<int> started{0}, finished{0};
  try {
    fan_out(16, 4, [&](std::size_t t, std::size_t) {
      if (t == 0) {
        std::this_thread::sleep_for(std::chrono::milliseconds(5));
        throw std::runtime_error("task 0");
      }
      started.fetch_add(1);
      std::this_thread::sleep_for(std::chrono::milliseconds(20));
      finished.fetch_add(1);
    });
    FAIL() << "fan_out swallowed the exception";
  } catch (const std::runtime_error& e) {
    EXPECT_STREQ(e.what(), "task 0");
    EXPECT_EQ(started.load(), finished.load());
    EXPECT_LT(started.load(), 15);  // claiming stopped at the throw
  }
}

// A throw from the caller's own share, worker 0, stops the claims too, and
// reaches the caller only after every helper has finished its task. Each
// helper holds one task until the throw, so every task that started, started
// before it.
TEST(FanOut, CallerShareThrowStopsHelpers) {
  constexpr std::size_t workers = 4;
  const std::size_t helpers = std::min(workers, fan_out_workers(64)) - 1;
  const auto by = std::chrono::steady_clock::now() + std::chrono::seconds(10);
  std::atomic<std::size_t> started{0}, finished{0};
  std::atomic<bool> thrown{false}, started_after_throw{false};
  try {
    fan_out(64, workers, [&](std::size_t, std::size_t w) {
      if (w == 0) {
        while (started.load() < helpers && std::chrono::steady_clock::now() < by) {
          std::this_thread::yield();
        }
        thrown = true;
        throw std::runtime_error("worker 0");
      }
      if (thrown) started_after_throw = true;
      started.fetch_add(1);
      while (!thrown && std::chrono::steady_clock::now() < by) std::this_thread::yield();
      std::this_thread::sleep_for(std::chrono::milliseconds(20));
      finished.fetch_add(1);
    });
    FAIL() << "fan_out swallowed the exception";
  } catch (const std::runtime_error& e) {
    EXPECT_STREQ(e.what(), "worker 0");
    EXPECT_EQ(started.load(), helpers);
    EXPECT_EQ(finished.load(), started.load());
    EXPECT_FALSE(started_after_throw.load());
  }
}

TEST(Contracts, MacrosThrowContractError) {
  EXPECT_THROW(SW_EXPECTS(false), contract_error);
  EXPECT_THROW(SW_ENSURES(1 == 2), contract_error);
  EXPECT_THROW(SW_ASSERT(false), contract_error);
  EXPECT_NO_THROW(SW_EXPECTS(true));
}

}  // namespace
