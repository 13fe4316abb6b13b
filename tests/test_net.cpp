#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <utility>
#include <vector>

#include "net/cursor.h"
#include "net/network.h"
#include "net/placement.h"
#include "net/receipt.h"
#include "net/types.h"
#include "util/rng.h"

namespace {

using namespace skipweb::net;

host_id h(std::uint32_t v) { return host_id{v}; }

TEST(Network, StartsEmpty) {
  network net(4);
  EXPECT_EQ(net.host_count(), 4u);
  EXPECT_EQ(net.total_messages(), 0u);
  EXPECT_EQ(net.total_memory(), 0u);
  EXPECT_EQ(net.max_memory(), 0u);
  EXPECT_EQ(net.max_visits(), 0u);
}

TEST(Network, MemoryLedgerPerKind) {
  network net(2);
  net.charge(h(0), memory_kind::item, 3);
  net.charge(h(0), memory_kind::pointer, 5);
  net.charge(h(1), memory_kind::host_ref, 2);
  EXPECT_EQ(net.memory_used(h(0)), 8u);
  EXPECT_EQ(net.memory_used(h(0), memory_kind::item), 3u);
  EXPECT_EQ(net.memory_used(h(0), memory_kind::pointer), 5u);
  EXPECT_EQ(net.memory_used(h(1)), 2u);
  EXPECT_EQ(net.max_memory(), 8u);
  EXPECT_EQ(net.total_memory(), 10u);
  EXPECT_DOUBLE_EQ(net.mean_memory(), 5.0);

  net.charge(h(0), memory_kind::item, -3);
  EXPECT_EQ(net.memory_used(h(0), memory_kind::item), 0u);
}

TEST(Network, NegativeChargeBelowZeroIsContractViolation) {
  network net(1);
  net.charge(h(0), memory_kind::node, 1);
  EXPECT_THROW(net.charge(h(0), memory_kind::node, -2), skipweb::util::contract_error);
}

TEST(Network, InvalidHostRejected) {
  network net(2);
  EXPECT_THROW(net.charge(h(2), memory_kind::item, 1), skipweb::util::contract_error);
  EXPECT_THROW(net.charge(invalid_host, memory_kind::item, 1), skipweb::util::contract_error);
  EXPECT_THROW((void)net.memory_used(h(9)), skipweb::util::contract_error);
  EXPECT_THROW((void)net.visits(h(9)), skipweb::util::contract_error);
}

TEST(Cursor, LocalMovesAreFree) {
  network net(3);
  cursor c(net, h(1));
  c.move_to(h(1));
  c.move_to(h(1));
  EXPECT_EQ(c.messages(), 0u);
  EXPECT_TRUE(c.receipt().empty());
  EXPECT_EQ(net.total_messages(), 0u);
}

TEST(Cursor, EachInterHostHopCostsOneMessage) {
  network net(3);
  {
    cursor c(net, h(0));
    c.move_to(h(1));
    c.move_to(h(2));
    c.move_to(h(2));
    c.move_to(h(0));
    EXPECT_EQ(c.messages(), 3u);
    EXPECT_EQ(c.at(), h(0));
    // Mid-route the shared ledger is untouched: the hops live only in the
    // cursor-local receipt until the operation settles.
    EXPECT_EQ(net.total_messages(), 0u);
    EXPECT_EQ(c.receipt().size(), 3u);
    EXPECT_EQ(c.receipt().at(0), h(1));
    EXPECT_EQ(c.receipt().at(1), h(2));
    EXPECT_EQ(c.receipt().at(2), h(0));
  }
  // Destruction commits the receipt.
  EXPECT_EQ(net.total_messages(), 3u);
}

TEST(Cursor, SettleCommitsOnceAndClears) {
  network net(3);
  cursor c(net, h(0));
  c.move_to(h(1));
  c.settle();
  EXPECT_EQ(net.total_messages(), 1u);
  EXPECT_TRUE(c.receipt().empty());
  c.settle();  // idempotent: nothing new accumulated
  EXPECT_EQ(net.total_messages(), 1u);
  c.move_to(h(2));
  c.settle();  // only the fresh hop commits
  EXPECT_EQ(net.total_messages(), 2u);
  EXPECT_EQ(c.messages(), 2u);  // the cursor's own counters are unaffected
}

TEST(Cursor, VisitsAccumulateAtDestination) {
  network net(3);
  {
    cursor a(net, h(0)), b(net, h(1));
    a.move_to(h(2));
    b.move_to(h(2));
    a.move_to(h(1));
  }
  EXPECT_EQ(net.visits(h(2)), 2u);
  EXPECT_EQ(net.visits(h(1)), 1u);
  EXPECT_EQ(net.visits(h(0)), 0u);
  EXPECT_EQ(net.max_visits(), 2u);
}

TEST(Cursor, MovesViaAddress) {
  network net(2);
  cursor c(net, h(0));
  c.move_to(address{h(1), 7});
  EXPECT_EQ(c.at(), h(1));
  EXPECT_EQ(c.messages(), 1u);
}

TEST(Cursor, ConcurrentCursorsShareNetworkTotals) {
  network net(4);
  {
    cursor a(net, h(0)), b(net, h(3));
    a.move_to(h(1));
    b.move_to(h(2));
    b.move_to(h(1));
    EXPECT_EQ(a.messages(), 1u);
    EXPECT_EQ(b.messages(), 2u);
  }
  EXPECT_EQ(net.total_messages(), 3u);
}

TEST(Cursor, MoveTransfersTheReceipt) {
  network net(3);
  {
    cursor a(net, h(0));
    a.move_to(h(1));
    cursor b(std::move(a));
    b.move_to(h(2));
    std::vector<cursor> pool;
    pool.push_back(std::move(b));
    EXPECT_EQ(pool.back().messages(), 2u);
    EXPECT_EQ(pool.back().receipt().size(), 2u);
    EXPECT_EQ(net.total_messages(), 0u);  // no double-commit from moved-from shells
  }
  EXPECT_EQ(net.total_messages(), 2u);
  EXPECT_EQ(net.visits(h(1)), 1u);
  EXPECT_EQ(net.visits(h(2)), 1u);
}

TEST(Network, CommitMergesAReceiptDirectly) {
  network net(4);
  traffic_receipt r;
  r.record(h(1));
  r.record(h(2));
  r.record(h(1));
  net.commit(r);
  EXPECT_EQ(net.total_messages(), 3u);
  EXPECT_EQ(net.visits(h(1)), 2u);
  EXPECT_EQ(net.visits(h(2)), 1u);
  EXPECT_TRUE(net.traffic_quiescent());
}

TEST(Network, ReceiptSpillsPastTheInlineBuffer) {
  network net(2);
  traffic_receipt r;
  const std::size_t hops = traffic_receipt::inline_capacity + 10;
  for (std::size_t i = 0; i < hops; ++i) r.record(h(static_cast<std::uint32_t>(i % 2)));
  ASSERT_EQ(r.size(), hops);
  for (std::size_t i = 0; i < hops; ++i) EXPECT_EQ(r.at(i), h(static_cast<std::uint32_t>(i % 2)));
  net.commit(r);
  EXPECT_EQ(net.total_messages(), hops);
  EXPECT_EQ(net.visits(h(0)) + net.visits(h(1)), hops);
}

TEST(Network, ResetTrafficKeepsMemory) {
  network net(2);
  net.charge(h(0), memory_kind::node, 4);
  {
    cursor c(net, h(0));
    c.move_to(h(1));
  }
  net.reset_traffic();
  EXPECT_EQ(net.total_messages(), 0u);
  EXPECT_EQ(net.visits(h(1)), 0u);
  EXPECT_EQ(net.memory_used(h(0)), 4u);
}

TEST(Network, AddHostGrowthKeepsVisitCountersStable) {
  // Grow one host at a time through several relocations of the visit
  // ledger: counters written before growth keep their values, and fresh
  // hosts start at zero.
  network net(1);
  {
    cursor c(net, h(0));
    c.move_to(h(0));  // free
  }
  traffic_receipt r;
  r.record(h(0));
  net.commit(r);
  for (std::uint32_t i = 1; i < 5000; ++i) {
    const auto fresh = net.add_host();
    EXPECT_EQ(fresh, h(i));
  }
  EXPECT_EQ(net.host_count(), 5000u);
  EXPECT_EQ(net.visits(h(0)), 1u);
  EXPECT_EQ(net.visits(h(4999)), 0u);
  traffic_receipt r2;
  r2.record(h(4999));
  net.commit(r2);
  EXPECT_EQ(net.visits(h(4999)), 1u);
  EXPECT_EQ(net.total_messages(), 2u);
}

TEST(Network, AdoptedLedgerIsReadInPlaceAndCopiedOnFirstCharge) {
  // A snapshot restore hands the network a borrowed span of saved rows.
  // Reads go to the span; the first charge copies it, so the saved rows
  // never change. The network grows to the adopted host count, fault plane
  // included, and every host's row is the saved one.
  std::vector<memory_row> saved(6);
  saved[0].counts[0] = 2;
  saved[4].counts[static_cast<int>(memory_kind::node)] = 7;
  const auto blob = std::make_shared<int>(0);  // stands in for the mapping
  network net(2);
  net.charge(h(0), memory_kind::pointer, 5);
  net.kill_host(h(1));
  net.adopt_memory_rows(
      skipweb::persist::pod_array<memory_row>::borrow(blob, saved.data(), saved.size()));
  EXPECT_EQ(net.host_count(), 6u);
  EXPECT_TRUE(net.memory_rows().borrowed());
  EXPECT_EQ(net.memory_used(h(0)), 2u);
  EXPECT_EQ(net.memory_used(h(4), memory_kind::node), 7u);
  EXPECT_FALSE(net.host_alive(h(1)));
  EXPECT_TRUE(net.host_alive(h(5)));
  EXPECT_EQ(net.visits(h(5)), 0u);
  net.charge(h(4), memory_kind::node, 1);
  EXPECT_FALSE(net.memory_rows().borrowed());
  EXPECT_EQ(net.memory_used(h(4), memory_kind::node), 8u);
  EXPECT_EQ(saved[4].counts[static_cast<int>(memory_kind::node)], 7u);
  EXPECT_EQ(net.add_host(), h(6));
  EXPECT_EQ(net.memory_used(h(6)), 0u);
  EXPECT_EQ(net.total_memory(), 2u + 8u);
}

TEST(Placement, TowerIsIdentity) {
  const auto p = tower_placement(5);
  ASSERT_EQ(p.size(), 5u);
  for (std::uint32_t i = 0; i < 5; ++i) EXPECT_EQ(p[i], h(i));
}

TEST(Placement, BalancedIsEvenAndCoversAllHosts) {
  skipweb::util::rng r(3);
  const std::size_t count = 1000, hosts = 10;
  const auto p = balanced_placement(count, hosts, r);
  std::vector<int> load(hosts, 0);
  for (const auto& hid : p) {
    ASSERT_LT(hid.value, hosts);
    ++load[hid.value];
  }
  for (int l : load) EXPECT_EQ(l, 100);
}

TEST(Placement, BalancedIsShuffled) {
  skipweb::util::rng r(3);
  const auto p = balanced_placement(100, 10, r);
  const auto rr = round_robin_placement(100, 10);
  EXPECT_NE(p, rr);
}

TEST(Placement, RoundRobinDeterministic) {
  const auto p = round_robin_placement(7, 3);
  const std::vector<host_id> want = {h(0), h(1), h(2), h(0), h(1), h(2), h(0)};
  EXPECT_EQ(p, want);
}

TEST(Types, HostIdValidity) {
  EXPECT_FALSE(invalid_host.valid());
  EXPECT_TRUE(h(0).valid());
  EXPECT_FALSE(null_address.valid());
  EXPECT_TRUE((address{h(1), 0}).valid());
}

TEST(Types, Ordering) {
  EXPECT_LT(h(1), h(2));
  EXPECT_EQ(h(3), h(3));
  const address a{h(1), 5}, b{h(1), 6}, c{h(2), 0};
  EXPECT_LT(a, b);
  EXPECT_LT(b, c);
}

}  // namespace
