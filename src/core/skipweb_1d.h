#pragma once

#include <cstdint>
#include <vector>

#include "api/memory_footprint.h"
#include "api/op_stats.h"
#include "core/level_lists.h"
#include "net/cursor.h"
#include "net/network.h"
#include "persist/snapshot.h"
#include "util/rng.h"

namespace skipweb::core {

// One-dimensional skip-web (paper §2.3–§2.5, Figure 2) with the *general*
// node→host assignment of §2.4: every level node is an independent unit that
// can live on any host. Two placements are provided:
//
//   - tower:    item i's whole tower lives on host i (H = n; the layout skip
//               graphs/SkipNet use, per the Figure 2 caption).
//   - balanced: nodes are spread over the hosts by hashing (item, level) —
//               the "arbitrary assignment" the framework allows.
//
// Queries are 1-D nearest-neighbour searches (equivalently point location in
// the link ranges); inserts/deletes follow §4. Expected costs (Theorem 2):
// M = O(log n), C = O(log n), Q = O(log n), U = O(log n) messages. The
// improved O(log n / log log n) query bound needs the blocked layout — see
// bucket_skipweb.h.
class skipweb_1d {
 public:
  enum class placement { tower, balanced };

  // Builds over `keys` (distinct, any order) on `net`. Host expectations:
  // tower placement uses one host per item and keeps using fresh hosts as
  // items are inserted (net.add_host); balanced placement spreads over all
  // current hosts of `net`.
  //
  // `replication` (the fault plane, DESIGN.md §10) installs k-entry
  // successor/predecessor replica lists so queries route around up to k
  // consecutive dead hosts and repair_step() can restore the structure after
  // crashes. Supported for tower placement only (balanced placement spreads
  // one item's tower over many hosts, so per-item liveness is not a single
  // host's liveness); with balanced placement the knob is ignored. k = 0
  // keeps routing and receipts byte-identical to the pre-fault structure.
  //
  // `bulk` selects level_lists::build_from_sorted — the linear-pass arena
  // construction that is byte-identical to the reference build (DESIGN.md
  // §12) — and exists only so twin tests and build microbenches can force
  // the reference path; queries and receipts do not depend on it.
  skipweb_1d(std::vector<std::uint64_t> keys, std::uint64_t seed, net::network& net, placement p,
             std::size_t replication = 0, bool bulk = true);

  // Restore from a snapshot written by save_snapshot(), onto a FRESH network.
  // The network adopts the saved host count and per-host memory ledger, so
  // the restored structure answers — keys, uids, and receipts —
  // byte-identically to its never-persisted twin (DESIGN.md §13). The
  // arenas, the placement tables and the ledger come back as borrowed views
  // over the reader's blob (zero-copy in mmap mode) and materialize
  // copy-on-first-write at the first splice or charge.
  skipweb_1d(persist::reader& r, net::network& net);

  [[nodiscard]] std::size_t size() const { return lists_.size(); }
  [[nodiscard]] int levels() const { return lists_.levels(); }
  [[nodiscard]] placement policy() const { return policy_; }
  [[nodiscard]] const level_lists& lists() const { return lists_; }
  // Effective replication factor (0 unless tower placement asked for more).
  [[nodiscard]] std::size_t replication() const { return lists_.replication(); }

  // Nearest-neighbour query issued from `origin`: the level-0 predecessor
  // and successor of q, with the op's cost receipt in `.stats`.
  [[nodiscard]] api::nn_result nearest(std::uint64_t q, net::host_id origin) const;

  // Batched nearest: identical results and per-op receipts to calling
  // nearest() once per query, but the independent lookups are interleaved so
  // their memory-latency chains overlap (see route_search_batch). This is
  // the server-side batching a real deployment would do; bench_throughput
  // uses it for its batched search cells.
  [[nodiscard]] std::vector<api::nn_result> nearest_batch(const std::vector<std::uint64_t>& qs,
                                                          net::host_id origin) const;

  [[nodiscard]] api::op_result<bool> contains(std::uint64_t q, net::host_id origin) const;

  // Insert/erase issued from `origin` (paper §4).
  api::op_stats insert(std::uint64_t key, net::host_id origin);
  api::op_stats erase(std::uint64_t key, net::host_id origin);

  // Range query [lo, hi] (one of the paper's §1 motivating query types):
  // route to lo, then walk the base list — O(log n + k) expected messages
  // for k results. `limit` caps the output (0 = unlimited).
  [[nodiscard]] api::op_result<std::vector<std::uint64_t>> range(std::uint64_t lo,
                                                                 std::uint64_t hi,
                                                                 net::host_id origin,
                                                                 std::size_t limit = 0) const;

  // Where a given level node lives (exposed for tests and benches).
  [[nodiscard]] net::host_id host_of(int item, int level) const;

  // Measured resident bytes (DESIGN.md §12): the arena/link split comes from
  // level_lists; the owner table and per-host roots are directory.
  [[nodiscard]] api::memory_footprint footprint() const {
    api::memory_footprint f = lists_.footprint();
    f.directory_bytes += api::vector_bytes(owner_) + api::vector_bytes(root_item_);
    return f;
  }

  // --- persistence (DESIGN.md §13) ------------------------------------------
  //
  // Write the whole structure — arenas, placement, per-host roots, rng
  // state, and the deployment's memory ledger — as named sections of `w`.
  void save_snapshot(persist::writer& w) const;
  // Shrink every arena to its size, releasing growth headroom, so
  // footprint() slack drops to ~0 and resident bytes match the snapshot
  // payload the next save_snapshot() writes.
  void compact();

  // --- self-repair (replication > 0 only; DESIGN.md §10) --------------------
  //
  // One repair step: find one still-spliced item whose owner host is dead,
  // unsplice it (relinking every level and refreshing the survivors' replica
  // lists), charging the detection probe and every relink/refresh hop.
  // Returns the number of items repaired (0 = no dead item remains spliced;
  // drive with fault::repair_to_quiescence). level_lists::check_invariants
  // holds after every step. Structural plane, like insert/erase.
  api::op_result<std::size_t> repair_step(net::host_id origin);
  // True while some spliced item's owner host is dead (local bookkeeping
  // scan, no charges).
  [[nodiscard]] bool needs_repair() const;

 private:
  // Queries take the replica-aware route only when they must: replication
  // installed AND some fault currently active on the network.
  [[nodiscard]] bool fault_routing() const {
    return lists_.replication() > 0 && net_->faults_active();
  }
  [[nodiscard]] api::nn_result nearest_fault(std::uint64_t q, net::host_id origin) const;
  // Probe for a live entry tower: the origin's root, then successive hosts'
  // roots, each failed probe charged. Returns the live root item (or marks
  // the cursor failed and returns any alive item as a best-effort anchor).
  [[nodiscard]] int fault_root(net::cursor& cur, net::host_id origin) const;
  [[nodiscard]] int root_for(net::host_id origin) const;
  void charge_item_memory(int item, std::int64_t sign);
  // Visit the up-to-(k+1) neighbours on each side whose replica lists a
  // splice/unsplice refreshed (dead ones cost their detection probe only).
  // No-op when replication is off.
  void charge_replica_refresh(net::cursor& cur, int left0, int right0);
  // Hint-only: start the owner-table lookup for `item` early (tower
  // placement stores owners; balanced placement computes them — nothing to
  // prefetch).
  void prefetch_host(int item) const;
  static level_lists make_lists(std::vector<std::uint64_t> keys, util::rng& r, bool bulk);

  util::rng rng_;       // declared before lists_: it feeds the level build
  level_lists lists_;
  net::network* net_;
  placement policy_;
  // Owned when built, borrowed from the snapshot when restored (like lists_).
  persist::pod_array<net::host_id> owner_;  // per arena slot: tower host (tower placement)
  persist::pod_array<int> root_item_;       // per host: anchor item whose tower seeds searches
};

}  // namespace skipweb::core
