#pragma once

#include <cstdint>
#include <utility>
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
// can live on any host. The routes are the same for every assignment; only
// host_of — and therefore the message cost — differs. Three placements:
//
//   - tower:    item i's whole tower lives on host i (H = n; the layout skip
//               graphs/SkipNet use, per the Figure 2 caption).
//   - balanced: nodes are spread over the hosts by hashing (item, level) —
//               the "arbitrary assignment" the framework allows.
//   - bucket:   the blocked layout of §2.4.1 (Table 1's skip-web and bucket
//               skip-web rows). Levels are grouped into strata of
//               L = ceil(log2 M) levels; basic level s is s·L and the top
//               stratum absorbs the levels above the last one. Each
//               basic-level list is cut into runs of consecutive items, one
//               fresh host per run, and a host stores its run's whole cone
//               (every level of the stratum). The owner table holds one host
//               per (item, stratum), so a run is a maximal same-host stretch
//               of its basic-level list; joins, leaves and splits past
//               2B = 2·max(2, M/L) items walk that stretch. Descending inside
//               a stratum is free, so queries cost O(log n / log M)
//               messages — O(log n / log log n) at M = Θ(log n) — while each
//               host stores O(M).
//
// Queries are 1-D nearest-neighbour searches (equivalently point location in
// the link ranges); inserts/deletes follow §4. Expected costs for tower and
// balanced (Theorem 2): M = O(log n), C = O(log n), Q = O(log n),
// U = O(log n) messages.
class skipweb_1d {
 public:
  enum class placement { tower, balanced, bucket };
  // Selects the bucket placement with per-host memory target M >= 4.
  struct bucket {
    std::size_t M = 0;
  };

  // Builds over `keys` (distinct, any order) on `net`. Host expectations:
  // tower placement uses one host per item and keeps using fresh hosts as
  // items are inserted (net.add_host); balanced placement spreads over all
  // current hosts of `net`. The bucket placement has its own constructor.
  //
  // `replication` (the fault plane, DESIGN.md §10) installs k-entry
  // successor/predecessor replica lists so queries route around up to k
  // consecutive dead hosts and repair_step() can restore the structure after
  // crashes. Supported for tower placement only (balanced placement spreads
  // one item's tower over many hosts, so per-item liveness is not a single
  // host's liveness); with balanced placement the knob is ignored. k = 0
  // keeps routing and receipts byte-identical to the pre-fault structure.
  skipweb_1d(std::vector<std::uint64_t> keys, std::uint64_t seed, net::network& net, placement p,
             std::size_t replication = 0);

  // Bucket placement (§2.4.1). Every run gets a fresh host on `net`
  // (net.add_host), so H ends up at ~n log n / M as in the paper.
  // Replication is not supported: the fault plane is tower-only.
  skipweb_1d(std::vector<std::uint64_t> keys, std::uint64_t seed, net::network& net, bucket b);

  // Restore from a snapshot written by save_snapshot(), onto a FRESH network.
  // The network adopts the saved host count and per-host memory ledger, so
  // the restored structure answers — keys, uids, and receipts —
  // byte-identically to its never-persisted twin (DESIGN.md §13). The
  // arenas, the owner and root tables and the ledger come back as borrowed
  // views over the reader's blob (zero-copy in mmap mode) and materialize
  // copy-on-first-write at the first splice or charge. A file in another
  // layout fails on its missing section (DESIGN.md §13).
  skipweb_1d(persist::reader& r, net::network& net);

  [[nodiscard]] std::size_t size() const { return lists_.size(); }
  [[nodiscard]] int levels() const { return lists_.levels(); }
  [[nodiscard]] placement policy() const { return policy_; }
  [[nodiscard]] const level_lists& lists() const { return lists_; }
  // Effective replication factor (0 unless tower placement asked for more).
  [[nodiscard]] std::size_t replication() const { return lists_.replication(); }

  // Bucket geometry: strata, levels per stratum L and the run capacity B (a
  // run splits past 2B). Tower and balanced placements have one stratum.
  [[nodiscard]] int strata() const { return strata_; }
  [[nodiscard]] std::size_t stratum_levels() const { return static_cast<std::size_t>(L_); }
  [[nodiscard]] std::size_t block_capacity() const { return B_; }
  // Bucket placement (tests and benches; a scan of the owner table): the
  // number of runs, i.e. of hosts that own a block, and the block layout's
  // invariants — every alive item owned in every stratum, every run within
  // [1, 2B] items, and no host owning two runs.
  [[nodiscard]] std::size_t live_block_count() const;
  [[nodiscard]] bool check_block_invariants() const;

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
  // for k results, O(log n / log M + k/B) with the bucket placement, whose
  // consecutive keys share hosts. `limit` caps the output (0 = unlimited).
  [[nodiscard]] api::op_result<std::vector<std::uint64_t>> range(std::uint64_t lo,
                                                                 std::uint64_t hi,
                                                                 net::host_id origin,
                                                                 std::size_t limit = 0) const;

  // Where a given level node lives (exposed for tests and benches).
  [[nodiscard]] net::host_id host_of(int item, int level) const;

  // Measured resident bytes (DESIGN.md §12): the arena/link split comes from
  // level_lists; the owner table and per-host roots are directory (for the
  // bucket placement, the O(n log n / M) directory the paper trades for its
  // message bound).
  [[nodiscard]] api::memory_footprint footprint() const {
    api::memory_footprint f = lists_.footprint();
    f.directory_bytes += api::vector_bytes(owner_) + api::vector_bytes(root_item_);
    return f;
  }

  // --- persistence (DESIGN.md §13) ------------------------------------------
  //
  // Write the whole structure — arenas, placement (owner table, and the
  // bucket geometry), per-host roots, rng state, and the deployment's memory
  // ledger — as named sections of `w`.
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
  // Replicated routes step around dead hosts; the interleaved batch router
  // does not, so nearest_batch runs serially while this holds.
  [[nodiscard]] bool fault_routing() const {
    return lists_.replication() > 0 && net_->faults_active();
  }
  // The entry hop: the origin's root tower. With replicas an unreachable
  // root costs one timed-out probe and the next host's root is tried; if
  // none answers the op is marked failed and any alive item anchors a
  // best-effort walk. Without replicas a dead root is a ghost hop.
  [[nodiscard]] int enter(net::cursor& cur, net::host_id origin) const;
  // enter() plus route_search: the level-0 flanks of q.
  [[nodiscard]] std::pair<int, int> route(std::uint64_t q, net::cursor& cur,
                                          net::host_id origin) const;
  // A nearest result: the flanks' keys and the cursor's receipt.
  [[nodiscard]] api::nn_result answer(std::pair<int, int> flanks, const net::cursor& cur) const;
  [[nodiscard]] int root_for(net::host_id origin) const;
  void charge_item_memory(int item, std::int64_t sign);
  // Bucket placement: the owner of (item, stratum s); the per-stratum memory
  // charge (node + 3 host refs per level of stratum s, plus the item at
  // s = 0); the build's cut of every basic-level list into runs of B items;
  // and one insert's join of stratum s's run, splitting it past 2B.
  [[nodiscard]] net::host_id& owner_at(int item, int s) {
    return owner_[static_cast<std::size_t>(item) * static_cast<std::size_t>(strata_) +
                  static_cast<std::size_t>(s)];
  }
  [[nodiscard]] const net::host_id& owner_at(int item, int s) const {
    return owner_[static_cast<std::size_t>(item) * static_cast<std::size_t>(strata_) +
                  static_cast<std::size_t>(s)];
  }
  void charge_stratum(int s, net::host_id host, std::int64_t sign);
  void place_runs();
  void join_run(int item, int s, net::cursor& cur);
  // Visit the up-to-(k+1) neighbours on each side whose replica lists a
  // splice/unsplice refreshed (dead ones cost their detection probe only).
  // No-op when replication is off.
  void charge_replica_refresh(net::cursor& cur, int left0, int right0);
  // Hint-only: start the owner-table lookup for `item` early (tower and
  // bucket placements store owners; balanced placement computes them —
  // nothing to prefetch).
  void prefetch_host(int item) const;
  static level_lists make_lists(std::vector<std::uint64_t> keys, util::rng& r);
  // Gives every host a root and registers every item in the ledger.
  void finish_build();
  // Bucket geometry from M; the restore variant validates a file's M and
  // stratum count first.
  void set_bucket_memory(std::size_t M);
  void restore_bucket_geometry(std::uint64_t M, std::uint64_t strata);

  util::rng rng_;       // declared before lists_: it feeds the level build
  level_lists lists_;
  net::network* net_;
  placement policy_;
  // Bucket geometry (§2.4.1): per-host memory target M, levels per stratum
  // L = ceil(log2 M), run capacity B = max(2, M/L), and the stratum count.
  std::size_t M_ = 0;
  int L_ = 0;
  std::size_t B_ = 0;
  int strata_ = 1;
  // Owned when built, borrowed from the snapshot when restored (like lists_).
  // Item-major, one host per (arena slot, stratum): the tower host, or the
  // bucket run's host; empty for balanced placement.
  persist::pod_array<net::host_id> owner_;
  persist::pod_array<int> root_item_;  // per host: anchor item whose tower seeds searches
};

}  // namespace skipweb::core
