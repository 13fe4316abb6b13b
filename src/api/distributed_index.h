#pragma once

#include <cstdint>
#include <vector>

#include "api/index_base.h"
#include "api/op_stats.h"
#include "net/types.h"
#include "util/sw_assert.h"

namespace skipweb::api {

/// \brief The uniform public surface of every 1-D distributed dictionary in
/// the library — the paper's framework promise (§2) made literal: benches,
/// tests and workloads drive *any* substrate through this interface,
/// selecting the concrete structure by name through the registry (see
/// registry.h).
///
/// Keys are the item universe; `origin` is the host an operation is issued
/// from (costs include routing from that host's search root). Every
/// operation returns its op_stats cost receipt.
///
/// \par Thread-safety plane
/// The const query surface (nearest / nearest_batch / contains / range) is
/// safe to call concurrently from any number of threads on one instance —
/// traffic accounting is cursor-local and merged into per-thread ledger
/// shards (net/receipt.h, net/network.h),
/// and the backends' read paths are audited data-race free. insert/erase
/// are structural: single writer, never concurrent with queries.
/// serve::executor is the canonical multi-threaded driver.
class distributed_index : public index_base {
 public:
  /// \brief Nearest-neighbour query: the level-0 predecessor (largest key
  /// <= q) and successor (smallest key > q) of `q`.
  /// \param q      probe value (any point of the key universe).
  /// \param origin host the query is issued from; routing starts at its
  ///               search root and the receipt includes those hops.
  /// \return flanks plus the op's cost receipt (`nn_result::stats`).
  /// \note Query plane (thread-safe const). Expected O(log n) messages on
  ///       the skip-web family; chord floods (O(H)) — see capabilities().
  [[nodiscard]] virtual nn_result nearest(std::uint64_t q, net::host_id origin) const = 0;
  /// \brief Insert `key` (must be absent: duplicates are a contract
  /// violation under SW_CONTRACTS).
  /// \return the update's cost receipt — expected O(log n) messages.
  /// \note Structural plane: single writer, never concurrent with queries.
  virtual op_stats insert(std::uint64_t key, net::host_id origin) = 0;
  /// \brief Erase `key` (must be present; structures never shrink below two
  /// items). \note Structural plane, like insert. Expected O(log n) messages.
  virtual op_stats erase(std::uint64_t key, net::host_id origin) = 0;

  /// \brief Batched nearest: MUST behave exactly as nearest() called once
  /// per query — same results, same per-op cost receipts (tested). The
  /// default is that loop; backends with an interleaved router override it
  /// to overlap the independent lookups' memory latency (see
  /// core::route_search_batch).
  /// \note Query plane; receipts commit once per query, not per batch.
  [[nodiscard]] virtual std::vector<nn_result> nearest_batch(
      const std::vector<std::uint64_t>& qs, net::host_id origin) const {
    std::vector<nn_result> out;
    out.reserve(qs.size());
    for (const auto q : qs) out.push_back(nearest(q, origin));
    return out;
  }

  /// \brief Membership test. Default: the nearest-neighbour query's
  /// predecessor test (same cost as nearest); chord overrides with its
  /// O(log H) exact-match lookup.
  /// \note Query plane.
  [[nodiscard]] virtual op_result<bool> contains(std::uint64_t q, net::host_id origin) const {
    const auto r = nearest(q, origin);
    return {r.has_pred && r.pred == q, r.stats};
  }

  /// \brief Keys in [lo, hi], ascending; `limit` caps the output
  /// (0 = unlimited). Default: route to lo, then repeated nearest-successor
  /// queries — correct for any backend with `nearest`, at O(k log n)
  /// messages for k results. A degraded or timed-out constituent query
  /// ends the sweep, so the keys gathered so far come back as a degraded
  /// honest prefix. Backends with a walkable base list
  /// (capability::native_range) override this with their native
  /// O(log n + k) walk.
  /// \pre lo <= hi. \note Query plane.
  [[nodiscard]] virtual op_result<std::vector<std::uint64_t>> range(std::uint64_t lo,
                                                                    std::uint64_t hi,
                                                                    net::host_id origin,
                                                                    std::size_t limit = 0) const {
    SW_EXPECTS(lo <= hi);  // same contract as the native implementations
    op_result<std::vector<std::uint64_t>> out;
    auto r = nearest(lo, origin);
    out.stats += r.stats;
    // A degraded first step gave up short of lo's flanks: no prefix of the
    // answer is known, so the honest answer is empty (and marked degraded).
    if (r.stats.degraded) return out;
    bool have = false;
    std::uint64_t next = 0;
    if (r.has_pred && r.pred == lo) {
      next = lo;
      have = true;
    } else if (r.has_succ) {
      next = r.succ;
      have = true;
    }
    while (have && next <= hi) {
      // Deadline plane: each constituent nearest() is its own cursor, so
      // the sweep enforces the budget across them here — keys gathered so
      // far come back as a degraded honest prefix (DESIGN.md §11).
      if (range_deadline_ns_ != 0 && out.stats.sim_latency_ns > range_deadline_ns_) {
        out.stats.timed_out = true;
        out.stats.degraded = true;
        break;
      }
      out.value.push_back(next);
      // No successor can qualify past hi: skip the final (for chord, a whole
      // network flood) query.
      if (next == hi) break;
      if (limit != 0 && out.value.size() >= limit) break;
      const auto s = nearest(next, origin);
      out.stats += s.stats;
      // A step cut short by its own op deadline (network::set_op_deadline
      // without a sweep budget) may name a successor that does not advance;
      // trusting it would loop or reorder. Stop on the prefix gathered.
      if (s.stats.degraded || s.stats.timed_out || (s.has_succ && s.succ <= next)) {
        out.stats.degraded = true;
        break;
      }
      have = s.has_succ;
      next = s.succ;
    }
    return out;
  }

  /// \brief Per-sweep deadline for the generic range() fallback, in
  /// simulated ns (0 = none). Set by make_index from
  /// index_options::deadline(); backends with a native range walk enforce
  /// the budget on their own cursor instead and ignore this.
  void set_range_deadline(std::uint64_t sim_ns) { range_deadline_ns_ = sim_ns; }

 private:
  std::uint64_t range_deadline_ns_ = 0;
};

}  // namespace skipweb::api
