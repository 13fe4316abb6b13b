#pragma once

#include <cstdint>
#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

#include "api/memory_footprint.h"
#include "api/op_stats.h"
#include "net/types.h"
#include "util/sw_assert.h"

namespace skipweb::persist {
class writer;
}

namespace skipweb::api {

// What a backend can do. `range` without `native_range` means the generic
// successor-walk fallback (O(k log n) messages) answers range queries;
// `native_range` marks a backend whose own layout walks the base list
// directly (O(log n + k) or better).
enum class capability : std::uint32_t {
  nearest = 1u << 0,
  contains = 1u << 1,
  insert = 1u << 2,
  erase = 1u << 3,
  range = 1u << 4,
  native_range = 1u << 5,
  // Built with index_options::replication(k) > 0: queries route around up to
  // k dead hosts, and repair_step() restores the structure after crashes.
  fault_tolerant = 1u << 6,
  // Arena-backed persistence (DESIGN.md §13): save_snapshot() serializes the
  // whole structure to a single checksummed file, and api::restore_index
  // rebuilds it — answers, uids and receipts byte-identical to the
  // never-persisted twin, in milliseconds instead of a full build.
  snapshot = 1u << 7,
};

[[nodiscard]] constexpr capability operator|(capability a, capability b) {
  return static_cast<capability>(static_cast<std::uint32_t>(a) | static_cast<std::uint32_t>(b));
}
[[nodiscard]] constexpr bool has(capability set, capability c) {
  return (static_cast<std::uint32_t>(set) & static_cast<std::uint32_t>(c)) ==
         static_cast<std::uint32_t>(c);
}

// Thrown when an operation outside a backend's capability set is invoked
// (e.g. ordered queries on chord, whose hashing destroys key locality).
class unsupported_operation : public std::logic_error {
 public:
  unsupported_operation(std::string_view backend, std::string_view op)
      : std::logic_error(std::string(backend) + " does not support " + std::string(op)) {}
};

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
class distributed_index {
 public:
  virtual ~distributed_index() = default;
  distributed_index(const distributed_index&) = delete;
  distributed_index& operator=(const distributed_index&) = delete;

  /// \brief Registry name of the backend ("skipweb1d", "chord", ...).
  /// \note Query plane; O(1).
  [[nodiscard]] virtual std::string_view backend() const = 0;
  /// \brief Number of keys currently stored. Structural plane (read it
  /// between query phases, not while updates run); O(1).
  [[nodiscard]] virtual std::size_t size() const = 0;
  /// \brief What this backend supports natively (see api::capability);
  /// operations outside the set throw unsupported_operation. O(1).
  [[nodiscard]] virtual capability capabilities() const = 0;
  /// \brief Convenience: `has(capabilities(), c)`.
  [[nodiscard]] bool supports(capability c) const { return has(capabilities(), c); }

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

  /// \brief One self-repair step (capability::fault_tolerant only): detect
  /// one crash-damaged record — a stored item whose owner host is dead, or
  /// an under-replicated record — and restore the structure's invariants
  /// around it (unsplice + re-link, or re-home replicas), charging every
  /// detection probe and relink hop to the returned receipt.
  /// \return number of records repaired this step (0 = structure clean; the
  ///         fault::repair_to_quiescence driver loops until then).
  /// \note Structural plane: single writer, never concurrent with queries —
  ///       fault::repair_daemon brokers that exclusion for background use.
  virtual op_result<std::size_t> repair_step(net::host_id origin) {
    (void)origin;
    throw unsupported_operation(backend(), "repair_step");
  }

  /// \brief The replication factor the build actually honored — the
  /// index_options::replication(k) request after make_index's clamp against
  /// host and record counts (0 for backends without fault support).
  /// \note Structural plane; O(1).
  [[nodiscard]] virtual std::size_t replication() const { return 0; }

  /// \brief Measured resident bytes of this instance, split arena / links /
  /// directory (api::memory_footprint) — the real-byte complement of the
  /// simulated net::network memory ledger, reported per backend by the
  /// benches as bytes/key (DESIGN.md §12). All-zero when the backend does
  /// not implement the surface (`memory_footprint::empty()`).
  /// \note Structural plane (walks container capacities); O(#containers).
  [[nodiscard]] virtual memory_footprint footprint() const { return {}; }

  /// \brief Serialize the whole structure into the open snapshot `w`
  /// (capability::snapshot only; DESIGN.md §13). Drive through
  /// api::save_index_snapshot, which frames the file and writes the
  /// backend-identification sections.
  /// \note Structural plane: quiescent instance, never concurrent with
  ///       queries or updates.
  virtual void save_snapshot(persist::writer& w) const {
    (void)w;
    throw unsupported_operation(backend(), "save_snapshot");
  }

  /// \brief Release growth headroom: shrink every internal container to its
  /// size, so footprint().slack_bytes drops to ~0 and resident bytes match
  /// what save_snapshot writes. Safe no-op on backends without the surface.
  /// \note Structural plane; the next insert re-grows normally.
  virtual void compact() {}

  /// \brief Per-sweep deadline for the generic range() fallback, in
  /// simulated ns (0 = none). Set by make_index from
  /// index_options::deadline(); backends with a native range walk enforce
  /// the budget on their own cursor instead and ignore this.
  void set_range_deadline(std::uint64_t sim_ns) { range_deadline_ns_ = sim_ns; }

 protected:
  distributed_index() = default;

 private:
  std::uint64_t range_deadline_ns_ = 0;
};

}  // namespace skipweb::api
