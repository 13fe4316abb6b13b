#pragma once

#include <array>
#include <atomic>
#include <cstdint>
#include <list>
#include <mutex>
#include <unordered_map>
#include <vector>

#include "net/network.h"
#include "net/receipt.h"
#include "net/types.h"

namespace skipweb::serve {

/// \brief Hot-route replica cache: a bounded LRU of the top-level routing
/// entries of the most-visited hosts, held client-side by the serving
/// frontend.
///
/// The congestion problem this answers: under skewed (Zipfian) traffic a
/// handful of hosts — the routes' shared top levels and the hot items'
/// owners — absorb a disproportionate share of visits, and the paper's
/// O(log n) expected congestion per host (Table 1) stops describing the
/// busiest host. A real deployment absorbs that skew by replicating the hot
/// hosts' *routing entries* at the frontends, so the first hops of a route
/// are answered locally instead of re-visiting the same few hosts for every
/// query.
///
/// This class is that replica set, wired into the simulator through the
/// `net::hop_cache` seam:
///
///  - **Learning** — `network::commit()` offers every committed receipt to
///    `on_commit()`; hosts whose observed visit count crosses
///    `options::promote_after` are admitted into a bounded LRU replica set
///    (capacity `options::capacity`, least-recently-confirmed entry
///    evicted). Counts decay by halving every `decay_every` (2^15)
///    observed hops so yesterday's hot spot can cool. When driven by
///    `serve::executor`, the receipts its workers commit are exactly the
///    training feed.
///  - **Absorption** — cursors constructed while the cache is attached
///    (`network::attach_hop_cache`) consult `absorbs()` for hops inside the
///    operation's first `options::depth` hops; a hop to a replicated host
///    is served from the local replica: the locus moves, the routing
///    decision is unchanged, no message is charged and no visit is logged.
///
/// \par The replica-cache contract
/// Answers are **byte-identical** with and without the cache — absorption
/// never alters a routing decision, only whether the hop is priced — so
/// enabling it can change receipts (`op_stats`), per-host visit counters and
/// `network::congestion_profile()`, and nothing else. The conformance tests
/// assert value equality against uncached twins for every registered
/// backend.
///
/// \par Thread-safety plane
/// `absorbs()` / `absorb_depth()` are query-plane: any number of threads,
/// lock-free (an atomic slot scan). `on_commit()` is also query-plane but
/// *lossy under contention*: it takes an internal try-lock and drops the
/// observation when another commit is mid-update — absorption correctness
/// is unaffected, the cache just learns from a sample. The introspection
/// getters (`replicated()`, `hits()`, ...) and `clear()`/`reset_stats()`
/// are quiescent-only, like the network's traffic getters.
///
/// \par Complexity
/// `absorbs()` is O(capacity) relaxed atomic loads (capacity ≤ 64);
/// `on_commit()` is O(hops) map updates amortized, O(tracked hosts) at each
/// decay.
class route_cache final : public net::hop_cache {
 public:
  /// Hard ceiling on `options::capacity` (the atomic slot array is fixed).
  static constexpr std::size_t max_capacity = 64;
  /// Observed hops between count halvings (popularity decay).
  static constexpr std::uint64_t decay_every = std::uint64_t{1} << 15;

  /// Tuning knobs; the defaults suit the bench's "one serving frontend,
  /// thousands of queries" cells.
  struct options {
    /// Hosts whose routing entries are replicated at once (≤ max_capacity).
    std::size_t capacity = 16;
    /// Absorption window: only the first `depth` hops of an operation may
    /// be served from replicas ("top-level routing"). 0 disables absorption
    /// while still learning.
    std::size_t depth = 8;
    /// Observed visits (since the last decay) before a host is admitted.
    std::uint64_t promote_after = 32;
  };

  route_cache() : route_cache(options{}) {}
  /// Knobs are clamped to valid ranges (capacity into [1, max_capacity],
  /// promote_after to >= 1) — they come from CLI flags, so this is not a
  /// contract check; opts() reports the clamped values.
  explicit route_cache(const options& o);
  ~route_cache() override = default;

  route_cache(const route_cache&) = delete;
  route_cache& operator=(const route_cache&) = delete;

  // --- net::hop_cache (the seam the network and cursors drive) -------------

  /// \copydoc net::hop_cache::absorbs
  /// Counts a hit when returning true (cursors call this only for hops they
  /// will absorb). Lock-free; safe against concurrent on_commit().
  [[nodiscard]] bool absorbs(net::host_id h) const override;

  /// \copydoc net::hop_cache::absorb_depth
  [[nodiscard]] std::size_t absorb_depth() const override { return opts_.depth; }

  /// \copydoc net::hop_cache::on_commit
  /// Lossy under contention (try-lock); see the class comment.
  void on_commit(const net::traffic_receipt& r) override;

  // --- introspection (quiescent-only: between serving phases) --------------

  /// Hops served from replicas since construction / reset_stats().
  [[nodiscard]] std::uint64_t hits() const { return hits_.load(std::memory_order_relaxed); }
  /// Hops offered to on_commit() and actually observed (drops excluded).
  [[nodiscard]] std::uint64_t observed_hops() const {
    return observed_.load(std::memory_order_relaxed);
  }
  /// The currently replicated hosts, most-recently-confirmed first.
  [[nodiscard]] std::vector<net::host_id> replicated() const;
  /// The configured knobs.
  [[nodiscard]] const options& opts() const { return opts_; }

  /// Zero hit/observation counters; the learned replica set stays (what the
  /// bench does between its warm-up and measured passes).
  void reset_stats();
  /// Drop all learned state — counts, LRU, replicas — and the counters.
  void clear();

 private:
  void admit_locked(std::uint32_t host);
  void decay_locked();

  static constexpr std::uint32_t empty_slot = 0xFFFFFFFFu;

  options opts_;

  // Read plane: the replica set as fixed atomic slots; readers scan, the
  // learn path publishes admissions/evictions with relaxed stores. Per-slot
  // hit counters feed recency back to the LRU: an absorbed hop never reaches
  // on_commit (that is the point), so without them a perfectly hot replica
  // would look idle to the eviction policy and oscillate out.
  std::array<std::atomic<std::uint32_t>, max_capacity> slots_;
  mutable std::array<std::atomic<std::uint64_t>, max_capacity> slot_hits_;
  mutable std::atomic<std::uint64_t> hits_{0};
  std::atomic<std::uint64_t> observed_{0};

  // Learn plane, guarded by mu_ (try-locked from on_commit).
  struct admitted_entry {
    std::list<std::uint32_t>::iterator lru_pos;
    std::size_t slot;
    std::uint64_t hits_seen = 0;  // slot_hits_ watermark at last LRU refresh
  };
  mutable std::mutex mu_;
  std::unordered_map<std::uint32_t, std::uint64_t> counts_;
  std::list<std::uint32_t> lru_;  // front = most recently confirmed hot
  std::unordered_map<std::uint32_t, admitted_entry> admitted_;
  std::vector<std::size_t> free_slots_;
  std::vector<std::uint32_t> refresh_scratch_;  // reused per commit, under mu_
  std::uint64_t hops_since_decay_ = 0;
};

}  // namespace skipweb::serve
