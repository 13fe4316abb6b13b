#pragma once

#include <algorithm>
#include <array>
#include <cmath>
#include <cstdint>
#include <vector>

#include "api/index_base.h"
#include "api/op_stats.h"
#include "net/types.h"
#include "seq/quadtree.h"
#include "util/sw_assert.h"

namespace skipweb::api {

// The multi-dimensional counterpart of `distributed_index`: one abstract
// surface over every spatial skip-web in the library (skip quadtrees and
// octrees, the Morton-coded skip trie, the trapezoidal-map skip-web), so
// benches, tests and workloads drive *any* of them through the registry
// (see spatial_registry.h) exactly like the 1-D backends.
//
// Points live on the shared 62-bit grid of seq/quadtree.h; a spatial_point
// carries up to three coordinates and a backend reads the first `dims()` of
// them (the rest must be zero). Comparison is lexicographic, which fixes
// the output order of range queries across backends.
struct spatial_point {
  std::array<std::uint64_t, 3> x{};

  friend bool operator==(const spatial_point&, const spatial_point&) = default;
  friend auto operator<=>(const spatial_point&, const spatial_point&) = default;
};

// A closed axis-aligned query box [lo, hi] (per-dimension inclusive).
struct spatial_box {
  spatial_point lo, hi;
};

// THE point-location result. `cell` names the located cell in the backend's
// own vocabulary (cube hash, trie path hash, trapezoid id) — stable across
// repeated queries on an unmodified structure, which is what the batched
// entry point's receipt-equality contract is stated in terms of. `scale` is
// the located cell's side (grid units), the seed radius for the generic
// nearest-neighbour search.
struct spatial_locate_result {
  bool found = false;  // the query coincides with a stored point
  std::uint64_t cell = 0;
  std::uint64_t scale = 0;
  op_stats stats;
};

// Conversions between the wire type and the grid point types.
template <int D>
[[nodiscard]] inline spatial_point to_spatial(const seq::qpoint<D>& p) {
  spatial_point out;
  for (int d = 0; d < D; ++d) out.x[static_cast<std::size_t>(d)] = p.x[static_cast<std::size_t>(d)];
  return out;
}

template <int D>
[[nodiscard]] inline seq::qpoint<D> from_spatial(const spatial_point& p) {
  seq::qpoint<D> out;
  for (int d = 0; d < D; ++d) out.x[static_cast<std::size_t>(d)] = p.x[static_cast<std::size_t>(d)];
  return out;
}

// Exact squared L2 distance over the first `dims` coordinates (128-bit:
// 62-bit coordinates overflow doubles, and NN verdicts must be exact).
__extension__ using spatial_dist2 = unsigned __int128;

[[nodiscard]] inline spatial_dist2 spatial_point_dist2(const spatial_point& a,
                                                       const spatial_point& b, int dims) {
  spatial_dist2 s = 0;
  for (int d = 0; d < dims; ++d) {
    const std::uint64_t av = a.x[static_cast<std::size_t>(d)];
    const std::uint64_t bv = b.x[static_cast<std::size_t>(d)];
    const std::uint64_t diff = av > bv ? av - bv : bv - av;
    s += static_cast<spatial_dist2>(diff) * diff;
  }
  return s;
}

// Smallest r with r*r >= v (double guess, exact integer fix-up).
[[nodiscard]] inline std::uint64_t spatial_isqrt_ceil(spatial_dist2 v) {
  if (v == 0) return 0;
  auto r = static_cast<std::uint64_t>(std::sqrt(static_cast<double>(v)));
  while (static_cast<spatial_dist2>(r) * r < v) ++r;
  while (r > 0 && static_cast<spatial_dist2>(r - 1) * (r - 1) >= v) --r;
  return r;
}

// The closed box of L-infinity radius r around q, clamped to the grid.
[[nodiscard]] inline spatial_box spatial_box_around(const spatial_point& q, std::uint64_t r,
                                                    int dims) {
  spatial_box b;
  for (int d = 0; d < dims; ++d) {
    const auto i = static_cast<std::size_t>(d);
    b.lo.x[i] = q.x[i] >= r ? q.x[i] - r : 0;
    // No overflow: q.x < 2^62 and every caller's radius stays below 2^63
    // (the largest is approx_nn's exactness fix-up, <= sqrt(3) * 2^62), so
    // the sum fits uint64 — but only by that ~1.5x margin.
    b.hi.x[i] = std::min(q.x[i] + r, seq::coord_span - 1);
  }
  return b;
}

/// \brief The uniform public surface of every multi-dimensional distributed
/// structure — the spatial mirror of distributed_index. `origin` is the host
/// an operation is issued from; every operation returns its op_stats receipt
/// (see DESIGN.md).
///
/// \par Thread-safety plane
/// As for distributed_index: the const query surface (locate / locate_batch
/// / orthogonal_range / approx_nn) may be called from any number of threads
/// concurrently on one instance (cursor-local receipts, audited read paths);
/// insert/erase are single-writer, never concurrent with queries.
/// serve::executor::run_locate is the canonical multi-threaded driver.
class spatial_index : public index_base {
 public:
  /// \brief Coordinates a point carries here (2 or 3); higher spatial_point
  /// slots must be zero. O(1).
  [[nodiscard]] virtual int dims() const = 0;

  /// \brief Point location: the cell of the backend's own decomposition
  /// containing `q` (cube / trie path / trapezoid — see
  /// spatial_locate_result::cell) and whether `q` is a stored point.
  /// \param q      probe point (first dims() coordinates read).
  /// \param origin host the query is issued from.
  /// \return cell id, cell scale (the generic NN seed radius) and the op's
  ///         cost receipt.
  /// \note Query plane (thread-safe const). Expected O(log n) messages.
  [[nodiscard]] virtual spatial_locate_result locate(const spatial_point& q,
                                                     net::host_id origin) const = 0;
  /// \brief Insert point `p` (must be absent).
  /// \note Structural plane: single writer. Expected O(log n) messages.
  virtual op_stats insert(const spatial_point& p, net::host_id origin) = 0;
  /// \brief Erase point `p` (must be present; structures never become
  /// empty). \note Structural plane. Expected O(log n) messages.
  virtual op_stats erase(const spatial_point& p, net::host_id origin) = 0;

  /// \brief All stored points inside the closed box, ascending
  /// lexicographically; `limit` caps the output (0 = unlimited; which points
  /// survive the cap is backend-defined, since enumeration order is the
  /// backend's walk order).
  /// \note Query plane. O(log n + k) messages with capability::native_range;
  ///       the honest full-sweep price otherwise (see DESIGN.md §7).
  [[nodiscard]] virtual op_result<std::vector<spatial_point>> orthogonal_range(
      const spatial_box& b, net::host_id origin, std::size_t limit = 0) const = 0;

  /// \brief Batched point location: MUST behave exactly as locate() called
  /// once per query — same results, same per-op receipts (tested). The
  /// default is that loop; backends with an interleaved router override it
  /// to overlap the independent descents' memory latency (see
  /// skip_quadtree::locate_batch).
  /// \note Query plane; receipts commit once per query, not per batch.
  [[nodiscard]] virtual std::vector<spatial_locate_result> locate_batch(
      const std::vector<spatial_point>& qs, net::host_id origin) const {
    std::vector<spatial_locate_result> out;
    out.reserve(qs.size());
    for (const auto& q : qs) out.push_back(locate(q, origin));
    return out;
  }

  /// \brief Nearest stored point under L2. The paper reduces approximate NN
  /// to point location; this default reduces it to orthogonal range instead
  /// — locate seeds the radius, boxes double until one is inhabited, and one
  /// final box of the best candidate's L2 radius makes the answer *exact*
  /// (the L-inf box contains the L2 ball), so current backends all deliver
  /// eps = 0. Backends with a native search (the quadtree's best-first cube
  /// walk, capability::native_nn) override it.
  /// \pre size() > 0. \note Query plane; costs whatever the range walks
  ///      cost, O(log n) expected for the native overrides.
  [[nodiscard]] virtual op_result<spatial_point> approx_nn(const spatial_point& q,
                                                           net::host_id origin) const {
    SW_EXPECTS(size() > 0);
    op_result<spatial_point> out;
    const auto loc = locate(q, origin);
    out.stats += loc.stats;
    std::uint64_t r = std::max<std::uint64_t>(loc.scale, 1);
    std::vector<spatial_point> cand;
    for (;;) {
      auto res = orthogonal_range(spatial_box_around(q, r, dims()), origin);
      out.stats += res.stats;
      if (!res.value.empty()) {
        cand = std::move(res.value);
        break;
      }
      SW_ASSERT(r < seq::coord_span);  // the full-space box cannot be empty
      r = std::min(r * 2, seq::coord_span);
    }
    spatial_point best = nearest_of(cand, q);
    const std::uint64_t r2 = spatial_isqrt_ceil(spatial_point_dist2(best, q, dims()));
    if (r2 > r) {
      auto res = orthogonal_range(spatial_box_around(q, r2, dims()), origin);
      out.stats += res.stats;
      best = nearest_of(res.value, q);
    }
    out.value = best;
    return out;
  }

 protected:
  [[nodiscard]] spatial_point nearest_of(const std::vector<spatial_point>& pts,
                                         const spatial_point& q) const {
    SW_ASSERT(!pts.empty());
    spatial_point best = pts.front();
    spatial_dist2 best_d = spatial_point_dist2(best, q, dims());
    for (const auto& p : pts) {
      const auto d = spatial_point_dist2(p, q, dims());
      if (d < best_d || (d == best_d && p < best)) {
        best = p;
        best_d = d;
      }
    }
    return best;
  }
};

}  // namespace skipweb::api
