#pragma once

#include <algorithm>
#include <array>
#include <bit>
#include <cstdint>
#include <functional>
#include <limits>
#include <queue>
#include <unordered_map>
#include <vector>

#include "util/sw_assert.h"

namespace skipweb::seq {

// ---------------------------------------------------------------------------
// Coordinates and dyadic cubes
// ---------------------------------------------------------------------------

// Points live on a fixed-point grid of coord_bits bits per dimension; dyadic
// cube arithmetic is then exact bit manipulation (no floating-point trouble).
// 62 bits lets the adversarial workloads build genuinely deep (Θ(n) for
// n ≲ 124) compressed trees, which the skip-web must route around.
inline constexpr int coord_bits = 62;
inline constexpr std::uint64_t coord_span = (std::uint64_t{1} << coord_bits);
using coord_t = std::uint64_t;

template <int D>
struct qpoint {
  std::array<coord_t, D> x{};
  friend bool operator==(const qpoint&, const qpoint&) = default;
};

// A dyadic hypercube: the `level` leading bits of every coordinate are fixed
// by `corner` (whose trailing bits are zero). level 0 is the whole space;
// level coord_bits is a single grid cell.
template <int D>
struct qcube {
  std::array<coord_t, D> corner{};
  int level = 0;

  friend bool operator==(const qcube&, const qcube&) = default;

  [[nodiscard]] coord_t side() const { return coord_span >> level; }

  // Branch-free: the per-dimension mismatches are OR-accumulated into one
  // compare instead of short-circuiting, so the router's descend loop (which
  // calls this once per hop) carries no data-dependent branches per
  // dimension (D is a compile-time constant; the loop fully unrolls).
  [[nodiscard]] bool contains(const qpoint<D>& p) const {
    const int shift = coord_bits - level;
    coord_t diff = 0;
    for (int d = 0; d < D; ++d) diff |= (p.x[d] >> shift) ^ (corner[d] >> shift);
    return diff == 0;
  }

  // True when `c` is this cube or a dyadic descendant of it.
  [[nodiscard]] bool contains(const qcube& c) const {
    if (c.level < level) return false;
    for (int d = 0; d < D; ++d) {
      if ((c.corner[d] >> (coord_bits - level)) != (corner[d] >> (coord_bits - level))) return false;
    }
    return true;
  }

  // Index in [0, 2^D) of the child quadrant containing p: one bit per
  // dimension taken from the (level+1)-th coordinate bit.
  [[nodiscard]] int quadrant_of(const qpoint<D>& p) const {
    SW_EXPECTS(level < coord_bits);
    int q = 0;
    for (int d = 0; d < D; ++d) {
      q |= static_cast<int>((p.x[d] >> (coord_bits - level - 1)) & 1u) << d;
    }
    return q;
  }
};

// Leading bits two coordinates share.
inline int common_prefix(coord_t a, coord_t b) {
  const coord_t diff = (a ^ b) << (64 - coord_bits);
  return diff == 0 ? coord_bits : std::countl_zero(diff);
}

// The smallest dyadic cube containing both points (distinct points only).
template <int D>
qcube<D> smallest_enclosing(const qpoint<D>& a, const qpoint<D>& b) {
  SW_EXPECTS(!(a == b));
  int level = coord_bits;
  for (int d = 0; d < D; ++d) level = std::min(level, common_prefix(a.x[d], b.x[d]));
  qcube<D> c;
  c.level = level;
  for (int d = 0; d < D; ++d) {
    c.corner[d] = level == 0 ? 0 : (a.x[d] >> (coord_bits - level)) << (coord_bits - level);
  }
  return c;
}

// The smallest dyadic cube containing cube `c` and point `p`.
template <int D>
qcube<D> smallest_enclosing(const qcube<D>& c, const qpoint<D>& p) {
  int level = c.level;
  for (int d = 0; d < D; ++d) level = std::min(level, common_prefix(c.corner[d], p.x[d]));
  qcube<D> out;
  out.level = level;
  for (int d = 0; d < D; ++d) {
    out.corner[d] = level == 0 ? 0 : (p.x[d] >> (coord_bits - level)) << (coord_bits - level);
  }
  return out;
}

template <int D>
struct qcube_hash {
  std::size_t operator()(const qcube<D>& c) const {
    std::size_t h = std::hash<int>{}(c.level);
    for (int d = 0; d < D; ++d) h = h * 0x9e3779b97f4a7c15ull + c.corner[d];
    return h;
  }
};

template <int D>
struct qpoint_hash {
  std::size_t operator()(const qpoint<D>& p) const {
    std::size_t h = 0;
    for (int d = 0; d < D; ++d) h = h * 0x9e3779b97f4a7c15ull + p.x[d];
    return h;
  }
};

// ---------------------------------------------------------------------------
// Compressed quadtree / octree (paper §3.1, Figure 3)
// ---------------------------------------------------------------------------

// Nodes are exactly the "interesting" dyadic cubes: the root plus every cube
// with at least two occupied quadrants. Chains of single-child cubes are
// compressed away, so a child pointer may jump many dyadic levels. The tree
// has O(n) nodes but may still have Θ(n) depth — the adversarial case the
// skip-web is designed to route around.
//
// Key subset property (what makes identity hyperlinks between skip-web
// levels work): if T ⊆ S, every node cube of quadtree(T) is a node cube of
// quadtree(S). Tests verify this for random subsets.
template <int D>
class quadtree {
 public:
  static constexpr int fanout = 1 << D;
  using point = qpoint<D>;
  using cube = qcube<D>;

  // A quadrant entry holds a child node, a single point, or nothing.
  struct entry {
    std::int32_t node = -1;
    std::int32_t point = -1;
    [[nodiscard]] bool empty() const { return node < 0 && point < 0; }
  };

  struct node_t {
    cube box;
    std::int32_t parent = -1;
    std::array<entry, fanout> child{};
    int occupied = 0;
  };

  quadtree() { root_ = new_node(cube{}, -1); }

  explicit quadtree(const std::vector<point>& pts) : quadtree() {
    for (const auto& p : pts) insert(p);
  }

  [[nodiscard]] std::size_t point_count() const { return live_points_; }
  [[nodiscard]] std::size_t node_count() const { return live_nodes_; }
  [[nodiscard]] int root() const { return root_; }
  [[nodiscard]] const node_t& node(int i) const { return nodes_[static_cast<std::size_t>(i)]; }

  // Deepest node whose cube contains q (always exists: the root is the whole
  // space). `steps` counts nodes visited, the quantity charged as messages
  // by the distributed structure.
  [[nodiscard]] int locate(const point& q, std::uint64_t* steps = nullptr) const {
    return locate_from(root_, q, steps);
  }

  [[nodiscard]] int locate_from(int start, const point& q, std::uint64_t* steps = nullptr) const {
    SW_EXPECTS(node(start).box.contains(q));
    int cur = start;
    std::uint64_t n_steps = 1;
    for (;;) {
      const node_t& nd = nodes_[static_cast<std::size_t>(cur)];
      if (nd.box.level >= coord_bits) break;
      const entry& e = nd.child[static_cast<std::size_t>(nd.box.quadrant_of(q))];
      if (e.node < 0 || !nodes_[static_cast<std::size_t>(e.node)].box.contains(q)) break;
      cur = e.node;
      ++n_steps;
    }
    if (steps != nullptr) *steps = n_steps;
    return cur;
  }

  // Node index for an exact cube, or -1. This is how a skip-web level jumps
  // to "the same cube one level denser".
  [[nodiscard]] int node_for_cube(const cube& c) const {
    auto it = cube_index_.find(c);
    return it == cube_index_.end() ? -1 : it->second;
  }

  [[nodiscard]] bool contains_point(const point& p) const {
    const int at = locate(p);
    const entry& e = node(at).child[static_cast<std::size_t>(node(at).box.quadrant_of(p))];
    return e.point >= 0 && points_[static_cast<std::size_t>(e.point)] == p;
  }

  // Inserts a distinct point; creates at most one new interesting cube,
  // whose node index is returned (-1 when the point slots into an existing
  // node). Note: new_node/new_point may grow the arenas, so entries are
  // re-indexed (never held by reference) across those calls.
  int insert(const point& p) {
    const int at = locate(p);
    const int quad = node(at).box.quadrant_of(p);
    const entry e = node(at).child[static_cast<std::size_t>(quad)];
    const int pid = new_point(p);

    if (e.empty()) {
      node_t& nd = nodes_[static_cast<std::size_t>(at)];
      nd.child[static_cast<std::size_t>(quad)].point = pid;
      ++nd.occupied;
      return -1;
    }
    if (e.point >= 0) {
      const point other = points_[static_cast<std::size_t>(e.point)];
      SW_EXPECTS(!(other == p));  // duplicate points are not representable
      const cube c = smallest_enclosing(p, other);
      const int fresh = new_node(c, at);
      attach_point(fresh, p, pid);
      attach_point(fresh, other, e.point);
      nodes_[static_cast<std::size_t>(at)].child[static_cast<std::size_t>(quad)] = entry{fresh, -1};
      return fresh;
    }
    // Occupied by a child cube that does not contain p: wedge a new
    // interesting cube above it.
    const int old_child = e.node;
    SW_ASSERT(!nodes_[static_cast<std::size_t>(old_child)].box.contains(p));
    const cube c = smallest_enclosing(nodes_[static_cast<std::size_t>(old_child)].box, p);
    const int fresh = new_node(c, at);
    attach_point(fresh, p, pid);
    attach_node(fresh, old_child);
    nodes_[static_cast<std::size_t>(at)].child[static_cast<std::size_t>(quad)] = entry{fresh, -1};
    return fresh;
  }

  // Removes a point; splices out at most one no-longer-interesting cube,
  // whose (freed) node index is returned, -1 when no cube died.
  int erase(const point& p) {
    const int at = locate(p);
    node_t& nd = nodes_[static_cast<std::size_t>(at)];
    const int quad = nd.box.quadrant_of(p);
    entry& e = nd.child[static_cast<std::size_t>(quad)];
    SW_EXPECTS(e.point >= 0 && points_[static_cast<std::size_t>(e.point)] == p);
    free_point(e.point);
    e = entry{};
    --nd.occupied;

    if (at == root_ || nd.occupied >= 2) return -1;
    SW_ASSERT(nd.occupied == 1);
    // Splice: replace this node in its parent by its single remaining entry.
    entry remaining{};
    for (const entry& ce : nd.child) {
      if (!ce.empty()) remaining = ce;
    }
    const int parent = nd.parent;
    node_t& pn = nodes_[static_cast<std::size_t>(parent)];
    for (entry& pe : pn.child) {
      if (pe.node == at) {
        pe = remaining;
        break;
      }
    }
    if (remaining.node >= 0) nodes_[static_cast<std::size_t>(remaining.node)].parent = parent;
    free_node(at);
    return at;
  }

  // Squared distances are computed in 128-bit integers: 62-bit coordinates
  // overflow doubles' 53-bit mantissa, and NN tie-breaking must be exact.
  __extension__ using dist2_t = unsigned __int128;

  // Exact nearest neighbour by best-first search over cubes; the test oracle
  // and the ground truth for the approximate distributed query.
  [[nodiscard]] point nearest(const point& q) const {
    SW_EXPECTS(live_points_ > 0);
    struct item {
      dist2_t dist;
      int node;   // -1 when this is a point candidate
      int point;
      bool operator>(const item& o) const { return dist > o.dist; }
    };
    std::priority_queue<item, std::vector<item>, std::greater<item>> heap;
    heap.push({0, root_, -1});
    dist2_t best = ~dist2_t{0};
    point best_point{};
    while (!heap.empty()) {
      const item top = heap.top();
      heap.pop();
      if (top.dist >= best) break;
      if (top.node < 0) {
        best = top.dist;
        best_point = points_[static_cast<std::size_t>(top.point)];
        continue;
      }
      const node_t& nd = nodes_[static_cast<std::size_t>(top.node)];
      for (const entry& e : nd.child) {
        if (e.point >= 0) {
          heap.push({point_dist2(points_[static_cast<std::size_t>(e.point)], q), -1, e.point});
        } else if (e.node >= 0) {
          heap.push({cube_dist2(nodes_[static_cast<std::size_t>(e.node)].box, q), e.node, -1});
        }
      }
    }
    return best_point;
  }

  // Longest root-to-node path; the adversarial workloads drive this to Θ(n)
  // while skip-web queries stay O(log n).
  [[nodiscard]] int depth() const {
    int best = 0;
    std::vector<std::pair<int, int>> stack{{root_, 0}};
    while (!stack.empty()) {
      auto [nidx, d] = stack.back();
      stack.pop_back();
      best = std::max(best, d);
      for (const entry& e : node(nidx).child) {
        if (e.node >= 0) stack.emplace_back(e.node, d + 1);
      }
    }
    return best;
  }

  [[nodiscard]] std::vector<point> points() const {
    std::vector<point> out;
    out.reserve(live_points_);
    collect(root_, out);
    return out;
  }

  static dist2_t point_dist2(const point& a, const point& b) {
    dist2_t s = 0;
    for (int d = 0; d < D; ++d) {
      const coord_t diff = a.x[d] > b.x[d] ? a.x[d] - b.x[d] : b.x[d] - a.x[d];
      s += static_cast<dist2_t>(diff) * diff;
    }
    return s;
  }

  // Distance from q to the nearest grid point inside the cube (exact lower
  // bound for any stored point in the cube).
  static dist2_t cube_dist2(const cube& c, const point& q) {
    dist2_t s = 0;
    const coord_t side = c.side();
    for (int d = 0; d < D; ++d) {
      const coord_t lo = c.corner[d];
      const coord_t hi = lo + side - 1;
      const coord_t v = q.x[d];
      coord_t diff = 0;
      if (v < lo) {
        diff = lo - v;
      } else if (v > hi) {
        diff = v - hi;
      }
      s += static_cast<dist2_t>(diff) * diff;
    }
    return s;
  }

 private:
  int new_node(const cube& c, int parent) {
    int idx;
    if (!free_nodes_.empty()) {
      idx = free_nodes_.back();
      free_nodes_.pop_back();
      nodes_[static_cast<std::size_t>(idx)] = node_t{};
    } else {
      idx = static_cast<int>(nodes_.size());
      nodes_.emplace_back();
    }
    nodes_[static_cast<std::size_t>(idx)].box = c;
    nodes_[static_cast<std::size_t>(idx)].parent = parent;
    cube_index_[c] = idx;
    ++live_nodes_;
    return idx;
  }

  void free_node(int idx) {
    cube_index_.erase(nodes_[static_cast<std::size_t>(idx)].box);
    free_nodes_.push_back(idx);
    --live_nodes_;
  }

  int new_point(const point& p) {
    int idx;
    if (!free_points_.empty()) {
      idx = free_points_.back();
      free_points_.pop_back();
    } else {
      idx = static_cast<int>(points_.size());
      points_.emplace_back();
    }
    points_[static_cast<std::size_t>(idx)] = p;
    ++live_points_;
    return idx;
  }

  void free_point(int idx) {
    free_points_.push_back(idx);
    --live_points_;
  }

  void attach_point(int nidx, const point& p, int pid) {
    node_t& nd = nodes_[static_cast<std::size_t>(nidx)];
    entry& e = nd.child[static_cast<std::size_t>(nd.box.quadrant_of(p))];
    SW_ASSERT(e.empty());
    e.point = pid;
    ++nd.occupied;
  }

  void attach_node(int nidx, int child) {
    node_t& nd = nodes_[static_cast<std::size_t>(nidx)];
    const cube& cb = nodes_[static_cast<std::size_t>(child)].box;
    qpoint<D> probe;
    for (int d = 0; d < D; ++d) probe.x[d] = cb.corner[d];
    entry& e = nd.child[static_cast<std::size_t>(nd.box.quadrant_of(probe))];
    SW_ASSERT(e.empty());
    e.node = child;
    ++nd.occupied;
    nodes_[static_cast<std::size_t>(child)].parent = nidx;
  }

  void collect(int nidx, std::vector<point>& out) const {
    for (const entry& e : node(nidx).child) {
      if (e.point >= 0) out.push_back(points_[static_cast<std::size_t>(e.point)]);
      if (e.node >= 0) collect(e.node, out);
    }
  }

  std::vector<node_t> nodes_;
  std::vector<point> points_;
  std::vector<int> free_nodes_, free_points_;
  std::unordered_map<cube, int, qcube_hash<D>> cube_index_;
  int root_ = -1;
  std::size_t live_nodes_ = 0, live_points_ = 0;
};

}  // namespace skipweb::seq
