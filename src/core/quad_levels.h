#pragma once

#include <array>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "api/memory_footprint.h"
#include "persist/flat_table.h"
#include "persist/pod_array.h"
#include "persist/snapshot.h"
#include "seq/quadtree.h"
#include "util/membership.h"
#include "util/prefetch.h"
#include "util/sw_assert.h"

namespace skipweb::core {

// The level-set anatomy of a skip quadtree/octree (paper §3.1), kept as a
// flat arena in the style of core::level_lists: the multi-dimensional
// counterpart of the 1-D SoA overhaul.
//
// Every point carries a membership bit vector; level l holds one compressed
// quadtree per l-bit prefix set S_b. All trees of one level share a single
// per-level arena of node records in parallel arrays (child rows, parent
// slot indices, occupancy), and points live in a global point arena that
// every level references by slot. Each level finds its trees through a
// directory, a persist::flat_table from prefix to {root, points}: one flat
// slot array, saved as it is and borrowed back zero-copy by a restore, like
// the arenas.
//
// Three layout decisions carry the query hot path:
//
// - **The identity-on-cubes hyperlink is a stored slot index, carried in
//   the node's own child row.** The paper's inter-level jump ("the same
//   cube one level denser") used to be a hash lookup per level on a
//   per-tree `unordered_map<cube, node>`; here every node stores the slot
//   of the identical cube in the parent-level tree, and it stores it in
//   every one of its 2^D child entries (in a word the cube would otherwise
//   pad). A walk stops at a node because the entry its step just loaded
//   does not lead on, so it reads the link from that same entry: crossing a
//   level costs no second cache line. The only lookups left are in the
//   per-level tree directories, probed once per level to find the top of a
//   chain.
// - **A node's cube lives only in its parent's child entry.** The descend
//   decision ("does the child cube contain q?") reads the current node's
//   own child row instead of dereferencing the child — the neighbour-key
//   caching `level_lists` does for 1-D links — and every walk carries the
//   current node's cube with it: the whole space at a root, the entry's
//   cube after each step, unchanged across a `down` link (the hyperlink is
//   the identity on cubes). A step is therefore one load of one child
//   entry, whose address the carried cube already determines, so a batch
//   can prefetch exactly the entry its next step reads. Structural readers
//   get a node's cube from the walk that reached it or from its parent's
//   entry (cube_of).
// - **A point entry carries its point.** Its corner holds the coordinates
//   and its level is coord_bits (the point's unit cell), in the bytes a
//   child cube takes, so locate's last test, the range sweep and nearest
//   compare against the entry they already loaded, never the point arena.
//   The arena keeps each point for the structural edits that start from a
//   point slot (insert_at, erase_at), and the invariants check that the
//   two copies agree.
//
// This class owns only the structure. The distributed protocol
// (skip_quadtree.h) does the routing, message metering, and memory-ledger
// charging on top of the primitives here.
//
// Concurrency contract (audited for the serving executor): the const surface
// (tree/step/child_at/point_here/descend/...) is pure
// reads — no lazily-repaired caches, no mutable members — so any number of
// threads may descend concurrently. Structural edits (insert_at/erase_at/
// ensure_tree_ref/...) are single-writer, never concurrent with reads.
template <int D>
class quad_levels {
 public:
  static constexpr int fanout = 1 << D;
  using point = seq::qpoint<D>;
  using cube = seq::qcube<D>;

  // A quadrant entry: a child node with its cube (the only stored copy of
  // that cube), a single point with its coordinates, or nothing — plus the
  // row owner's identity hyperlink, the same in all 2^D entries of a row.
  struct entry {
    // The child node's cube, or the point's unit cell (level coord_bits,
    // corner = the point): qcube's fields, flattened so that the link below
    // fits where a qcube member would pad. A reader compares a point entry
    // against a query here, without loading the point arena.
    std::array<seq::coord_t, D> corner{};
    std::int32_t level = 0;
    std::int32_t node = -1;
    std::int32_t point = -1;
    // Slot of the row owner's cube one level denser: -1 at level 0 and on a
    // fresh root whose link is still being resolved.
    std::int32_t down = -1;
    [[nodiscard]] bool empty() const { return node < 0 && point < 0; }
    [[nodiscard]] cube box() const {
      cube c;
      c.corner = corner;
      c.level = level;
      return c;
    }
    void set_box(const cube& c) {
      corner = c.corner;
      level = c.level;
    }
    // The stored point (valid iff point >= 0).
    [[nodiscard]] seq::qpoint<D> coords() const { return seq::qpoint<D>{corner}; }
    // Is this entry the point q?
    [[nodiscard]] bool holds(const seq::qpoint<D>& q) const { return point >= 0 && corner == q.x; }
    void set_point(const seq::qpoint<D>& p, int pid) {
      corner = p.x;
      level = seq::coord_bits;
      point = pid;
    }
  };
  // The link costs no space: an entry is as large as {node, point, qcube}.
  static_assert(D != 2 || sizeof(entry) == 32);
  static_assert(D != 3 || sizeof(entry) == 40);

  struct tree_ref {
    std::int32_t root = -1;
    std::int32_t points = 0;  // live points stored in this tree
  };

  explicit quad_levels(int levels) : levels_(levels) {
    SW_EXPECTS(levels_ >= 0 && levels_ < util::max_levels);
    lv_.resize(static_cast<std::size_t>(levels_) + 1);
  }

  [[nodiscard]] int levels() const { return levels_; }
  [[nodiscard]] std::size_t point_count() const { return live_points_; }
  [[nodiscard]] std::size_t node_count(int level) const {
    return lv(level).live_nodes;
  }

  // --- point arena ----------------------------------------------------------

  int new_point(const point& p, util::membership_bits bits) {
    int pid;
    if (!pfree_.empty()) {
      pid = pfree_.back();
      pfree_.pop_back();
    } else {
      pid = static_cast<int>(pts_.size());
      pts_.emplace_back();
      pbits_.emplace_back();
    }
    pts_[static_cast<std::size_t>(pid)] = p;
    pbits_[static_cast<std::size_t>(pid)] = bits;
    ++live_points_;
    return pid;
  }

  void free_point(int pid) {
    pfree_.push_back(pid);
    --live_points_;
  }

  [[nodiscard]] util::membership_bits point_bits(int pid) const {
    return pbits_[static_cast<std::size_t>(pid)];
  }

  // Point slot of p if stored, else -1: a local descent of the ground tree
  // (the "client already knows its key" convention — not metered).
  [[nodiscard]] int find_point(const point& p) const {
    const tree_ref* g = tree(0, 0);
    if (g == nullptr) return -1;
    int at = g->root;
    cube box{};
    for (;;) {
      const entry& e = child_at(0, at, box.quadrant_of(p));
      if (!descend(e, at, box, p)) return e.holds(p) ? e.point : -1;
    }
  }

  // --- tree directory -------------------------------------------------------

  [[nodiscard]] const tree_ref* tree(int level, std::uint64_t prefix) const {
    return lv(level).trees.find(prefix);
  }

  // Visit every (prefix, tree) of a level until f returns false — the
  // repair plane's scan order. The order is the directory's slot order: a
  // function of the level's insert/erase history, unchanged by a save and
  // restore. Returns false when f stopped the visit.
  template <typename F>
  bool for_each_tree(int level, F&& f) const {
    return lv(level).trees.visit(f);
  }

  // The directory record of the (level, prefix) tree, creating an empty
  // tree (root = whole space, down unresolved) when absent. Second member:
  // freshly made? A level visit bumps the live count through the record
  // instead of paying a second probe (that second lookup was ~a third of
  // bulk-build time at 1M). The pointer is valid only until the next insert
  // into this level's directory, which may grow it; a visit holds it across
  // one point's placement, which inserts no tree into that level.
  std::pair<tree_ref*, bool> ensure_tree_ref(int level, std::uint64_t prefix) {
    auto [tr, fresh] = lv(level).trees.try_emplace(prefix);
    if (fresh) tr->root = new_node(level, -1);
    return {tr, fresh};
  }

  // Pre-size one level's arena (bulk build). `nodes` may be the n-points
  // upper bound — every insert creates at most one cube and each tree adds
  // one root, and roots + non-first inserts total <= n; the build's closing
  // compact() returns what no node took. The directory is not reserved: it
  // grows by doubling from the same insertion order as in the point-by-point
  // build, so the twins' directories are identical.
  void reserve_level(int level, std::size_t nodes) {
    level_arena& a = lv(level);
    a.rows.reserve(nodes * fanout);
    a.parent.reserve(nodes);
    a.occupied.reserve(nodes);
    a.alive.reserve(nodes);
  }

  void reserve_points(std::size_t n) {
    pts_.reserve(n);
    pbits_.reserve(n);
  }

  // The mutable directory record of the (level, prefix) tree, or null. An
  // erase holds it across one level's edit, which inserts no tree into that
  // level's directory, so one probe serves the walk's root, the live count
  // and the destroy test.
  [[nodiscard]] tree_ref* find_tree_ref(int level, std::uint64_t prefix) {
    return lv(level).trees.find(prefix);
  }

  // Destroys the (level, prefix) tree, rooted at `root`, once its last point
  // left: frees the root slot and drops the directory record.
  void destroy_tree(int level, std::uint64_t prefix, int root) {
    SW_ASSERT(occupied_of(level, root) == 0);
    free_node(level, root);
    lv(level).trees.erase(prefix);
  }

  // --- node accessors -------------------------------------------------------

  [[nodiscard]] const entry& child_at(int level, int slot, int quad) const {
    return lv(level).rows[static_cast<std::size_t>(slot) * fanout + static_cast<std::size_t>(quad)];
  }
  [[nodiscard]] int parent_of(int level, int slot) const {
    return lv(level).parent[static_cast<std::size_t>(slot)];
  }
  // Node slots a level has materialized, live and free.
  [[nodiscard]] std::size_t slot_count(int level) const { return lv(level).parent.size(); }
  // The identity hyperlink: slot of the same cube one level denser (-1 at
  // ground level and on a fresh root whose link is still being resolved).
  // For structural readers; a walk takes the link from the entry its last
  // step loaded (step).
  [[nodiscard]] int down_of(int level, int slot) const {
    return child_at(level, slot, 0).down;
  }
  // Writes the link into every entry of the row.
  void set_down(int level, int slot, int to) {
    entry* row = &lv(level).rows[static_cast<std::size_t>(slot) * fanout];
    for (int q = 0; q < fanout; ++q) row[q].down = to;
  }
  [[nodiscard]] int occupied_of(int level, int slot) const {
    return lv(level).occupied[static_cast<std::size_t>(slot)];
  }
  [[nodiscard]] bool alive_at(int level, int slot) const {
    return lv(level).alive[static_cast<std::size_t>(slot)] != 0;
  }

  // Warm every cache line of `node`'s child row: a sweep that visits the
  // node reads all of its entries. Rows fill whole lines of a line-aligned
  // array (pod_array), so each row starts a line.
  static_assert(fanout * sizeof(entry) % util::cache_line == 0);
  void prefetch_row(int level, int node) const {
    const auto* row = reinterpret_cast<const char*>(&child_at(level, node, 0));
    for (std::size_t at = 0; at < fanout * sizeof(entry); at += util::cache_line) {
      util::prefetch(row + at);
    }
  }

  // --- traversal primitives -------------------------------------------------
  //
  // `box` is always the cube the walk carries for `node`. Node cubes are
  // interesting (>= 2 occupants), so their level is below coord_bits and
  // every node has quadrants to read.

  // The decision of one descend step, from the entry in q's quadrant of
  // `node` that the step loaded: when it is a child node whose cube contains
  // q, moves (node, box) to it and returns true; false means the walk stops
  // at `node` (whose identity hyperlink is e.down). A batch lane that keeps
  // the entry it prefetched decides from it here, as step() does.
  [[nodiscard]] static bool descend(const entry& e, int& node, cube& box, const point& q) {
    // Mask-select instead of short-circuit: both conditions evaluate (the
    // entry is already loaded — contains() is register arithmetic) and fold
    // into one predictable select, versus two data-dependent branches.
    const cube c = e.box();
    const bool hit = (e.node >= 0) & static_cast<int>(c.contains(q));
    if (hit) {
      node = e.node;
      box = c;
    }
    return hit;
  }

  // One descend step toward q (descend() on the entry in q's quadrant);
  // when it returns false, `down` holds node's identity hyperlink, read
  // from the entry the step loaded. The caller meters the hop.
  [[nodiscard]] bool step(int level, int& node, cube& box, const point& q, int& down) const {
    const entry& e = child_at(level, node, box.quadrant_of(q));
    down = e.down;
    return descend(e, node, box, q);
  }

  // Is q stored as a point entry directly under `node` (cube `box`, its
  // deepest cube)? Reads the entry the walk's last step loaded.
  [[nodiscard]] bool point_here(int level, int node, const cube& box, const point& q) const {
    return child_at(level, node, box.quadrant_of(q)).holds(q);
  }

  // --- structural updates ---------------------------------------------------

  struct insert_outcome {
    int created = -1;   // freshly interesting cube (at most one), or -1
    int attached = -1;  // deepest node containing the point after the edit
    cube box;           // attached's cube (the created cube when created >= 0)
  };

  // Insert point `pid` under `node` (cube `box`), which must be the deepest
  // node of its tree whose cube contains the point (the descend endpoint).
  insert_outcome insert_at(int level, int node, const cube& box, int pid) {
    level_arena& a = lv(level);
    const point& p = pts_[static_cast<std::size_t>(pid)];
    const int quad = box.quadrant_of(p);
    const entry e =
        a.rows[static_cast<std::size_t>(node) * fanout + static_cast<std::size_t>(quad)];

    if (e.empty()) {
      a.rows[static_cast<std::size_t>(node) * fanout + static_cast<std::size_t>(quad)].set_point(
          p, pid);
      ++a.occupied[static_cast<std::size_t>(node)];
      return {-1, node, box};
    }
    if (e.point >= 0) {
      const point other = e.coords();
      SW_EXPECTS(!(other == p));  // duplicate points are not representable
      const cube c = seq::smallest_enclosing(p, other);
      const int fresh = new_node(level, node);
      attach_point(level, fresh, c, p, pid);
      attach_point(level, fresh, c, other, e.point);
      set_child_node(level, node, quad, fresh, c);
      return {fresh, fresh, c};
    }
    // Occupied by a child cube that does not contain p: wedge a new
    // interesting cube above it.
    const cube child_box = e.box();
    SW_ASSERT(!child_box.contains(p));
    const cube c = seq::smallest_enclosing(child_box, p);
    const int fresh = new_node(level, node);
    attach_point(level, fresh, c, p, pid);
    attach_node(level, fresh, c, e.node, child_box);
    set_child_node(level, node, quad, fresh, c);
    return {fresh, fresh, c};
  }

  // Remove point `pid` from `node` (cube `box`, its deepest containing
  // node), splicing out the at most one cube that stops being interesting.
  // Returns the freed slot or -1. A root left empty is handled by
  // destroy_tree.
  int erase_at(int level, int node, const cube& box, int pid) {
    level_arena& a = lv(level);
    const point& p = pts_[static_cast<std::size_t>(pid)];
    const int quad = box.quadrant_of(p);
    entry& e = a.rows[static_cast<std::size_t>(node) * fanout + static_cast<std::size_t>(quad)];
    SW_EXPECTS(e.point == pid);
    e = entry{.down = e.down};  // clears the coordinates; the row keeps its link
    const int left = --a.occupied[static_cast<std::size_t>(node)];

    const int parent = a.parent[static_cast<std::size_t>(node)];
    if (parent < 0 || left >= 2) return -1;
    SW_ASSERT(left == 1);  // non-root nodes are interesting: >= 2 occupants
    // Splice: replace this node in its parent by its single remaining entry.
    entry remaining{};
    for (int q = 0; q < fanout; ++q) {
      const entry& ce =
          a.rows[static_cast<std::size_t>(node) * fanout + static_cast<std::size_t>(q)];
      if (!ce.empty()) remaining = ce;
    }
    for (int q = 0; q < fanout; ++q) {
      entry& pe = a.rows[static_cast<std::size_t>(parent) * fanout + static_cast<std::size_t>(q)];
      if (pe.node == node) {
        // The moved entry carries the only copy of its cube (or its
        // point's coordinates), and the parent row keeps its own link.
        remaining.down = pe.down;
        pe = remaining;
        break;
      }
    }
    if (remaining.node >= 0) a.parent[static_cast<std::size_t>(remaining.node)] = parent;
    free_node(level, node);
    return node;
  }

  // Walk up from `from` (cube `from_box`) to the node whose cube equals
  // `target` (used to resolve the down link of a cube that just became
  // interesting one level sparser; the subset property guarantees the cube
  // exists on this path). Each ancestor's cube comes from its parent's entry.
  [[nodiscard]] int resolve_cube(int level, int from, const cube& from_box,
                                 const cube& target) const {
    int at = from;
    for (cube c = from_box; !(c == target); c = cube_of(level, at)) {
      at = parent_of(level, at);
      SW_ASSERT(at >= 0);
    }
    return at;
  }

  // --- whole-structure helpers ---------------------------------------------

  // Depth of the ground tree (longest root-to-node path).
  [[nodiscard]] int depth() const {
    const tree_ref* g = tree(0, 0);
    if (g == nullptr) return 0;
    int best = 0;
    std::vector<std::pair<int, int>> stack{{g->root, 0}};
    while (!stack.empty()) {
      const auto [slot, d] = stack.back();
      stack.pop_back();
      if (d > best) best = d;
      for (int q = 0; q < fanout; ++q) {
        const entry& e = child_at(0, slot, q);
        if (e.node >= 0) stack.emplace_back(e.node, d + 1);
      }
    }
    return best;
  }

  // Structural invariants, for tests after randomized churn:
  //  - per tree: occupancy counts match entries, parents are consistent,
  //    child cubes nest properly and sit in their own quadrant, every
  //    non-root node is interesting (>= 2 occupants), every point entry
  //    carries its point's coordinates and the unit-cell level;
  //  - partition by prefix: level l's trees hold exactly the live points
  //    whose membership matches each prefix (so S_b = the b-prefixed items);
  //  - nesting: every node cube at level l is a node cube of the parent
  //    prefix tree at level l-1, and the node's link points exactly at it;
  //    all 2^D entries of a live row carry the same link, -1 at level 0.
  [[nodiscard]] bool check_invariants() const {
    std::vector<char> seen(pts_.size(), 0);
    for (const int f : pfree_) seen[static_cast<std::size_t>(f)] = 2;  // dead slots
    for (int l = 0; l <= levels_; ++l) {
      std::size_t live_here = 0, points_here = 0;
      const bool trees_ok = for_each_tree(l, [&](std::uint64_t prefix, const tree_ref& tr) {
        std::size_t tree_points = 0;
        // Each node's cube is the one its parent's entry holds; a root's is
        // the whole space.
        std::vector<std::pair<int, cube>> stack{{tr.root, cube{}}};
        if (parent_of(l, tr.root) != -1) return false;
        while (!stack.empty()) {
          const auto [v, box] = stack.back();
          stack.pop_back();
          ++live_here;
          if (!alive_at(l, v)) return false;
          int occ = 0;
          for (int q = 0; q < fanout; ++q) {
            const entry& e = child_at(l, v, q);
            if (e.empty()) continue;
            ++occ;
            if (e.node >= 0 && e.point >= 0) return false;
            if (e.point >= 0) {
              ++tree_points;
              if (static_cast<std::size_t>(e.point) >= pts_.size()) return false;
              const point& p = pts_[static_cast<std::size_t>(e.point)];
              if (!(e.coords() == p) || e.level != seq::coord_bits) return false;
              if (seen[static_cast<std::size_t>(e.point)] == 2) return false;
              if (!box.contains(p)) return false;
              if (box.quadrant_of(p) != q) return false;
              if (util::prefix_of(pbits_[static_cast<std::size_t>(e.point)], l).bits != prefix) {
                return false;
              }
              if (l == 0) seen[static_cast<std::size_t>(e.point)] = 1;
            } else {
              const cube c = e.box();
              if (!box.contains(c)) return false;
              if (c.level <= box.level) return false;
              if (box.quadrant_of(corner_of(c)) != q) return false;
              if (parent_of(l, e.node) != v) return false;
              stack.emplace_back(e.node, c);
            }
          }
          if (occ != occupied_of(l, v)) return false;
          if (v != tr.root && occ < 2) return false;  // non-root nodes are interesting
          // Every copy of the row's link agrees: a walk reads whichever
          // entry its last step loaded.
          const int dn = down_of(l, v);
          for (int q = 1; q < fanout; ++q) {
            if (child_at(l, v, q).down != dn) return false;
          }
          if (l == 0 && dn != -1) return false;
          // Nesting + identity hyperlink into the parent-prefix tree.
          if (l > 0) {
            if (dn < 0 || static_cast<std::size_t>(dn) >= slot_count(l - 1) ||
                !alive_at(l - 1, dn)) {
              return false;
            }
            // Level l-1 is already verified, so dn sits in its parent's row.
            if (!(cube_of(l - 1, dn) == box)) return false;
            const auto parent_prefix = util::level_prefix{l, prefix}.parent().bits;
            const tree_ref* pt = tree(l - 1, parent_prefix);
            if (pt == nullptr) return false;
            // dn must belong to the parent-prefix tree: walk to its root.
            int r = dn;
            while (parent_of(l - 1, r) >= 0) r = parent_of(l - 1, r);
            if (r != pt->root) return false;
          }
        }
        if (tree_points != static_cast<std::size_t>(tr.points)) return false;
        if (tree_points == 0) return false;  // empty trees are destroyed
        points_here += tree_points;
        return true;
      });
      if (!trees_ok) return false;
      if (live_here != lv(l).live_nodes) return false;
      if (points_here != live_points_) return false;  // partition covers every point
    }
    for (std::size_t i = 0; i < seen.size(); ++i) {
      if (seen[i] == 0) return false;  // live point missing from the ground tree
    }
    return true;
  }

  // Measured resident bytes (DESIGN.md §12): points and per-node occupancy
  // and liveness are arena, the child rows (with the cubes and down links
  // their entries hold) and the parent array are links, and the per-level
  // prefix→tree tables are directory (exact: capacity × slot size).
  [[nodiscard]] api::memory_footprint footprint() const {
    api::memory_footprint f;
    f.arena_bytes = api::vector_bytes(pts_) + api::vector_bytes(pbits_) +
                    api::vector_bytes(pfree_);
    f.slack_bytes = api::vector_slack_bytes(pts_) + api::vector_slack_bytes(pbits_) +
                    api::vector_slack_bytes(pfree_);
    for (const level_arena& a : lv_) {
      f.arena_bytes += api::vector_bytes(a.occupied) + api::vector_bytes(a.alive) +
                       api::vector_bytes(a.free);
      f.link_bytes += api::vector_bytes(a.rows) + api::vector_bytes(a.parent);
      f.slack_bytes += api::vector_slack_bytes(a.occupied) + api::vector_slack_bytes(a.alive) +
                       api::vector_slack_bytes(a.free) + api::vector_slack_bytes(a.rows) +
                       api::vector_slack_bytes(a.parent);
      f.directory_bytes += api::vector_bytes(a.trees);
    }
    return f;
  }

  // --- persistence (DESIGN.md §13) -------------------------------------------

  // Drop capacity slack on every per-level and global array, so footprint()
  // matches what save() writes. Structural plane.
  void compact() {
    pts_.shrink_to_fit();
    pbits_.shrink_to_fit();
    pfree_.shrink_to_fit();
    for (level_arena& a : lv_) {
      a.rows.shrink_to_fit();
      a.parent.shrink_to_fit();
      a.occupied.shrink_to_fit();
      a.alive.shrink_to_fit();
      a.free.shrink_to_fit();
    }
  }

  // Write the whole multi-level arena under `prefix` ("<prefix>.pts",
  // "<prefix>.lv3.quads", ...). Quiescent structural state only.
  void save(persist::writer& w, std::string_view prefix) const {
    const std::string p(prefix);
    const std::uint64_t meta[] = {static_cast<std::uint64_t>(levels_),
                                  static_cast<std::uint64_t>(live_points_)};
    w.add_array(p + ".meta", meta, std::size(meta));
    w.add_pods(p + ".pts", pts_);
    w.add_pods(p + ".pbits", pbits_);
    w.add_pods(p + ".pfree", pfree_);
    for (int l = 0; l <= levels_; ++l) {
      const level_arena& a = lv(l);
      const std::string lp = p + ".lv" + std::to_string(l);
      w.add_u64(lp + ".live_nodes", a.live_nodes);
      w.add_pods(lp + ".quads", a.rows);
      w.add_pods(lp + ".parent", a.parent);
      w.add_pods(lp + ".occupied", a.occupied);
      w.add_pods(lp + ".alive", a.alive);
      w.add_pods(lp + ".free", a.free);
      a.trees.save(w, lp + ".dir");
    }
  }

  // Restore from a snapshot: POD arrays and the per-level directories
  // ("<prefix>.lvN.dir") become borrowed zero-copy spans over the reader's
  // blob, so the restore reads no directory row. A file in another layout
  // fails on its missing section; sections the reader does not name are
  // ignored (DESIGN.md §13). The ground tree must exist, rooted at a live
  // level-0 slot: every walk and local descent starts there.
  quad_levels(persist::reader& r, std::string_view prefix) {
    const std::string p(prefix);
    std::size_t nmeta = 0;
    const auto* meta = r.array<std::uint64_t>(p + ".meta", nmeta);
    if (nmeta != 2) throw persist::error("snapshot: quad_levels meta malformed");
    // Range-check the u64 words before narrowing them.
    if (meta[0] >= static_cast<std::uint64_t>(util::max_levels)) {
      throw persist::error("snapshot: quad_levels level count out of range");
    }
    levels_ = static_cast<int>(meta[0]);
    live_points_ = static_cast<std::size_t>(meta[1]);
    pts_ = r.pods<point>(p + ".pts");
    pbits_ = r.pods<util::membership_bits>(p + ".pbits");
    pfree_ = r.pods<int>(p + ".pfree");
    if (pbits_.size() != pts_.size() || live_points_ > pts_.size() ||
        live_points_ + pfree_.size() != pts_.size()) {
      throw persist::error("snapshot: quad_levels point arrays disagree with meta");
    }
    lv_.resize(static_cast<std::size_t>(levels_) + 1);
    for (int l = 0; l <= levels_; ++l) {
      level_arena& a = lv(l);
      const std::string lp = p + ".lv" + std::to_string(l);
      a.live_nodes = static_cast<std::size_t>(r.u64(lp + ".live_nodes"));
      a.rows = r.pods<entry>(lp + ".quads");
      a.parent = r.pods<std::int32_t>(lp + ".parent");
      a.occupied = r.pods<std::uint8_t>(lp + ".occupied");
      a.alive = r.pods<std::uint8_t>(lp + ".alive");
      a.free = r.pods<std::int32_t>(lp + ".free");
      const std::size_t slots = a.parent.size();
      if (a.rows.size() != slots * fanout || a.occupied.size() != slots ||
          a.alive.size() != slots || a.live_nodes > slots ||
          a.live_nodes + a.free.size() != slots) {
        throw persist::error("snapshot: quad_levels level arrays disagree");
      }
      a.trees = persist::flat_table<tree_ref>(r, lp + ".dir");
    }
    const tree_ref* g = tree(0, 0);
    if (g == nullptr || g->root < 0 || static_cast<std::size_t>(g->root) >= lv(0).alive.size() ||
        !alive_at(0, g->root)) {
      throw persist::error("snapshot: quad_levels has no live ground tree");
    }
  }

 private:
  // Parallel arrays indexed by node slot; one arena per level, so the node
  // records of a level stay contiguous. A node's cube is stored only in its
  // parent's entry (a root's is the whole space). Slots recycle through
  // `free`. The POD arrays are persist::pod_array and the prefix→tree
  // directory a persist::flat_table over one — owned in a built structure,
  // borrowed zero-copy snapshot spans (copy-on-first-write) in a restored
  // one. Each level's record starts its own cache line: the bulk build runs
  // the levels' passes on different cores (skip_quadtree::bulk_build), and
  // one pass bumping its sizes must not evict the array headers another
  // pass reads at every step.
  struct alignas(util::cache_line) level_arena {
    persist::pod_array<entry> rows;  // fanout entries per slot
    persist::pod_array<std::int32_t> parent;
    persist::pod_array<std::uint8_t> occupied;
    persist::pod_array<std::uint8_t> alive;
    persist::pod_array<std::int32_t> free;
    persist::flat_table<tree_ref> trees;
    std::size_t live_nodes = 0;
  };

  [[nodiscard]] const level_arena& lv(int level) const {
    return lv_[static_cast<std::size_t>(level)];
  }
  [[nodiscard]] level_arena& lv(int level) { return lv_[static_cast<std::size_t>(level)]; }

  // A node's cube, read from its parent's entry (a root's is the whole
  // space).
  [[nodiscard]] cube cube_of(int level, int slot) const {
    const int par = parent_of(level, slot);
    if (par < 0) return cube{};
    for (int q = 0; q < fanout; ++q) {
      const entry& e = child_at(level, par, q);
      if (e.node == slot) return e.box();
    }
    SW_ASSERT(false);  // every non-root node sits in its parent's row
    return cube{};
  }

  // The cube's corner as a point: it lies in the cube's own quadrant of any
  // strictly larger cube containing it.
  [[nodiscard]] static point corner_of(const cube& c) {
    point p;
    for (int d = 0; d < D; ++d) p.x[d] = c.corner[d];
    return p;
  }

  int new_node(int level, int parent) {
    level_arena& a = lv(level);
    int slot;
    if (!a.free.empty()) {
      slot = a.free.back();
      a.free.pop_back();
      // Empty entries with an unresolved link.
      for (int q = 0; q < fanout; ++q) {
        a.rows[static_cast<std::size_t>(slot) * fanout + static_cast<std::size_t>(q)] = entry{};
      }
    } else {
      slot = static_cast<int>(a.parent.size());
      // Explicit empty-entry fill: pod_array's value-less resize leaves new
      // records uninitialized (unlike std::vector's value-init).
      a.rows.resize(a.rows.size() + fanout, entry{});
      a.parent.emplace_back();
      a.occupied.emplace_back();
      a.alive.emplace_back();
    }
    a.parent[static_cast<std::size_t>(slot)] = parent;
    a.occupied[static_cast<std::size_t>(slot)] = 0;
    a.alive[static_cast<std::size_t>(slot)] = 1;
    ++a.live_nodes;
    return slot;
  }

  void free_node(int level, int slot) {
    level_arena& a = lv(level);
    a.alive[static_cast<std::size_t>(slot)] = 0;
    a.free.push_back(slot);
    --a.live_nodes;
  }

  void attach_point(int level, int node, const cube& box, const point& p, int pid) {
    level_arena& a = lv(level);
    const int quad = box.quadrant_of(p);
    entry& e = a.rows[static_cast<std::size_t>(node) * fanout + static_cast<std::size_t>(quad)];
    SW_ASSERT(e.empty());
    e.set_point(p, pid);
    ++a.occupied[static_cast<std::size_t>(node)];
  }

  void attach_node(int level, int node, const cube& box, int child, const cube& child_box) {
    level_arena& a = lv(level);
    const int quad = box.quadrant_of(corner_of(child_box));
    entry& e = a.rows[static_cast<std::size_t>(node) * fanout + static_cast<std::size_t>(quad)];
    SW_ASSERT(e.empty());
    e.node = child;
    e.set_box(child_box);
    ++a.occupied[static_cast<std::size_t>(node)];
    a.parent[static_cast<std::size_t>(child)] = node;
  }

  void set_child_node(int level, int node, int quad, int child, const cube& child_box) {
    level_arena& a = lv(level);
    entry& e = a.rows[static_cast<std::size_t>(node) * fanout + static_cast<std::size_t>(quad)];
    e.node = child;
    e.point = -1;
    e.set_box(child_box);
  }

  std::vector<level_arena> lv_;
  persist::pod_array<point> pts_;
  persist::pod_array<util::membership_bits> pbits_;
  persist::pod_array<int> pfree_;
  std::size_t live_points_ = 0;
  int levels_ = 0;
};

}  // namespace skipweb::core
