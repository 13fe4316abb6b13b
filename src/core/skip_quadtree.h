#pragma once

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <iterator>
#include <queue>
#include <sstream>
#include <thread>
#include <vector>

#include "api/op_stats.h"
#include "core/quad_levels.h"
#include "net/cursor.h"
#include "net/network.h"
#include "persist/flat_table.h"
#include "persist/net_snapshot.h"
#include "persist/pod_array.h"
#include "persist/snapshot.h"
#include "seq/quadtree.h"
#include "util/membership.h"
#include "util/pool.h"
#include "util/prefetch.h"
#include "util/rng.h"
#include "util/sw_assert.h"

namespace skipweb::core {

// Distributed skip quadtree/octree (paper §3.1): the skip-web instantiation
// for d-dimensional point sets, the distributed analogue of Eppstein,
// Goodrich & Sun's skip quadtree.
//
// Every point carries a membership bit vector; level l holds one compressed
// quadtree per l-bit prefix set S_b (the sets partition the points). Since
// S_b ⊆ S_parent(b), every interesting cube of a level-l tree is also an
// interesting cube of the parent-level tree (Lemma 3's setting), so the
// inter-level hyperlink is the *identity on cubes*: a query that located its
// deepest cube at level l jumps to the same cube one level denser and
// resumes the descent there, doing expected O(1) extra steps per level.
// Point location therefore costs O(log n) expected messages even when the
// underlying compressed tree has Θ(n) depth.
//
// Storage is the flat multi-level arena of core::quad_levels: the identity
// hyperlink is a stored slot index kept in every entry of its node's child
// row, and a node's cube is stored only in its parent's child entry. Every
// walk here — locate, locate_batch, the descent of range, and the insert,
// erase and bulk-build descents — carries the current cube with it: the
// whole space at a root, the entry's cube after each step, unchanged across
// a down link. A walk that stops at a node takes the down link from the
// entry its step just loaded. A hop therefore loads one child entry, one
// cache line, and the query path performs no hash lookups (see
// quad_levels.h).
// Nodes (interesting cubes) are spread over all hosts by hashing — the
// arbitrary assignment of §2.4 — giving O(2^d log n) expected memory per
// host for H = n.
//
// Fault plane (DESIGN.md §10): with `replication` = k > 0, every node record
// is stored on k+1 hosts — the salted hash window replica_host(l, prefix,
// node, base..base+k), base = 0 until a repair re-homes the record. Queries
// under active faults hop to the first reachable replica (each dead
// candidate costs its timed-out probe); repair_step() moves a record whose
// window contains dead hosts onto a fresh all-live window and re-charges the
// ledger. k = 0 keeps routing, receipts and the ledger byte-identical to the
// unreplicated structure.
template <int D>
class skip_quadtree {
 public:
  using point = seq::qpoint<D>;
  using cube = seq::qcube<D>;
  using arena = quad_levels<D>;
  static constexpr int fanout = arena::fanout;

  // `bulk` selects the level-major bulk build (DESIGN.md §12), its level
  // passes pipelined across cores — byte-identical to the point-by-point
  // construction (same slots, same receipts) and several times faster at
  // n >= 1M. `false` runs the same visit_level point by point, as inserts
  // do: the twin tests' reference for the reorder and the pipeline.
  skip_quadtree(const std::vector<point>& pts, std::uint64_t seed, net::network& net,
                std::size_t replication = 0, bool bulk = true)
      : net_(&net),
        rng_(seed),
        levels_(util::levels_for(pts.size())),
        q_(levels_),
        replication_(std::min(replication, max_replication)) {
    SW_EXPECTS(!pts.empty());
    if (bulk) {
      bulk_build(pts);
    } else {
      for (const auto& p : pts) {
        SW_EXPECTS(q_.find_point(p) < 0);  // distinct points
        insert_chain(p, util::draw_membership(rng_), nullptr);
      }
    }
    // Anchor membership per host: selects the chain of prefix sets a search
    // from that host descends (any chain reaches the ground set).
    anchors_.reserve(net_->host_count());
    for (std::size_t h = 0; h < net_->host_count(); ++h) {
      anchors_.push_back(q_.point_bits(static_cast<int>(h % pts.size())));
      net_->charge(net::host_id{static_cast<std::uint32_t>(h)}, net::memory_kind::host_ref, 1);
    }
  }

  // Restore from a snapshot written by save_snapshot(), onto a FRESH network
  // (hosts grown + memory ledger replayed exactly, so check_invariants()'
  // ledger equality holds on the restored twin). The arenas, directories,
  // re-home table and anchors come back as borrowed views over the reader's
  // blob — zero-copy in mmap mode — and materialize copy-on-first-write at
  // the first structural edit. A file in another layout fails on its missing
  // section (DESIGN.md §13).
  skip_quadtree(persist::reader& r, net::network& net) : net_(&net), rng_(0), q_(r, "q") {
    std::size_t nmeta = 0;
    const auto* meta = r.array<std::uint64_t>("impl.meta", nmeta);
    if (nmeta != 2) throw persist::error("snapshot: quadtree meta malformed");
    // Compared as u64 words, before narrowing: the build never stores more
    // than max_replication, and every replica costs a charge per edit.
    if (meta[0] != static_cast<std::uint64_t>(q_.levels())) {
      throw persist::error("snapshot: quadtree level count disagrees with its arena");
    }
    if (meta[1] > max_replication) {
      throw persist::error("snapshot: quadtree replication out of range");
    }
    levels_ = q_.levels();
    replication_ = static_cast<std::size_t>(meta[1]);
    std::istringstream iss(r.str("impl.rng"));
    iss >> rng_.engine();
    if (!iss) throw persist::error("snapshot: unreadable rng state");
    rehome_ = persist::flat_table<std::uint32_t>(r, "impl.rehome");
    anchors_ = r.pods<util::membership_bits>("impl.anchors");
    persist::restore_network(r, net, "net");
    if (anchors_.size() != net_->host_count()) {
      throw persist::error("snapshot: anchor table disagrees with host count");
    }
  }

  // --- persistence (DESIGN.md §13) ------------------------------------------
  //
  // Arenas, chain metadata, per-host anchors, the fault plane's re-home
  // table, rng state, and the deployment ledger, as named sections of `w`.
  void save_snapshot(persist::writer& w) const {
    q_.save(w, "q");
    const std::uint64_t meta[2] = {static_cast<std::uint64_t>(levels_), replication_};
    w.add_array("impl.meta", meta, 2);
    std::ostringstream oss;
    oss << rng_.engine();
    w.add_string("impl.rng", oss.str());
    rehome_.save(w, "impl.rehome");
    w.add_pods("impl.anchors", anchors_);
    persist::save_network(w, *net_, "net");
  }

  // Shrink every arena to its size (footprint slack -> ~0) so resident bytes
  // match the snapshot payload.
  void compact() {
    q_.compact();
    anchors_.shrink_to_fit();
  }

  ~skip_quadtree() = default;
  skip_quadtree(const skip_quadtree&) = delete;
  skip_quadtree& operator=(const skip_quadtree&) = delete;

  // The build clamps `replication` to this; a snapshot above it is rejected.
  static constexpr std::size_t max_replication = 8;
  // A bulk build of fewer points runs its level passes on the calling
  // thread alone, where starting helpers would cost more than overlapping
  // the passes saves (DESIGN.md §12).
  static constexpr std::size_t pipeline_min_points = std::size_t{1} << 12;

  [[nodiscard]] std::size_t size() const { return q_.point_count(); }
  [[nodiscard]] int levels() const { return levels_; }
  // Extra replica hosts per node record (0 = unreplicated; DESIGN.md §10).
  [[nodiscard]] std::size_t replication() const { return replication_; }
  [[nodiscard]] int depth() const { return q_.depth(); }
  [[nodiscard]] std::size_t ground_node_count() const { return q_.node_count(0); }
  [[nodiscard]] const arena& structure() const { return q_; }

  struct locate_result {
    cube cell;              // deepest interesting cube of D(S) containing q
    bool is_point = false;  // q coincides with a stored point
    api::op_stats stats;
  };

  // Distributed point location (the paper's core query): find the smallest
  // interesting cube of the ground structure containing q.
  [[nodiscard]] locate_result locate(const point& q, net::host_id origin) const {
    net::cursor cur(*net_, origin);
    auto [l, prefix, node] = chain_top(anchors_[origin.value]);
    cube box{};  // a root's cube is the whole space
    hop(cur, l, prefix, node);
    for (;;) {
      int down = -1;
      while (q_.step(l, node, box, q, down)) hop(cur, l, prefix, node);
      if (l == 0) break;
      node = down;  // the same cube, one level denser
      --l;
      prefix = util::prefix_of(anchors_[origin.value], l).bits;
      hop(cur, l, prefix, node);
    }
    locate_result out;
    out.cell = box;
    out.is_point = q_.point_here(0, node, box, q);
    out.stats = api::op_stats::of(cur);
    return out;
  }

  // Batched point location: the given descents run interleaved, one step per
  // query per round. Each lane carries the address of the child entry its
  // next step reads — the exact one its carried cube selects — prefetched a
  // round ahead, so the independent walks' memory latency overlaps. A visit
  // decides from that entry as step() does (quad_levels::descend), a level
  // change reads its down link from it, and a finished lane answers
  // is_point from it, so the prefetch covers all a round reads. Results and
  // per-op receipts are identical to locate() called serially (tests assert
  // it).
  [[nodiscard]] std::vector<locate_result> locate_batch(const std::vector<point>& qs,
                                                        net::host_id origin) const {
    // The walk's state; the cursors have a vector of their own, so a round
    // sweeps compact lanes.
    struct lane {
      const typename arena::entry* next;  // the entry the next step reads
      int l, node;
      std::uint64_t prefix;
      cube box;
    };
    const auto w = anchors_[origin.value];
    const auto [l0, prefix0, node0] = chain_top(w);
    std::vector<net::cursor> curs;
    curs.reserve(qs.size());
    std::vector<lane> lanes;
    lanes.reserve(qs.size());
    for (const auto& q : qs) {
      curs.emplace_back(*net_, origin);
      hop(curs.back(), l0, prefix0, node0);
      const cube root{};  // a root's cube is the whole space
      lanes.push_back(lane{&q_.child_at(l0, node0, root.quadrant_of(q)), l0, node0, prefix0, root});
    }
    std::vector<locate_result> out(qs.size());
    // Active-lane list, compacted order-preserving as descents land: late
    // rounds touch only the stragglers instead of sweeping every lane.
    std::vector<std::uint32_t> active(qs.size());
    for (std::size_t i = 0; i < qs.size(); ++i) active[i] = static_cast<std::uint32_t>(i);
    while (!active.empty()) {
      std::size_t kept = 0;
      for (std::size_t a = 0; a < active.size(); ++a) {
        const std::size_t i = active[a];
        lane& ln = lanes[i];
        const auto& e = *ln.next;
        if (arena::descend(e, ln.node, ln.box, qs[i])) {
          hop(curs[i], ln.l, ln.prefix, ln.node);
        } else if (ln.l > 0) {
          ln.node = e.down;  // the box stays: same cube
          --ln.l;
          ln.prefix = util::prefix_of(w, ln.l).bits;
          hop(curs[i], ln.l, ln.prefix, ln.node);
        } else {
          out[i].cell = ln.box;
          out[i].is_point = e.holds(qs[i]);
          out[i].stats = api::op_stats::of(curs[i]);
          continue;
        }
        ln.next = &q_.child_at(ln.l, ln.node, ln.box.quadrant_of(qs[i]));
        util::prefetch(ln.next);  // warm next round's read
        active[kept++] = static_cast<std::uint32_t>(i);
      }
      active.resize(kept);
    }
    return out;
  }

  [[nodiscard]] api::op_result<bool> contains(const point& q, net::host_id origin) const {
    const auto r = locate(q, origin);
    return {r.is_point, r.stats};
  }

  // Exact distributed nearest neighbour: best-first cube search on the
  // ground tree. (The paper reduces approximate NN to point location via
  // [6]; the exact variant exercises the same routing and is testable
  // against the sequential oracle.)
  [[nodiscard]] api::op_result<point> nearest(const point& q, net::host_id origin) const {
    SW_EXPECTS(size() > 0);
    net::cursor cur(*net_, origin);
    const int root = q_.tree(0, 0)->root;

    // A node to expand (quad < 0), or the point entry in quadrant `quad` of
    // node's row: its coordinates are read from the entry, never the arena.
    struct item {
      typename seq::quadtree<D>::dist2_t dist;
      int node;
      int quad;
      bool operator>(const item& o) const { return dist > o.dist; }
    };
    std::priority_queue<item, std::vector<item>, std::greater<item>> heap;
    heap.push({0, root, -1});
    auto best = ~typename seq::quadtree<D>::dist2_t{0};
    point best_point{};
    while (!heap.empty()) {
      const item top = heap.top();
      heap.pop();
      if (top.dist >= best) break;
      if (top.quad >= 0) {
        best = top.dist;
        best_point = q_.child_at(0, top.node, top.quad).coords();
        continue;
      }
      hop(cur, 0, 0, top.node);  // expanding a node = visiting its host
      for (int c = 0; c < fanout; ++c) {
        const auto& e = q_.child_at(0, top.node, c);
        if (e.point >= 0) {
          heap.push({seq::quadtree<D>::point_dist2(e.coords(), q), top.node, c});
        }
        if (e.node >= 0) heap.push({seq::quadtree<D>::cube_dist2(e.box(), q), e.node, -1});
      }
    }
    return {best_point, api::op_stats::of(cur)};
  }

  // Orthogonal range search (paper §3): all stored points inside the closed
  // axis-aligned box [lo, hi]. The skip levels route to the smallest
  // interesting cube containing the whole box (O(log n) expected messages);
  // the ground walk below it pays one hop per visited node — output-
  // sensitive enumeration, O(log n + answer + boundary cubes). Each point
  // entry carries its coordinates, so a visit reads only the node's row,
  // and every row goes on the sweep's stack with all its cache lines
  // prefetched: the depth-first order pops the child it pushed last, so
  // without the prefetch each visit would wait on its own row.
  // Results ascend lexicographically by coordinates; `limit` caps them
  // (0 = unlimited), stopping the walk early once reached.
  [[nodiscard]] api::op_result<std::vector<point>> range(const point& lo, const point& hi,
                                                         net::host_id origin,
                                                         std::size_t limit = 0) const {
    for (int d = 0; d < D; ++d) SW_EXPECTS(lo.x[d] <= hi.x[d]);
    net::cursor cur(*net_, origin);
    auto [l, prefix, node] = chain_top(anchors_[origin.value]);
    cube box{};
    hop(cur, l, prefix, node);
    for (;;) {
      int down = -1;
      while (step_box(l, node, box, lo, hi, down)) hop(cur, l, prefix, node);
      if (l == 0) break;
      node = down;
      --l;
      prefix = util::prefix_of(anchors_[origin.value], l).bits;
      hop(cur, l, prefix, node);
    }

    api::op_result<std::vector<point>> res;
    q_.prefetch_row(0, node);
    std::vector<int> stack{node};
    bool capped = false;
    while (!stack.empty() && !capped) {
      const int v = stack.back();
      stack.pop_back();
      hop(cur, 0, 0, v);
      for (int c = 0; c < fanout; ++c) {
        const auto& e = q_.child_at(0, v, c);
        if (e.point >= 0) {
          cur.note_comparisons(1);
          const point p = e.coords();
          if (inside(p, lo, hi)) {
            res.value.push_back(p);
            if (limit != 0 && res.value.size() >= limit) {
              capped = true;
              break;
            }
          }
        } else if (e.node >= 0 && intersects(e.box(), lo, hi)) {
          q_.prefetch_row(0, e.node);
          stack.push_back(e.node);
        }
      }
    }
    std::sort(res.value.begin(), res.value.end(),
              [](const point& a, const point& b) { return a.x < b.x; });
    res.stats = api::op_stats::of(cur);
    return res;
  }

  // Insert a point (paper §4): one structural O(1) edit per level of the
  // point's own prefix chain, found by the same top-down descent.
  api::op_stats insert(const point& p, net::host_id origin) {
    SW_EXPECTS(q_.find_point(p) < 0);
    const net::structural_section sw_structural_guard(*net_);
    net::cursor cur(*net_, origin);
    insert_chain(p, util::draw_membership(rng_), &cur);
    return api::op_stats::of(cur);
  }

  // Remove a point; splices out at most one cube per level of its chain.
  api::op_stats erase(const point& p, net::host_id origin) {
    SW_EXPECTS(size() >= 2);  // the structure never becomes empty
    const int pid = q_.find_point(p);
    SW_EXPECTS(pid >= 0);
    const auto bits = q_.point_bits(pid);
    const int psalt = payload_salt(p);
    const net::structural_section sw_structural_guard(*net_);
    net::cursor cur(*net_, origin);
    int start = -1;  // captured down link; -1 selects the level's root
    cube box{};      // the cube of `start` (a down link keeps the cube)
    for (int l = levels_; l >= 0; --l) {
      const auto prefix = util::prefix_of(bits, l).bits;
      // `tr` stays valid to the count below: nothing here inserts a tree at l.
      auto* tr = q_.find_tree_ref(l, prefix);
      SW_ASSERT(tr != nullptr && tr->points > 0);
      int node = start >= 0 ? start : tr->root;
      if (start < 0) box = cube{};
      hop(cur, l, prefix, node);
      // The walk reports the hyperlink before the edit can splice the node
      // away (-1 at level 0, where the chain ends).
      while (q_.step(l, node, box, p, start)) hop(cur, l, prefix, node);
      const int freed = q_.erase_at(l, node, box, pid);
      charge_point(*net_, l, prefix, psalt, -1);
      if (freed >= 0) {
        charge_node(l, prefix, freed, -1);  // de-charge at the current window
        forget_rehome(l, freed);            // the recycled slot restarts at base 0
      }
      if (--tr->points == 0) {
        const int dead_root = tr->root;
        q_.destroy_tree(l, prefix, dead_root);
        charge_node(l, prefix, dead_root, -1);
        forget_rehome(l, dead_root);
      }
    }
    q_.free_point(pid);
    return api::op_stats::of(cur);
  }

  // Host assignment for a structure node (the §2.4 balanced placement): the
  // primary copy, i.e. replica 0 of the record's current salt window.
  [[nodiscard]] net::host_id host_of(int level, std::uint64_t prefix, int node) const {
    return replica_host(level, prefix, node, rehome_base(level, node));
  }

  // Host of one replica of a node record. salt 0 is the pre-fault placement
  // (byte-identical to the unreplicated layout); a record re-homed r times
  // with replication k lives on salts r*(k+1) .. r*(k+1)+k.
  [[nodiscard]] net::host_id replica_host(int level, std::uint64_t prefix, int node,
                                          std::uint32_t salt) const {
    return net::host_id{util::placement_host(level, prefix, node, salt, net_->host_count())};
  }

  // --- self-repair (replication > 0 only; DESIGN.md §10) --------------------
  //
  // One repair step: find one node record whose replica window contains a
  // dead host while at least one replica survives, and re-home the record
  // onto the next fully-live salt window — one read hop from a survivor
  // (dead replicas before it cost their timed-out probes) plus one write hop
  // per fresh replica, the memory ledger moving with it. Returns the number
  // of records re-homed (0 = every record fully live; drive with
  // fault::repair_to_quiescence). Records whose whole window is dead are
  // lost until a revive and are skipped. Structural plane.
  api::op_result<std::size_t> repair_step(net::host_id origin) {
    SW_EXPECTS(replication_ > 0);
    const net::structural_section sw_structural_guard(*net_);
    net::cursor cur(*net_, net_->host_alive(origin) ? origin : net_->any_live_host(origin));
    std::size_t repaired = 0;
    scan_windows([&](int l, std::uint64_t prefix, int node, std::uint32_t base) {
      if (repaired > 0) return false;  // one record per step
      if (!window_needs_rehome(l, prefix, node, base)) return true;
      // Read the record from the first surviving replica (each dead replica
      // before it costs its detection probe), then write the k+1 fresh
      // copies. Window liveness itself comes from the membership service
      // (net::network::host_alive), not from extra probes.
      for (std::uint32_t j = 0; j <= replication_; ++j) {
        if (cur.try_move_to(replica_host(l, prefix, node, base + j))) break;
      }
      const std::uint32_t fresh = next_live_window(l, prefix, node, base);
      charge_node(l, prefix, node, -1);  // de-charge the old window...
      *rehome_.try_emplace(rehome_key(l, node)).first = fresh;
      charge_node(l, prefix, node, +1);  // ...and charge the new one
      for (std::uint32_t j = 0; j <= replication_; ++j) {
        cur.move_to(replica_host(l, prefix, node, fresh + j));
      }
      ++repaired;
      return false;
    });
    return {repaired, api::op_stats::of(cur)};
  }

  // True while some node record's replica window mixes dead and live hosts
  // (local bookkeeping scan, no charges). Records with zero live replicas
  // are lost, not repairable, and do not count.
  [[nodiscard]] bool needs_repair() const {
    if (replication_ == 0 || !net_->faults_active()) return false;
    bool found = false;
    scan_windows([&](int l, std::uint64_t prefix, int node, std::uint32_t base) {
      if (window_needs_rehome(l, prefix, node, base)) {
        found = true;
        return false;
      }
      return true;
    });
    return found;
  }

  // Arena invariants (quad_levels::check_invariants) plus ledger agreement:
  // the network's memory total must equal what the live structure implies.
  [[nodiscard]] bool check_invariants() const {
    if (!q_.check_invariants()) return false;
    std::uint64_t expected = net_->host_count();  // one anchor host_ref per host
    for (int l = 0; l <= levels_; ++l) {
      // Each node record is stored once per replica (fault plane).
      expected += q_.node_count(l) * static_cast<std::uint64_t>(fanout + 2) *
                  static_cast<std::uint64_t>(replication_ + 1);
    }
    expected += q_.point_count() * static_cast<std::uint64_t>(levels_ + 1);
    return net_->total_memory() == expected;
  }

  // Measured resident bytes (DESIGN.md §12): arena/link split from
  // quad_levels; per-host anchors and the fault plane's re-home table are
  // directory.
  [[nodiscard]] api::memory_footprint footprint() const {
    api::memory_footprint f = q_.footprint();
    f.directory_bytes += api::vector_bytes(anchors_) + api::vector_bytes(rehome_);
    return f;
  }

 private:
  // Top of a membership chain: the highest level whose prefix set is
  // non-empty (its tree root starts the descent). Levels are empty only
  // from some height up, so the scan touches the root directories once.
  [[nodiscard]] std::tuple<int, std::uint64_t, int> chain_top(util::membership_bits w) const {
    for (int l = levels_;; --l) {
      const auto prefix = util::prefix_of(w, l).bits;
      if (const auto* tr = q_.tree(l, prefix)) return {l, prefix, tr->root};
      SW_ASSERT(l > 0);  // the ground tree always exists
    }
  }

  // One descend step for range search from `node` (cube `box`): moves
  // (node, box) to the child whose cube contains the whole query box and
  // returns true, or returns false where the walk stops, with node's down
  // link in `down`. Either way it reads the entry in lo's quadrant.
  [[nodiscard]] bool step_box(int l, int& node, cube& box, const point& lo, const point& hi,
                              int& down) const {
    const int quad = box.quadrant_of(lo);
    const auto& e = q_.child_at(l, node, quad);
    down = e.down;
    if (quad != box.quadrant_of(hi)) return false;
    const cube c = e.box();
    if (e.node < 0 || !c.contains(lo) || !c.contains(hi)) return false;
    node = e.node;
    box = c;
    return true;
  }

  static bool inside(const point& p, const point& lo, const point& hi) {
    for (int d = 0; d < D; ++d) {
      if (p.x[d] < lo.x[d] || p.x[d] > hi.x[d]) return false;
    }
    return true;
  }

  static bool intersects(const cube& c, const point& lo, const point& hi) {
    const seq::coord_t side = c.side();
    for (int d = 0; d < D; ++d) {
      if (c.corner[d] > hi.x[d]) return false;
      if (c.corner[d] + (side - 1) < lo.x[d]) return false;
    }
    return true;
  }

  // One point's descent, carried from its visit to level l+1 to its visit
  // to level l: the endpoint, its cube and the down link its last step read,
  // and what the level-l visit resolves: a fresh root and a created cube
  // (with its cube) whose down links still point nowhere.
  struct trail_entry {
    std::int32_t final_node = -1;
    std::int32_t final_down = -1;
    std::int32_t pend_root = -1;
    std::int32_t pend_created = -1;
    cube final_box{};
    cube pend_box{};
  };

  // The per-(point, level) rule of build and insert: place point `pid` (p,
  // membership `bits`, payload salt `psalt`) in its level-l tree, starting
  // the descent at `start` (the endpoint's down link; -1 selects the root),
  // and resolve the level-(l+1) links `t` carries through `link_up(slot,
  // to)`. The callers differ only in where those links live (the rows, or a
  // pass's array), in the ledger they charge, and in whether `cur` meters
  // hops (null: no metering).
  template <typename Ledger, typename LinkUp>
  void visit_level(int l, const point& p, int pid, util::membership_bits bits, int psalt,
                   int start, trail_entry& t, Ledger& ledger, net::cursor* cur,
                   LinkUp&& link_up) {
    const auto prefix = util::prefix_of(bits, l).bits;
    // `tr` stays valid to `++tr->points`: nothing below inserts a tree at l.
    const auto [tr, fresh] = q_.ensure_tree_ref(l, prefix);
    const int root = tr->root;
    if (fresh) charge_node(ledger, l, prefix, root, +1);
    int node = start >= 0 ? start : root;
    cube box = start >= 0 ? t.final_box : cube{};
    if (t.pend_root >= 0) link_up(t.pend_root, root);  // whole space = whole space
    if (cur != nullptr) hop(*cur, l, prefix, node);
    // The walk reports node's down link: -1 at level 0 and exactly when this
    // level is fresh.
    while (q_.step(l, node, box, p, t.final_down)) {
      if (cur != nullptr) hop(*cur, l, prefix, node);
    }
    t.final_node = node;
    t.final_box = box;
    const auto outcome = q_.insert_at(l, node, box, pid);
    charge_point(ledger, l, prefix, psalt, +1);
    ++tr->points;
    if (outcome.created >= 0) {
      if (cur != nullptr) hop(*cur, l, prefix, outcome.created);
      charge_node(ledger, l, prefix, outcome.created, +1);
    }
    if (t.pend_created >= 0) {
      // The cube that became interesting one level up now exists here too
      // (subset property); it sits on the root path of p's deepest node.
      link_up(t.pend_created, q_.resolve_cube(l, outcome.attached, outcome.box, t.pend_box));
    }
    t.pend_created = outcome.created;
    t.pend_box = outcome.box;
    t.pend_root = fresh ? root : -1;
  }

  // Insert and the point-by-point build: p's whole chain, top level first,
  // each level's links resolved straight into its rows and charged to the
  // network.
  void insert_chain(const point& p, util::membership_bits bits, net::cursor* cur) {
    const int pid = q_.new_point(p, bits);
    const int psalt = payload_salt(p);
    trail_entry t;
    for (int l = levels_; l >= 0; --l) {
      visit_level(l, p, pid, bits, psalt, t.final_down, t, *net_, cur,
                  [&](int slot, int to) { q_.set_down(l + 1, slot, to); });
    }
  }

  // Level-major bulk build: insert_chain's visit_level, executed one LEVEL
  // at a time (all points in input order per level) instead of one point at
  // a time. Correctness of the reordering (DESIGN.md §12): every point
  // visits every level, each level's arena is touched only by that level's
  // visits, and pure inserts never free a slot — so the arena state a visit
  // (point i, level l) observes is "points 0..i-1 done at level l" under
  // either order, and every slot is allocated at the same moment relative
  // to its level's history. Down links are the one cross-level read;
  // insert_chain reads the link of its level-l endpoint for nodes created
  // by earlier (completed) points, which under level-major order is exactly
  // "after the level-(l-1) resolutions of points 0..i-1" — so the read
  // moves to the start of the point's level-(l-1) visit and sees the same
  // value (-1 precisely for a root this point itself freshly created).
  // Level l+1's links are written only by pass l, so that pass keeps them
  // in a dense pass-local array (4 bytes a slot, cache-resident) and writes
  // them into the level's rows in one sweep in slot order at its end. The
  // payoff: one level's arena, tree directory and child rows stay
  // cache-resident for a whole pass. Byte-identical structure, uids and
  // receipts (tested in test_bulk_build).
  //
  // Pass l needs of pass l+1 only each point's trail, so the passes run as
  // a pipeline across cores: pass l visits point i once pass l+1 has
  // published that it is done with i (level_pass). Workers claim passes
  // top level first; each waits only on a pass claimed before its own, so
  // any number of workers finishes. Ledger charges go to per-worker delta
  // rows, folded into the network after the join.
  void bulk_build(const std::vector<point>& pts) {
    const std::size_t n = pts.size();
    q_.reserve_points(n);
    bulk_state s(pts, levels_);
    for (std::size_t i = 0; i < n; ++i) {
      s.bits[i] = util::draw_membership(rng_);  // input order, as insert_chain draws
      s.pid[i] = static_cast<std::int32_t>(q_.new_point(pts[i], s.bits[i]));
      s.psalt[i] = payload_salt(pts[i]);
    }
    const auto passes = static_cast<std::size_t>(levels_) + 1;
    const std::size_t workers = n < pipeline_min_points ? 1 : util::fan_out_workers(passes);
    std::vector<pass_worker> crew(workers);
    for (auto& w : crew) w.ledger.resize(net_->host_count());
    // Task t is pass levels_ - t: workers claim passes top level first.
    util::fan_out(passes, workers, [&](std::size_t t, std::size_t k) {
      try {
        level_pass(s, levels_ - static_cast<int>(t), crew[k]);
      } catch (...) {
        s.fail();  // wakes every waiting pass
        throw;
      }
    });
    for (const auto& w : crew) {
      for (std::size_t h = 0; h < w.ledger.size(); ++h) {
        for (std::size_t k = 0; k < std::size(w.ledger[h].counts); ++k) {
          if (const std::uint64_t units = w.ledger[h].counts[k]; units != 0) {
            net_->charge(net::host_id{static_cast<std::uint32_t>(h)},
                         static_cast<net::memory_kind>(k), static_cast<std::int64_t>(units));
          }
        }
      }
    }
    // Give back the slots no node took. The big rows arrays shrink in
    // place, so the trim copies only the arrays under one huge page.
    q_.compact();
  }

  // A pass publishes its progress every this many points.
  static constexpr std::uint32_t handoff_points = 256;
  // Polls of a progress word before a waiting pass blocks on it.
  static constexpr int spin_polls = 64;

  // What one bulk build's level passes share. Pass l reads and rewrites a
  // point's trail[i] after pass l+1 has published i and before it publishes
  // i itself.
  struct bulk_state {
    // One pass's progress word, on its own cache line: the points the pass
    // is done with, or'ed with `stopped` once a pass has failed.
    struct alignas(util::cache_line) progress {
      std::atomic<std::uint32_t> done{0};
    };
    static constexpr std::uint32_t stopped = std::uint32_t{1} << 31;

    bulk_state(const std::vector<point>& points, int levels)
        : pts(points),
          bits(points.size()),
          pid(points.size()),
          psalt(points.size()),
          trail(points.size()),
          progress_of(static_cast<std::size_t>(levels) + 2) {
      SW_EXPECTS(points.size() < stopped);  // slots are int32 anyway
      // Nothing above the top level: its pass may visit every point.
      progress_of.back().done.store(static_cast<std::uint32_t>(points.size()));
    }

    // Points pass `level` is done with, once that exceeds `past`; 0 once a
    // pass has failed. Polls briefly, then blocks until the word changes.
    std::uint32_t wait_past(int level, std::size_t past) {
      auto& word = progress_of[static_cast<std::size_t>(level)].done;
      std::uint32_t v = word.load(std::memory_order_acquire);
      for (int k = 0; v <= past && k < spin_polls; ++k) {
        std::this_thread::yield();
        v = word.load(std::memory_order_acquire);
      }
      while (v <= past) {
        word.wait(v, std::memory_order_acquire);
        v = word.load(std::memory_order_acquire);
      }
      return (v & stopped) != 0 ? 0 : v;
    }

    // Pass `level` is done with `more` further points; false once a pass
    // has failed.
    bool publish(int level, std::uint32_t more) {
      auto& word = progress_of[static_cast<std::size_t>(level)].done;
      const std::uint32_t before = word.fetch_add(more, std::memory_order_release);
      word.notify_all();
      return (before & stopped) == 0;
    }

    // Wakes every waiting pass once a pass has failed.
    void fail() {
      for (auto& p : progress_of) {
        p.done.fetch_or(stopped, std::memory_order_relaxed);
        p.done.notify_all();
      }
    }

    const std::vector<point>& pts;
    std::vector<util::membership_bits> bits;
    std::vector<std::int32_t> pid;
    std::vector<int> psalt;
    std::vector<trail_entry> trail;
    std::vector<progress> progress_of;  // per level, plus one above the top
  };

  // One worker's own state: the running pass's level-(l+1) down links by
  // slot (n + 1 of them: that level may still be growing when pass l
  // starts), and the memory-ledger deltas of every pass it ran.
  struct pass_worker {
    std::vector<std::int32_t> up_links;
    std::vector<net::memory_row> ledger;

    void charge(net::host_id h, net::memory_kind kind, std::int64_t delta) {
      ledger[h.value].counts[static_cast<std::size_t>(kind)] += static_cast<std::uint64_t>(delta);
    }
  };

  // Pass l of the bulk build. It alone writes level l's arena and directory
  // and its worker's up_links; level l+1's rows it writes only after pass
  // l+1 has published every point. Returns early once another pass failed.
  void level_pass(bulk_state& s, int l, pass_worker& w) {
    const std::size_t n = s.pts.size();
    q_.reserve_level(l, n + 1);  // <= n slots materialize per level (see reserve_level)
    // Every level-(l+1) link is unresolved until this pass sets it.
    w.up_links.assign(l < levels_ ? n + 1 : 0, -1);
    std::int32_t* const up = w.up_links.data();
    std::size_t ready = 0;      // points pass l+1 is done with
    std::size_t published = 0;  // points this pass has published
    for (std::size_t i = 0; i < n; ++i) {
      if (i == ready) {
        ready = s.wait_past(l + 1, i);
        if (ready == 0) return;
      }
      const point& p = s.pts[i];
      auto& t = s.trail[i];
      if (l == 0) SW_EXPECTS(q_.find_point(p) < 0);  // distinct points
      // The level-(l+1) endpoint's link is in this pass's array: its row,
      // which the step read, is written only when the pass ends.
      const int start = t.final_node >= 0 ? up[t.final_node] : -1;
      visit_level(l, p, s.pid[i], s.bits[i], s.psalt[i], start, t, w, nullptr,
                  [up](int slot, int to) { up[slot] = to; });
      if ((i + 1) % handoff_points == 0 || i + 1 == n) {
        if (!s.publish(l, static_cast<std::uint32_t>(i + 1 - published))) return;
        published = i + 1;
      }
    }
    if (l < levels_) {
      for (std::size_t slot = 0; slot < q_.slot_count(l + 1); ++slot) {
        q_.set_down(l + 1, static_cast<int>(slot), w.up_links[slot]);
      }
    }
  }

  // The one place that decides which hosts a record charges, for the
  // network itself and for a bulk-build worker's deltas alike.
  template <typename Ledger>
  void charge_node(Ledger& ledger, int level, std::uint64_t prefix, int node,
                   std::int64_t sign) const {
    // An interesting cube stores 2^D child references plus the identity
    // hyperlink one level down — once per replica of its current window.
    const std::uint32_t base = rehome_base(level, node);
    for (std::uint32_t j = 0; j <= replication_; ++j) {
      const auto h = replica_host(level, prefix, node, base + j);
      ledger.charge(h, net::memory_kind::node, sign);
      ledger.charge(h, net::memory_kind::host_ref, (fanout + 1) * sign);
    }
  }

  void charge_node(int level, std::uint64_t prefix, int node, std::int64_t sign) {
    charge_node(*net_, level, prefix, node, sign);
  }

  // The host salt of p's payload charges, the same at every level.
  static int payload_salt(const point& p) {
    return static_cast<int>(seq::qpoint_hash<D>{}(p) & 0x3fffffff);
  }

  template <typename Ledger>
  void charge_point(Ledger& ledger, int level, std::uint64_t prefix, int salt,
                    std::int64_t sign) const {
    // Point payloads live with the tree they appear in; the level-0 copy is
    // the data item itself, upper copies are references. Payloads are not
    // replicated (salt 0 — the fault plane replicates routing state).
    const auto h = replica_host(level, prefix, salt, 0);
    ledger.charge(h, level == 0 ? net::memory_kind::item : net::memory_kind::pointer, sign);
  }

  // --- fault plane ----------------------------------------------------------

  // One routing hop to a node record. Queries pay the replica-scanning route
  // only when they must: replication installed AND the fault plane active
  // when the cursor was made. Otherwise a plain move to the primary
  // (byte-identical to the unreplicated walk). Under faults: try the
  // record's replicas in window order, each dead candidate costing its
  // timed-out probe; a fully-dead window marks the op failed and the walk
  // continues mechanically (per the ghost-hop contract in cursor.h).
  void hop(net::cursor& cur, int level, std::uint64_t prefix, int node) const {
    if (replication_ == 0 || !cur.faults()) {
      cur.move_to(host_of(level, prefix, node));
      return;
    }
    const std::uint32_t base = rehome_base(level, node);
    for (std::uint32_t j = 0; j <= replication_; ++j) {
      if (cur.try_move_to(replica_host(level, prefix, node, base + j))) return;
    }
    cur.mark_failed();
  }

  [[nodiscard]] static std::uint64_t rehome_key(int level, int node) {
    return (static_cast<std::uint64_t>(static_cast<std::uint32_t>(level)) << 32) |
           static_cast<std::uint64_t>(static_cast<std::uint32_t>(node));
  }

  // Current salt-window base of a node record (0 = never re-homed).
  [[nodiscard]] std::uint32_t rehome_base(int level, int node) const {
    if (rehome_.empty()) return 0;
    const std::uint32_t* base = rehome_.find(rehome_key(level, node));
    return base == nullptr ? 0 : *base;
  }

  void forget_rehome(int level, int node) {
    if (!rehome_.empty()) rehome_.erase(rehome_key(level, node));
  }

  // A window needs re-homing when it mixes dead and live replicas; all-live
  // is healthy and all-dead is lost (nothing left to copy from).
  [[nodiscard]] bool window_needs_rehome(int level, std::uint64_t prefix, int node,
                                         std::uint32_t base) const {
    std::uint32_t live = 0;
    for (std::uint32_t j = 0; j <= replication_; ++j) {
      if (net_->host_alive(replica_host(level, prefix, node, base + j))) ++live;
    }
    return live != 0 && live != replication_ + 1;
  }

  // First fully-live window after `base` (windows advance in strides of
  // k+1 so successive homes never overlap). One exists: kill_host keeps at
  // least one host alive and the salts sweep the whole host space.
  [[nodiscard]] std::uint32_t next_live_window(int level, std::uint64_t prefix, int node,
                                               std::uint32_t base) const {
    const auto stride = static_cast<std::uint32_t>(replication_ + 1);
    for (std::uint32_t b = base + stride;; b += stride) {
      bool ok = true;
      for (std::uint32_t j = 0; j <= replication_; ++j) {
        if (!net_->host_alive(replica_host(level, prefix, node, b + j))) {
          ok = false;
          break;
        }
      }
      if (ok) return b;
    }
  }

  // Visit every live node record (level, prefix, node, window base), top
  // level first; the visitor returns false to stop the scan.
  template <typename F>
  void scan_windows(F&& f) const {
    for (int l = levels_; l >= 0; --l) {
      const bool go = q_.for_each_tree(l, [&](std::uint64_t prefix, const auto& tr) {
        std::vector<int> stack{tr.root};
        while (!stack.empty()) {
          const int v = stack.back();
          stack.pop_back();
          if (!f(l, prefix, v, rehome_base(l, v))) return false;
          for (int c = 0; c < fanout; ++c) {
            const auto& e = q_.child_at(l, v, c);
            if (e.node >= 0) stack.push_back(e.node);
          }
        }
        return true;
      });
      if (!go) return;
    }
  }

  net::network* net_;
  util::rng rng_;
  int levels_ = 0;
  arena q_;
  std::size_t replication_ = 0;
  // Re-homed node records: rehome_key(level, node) → current window base.
  // Absent = base 0. Entries die with their slot (see erase()).
  persist::flat_table<std::uint32_t> rehome_;
  persist::pod_array<util::membership_bits> anchors_;
};

}  // namespace skipweb::core
