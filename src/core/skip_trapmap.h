#pragma once

#include <cstdint>
#include <unordered_map>
#include <vector>

#include "api/memory_footprint.h"
#include "api/op_stats.h"
#include "net/cursor.h"
#include "net/network.h"
#include "seq/trapmap.h"
#include "util/membership.h"
#include "util/rng.h"

namespace skipweb::core {

// Distributed trapezoidal-map skip-web (paper §3.3): planar point location
// over a set of disjoint, non-crossing segments.
//
// Level l holds one trapezoidal map per l-bit membership prefix set of the
// segments. Unlike the tree structures, a trapezoid of a sparse map is not a
// cell of the dense map, so the inter-level hyperlinks are explicit
// *conflict lists*: each trapezoid of D(S_b) points to every trapezoid of
// the parent-level map D(S_parent(b)) whose interior overlaps it. Lemma 5
// bounds the expected conflict-list length by O(1), so a query descends one
// level by testing expected O(1) candidate trapezoids, and full point
// location costs O(log n) expected messages.
//
// Updates follow §4's accounting: inserting (or deleting) a segment changes
// an *output-sensitive* number of trapezoids per level — exactly the
// trapezoids the segment cuts. Each affected level map of the segment's
// prefix chain is re-derived locally and the message ledger is charged one
// message per trapezoid created or destroyed plus the conflict-hyperlink
// refreshes, matching the paper's "amortize against the output-sensitive
// term" treatment (the rebuild work itself is local computation, which the
// cost model does not meter).
class skip_trapmap {
 public:
  skip_trapmap(const std::vector<seq::segment>& segs, double xmin, double xmax, double ymin,
               double ymax, std::uint64_t seed, net::network& net);

  skip_trapmap(const skip_trapmap&) = delete;
  skip_trapmap& operator=(const skip_trapmap&) = delete;

  [[nodiscard]] std::size_t size() const { return segment_count_; }
  [[nodiscard]] int levels() const { return levels_; }

  // The full (level-0) trapezoidal map; its trapezoid/segment ids are the
  // public vocabulary of query results.
  [[nodiscard]] const seq::trapmap& ground() const;

  struct pl_result {
    int trap = -1;  // ground-map trapezoid containing the query point
    api::op_stats stats;
  };

  // Distributed point location for a query point in general position (not on
  // any segment or wall).
  [[nodiscard]] pl_result locate(double x, double y, net::host_id origin) const;

  // Insert/erase a segment (paper §4): the new segment must keep the set
  // pairwise disjoint with distinct endpoint x's. Charges: routing + one
  // message per trapezoid created/destroyed across the segment's level chain
  // + conflict refreshes (output-sensitive).
  api::op_stats insert(const seq::segment& s, net::host_id origin);
  api::op_stats erase(const seq::segment& s, net::host_id origin);

  [[nodiscard]] net::host_id host_of(int level, std::uint64_t prefix, int trap) const;

  // Mean conflict-list length per level pair (exposed for the Lemma 5 bench).
  [[nodiscard]] double mean_conflicts() const;

  // Conflict lists of every trapezoid of a sparse map against the dense map
  // (x-grid accelerated; also used by the halving benches).
  static std::vector<std::vector<int>> conflicts_all(const seq::trapmap& sparse,
                                                     const seq::trapmap& dense);

  // Measured resident bytes (DESIGN.md §12): trapezoidal maps and member
  // sets are arena, inter-level conflict lists are links (they are the
  // hyperlink structure queries descend), prefix maps and anchors are
  // directory.
  [[nodiscard]] api::memory_footprint footprint() const {
    api::memory_footprint f;
    f.directory_bytes = api::vector_bytes(maps_) + api::vector_bytes(anchors_) +
                        api::vector_bytes(seg_bits_);
    for (const auto& level : maps_) {
      f.directory_bytes += api::map_bytes(level);
      for (const auto& [prefix, lm] : level) {
        f.arena_bytes += lm.map.resident_bytes() + api::vector_bytes(lm.members);
        f.link_bytes += api::vector_bytes(lm.conflicts);
        for (const auto& c : lm.conflicts) f.link_bytes += api::vector_bytes(c);
      }
    }
    return f;
  }

 private:
  struct level_map {
    seq::trapmap map;
    std::vector<seq::segment> members;        // the set S_b this map covers
    std::vector<std::vector<int>> conflicts;  // per trapezoid: parent-map trapezoids
  };

  void charge_map_nodes(int level, std::uint64_t prefix, const level_map& lm, std::int64_t sign);
  void refresh_conflicts(int level, std::uint64_t prefix);
  api::op_stats rebuild_chain(util::membership_bits bits, const seq::segment& s, bool add,
                              net::host_id origin);

  std::vector<std::unordered_map<std::uint64_t, level_map>> maps_;
  std::vector<std::pair<seq::segment, util::membership_bits>> seg_bits_;  // live segments
  net::network* net_;
  util::rng rng_;
  std::vector<util::membership_bits> anchors_;
  std::size_t segment_count_ = 0;
  int levels_ = 0;
  double xmin_, xmax_, ymin_, ymax_;
};

}  // namespace skipweb::core
