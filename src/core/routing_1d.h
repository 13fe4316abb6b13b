#pragma once

#include <array>
#include <cstdint>
#include <vector>

#include "core/level_lists.h"
#include "net/cursor.h"
#include "util/sw_assert.h"

namespace skipweb::core {

// Shared distributed routing algorithms over the 1-D level lists. They are
// templated on HostOf — host_of(item, level) — which is the only thing that
// differs between skipweb_1d's three placements (tower, balanced and the
// §2.4.1 bucket layout) and the deterministic SkipNet baseline: the routes
// are identical, the message costs are not. Every node access moves the
// cursor first, so hops are charged exactly.
//
// The failure plane (DESIGN.md §10) lives in the same walk, keyed on the
// lists' replication factor k; the cursor is its seam:
//
//  - k == 0: every advance is cursor::move_to. A dead host is a ghost hop —
//    the walk completes mechanically and the op is flagged failed.
//  - k > 0: every advance is cursor::try_move_to. A dead express stop
//    (l > 0) is treated as overshoot: descend early. At level 0 the walk
//    steps over a dead run through the item's replica list
//    (level_lists::dir_replica); each dead candidate costs one timed-out
//    probe, and a run longer than k marks the op failed. The flanks are the
//    first LIVE neighbours (first_live). On a healthy network try_move_to is
//    move_to and first_live is the direct link, so the receipts are those of
//    the k == 0 walk.

// The first live entry of `from`'s level-0 neighbour list in direction
// `fwd`: the direct link, then its k replicas. A dead entry costs one
// timed-out probe; the live one is not visited (callers hop there if they
// need it). Without replicas the direct link is returned as is, so a dead
// one becomes the caller's ghost hop. Returns -1 at a clean list end, or —
// marking the op failed — when all k+1 known neighbours are dead.
template <typename HostOf>
int first_live(const level_lists& lists, int from, bool fwd, net::cursor& cur,
               HostOf&& host_of) {
  const std::size_t k = lists.replication();
  for (std::size_t j = 0; j <= k; ++j) {
    const int cand = j == 0 ? lists.dir_link(from, 0, fwd) : lists.dir_replica(from, j - 1, fwd);
    if (cand < 0) return -1;  // clean end of the list
    if (k == 0 || cur.reachable(host_of(cand, 0))) return cand;
    (void)cur.try_move_to(host_of(cand, 0));  // dead entry: charge the probe
  }
  cur.mark_failed();  // every known neighbour in this direction is dead
  return -1;
}

// The descent itself (see route_search), compiled once per replication mode:
// the k == 0 copy carries none of the replica path's state, so the healthy
// walk keeps its values in registers across the hops' calls (a single copy
// testing k at run time was measurably slower; DESIGN.md §6).
template <bool Replicated, typename HostOf, typename HostPrefetch>
std::pair<int, int> route_walk(const level_lists& lists, std::uint64_t q, int start_item,
                               int start_level, net::cursor& cur, HostOf&& host_of,
                               HostPrefetch&& host_prefetch) {
  SW_EXPECTS(lists.alive(start_item));
  const std::size_t k = Replicated ? lists.replication() : 0;
  int item = start_item;
  // An advance never crosses q, so the side the walk approaches q from is
  // fixed by the start item for the whole route; `to` overshoots when
  // (key(to) > q) == fwd.
  const bool fwd = lists.key(item) <= q;
  const auto advance = [&](int to, int l) {
    if constexpr (Replicated) {
      return cur.try_move_to(host_of(to, l));
    } else {
      cur.move_to(host_of(to, l));
      return true;
    }
  };
  for (int l = start_level; l >= 0; --l) {
    // Deadline plane: a query whose simulated time ran out gives up at the
    // next level boundary; the flanks of wherever the walk stopped become a
    // degraded best-effort answer (see DESIGN.md §11).
    if (cur.give_up()) break;
    cur.move_to(host_of(item, l));  // descend the item's tower
    cur.note_comparisons();
    for (;;) {
      // Deadline give-up mid-walk too: level-0 runs can be long, and a
      // straggler-priced hop inside one must not commit the query to
      // finishing it (see DESIGN.md §11).
      if (cur.give_up()) break;
      const int to = lists.dir_link(item, l, fwd);
      if (to < 0) break;
      // Start the neighbour's row and owner loads before the compare waits
      // on its key, so the three misses overlap.
      lists.prefetch_dir(to, l, fwd);
      host_prefetch(to);
      cur.note_comparisons();
      if ((lists.key(to) > q) == fwd) break;
      // Slow-host detour: at l > 0 a suspected-slow express stop is treated
      // as overshoot — descend early. Upper levels only accelerate the walk,
      // so the answer cannot change; level 0 never detours.
      if (l > 0 && cur.detours() && cur.avoids(host_of(to, l))) break;
      if (advance(to, l)) {
        item = to;
        continue;
      }
      if (l > 0) break;  // dead express stop: descend early
      // Level 0: step over the dead run via the replica list. A candidate
      // past q ends the walk; the flank phase picks the live successor.
      int live = -1;
      for (std::size_t j = 0; j < k; ++j) {
        const int rep = lists.dir_replica(item, j, fwd);
        if (rep < 0) break;  // the list ends inside the dead run
        cur.note_comparisons();
        if ((lists.key(rep) > q) == fwd) break;
        if (cur.try_move_to(host_of(rep, 0))) {
          live = rep;
          break;
        }
        if (j + 1 == k) cur.mark_failed();  // k+1 consecutive dead: horizon exhausted
      }
      if (live < 0) break;
      item = live;
    }
  }
  // item now flanks q in the global level-0 list.
  const int other = first_live(lists, item, fwd, cur, host_of);
  return fwd ? std::pair<int, int>{item, other} : std::pair<int, int>{other, item};
}

// Top-down descent locating q: returns the level-0 predecessor item (largest
// key <= q) and successor item (smallest key > q), -1 when absent.
// `host_prefetch(item)` is a hint-only callback fired as soon as the next
// hop's item is known, so a placement with an owner table can start that
// lookup while the neighbour's key resolves (pass a no-op when placement is
// computed, not stored).
//
// A node knows its neighbours' keys alongside the remote references
// (standard in skip graphs), so an overshoot check is local and only actual
// advances of the query locus hop. The simulator keeps each key once, in
// level_lists' key array, and reads the neighbour's key from there: the
// links themselves are bare slots.
template <typename HostOf, typename HostPrefetch>
std::pair<int, int> route_search(const level_lists& lists, std::uint64_t q, int start_item,
                                 int start_level, net::cursor& cur, HostOf&& host_of,
                                 HostPrefetch&& host_prefetch) {
  if (lists.replication() > 0) {
    return route_walk<true>(lists, q, start_item, start_level, cur, host_of, host_prefetch);
  }
  return route_walk<false>(lists, q, start_item, start_level, cur, host_of, host_prefetch);
}

// The widest batch route_search_batch interleaves, and the width of its
// fixed lane arrays: each in-flight query holds about one outstanding miss,
// and a couple dozen chains saturate the core's miss parallelism.
inline constexpr std::size_t batch_lanes = 24;

// Interleaved batch descent: `count` independent searches sharing one start
// advance in lockstep, with the routes, results and cursor receipts
// IDENTICAL to running route_search serially (tests assert this); what
// changes is wall-clock — the searches' memory-latency chains resolve in
// parallel instead of back to back, which is where the simulator's
// single-thread throughput ceiling sits. `count` is at most batch_lanes.
//
// Each advance-or-stop decision is split across two rounds, so every load
// it needs is issued a full round before it is used. Round 1 reads the link
// (its row was prefetched earlier) and prefetches the neighbour's key, its
// row and its owner. Round 2 compares that key and then advances or
// descends; in the same visit it makes round 1 of the next decision, whose
// row is the one just prefetched (or, after a descent, the item's own). A
// decision made within one round would stall on the key load it had just
// issued.
//
// One decision needs no key: a lane remembers `over`, the last neighbour
// that overshot q. The approach side is fixed for the whole walk, so `over`
// overshoots at every level below too, and a link that points to it in
// round 1 descends at once. The comparison is still counted (the node knows
// that neighbour's key beside the link, as in route_search), but no load is
// issued and the lane does not wait a round for it. At 2^20 keys a quarter
// of the decisions are of this kind.
template <typename HostOf, typename HostPrefetch>
void route_search_batch(const level_lists& lists, const std::uint64_t* qs, std::size_t count,
                        int start_item, int start_level, net::cursor* curs,
                        std::pair<int, int>* out, HostOf&& host_of,
                        HostPrefetch&& host_prefetch) {
  SW_EXPECTS(lists.alive(start_item));
  SW_EXPECTS(count <= batch_lanes);
  struct qstate {
    std::uint64_t q = 0;
    std::int32_t item = -1;
    std::int32_t to = -1;    // the neighbour read in round 1, compared in round 2
    std::int32_t over = -1;  // the last neighbour that overshot q
    std::int32_t level = 0;
    bool fwd = true;  // approach side, fixed by the start item (see route_search)
  };
  // Level entry bookkeeping (hop + comparison), exactly as in route_search.
  const auto enter = [&](const qstate& s, net::cursor& cur) {
    cur.move_to(host_of(s.item, s.level));
    cur.note_comparisons();
  };
  std::array<qstate, batch_lanes> st;
  const std::uint64_t start_key = lists.key(start_item);
  for (std::size_t i = 0; i < count; ++i) {
    st[i] = {qs[i], start_item, -1, -1, start_level, start_key <= qs[i]};
    enter(st[i], curs[i]);
  }
  // Active-lane list: finished queries are compacted out (order-preserving),
  // so late rounds — when most of the batch has landed — touch only the
  // stragglers instead of sweeping `count` done-flags per round.
  std::array<std::uint32_t, batch_lanes> active{};
  for (std::size_t i = 0; i < count; ++i) active[i] = static_cast<std::uint32_t>(i);
  for (std::size_t live = count; live > 0;) {
    std::size_t kept = 0;
    for (std::size_t a = 0; a < live; ++a) {
      const std::size_t i = active[a];
      qstate& s = st[i];
      net::cursor& cur = curs[i];
      // A stop ends the walk at level 0 and descends above it.
      const auto stop = [&] {
        if (s.level == 0) return true;
        --s.level;
        enter(s, cur);
        return false;
      };
      bool done = false;
      if (s.to >= 0) {
        // Round 2. The overshoot test is one mask compare: `key > q` must
        // differ from `fwd` to keep walking.
        cur.note_comparisons();
        if ((lists.key(s.to) > s.q) != s.fwd) {
          s.item = s.to;
          cur.move_to(host_of(s.item, s.level));
        } else {
          s.over = s.to;
          done = stop();
        }
      }
      // Round 1: read the link, descending past list ends (which stop a
      // level without a comparison) and past the known overshoot (which
      // stops it after one). The pool is pointer-selected (dir_link), so
      // both directions share one branch-free path.
      while (!done) {
        s.to = lists.dir_link(s.item, s.level, s.fwd);
        if (s.to >= 0 && s.to != s.over) {
          lists.prefetch_key(s.to);
          lists.prefetch_dir(s.to, s.level, s.fwd);
          host_prefetch(s.to);
          break;
        }
        if (s.to >= 0) cur.note_comparisons();
        done = stop();
      }
      if (done) {
        out[i] = s.fwd ? std::pair<int, int>{s.item, lists.next(s.item, 0)}
                       : std::pair<int, int>{lists.prev(s.item, 0), static_cast<int>(s.item)};
      }
      active[kept] = static_cast<std::uint32_t>(i);
      kept += done ? 0 : 1;
    }
    live = kept;
  }
}

// Given the level-0 insertion flanks of a new key with membership `bits`,
// walk the lower-level lists to find the nearest same-prefix neighbours at
// every level (the Aspnes–Shah build-up, expected O(1) steps per level).
template <typename HostOf>
std::vector<level_lists::neighbors> find_insert_neighbors(const level_lists& lists,
                                                          util::membership_bits bits, int pred0,
                                                          int succ0, net::cursor& cur,
                                                          HostOf&& host_of) {
  const int levels = lists.levels();
  std::vector<level_lists::neighbors> nbrs(static_cast<std::size_t>(levels) + 1);
  nbrs[0] = {pred0, succ0};
  for (int l = 1; l <= levels; ++l) {
    const auto target = util::prefix_of(bits, l);
    // Nearest matching item to the left, walking the level-(l-1) list.
    int left = nbrs[static_cast<std::size_t>(l - 1)].left;
    while (left >= 0 && lists.prefix(left, l) != target) {
      const int pv = lists.prev(left, l - 1);
      if (pv >= 0) cur.move_to(host_of(pv, l - 1));
      left = pv;
    }
    int right;
    if (left >= 0) {
      right = lists.next(left, l);  // the nearest matching right neighbour
      if (right >= 0) cur.move_to(host_of(right, l));
    } else {
      right = nbrs[static_cast<std::size_t>(l - 1)].right;
      while (right >= 0 && lists.prefix(right, l) != target) {
        const int nx = lists.next(right, l - 1);
        if (nx >= 0) cur.move_to(host_of(nx, l - 1));
        right = nx;
      }
    }
    nbrs[static_cast<std::size_t>(l)] = {left, right};
  }
  return nbrs;
}

}  // namespace skipweb::core
