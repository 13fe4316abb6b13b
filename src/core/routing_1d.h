#pragma once

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

// Top-down descent locating q: returns the level-0 predecessor item (largest
// key <= q) and successor item (smallest key > q), -1 when absent.
// `host_prefetch(item)` is a hint-only callback fired as soon as the next
// hop's item is known, so a placement with an owner table can start that
// lookup while the link record resolves (pass a no-op when placement is
// computed, not stored).
template <typename HostOf, typename HostPrefetch>
std::pair<int, int> route_search(const level_lists& lists, std::uint64_t q, int start_item,
                                 int start_level, net::cursor& cur, HostOf&& host_of,
                                 HostPrefetch&& host_prefetch) {
  SW_EXPECTS(lists.alive(start_item));
  int item = start_item;
  // The current item's key rides along in a register; on an advance it is
  // refreshed from the key cache just read, so the hot loop never loads
  // keys at all — each advance-or-stop decision is one node-record load.
  std::uint64_t item_key = lists.key(item);
  for (int l = start_level; l >= 0; --l) {
    // Deadline plane: a query whose simulated time ran out gives up at the
    // next level boundary; the flanks of wherever the walk stopped become a
    // degraded best-effort answer (see DESIGN.md §11).
    if (cur.expired()) {
      cur.mark_degraded();
      break;
    }
    cur.move_to(host_of(item, l));  // descend the item's tower
    // A node caches its neighbours' keys alongside the remote references
    // (standard in skip graphs; level_lists stores them in the node record),
    // so overshoot checks are local; only actual advances of the query
    // locus hop.
    cur.note_comparisons();
    if (item_key <= q) {
      // Approach from the left: advance while the next same-list item does
      // not overshoot. Each decision is a single 16-byte link-record load —
      // the advance target and overshoot key arrive together.
      for (;;) {
        // Deadline give-up mid-walk too: level-0 runs can be long, and a
        // straggler-priced hop inside one must not commit the query to
        // finishing it (see DESIGN.md §11).
        if (cur.expired()) {
          cur.mark_degraded();
          break;
        }
        const auto ln = lists.next_link(item, l);
        if (ln.to < 0) break;
        cur.note_comparisons();
        if (ln.key > q) break;
        // Slow-host detour: at l > 0 a suspected-slow express stop is
        // treated as overshoot — descend early. Upper levels only
        // accelerate the walk, so the answer cannot change; level 0 never
        // detours.
        if (l > 0 && cur.detours() && cur.avoids(host_of(ln.to, l))) break;
        item = ln.to;
        item_key = ln.key;
        // Overlap the next iteration's loads with the hop bookkeeping.
        lists.prefetch_next(item, l);
        host_prefetch(item);
        cur.move_to(host_of(item, l));
      }
    } else {
      // Approach from the right, symmetrically.
      for (;;) {
        if (cur.expired()) {
          cur.mark_degraded();
          break;
        }
        const auto ln = lists.prev_link(item, l);
        if (ln.to < 0) break;
        cur.note_comparisons();
        if (ln.key <= q) break;
        if (l > 0 && cur.detours() && cur.avoids(host_of(ln.to, l))) break;
        item = ln.to;
        item_key = ln.key;
        lists.prefetch_prev(item, l);
        host_prefetch(item);
        cur.move_to(host_of(item, l));
      }
    }
  }
  // item now flanks q in the global level-0 list.
  if (item_key <= q) {
    return {item, lists.next(item, 0)};
  }
  return {lists.prev(item, 0), item};
}

// Interleaved batch descent: `count` independent searches sharing one start
// advance in lockstep, one link-record decision per query per round, with
// every query's next read prefetched a full round ahead. The per-query
// routes, results and cursor receipts are IDENTICAL to running route_search
// serially (tests assert this); what changes is wall-clock — the searches'
// memory-latency chains resolve in parallel instead of back to back, which
// is where the simulator's single-thread throughput ceiling sits. Keep
// `count` modest (a few dozen): each active query holds about one
// outstanding cache miss.
template <typename HostOf, typename HostPrefetch>
void route_search_batch(const level_lists& lists, const std::uint64_t* qs, std::size_t count,
                        int start_item, int start_level, net::cursor* curs,
                        std::pair<int, int>* out, HostOf&& host_of,
                        HostPrefetch&& host_prefetch) {
  SW_EXPECTS(lists.alive(start_item));
  struct qstate {
    std::uint64_t q = 0;
    std::uint64_t item_key = 0;
    std::int32_t item = -1;
    std::int32_t level = 0;
    bool entering = true;  // pending level-entry bookkeeping (hop + comparison)
    bool done = false;
  };
  std::vector<qstate> st(count);
  const std::uint64_t start_key = lists.key(start_item);
  lists.prefetch_next(start_item, start_level);
  for (std::size_t i = 0; i < count; ++i) {
    st[i] = {qs[i], start_key, start_item, start_level, true, false};
  }
  // Active-lane list: finished queries are compacted out (order-preserving),
  // so late rounds — when most of the batch has landed — touch only the
  // stragglers instead of sweeping `count` done-flags per round.
  std::vector<std::uint32_t> active(count);
  for (std::size_t i = 0; i < count; ++i) active[i] = static_cast<std::uint32_t>(i);
  while (!active.empty()) {
    std::size_t kept = 0;
    for (std::size_t a = 0; a < active.size(); ++a) {
      const std::size_t i = active[a];
      qstate& s = st[i];
      net::cursor& cur = curs[i];
      if (s.entering) {
        cur.move_to(host_of(s.item, s.level));
        cur.note_comparisons();
        s.entering = false;
      }
      // One advance-or-stop decision, exactly as in route_search's walk.
      // The two direction branches are merged: the pool is pointer-selected
      // (dir_link) and the overshoot test reduces to one mask compare —
      // `key > q` must equal `fwd` to keep walking.
      const bool fwd = s.item_key <= s.q;
      const auto ln = lists.dir_link(s.item, s.level, fwd);
      bool stopped = ln.to < 0;
      if (!stopped) {
        cur.note_comparisons();
        if ((ln.key > s.q) == fwd) {
          stopped = true;
        } else {
          s.item = ln.to;
          s.item_key = ln.key;
          lists.prefetch_dir(s.item, s.level, fwd);
          host_prefetch(s.item);
          cur.move_to(host_of(s.item, s.level));
        }
      }
      if (stopped) {
        if (s.level == 0) {
          out[i] = fwd ? std::pair<int, int>{s.item, lists.next(s.item, 0)}
                       : std::pair<int, int>{lists.prev(s.item, 0), static_cast<int>(s.item)};
          s.done = true;
        } else {
          --s.level;
          s.entering = true;
          // The next round's decision reads this record; warm it now.
          lists.prefetch_dir(s.item, s.level, fwd);
        }
      }
      active[kept] = static_cast<std::uint32_t>(i);
      kept += s.done ? 0 : 1;
    }
    active.resize(kept);
  }
}

// Fault-aware descent (the failure plane, DESIGN.md §10). The route is the
// same top-down advance-or-stop walk as route_search — and when no dead host
// is encountered it charges the IDENTICAL hops and comparisons — but every
// planned advance goes through cursor::try_move_to:
//
//  - At level l > 0 a dead next/prev host is treated as overshoot: descend
//    early. Upper levels only accelerate the walk, so skipping a dead
//    express stop costs extra level-0 steps, never correctness.
//  - At level 0 the walk steps over a dead run via the item's replica list
//    (level_lists::fwd_replica/bwd_replica): each dead candidate costs one
//    timed-out probe (charged by try_move_to), and the first live candidate
//    whose key does not overshoot becomes the next locus. A dead run longer
//    than the replication factor k exhausts the known neighbours: the walk
//    stops and the cursor is marked failed — the answer is then not backed
//    by live hosts.
//
// Returns the flanks of q among LIVE items: the terminal item plus the first
// live entry of its successor (or predecessor) list; dead entries skipped
// during flank resolution are charged one probe each, live flanks are not
// visited (matching route_search, which never hops to its flanks).
template <typename HostOf, typename HostPrefetch>
std::pair<int, int> route_search_fault(const level_lists& lists, const net::network& net,
                                       std::uint64_t q, int start_item, int start_level,
                                       net::cursor& cur, HostOf&& host_of,
                                       HostPrefetch&& host_prefetch) {
  SW_EXPECTS(lists.alive(start_item));
  const std::size_t k = lists.replication();
  int item = start_item;
  std::uint64_t item_key = lists.key(item);
  for (int l = start_level; l >= 0; --l) {
    // Deadline give-up, exactly as in route_search.
    if (cur.expired()) {
      cur.mark_degraded();
      break;
    }
    cur.move_to(host_of(item, l));  // the current item survived its own probe
    cur.note_comparisons();
    if (item_key <= q) {
      for (;;) {
        // Deadline give-up mid-walk, exactly as in route_search.
        if (cur.expired()) {
          cur.mark_degraded();
          break;
        }
        const auto ln = lists.next_link(item, l);
        if (ln.to < 0) break;
        cur.note_comparisons();
        if (ln.key > q) break;
        // Slow-host detour (l > 0 only), exactly as in route_search.
        if (l > 0 && cur.detours() && cur.avoids(host_of(ln.to, l))) break;
        lists.prefetch_next(ln.to, l);
        host_prefetch(ln.to);
        if (cur.try_move_to(host_of(ln.to, l))) {
          item = ln.to;
          item_key = ln.key;
          continue;
        }
        if (l > 0) break;  // dead express stop: descend early
        // Level 0: step over the dead run via the replica list.
        bool advanced = false, stop = false;
        for (std::size_t j = 0; j < k; ++j) {
          const auto rep = lists.fwd_replica(item, j);
          if (rep.to < 0) {  // list ends inside the dead run: nothing live ahead
            stop = true;
            break;
          }
          cur.note_comparisons();
          if (rep.key > q) {  // first candidate past q: stop; flank phase picks succ
            stop = true;
            break;
          }
          if (cur.try_move_to(host_of(rep.to, 0))) {
            item = rep.to;
            item_key = rep.key;
            advanced = true;
            break;
          }
        }
        if (advanced) continue;
        if (!stop) cur.mark_failed();  // k+1 consecutive dead: horizon exhausted
        break;
      }
    } else {
      for (;;) {
        if (cur.expired()) {
          cur.mark_degraded();
          break;
        }
        const auto ln = lists.prev_link(item, l);
        if (ln.to < 0) break;
        cur.note_comparisons();
        if (ln.key <= q) break;
        if (l > 0 && cur.detours() && cur.avoids(host_of(ln.to, l))) break;
        lists.prefetch_prev(ln.to, l);
        host_prefetch(ln.to);
        if (cur.try_move_to(host_of(ln.to, l))) {
          item = ln.to;
          item_key = ln.key;
          continue;
        }
        if (l > 0) break;
        bool advanced = false, stop = false;
        for (std::size_t j = 0; j < k; ++j) {
          const auto rep = lists.bwd_replica(item, j);
          if (rep.to < 0) {
            stop = true;
            break;
          }
          cur.note_comparisons();
          if (rep.key <= q) {
            stop = true;
            break;
          }
          if (cur.try_move_to(host_of(rep.to, 0))) {
            item = rep.to;
            item_key = rep.key;
            advanced = true;
            break;
          }
        }
        if (advanced) continue;
        if (!stop) cur.mark_failed();
        break;
      }
    }
  }
  // Flank resolution among live items: the first live entry of the terminal
  // item's neighbour list. Dead entries cost one timed-out probe each (the
  // client's failure detector finding out); the live flank itself is not
  // visited, exactly as in route_search.
  auto first_live = [&](int from, bool forward) -> int {
    for (std::size_t j = 0; j <= k; ++j) {
      int cand;
      if (j == 0) {
        cand = forward ? lists.next(from, 0) : lists.prev(from, 0);
      } else {
        const auto rep = forward ? lists.fwd_replica(from, j - 1) : lists.bwd_replica(from, j - 1);
        cand = rep.to;
      }
      if (cand < 0) return -1;  // clean end of the list
      const auto h = host_of(cand, 0);
      if (net.reachable(cur.at(), h)) return cand;
      (void)cur.try_move_to(h);  // dead flank entry: charge the probe
    }
    cur.mark_failed();  // every known neighbour in this direction is dead
    return -1;
  };
  if (item_key <= q) {
    return {item, first_live(item, /*forward=*/true)};
  }
  return {first_live(item, /*forward=*/false), item};
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
