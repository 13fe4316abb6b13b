#pragma once

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <cstring>
#include <memory>
#include <string>
#include <string_view>
#include <type_traits>
#include <unordered_set>
#include <vector>

#include "api/memory_footprint.h"
#include "persist/pod_array.h"
#include "persist/snapshot.h"
#include "util/membership.h"
#include "util/pool.h"
#include "util/prefetch.h"
#include "util/rng.h"
#include "util/sw_assert.h"

namespace skipweb::core {

// The level-set anatomy of a 1-D skip-web (paper §2.3, Figure 2): every item
// carries a membership bit vector; at level l the items partition into the
// sets S_b for the 2^l possible l-bit prefixes b, and each S_b is kept as a
// doubly-linked sorted list. Level 0 is the single global sorted list; lists
// thin out by half per level up to ceil(log2 n) levels, so top-level lists
// have O(1) expected size.
//
// Memory layout: a structure-of-arrays arena. Keys, membership vectors,
// uids, redirects and alive flags live in parallel arrays indexed by arena
// slot, freed slots on a free list, and the level links in two flat pools
// (forward and backward), each with a fixed stride of levels+1 records per
// item. A link is a bare 4-byte arena slot: the neighbour's key is read
// from keys_, which holds every key once, instead of from a copy beside the
// link (the modelled node still knows its neighbours' keys — only the
// simulator's storage changed). The routers in routing_1d.h hide the extra
// key load by prefetching it with the neighbour's row, and a walk in one
// direction touches only that direction's pool. See DESIGN.md "Performance
// model & memory layout".
//
// This class owns only the *structure* (arena + links). The distributed
// protocols — skipweb_1d.h with its three placements, and the
// deterministic SkipNet baseline — do their own routing and message
// accounting and call splice_in/unsplice for the structural edits.
//
// Concurrency contract (audited for the serving executor): every const
// method is a pure read of the arena — safe to call from any number of
// threads at once — except any_alive(), whose lazily-repaired hint is an
// atomic (see below). Structural edits (splice_in/unsplice) follow the
// library-wide single-writer rule: never concurrent with reads.
class level_lists {
 public:
  // The lists over `sorted_keys` (strictly ascending) with `levels` levels
  // above level 0, at most util::levels_for(n) + 1. Membership vectors are
  // drawn from `r`, one per key in key order; the uid of key i is i. Both
  // constructors link in two linear passes over the keys (link_from_sorted)
  // and run on every core above parallel_build_min_items (DESIGN.md §12).
  level_lists(std::vector<std::uint64_t> sorted_keys, util::rng& r, int levels)
      : level_lists(std::move(sorted_keys), nullptr, &r, levels) {}

  // Deterministic variant: explicit membership vectors (one per key, same
  // order). Used by the deterministic-SkipNet baseline, whose "random" bits
  // are the keys' sorted ranks.
  level_lists(std::vector<std::uint64_t> sorted_keys,
              const std::vector<util::membership_bits>& bits, int levels)
      : level_lists(std::move(sorted_keys), &bits, nullptr, levels) {}

  // A build of fewer items runs on the calling thread alone, where starting
  // helpers would cost more than they save (DESIGN.md §12).
  static constexpr std::size_t parallel_build_min_items = std::size_t{1} << 16;
  // Test seam, not an option: nonzero makes every build on this thread link
  // in this many prefix sets (rounded up to a power of two; see
  // link_from_sorted), whatever n and the core count, so the split is
  // tested on any machine.
  static inline thread_local std::size_t forced_link_sets = 0;

 private:
  level_lists(std::vector<std::uint64_t> sorted_keys,
              const std::vector<util::membership_bits>* explicit_bits, util::rng* r, int levels)
      : levels_(levels), stride_(static_cast<std::size_t>(levels) + 1) {
    init_arena(std::move(sorted_keys), explicit_bits, r);
    link_from_sorted();
    alive_hint_ = keys_.empty() ? -1 : 0;
  }

  // The scalar arena: keys, membership draws, uids, flags, and the link
  // pools. The draws run serially in input order as one task while the
  // other workers fill the rest in slices. The pools are left
  // UNINITIALIZED: link_from_sorted writes every slot in its two passes,
  // and a sentinel fill would be over half the build's wall clock at 1M.
  // The level bound keeps the passes' last-seen tables, 2^(levels+1)
  // entries in all, below 8n (DESIGN.md §12).
  void init_arena(std::vector<std::uint64_t> sorted_keys,
                  const std::vector<util::membership_bits>* explicit_bits, util::rng* r) {
    const std::size_t n = sorted_keys.size();
    SW_EXPECTS(levels_ >= 0 && levels_ < util::max_levels && levels_ <= util::levels_for(n) + 1);
    SW_EXPECTS(explicit_bits == nullptr || explicit_bits->size() == n);
    for (std::size_t i = 0; i + 1 < n; ++i) {
      SW_EXPECTS(sorted_keys[i] < sorted_keys[i + 1]);
    }
    keys_.resize(n);
    bits_.resize(n);
    uids_.resize(n);
    redirect_.resize(n);
    alive_.resize(n);
    std::uint64_t* const keys = keys_.data();
    util::membership_bits* const bits = bits_.data();
    std::uint64_t* const uids = uids_.data();
    std::int32_t* const redirect = redirect_.data();
    std::uint8_t* const alive = alive_.data();
    const std::size_t workers = build_workers(n);
    util::fan_out(workers + 1, workers, [&](std::size_t t, std::size_t) {
      if (t == 0) {
        if (explicit_bits == nullptr) {
          for (std::size_t i = 0; i < n; ++i) bits[i] = util::draw_membership(*r);
        }
        return;
      }
      const std::size_t lo = n * (t - 1) / workers;
      const std::size_t hi = n * t / workers;
      std::copy(sorted_keys.data() + lo, sorted_keys.data() + hi, keys + lo);
      if (explicit_bits != nullptr) {
        std::copy(explicit_bits->data() + lo, explicit_bits->data() + hi, bits + lo);
      }
      for (std::size_t i = lo; i < hi; ++i) uids[i] = i;
      std::fill(redirect + lo, redirect + hi, -1);
      std::fill(alive + lo, alive + hi, std::uint8_t{1});
    });
    next_uid_ = n;
    fwd_.resize(n * stride_);  // persist::pod_array resize: no fill
    bwd_.resize(n * stride_);
  }

  // Workers for a build of n items (see parallel_build_min_items).
  static std::size_t build_workers(std::size_t n) {
    return n < parallel_build_min_items ? 1 : util::fan_out_workers(n);
  }

  // The level-l predecessor of item i is simply the last earlier item
  // sharing its l-bit prefix (paper §2.3: the level-l list of S_b holds
  // the items whose vectors start with b, in key order), so one int32
  // last-seen table per level (flattened into a single array) finds every
  // link in two linear passes. The ascending pass writes each item's whole
  // backward row, the descending pass its forward row: the 2·n·(levels+1)
  // pool writes stream sequentially, and the random traffic is confined to
  // the table.
  //
  // The passes split by prefix. The items whose first `split` membership
  // bits read s form the set S_s of the paper's level `split`, and every
  // list at that level or above lies inside one such set. So the 2^split
  // sets link at once, one task each: a task scans every item in both
  // directions but links only its own set's items. Above level `split` its
  // table holds only its set's prefixes, 1/2^split of the whole; below it,
  // the few short tables see every item, as those lists span several sets.
  // No link crosses two tasks, so nothing is stitched afterwards, and each
  // task alone writes its items' rows. One set is the serial two-pass
  // build (DESIGN.md §12).
  void link_from_sorted() {
    const std::size_t n = keys_.size();
    if (n == 0) return;
    const std::size_t want = forced_link_sets > 0 ? forced_link_sets : build_workers(n);
    int split = 0;
    while ((std::size_t{1} << split) < want) ++split;
    const std::size_t sets = std::size_t{1} << split;
    // One task's table: a level l below `split` at 2^l - 2 + prefix, a
    // level at or above it at base[l] + (prefix >> split).
    std::vector<std::size_t> base(static_cast<std::size_t>(levels_) + 1, 0);
    std::size_t entries = split > 0 ? (std::size_t{1} << split) - 2 : 0;
    for (int l = std::max(split, 1); l <= levels_; ++l) {
      base[static_cast<std::size_t>(l)] = entries;
      entries += std::size_t{1} << (l - split);
    }
    persist::pod_array<std::int32_t> tables;
    tables.resize(sets * entries);
    std::int32_t* const table = tables.data();
    util::fan_out(sets, sets, [&](std::size_t set, std::size_t) {
      link_set(set, split, base, table + set * entries, entries);
    });
  }

  // Both passes of the prefix set `set` (above). Entries for the item a few
  // iterations ahead are prefetched, so the table lookups — the only loads
  // the hardware prefetcher cannot predict — overlap instead of
  // serializing.
  void link_set(std::uint64_t set, int split, const std::vector<std::size_t>& base,
                std::int32_t* table, std::size_t entries) {
    constexpr std::size_t kAhead = 8;
    const std::size_t n = keys_.size();
    const util::membership_bits* bits = bits_.data();
    const std::uint64_t set_mask = (std::uint64_t{1} << split) - 1;
    const int below = std::min(split - 1, levels_);  // levels shared with other sets
    const int above = std::max(split, 1);            // the first level inside the set
    // Item i's link at every level goes to pool row i: the level-0 link is
    // given, the others come from the table, which then names i. The pools
    // arrive uninitialized, so the stores are unconditional: an absent
    // neighbour reads back from the table as exactly the no_link sentinel.
    const auto visit = [&](std::size_t i, std::size_t ahead, std::int32_t* pool,
                           std::int32_t level0) {
      const std::uint64_t b = bits[i];
      const auto self = static_cast<std::int32_t>(i);
      const bool own = (b & set_mask) == set;
      const std::size_t row = i * stride_;
      for (int l = 1; l <= below; ++l) {
        const std::size_t idx = (std::size_t{1} << l) - 2 + (b & ((std::uint64_t{1} << l) - 1));
        if (own) pool[row + static_cast<std::size_t>(l)] = table[idx];
        table[idx] = self;
      }
      if (!own) return;
      const std::uint64_t next = bits[ahead];
      pool[row] = level0;
      for (int l = above; l <= levels_; ++l) {
        const std::uint64_t mask = (std::uint64_t{1} << l) - 1;
        const std::size_t at = base[static_cast<std::size_t>(l)];
        util::prefetch(&table[at + ((next & mask) >> split)]);
        const std::size_t idx = at + ((b & mask) >> split);
        pool[row + static_cast<std::size_t>(l)] = table[idx];
        table[idx] = self;
      }
    };
    // Ascending pass: backward rows (the level-0 predecessor is just i - 1,
    // or no_link at i = 0).
    std::int32_t* const bwd = bwd_.data();
    std::fill(table, table + entries, no_link);
    for (std::size_t i = 0; i < n; ++i) {
      visit(i, std::min(i + kAhead, n - 1), bwd, static_cast<std::int32_t>(i) - 1);
    }
    // Descending pass: forward rows, symmetrically.
    std::int32_t* const fwd = fwd_.data();
    std::fill(table, table + entries, no_link);
    for (std::size_t i = n; i-- > 0;) {
      visit(i, i >= kAhead ? i - kAhead : 0, fwd,
            i + 1 < n ? static_cast<std::int32_t>(i) + 1 : no_link);
    }
  }

 public:
  [[nodiscard]] int levels() const { return levels_; }
  // Every freed slot is on the free list until an insert takes it back.
  [[nodiscard]] std::size_t size() const { return keys_.size() - free_.size(); }
  [[nodiscard]] std::size_t arena_size() const { return keys_.size(); }

  [[nodiscard]] bool alive(int item) const { return alive_[static_cast<std::size_t>(item)] != 0; }
  [[nodiscard]] std::uint64_t key(int item) const { return keys_[static_cast<std::size_t>(item)]; }
  [[nodiscard]] util::membership_bits bits(int item) const {
    return bits_[static_cast<std::size_t>(item)];
  }
  // Stable identity for host hashing (arena slots are recycled, uids are not).
  [[nodiscard]] std::uint64_t uid(int item) const { return uids_[static_cast<std::size_t>(item)]; }

  // The neighbour slot of `item` in its level-`level` list, or no_link.
  [[nodiscard]] int next(int item, int level) const { return fwd_[slot(item, level)]; }
  [[nodiscard]] int prev(int item, int level) const { return bwd_[slot(item, level)]; }
  static constexpr std::int32_t no_link = -1;

  // Direction-selected load: `forward ? next : prev` with the pool chosen by
  // pointer select, so the batch router's merged walk stays branch-free.
  [[nodiscard]] int dir_link(int item, int level, bool forward) const {
    const std::int32_t* pool = forward ? fwd_.data() : bwd_.data();
    return pool[slot(item, level)];
  }

  // --- successor/predecessor lists (the fault plane, DESIGN.md §10)
  //
  // With replication k > 0 every item knows the k items beyond its level-0
  // neighbour in each direction — the skip-graph "successor list" — so a
  // fault-aware router can step over a run of up to k dead items. Those are
  // the next k items of the level-0 list, which a router reads by stepping
  // along dir_link(·, 0, ·); only k is stored. The ledger still charges
  // their host refs and refresh visits (skipweb_1d), the modelled cost.
  void set_replication(std::size_t k) { replication_ = k; }
  [[nodiscard]] std::size_t replication() const { return replication_; }

  // Hints for the routers: pull a link row or a neighbour's key into cache
  // before the decision that reads it.
  void prefetch_dir(int item, int level, bool forward) const {
    const std::int32_t* pool = forward ? fwd_.data() : bwd_.data();
    util::prefetch(pool + slot(item, level));
  }
  void prefetch_key(int item) const { util::prefetch(&keys_[static_cast<std::size_t>(item)]); }

  [[nodiscard]] util::level_prefix prefix(int item, int level) const {
    return util::prefix_of(bits_[static_cast<std::size_t>(item)], level);
  }

  // Where an unspliced (deleted) item's traffic should be redirected: its
  // level-0 successor at deletion time (for stale root pointers).
  [[nodiscard]] int redirect(int item) const {
    return redirect_[static_cast<std::size_t>(item)];
  }

  // The first alive item on the redirect chain from `item` (item itself when
  // alive), or -1. The chase ends at -1, at a slot outside the arena and
  // after arena_size() steps: a map restore does not check the slots, and a
  // hostile one (past the arena, or a cycle of dead items) must neither
  // index past the arrays nor spin.
  [[nodiscard]] int follow_redirects(int item) const {
    const std::size_t n = arena_size();
    for (std::size_t steps = 0; steps <= n; ++steps) {
      if (static_cast<std::size_t>(item) >= n) return -1;  // also catches -1
      if (alive_[static_cast<std::size_t>(item)] != 0) return item;
      item = redirect_[static_cast<std::size_t>(item)];
    }
    return -1;
  }

  // Per-level insertion neighbours, as discovered by the distributed insert
  // protocol. left/right must be the nearest same-prefix items on each side
  // (-1 when none).
  struct neighbors {
    int left = -1;
    int right = -1;
  };

  // Splice a new item into every level list. Validates that the supplied
  // neighbours are consistent (adjacent, same prefix, correct key order).
  int splice_in(std::uint64_t key, util::membership_bits bits,
                const std::vector<neighbors>& nbrs) {
    SW_EXPECTS(nbrs.size() == static_cast<std::size_t>(levels_) + 1);
    int idx;
    if (!free_.empty()) {
      idx = free_.back();
      free_.pop_back();
      const std::size_t base = static_cast<std::size_t>(idx) * stride_;
      for (std::size_t k = 0; k < stride_; ++k) {
        fwd_[base + k] = no_link;
        bwd_[base + k] = no_link;
      }
      redirect_[static_cast<std::size_t>(idx)] = -1;
      alive_[static_cast<std::size_t>(idx)] = 1;
    } else {
      idx = static_cast<int>(keys_.size());
      keys_.emplace_back();
      bits_.emplace_back();
      uids_.emplace_back();
      redirect_.push_back(-1);
      alive_.push_back(1);
      fwd_.resize(fwd_.size() + stride_, no_link);
      bwd_.resize(bwd_.size() + stride_, no_link);
    }
    keys_[static_cast<std::size_t>(idx)] = key;
    bits_[static_cast<std::size_t>(idx)] = bits;
    uids_[static_cast<std::size_t>(idx)] = next_uid_++;

    for (int l = 0; l <= levels_; ++l) {
      const auto [left, right] = nbrs[static_cast<std::size_t>(l)];
      const auto p = util::prefix_of(bits, l);
      if (left >= 0) {
        SW_EXPECTS(alive(left) && this->key(left) < key && prefix(left, l) == p);
        SW_EXPECTS(next(left, l) == right);
      }
      if (right >= 0) {
        SW_EXPECTS(alive(right) && this->key(right) > key && prefix(right, l) == p);
        SW_EXPECTS(prev(right, l) == left);
      }
      if (left >= 0) link(left, idx, l);
      if (right >= 0) link(idx, right, l);
    }
    alive_hint_ = idx;
    return idx;
  }

  void unsplice(int item) {
    SW_EXPECTS(alive(item));
    const int nx0 = next(item, 0);
    const int pv0 = prev(item, 0);
    redirect_[static_cast<std::size_t>(item)] = nx0 >= 0 ? nx0 : pv0;
    for (int l = 0; l <= levels_; ++l) {
      const int pv = prev(item, l);
      const int nx = next(item, l);
      if (pv >= 0 && nx >= 0) {
        link(pv, nx, l);
      } else if (pv >= 0) {
        fwd_[slot(pv, l)] = no_link;
      } else if (nx >= 0) {
        bwd_[slot(nx, l)] = no_link;
      }
      fwd_[slot(item, l)] = no_link;
      bwd_[slot(item, l)] = no_link;
    }
    alive_[static_cast<std::size_t>(item)] = 0;
    free_.push_back(item);
    // Keep the alive hint live: the redirect target was alive a moment ago.
    if (alive_hint_ == item) alive_hint_ = redirect_[static_cast<std::size_t>(item)];
  }

  // Any alive item, or -1; used to seed root pointers. Amortized O(1): a
  // cached hint (maintained by splice_in/unsplice) is tried first, chasing
  // redirects of items that died since; a full arena scan is the last resort.
  //
  // The hint is the one piece of state a *query* path writes, so it is an
  // atomic (relaxed: any alive item is a correct hint, so racing repairs
  // from concurrent searches are benign) — required for the data-race-free
  // concurrent-read contract the serving executor relies on.
  [[nodiscard]] int any_alive() const {
    const int h = follow_redirects(alive_hint_.load(std::memory_order_relaxed));
    if (h >= 0) {
      alive_hint_.store(h, std::memory_order_relaxed);
      return h;
    }
    for (int i = 0; i < static_cast<int>(arena_size()); ++i) {
      if (alive_[static_cast<std::size_t>(i)] != 0) {
        alive_hint_.store(i, std::memory_order_relaxed);
        return i;
      }
    }
    alive_hint_.store(-1, std::memory_order_relaxed);
    return -1;
  }

  // Structural invariants, checked by tests after randomized workloads and
  // at big n: every level's lists are sorted, doubly-linked consistently,
  // and contain exactly the alive items whose prefix matches. O(n·levels):
  // it walks every level-l list once from its head, checking each link, and
  // counts. Every alive item (counted from the alive flags, which size()
  // must agree with; every free slot is dead) is visited once per level, and
  // no two lists share a prefix; together those say the lists partition the
  // alive items by prefix in sorted order, so no alive item lies between two
  // linked ones.
  [[nodiscard]] bool check_invariants() const {
    std::size_t alive_items = 0;
    for (int i = 0; i < static_cast<int>(arena_size()); ++i) alive_items += alive(i) ? 1 : 0;
    if (alive_items != size() || !free_slots_dead()) return false;
    for (int l = 0; l <= levels_; ++l) {
      std::size_t visited = 0;
      std::unordered_set<std::uint64_t> head_prefixes;
      for (int i = 0; i < static_cast<int>(arena_size()); ++i) {
        if (!alive(i) || prev(i, l) >= 0) continue;
        if (!head_prefixes.insert(prefix(i, l).bits).second) return false;
        for (int cur = i; cur >= 0;) {
          ++visited;
          const int nx = next(cur, l);
          if (nx >= 0) {
            if (!alive(nx)) return false;
            if (key(nx) <= key(cur)) return false;
            if (prefix(nx, l) != prefix(cur, l)) return false;
            if (prev(nx, l) != cur) return false;
          }
          cur = nx;
        }
      }
      if (visited != alive_items) return false;
    }
    return true;
  }

  // Measured resident bytes of the arena and link pools (capacity-based;
  // see api::memory_footprint). The split mirrors the paper's space
  // argument: arena = per-element storage any structure pays, links = the
  // skip-web's O(1) expected pointers per element. slack_bytes is the
  // capacity-beyond-size share; compact() drives it to zero.
  [[nodiscard]] api::memory_footprint footprint() const {
    api::memory_footprint f;
    f.arena_bytes = api::vector_bytes(keys_) + api::vector_bytes(bits_) +
                    api::vector_bytes(uids_) + api::vector_bytes(redirect_) +
                    api::vector_bytes(alive_) + api::vector_bytes(free_);
    f.link_bytes = api::vector_bytes(fwd_) + api::vector_bytes(bwd_);
    f.slack_bytes = api::vector_slack_bytes(keys_) + api::vector_slack_bytes(bits_) +
                    api::vector_slack_bytes(uids_) + api::vector_slack_bytes(redirect_) +
                    api::vector_slack_bytes(alive_) + api::vector_slack_bytes(free_) +
                    api::vector_slack_bytes(fwd_) + api::vector_slack_bytes(bwd_);
    return f;
  }

  // --- persistence (DESIGN.md §13) -------------------------------------------

  // Shrink every array to exactly size() records, so footprint() matches
  // what save() will write. Structural plane; reallocates (and therefore
  // materializes any borrowed snapshot spans).
  void compact() {
    keys_.shrink_to_fit();
    bits_.shrink_to_fit();
    uids_.shrink_to_fit();
    redirect_.shrink_to_fit();
    alive_.shrink_to_fit();
    fwd_.shrink_to_fit();
    bwd_.shrink_to_fit();
    free_.shrink_to_fit();
  }

  // Write the whole arena into `w` under `prefix` ("<prefix>.keys", ...);
  // "<prefix>.shape" is {levels, replication, next uid, alive hint}. Quiescent
  // structural state only; pair with the restoring constructor.
  void save(persist::writer& w, std::string_view prefix) const {
    const std::string p(prefix);
    const std::uint64_t shape[] = {static_cast<std::uint64_t>(levels_),
                                   static_cast<std::uint64_t>(replication_), next_uid_,
                                   static_cast<std::uint64_t>(
                                       static_cast<std::int64_t>(alive_hint_.load()))};
    w.add_array(p + ".shape", shape, std::size(shape));
    w.add_pods(p + ".keys", keys_);
    w.add_pods(p + ".bits", bits_);
    w.add_pods(p + ".uids", uids_);
    w.add_pods(p + ".redirect", redirect_);
    w.add_pods(p + ".alive", alive_);
    w.add_pods(p + ".next", fwd_);
    w.add_pods(p + ".prev", bwd_);
    w.add_pods(p + ".free", free_);
  }

  // Restore from a snapshot: every array becomes a borrowed zero-copy span
  // over the reader's backing blob (mapping or owned buffer — pod_array
  // copies on first write either way), so a restored structure answers
  // queries without materializing a byte beyond what it touches. The shape
  // is read from ".shape" and the link pools from ".next"/".prev" only: a
  // file in another layout fails on the missing section (DESIGN.md §13).
  level_lists(persist::reader& r, std::string_view prefix) {
    const std::string p(prefix);
    std::size_t nshape = 0;
    const auto* shape = r.array<std::uint64_t>(p + ".shape", nshape);
    if (nshape != 4) throw persist::error("snapshot: level_lists shape malformed");
    keys_ = r.pods<std::uint64_t>(p + ".keys");
    bits_ = r.pods<util::membership_bits>(p + ".bits");
    uids_ = r.pods<std::uint64_t>(p + ".uids");
    redirect_ = r.pods<std::int32_t>(p + ".redirect");
    alive_ = r.pods<std::uint8_t>(p + ".alive");
    free_ = r.pods<int>(p + ".free");
    const std::size_t arena = keys_.size();
    // Range-check the u64 words before narrowing them. k replicas need k + 1
    // host ids. The alive hint is saved as its int64 value, so "none" (-1)
    // arrives as 2^64 - 1; any_alive() indexes the arena with any other.
    const std::uint64_t no_hint = ~std::uint64_t{0};
    if (shape[0] >= static_cast<std::uint64_t>(util::max_levels) ||
        shape[1] > std::uint64_t{0xffffffff} || (shape[3] != no_hint && shape[3] >= arena) ||
        bits_.size() != arena || uids_.size() != arena || redirect_.size() != arena ||
        alive_.size() != arena) {
      throw persist::error("snapshot: level_lists arrays disagree with shape");
    }
    levels_ = static_cast<int>(shape[0]);
    stride_ = static_cast<std::size_t>(levels_) + 1;
    replication_ = static_cast<std::size_t>(shape[1]);
    next_uid_ = shape[2];
    alive_hint_.store(shape[3] == no_hint ? -1 : static_cast<int>(shape[3]));
    // splice_in writes through the slot it pops: each must be a dead slot
    // of the arena, or an insert would write past it or over a live item.
    if (free_.size() > arena || !free_slots_dead()) {
      throw persist::error("snapshot: level_lists free list names a live or absent slot");
    }
    fwd_ = r.pods<std::int32_t>(p + ".next");
    bwd_ = r.pods<std::int32_t>(p + ".prev");
    // The stride is at most max_levels, so the product cannot wrap.
    if (fwd_.size() != arena * stride_ || bwd_.size() != arena * stride_) {
      throw persist::error("snapshot: level_lists link pools disagree with shape");
    }
  }

 private:
  // Is every free-list entry a dead slot of the arena? O(free-list length).
  [[nodiscard]] bool free_slots_dead() const {
    return std::all_of(free_.begin(), free_.end(), [&](int f) {
      return static_cast<std::size_t>(f) < arena_size() && !alive(f);
    });
  }

  [[nodiscard]] std::size_t slot(int item, int level) const {
    return static_cast<std::size_t>(item) * stride_ + static_cast<std::size_t>(level);
  }

  // Make b follow a in the level-l list.
  void link(int a, int b, int l) {
    fwd_[slot(a, l)] = b;
    bwd_[slot(b, l)] = a;
  }

  // Parallel arrays indexed by arena slot; see the class comment for layout.
  // Every array is a persist::pod_array: an owned flat buffer in a built
  // structure (value-less resize leaves records uninitialized — the
  // build writes every slot itself — and big pools get hugepage advice), or
  // a borrowed read-only span over a snapshot mapping in a restored one,
  // which silently copies on the first structural edit (DESIGN.md §13).
  persist::pod_array<std::uint64_t> keys_;
  persist::pod_array<util::membership_bits> bits_;
  persist::pod_array<std::uint64_t> uids_;
  persist::pod_array<std::int32_t> redirect_;
  persist::pod_array<std::uint8_t> alive_;
  persist::pod_array<std::int32_t> fwd_;  // stride_ slots per item: next links, one per level
  persist::pod_array<std::int32_t> bwd_;  // stride_ slots per item: prev links
  std::size_t replication_ = 0;  // successor-list length k (set_replication)
  persist::pod_array<int> free_;
  std::uint64_t next_uid_ = 0;
  int levels_ = 0;
  std::size_t stride_ = 1;
  // mutable atomic: any_alive() (a const query) repairs it lazily, possibly
  // from several serving threads at once; see the method comment.
  mutable std::atomic<int> alive_hint_{-1};
};

}  // namespace skipweb::core
