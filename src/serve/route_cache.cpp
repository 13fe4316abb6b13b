#include "serve/route_cache.h"

#include <algorithm>

#include "util/sw_assert.h"

namespace skipweb::serve {

route_cache::route_cache(const options& o) : opts_(o) {
  // Clamped unconditionally, not contract-checked: the knobs arrive from
  // bench CLI flags, and release-bench builds compile SW_EXPECTS away —
  // an out-of-range capacity would index past the fixed slot array.
  opts_.capacity = std::clamp<std::size_t>(opts_.capacity, 1, max_capacity);
  opts_.promote_after = std::max<std::uint64_t>(opts_.promote_after, 1);
  for (auto& s : slots_) s.store(empty_slot, std::memory_order_relaxed);
  for (auto& s : slot_hits_) s.store(0, std::memory_order_relaxed);
  free_slots_.reserve(opts_.capacity);
  for (std::size_t i = opts_.capacity; i-- > 0;) free_slots_.push_back(i);
}

bool route_cache::absorbs(net::host_id h) const {
  const std::uint32_t v = h.value;
  for (std::size_t i = 0; i < opts_.capacity; ++i) {
    if (slots_[i].load(std::memory_order_relaxed) == v) {
      hits_.fetch_add(1, std::memory_order_relaxed);
      slot_hits_[i].fetch_add(1, std::memory_order_relaxed);
      return true;
    }
  }
  return false;
}

void route_cache::on_commit(const net::traffic_receipt& r) {
  if (r.empty()) return;
  // Learning is best-effort: under concurrent serving, a commit that finds
  // the learn lock held drops its observation instead of stalling the query
  // plane. Absorption reads are unaffected either way.
  std::unique_lock lk(mu_, std::try_to_lock);
  if (!lk.owns_lock()) return;
  r.for_each([this](net::host_id hid) {
    const std::uint32_t host = hid.value;
    const std::uint64_t c = ++counts_[host];
    const auto it = admitted_.find(host);
    if (it != admitted_.end()) {
      // Already replicated: confirm recency.
      lru_.splice(lru_.begin(), lru_, it->second.lru_pos);
    } else if (c >= opts_.promote_after) {
      admit_locked(host);
    }
  });
  // Absorbed hops never appear in receipts (that is the cache working), so
  // a replica's continued heat is invisible to the loop above. Fold the
  // read-side hit counters back into recency AND popularity here, before
  // any eviction decision can mistake the busiest replica for an idle one.
  // Walked in LRU order (coldest first, each refreshed entry spliced to the
  // front) so the outcome is deterministic, not hash-order-dependent.
  refresh_scratch_.assign(lru_.rbegin(), lru_.rend());
  for (const auto host : refresh_scratch_) {
    auto& entry = admitted_.find(host)->second;
    const std::uint64_t now = slot_hits_[entry.slot].load(std::memory_order_relaxed);
    if (now != entry.hits_seen) {
      counts_[host] += now - entry.hits_seen;
      entry.hits_seen = now;
      lru_.splice(lru_.begin(), lru_, entry.lru_pos);
    }
  }
  observed_.fetch_add(r.size(), std::memory_order_relaxed);
  hops_since_decay_ += r.size();
  if (hops_since_decay_ >= decay_every) decay_locked();
}

void route_cache::admit_locked(std::uint32_t host) {
  std::size_t slot;
  if (!free_slots_.empty()) {
    slot = free_slots_.back();
    free_slots_.pop_back();
  } else {
    // Evict the least-recently-confirmed replica and reuse its slot; its
    // visit count survives, so a still-hot evictee re-admits quickly.
    const std::uint32_t victim = lru_.back();
    lru_.pop_back();
    const auto vit = admitted_.find(victim);
    SW_ASSERT(vit != admitted_.end());
    slot = vit->second.slot;
    admitted_.erase(vit);
  }
  lru_.push_front(host);
  // Watermark the slot's hit counter at admission: hits below it belong to
  // the slot's previous occupant (the counter is never reset — readers may
  // be bumping it concurrently).
  admitted_.emplace(host, admitted_entry{lru_.begin(), slot,
                                         slot_hits_[slot].load(std::memory_order_relaxed)});
  slots_[slot].store(host, std::memory_order_relaxed);
}

void route_cache::decay_locked() {
  // Halve every count and drop the zeros: persistent heat survives decay
  // after decay, a burst cools off. Replicated hosts keep their slots until
  // LRU eviction — absorption is recency-bounded, admission is
  // frequency-gated.
  hops_since_decay_ = 0;
  for (auto it = counts_.begin(); it != counts_.end();) {
    it->second /= 2;
    it = it->second == 0 ? counts_.erase(it) : std::next(it);
  }
}

std::vector<net::host_id> route_cache::replicated() const {
  std::scoped_lock lk(mu_);
  std::vector<net::host_id> out;
  out.reserve(lru_.size());
  for (const auto host : lru_) out.push_back(net::host_id{host});
  return out;
}

void route_cache::reset_stats() {
  hits_.store(0, std::memory_order_relaxed);
  observed_.store(0, std::memory_order_relaxed);
}

void route_cache::clear() {
  std::scoped_lock lk(mu_);
  counts_.clear();
  lru_.clear();
  admitted_.clear();
  free_slots_.clear();
  for (std::size_t i = opts_.capacity; i-- > 0;) free_slots_.push_back(i);
  for (auto& s : slots_) s.store(empty_slot, std::memory_order_relaxed);
  for (auto& s : slot_hits_) s.store(0, std::memory_order_relaxed);
  hops_since_decay_ = 0;
  reset_stats();
}

}  // namespace skipweb::serve
