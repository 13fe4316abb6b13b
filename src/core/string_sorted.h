#pragma once

#include <algorithm>
#include <cstdint>
#include <string>
#include <vector>

#include "api/memory_footprint.h"
#include "api/op_stats.h"
#include "net/cursor.h"
#include "net/network.h"
#include "util/rng.h"
#include "util/sw_assert.h"

namespace skipweb::core {

// Distributed sorted-array baseline for the string plane: the keys live in
// one lexicographically sorted vector blocked across the deployment, and
// every query is priced as the binary-search probes (one hop per probed
// slot's block owner) plus, for enumerations, the window scan (one hop per
// block crossed). The differential-testing counterweight to the skip-trie
// text core: same answers by contract, completely different cost shape —
// O(log n) hops for exact match and prefix COUNT (two binary searches
// subtract), but window scans pay per block where the trie pays per subtree
// node.
//
// Memory-ledger accounting hashes each key to a stable home host (item
// units), so the ledger is insertion-order independent and replay snapshots
// reconcile exactly. Routing hops use the slot's CURRENT block owner — the
// directory view of a shifting array — which is deterministic given the same
// operation history, all the twin contracts need.
//
// Concurrency contract: the const query surface reads keys_ only (receipts
// ride in cursor-local memory); insert/erase are single-writer.
class string_sorted {
 public:
  string_sorted(std::vector<std::string> keys, std::uint64_t seed, net::network& net)
      : net_(&net), hosts_(net.host_count()), salt_(seed) {
    SW_EXPECTS(!keys.empty());
    std::sort(keys.begin(), keys.end());
    SW_EXPECTS(std::adjacent_find(keys.begin(), keys.end()) == keys.end());  // distinct
    keys_ = std::move(keys);
    block_ = block_for(keys_.size());
    for (const auto& k : keys_) charge_key(k, +1);
  }

  string_sorted(const string_sorted&) = delete;
  string_sorted& operator=(const string_sorted&) = delete;

  [[nodiscard]] std::size_t size() const { return keys_.size(); }

  [[nodiscard]] api::op_result<bool> contains(const std::string& q, net::host_id origin) const {
    net::cursor cur(*net_, origin);
    const std::size_t slot = lower_bound_slot(q, cur);
    const bool hit = slot < keys_.size() && keys_[slot] == q;
    if (slot < keys_.size()) cur.note_comparisons(1);
    return {hit, api::op_stats::of(cur)};
  }

  // The half-open slot window [lo, hi) of keys extending `prefix`; both ends
  // found by priced binary searches. The empty prefix is the whole array,
  // located for free (no route needed to know "everything").
  [[nodiscard]] api::op_result<std::pair<std::size_t, std::size_t>> prefix_window(
      const std::string& prefix, net::host_id origin) const {
    net::cursor cur(*net_, origin);
    if (prefix.empty()) return {{0, keys_.size()}, api::op_stats::of(cur)};
    const std::size_t lo = lower_bound_slot(prefix, cur);
    const std::string succ = prefix_successor(prefix);
    const std::size_t hi = succ.empty() ? keys_.size() : lower_bound_slot(succ, cur);
    return {{lo, hi}, api::op_stats::of(cur)};
  }

  [[nodiscard]] api::op_result<std::vector<std::string>> prefix_match(const std::string& prefix,
                                                                      net::host_id origin,
                                                                      std::size_t limit) const {
    const auto w = prefix_window(prefix, origin);
    return scan(w.value.first, w.value.second, w.stats, origin, limit);
  }

  [[nodiscard]] api::op_result<std::uint64_t> prefix_count(const std::string& prefix,
                                                           net::host_id origin) const {
    const auto w = prefix_window(prefix, origin);
    return {w.value.second - w.value.first, w.stats};
  }

  // Closed window [lo, hi], both binary searches priced, then the scan.
  [[nodiscard]] api::op_result<std::vector<std::string>> range(const std::string& lo,
                                                               const std::string& hi,
                                                               net::host_id origin,
                                                               std::size_t limit) const {
    SW_EXPECTS(lo <= hi);
    net::cursor cur(*net_, origin);
    const std::size_t a = lower_bound_slot(lo, cur);
    const std::size_t b = upper_bound_slot(hi, cur);
    return scan(a, b, api::op_stats::of(cur), origin, limit);
  }

  api::op_stats insert(const std::string& s, net::host_id origin) {
    const net::structural_section sw_structural_guard(*net_);
    net::cursor cur(*net_, origin);
    const std::size_t slot = lower_bound_slot(s, cur);
    SW_EXPECTS(slot == keys_.size() || keys_[slot] != s);  // must be absent
    // The shift is local block chatter on the owning hosts; the route above
    // is the distributed cost. Home-host charge keeps the ledger stable.
    keys_.insert(keys_.begin() + static_cast<std::ptrdiff_t>(slot), s);
    charge_key(s, +1);
    return api::op_stats::of(cur);
  }

  api::op_stats erase(const std::string& s, net::host_id origin) {
    SW_EXPECTS(keys_.size() >= 2);  // the structure never becomes empty
    const net::structural_section sw_structural_guard(*net_);
    net::cursor cur(*net_, origin);
    const std::size_t slot = lower_bound_slot(s, cur);
    SW_EXPECTS(slot < keys_.size() && keys_[slot] == s);  // must be present
    keys_.erase(keys_.begin() + static_cast<std::ptrdiff_t>(slot));
    charge_key(s, -1);
    return api::op_stats::of(cur);
  }

  // Smallest string greater than every string extending `prefix` (the upper
  // binary-search target); empty when no such string exists (all-0xff).
  [[nodiscard]] static std::string prefix_successor(std::string prefix) {
    while (!prefix.empty() && static_cast<unsigned char>(prefix.back()) == 0xff) {
      prefix.pop_back();
    }
    if (!prefix.empty()) {
      prefix.back() = static_cast<char>(static_cast<unsigned char>(prefix.back()) + 1);
    }
    return prefix;
  }

  // The flat sorted array is the arena; keys' heap bytes included.
  [[nodiscard]] api::memory_footprint footprint() const {
    api::memory_footprint f;
    f.arena_bytes = api::vector_bytes(keys_);
    f.slack_bytes = api::vector_slack_bytes(keys_);
    for (const auto& k : keys_) f.arena_bytes += k.capacity();
    return f;
  }

  void compact() { keys_.shrink_to_fit(); }

 private:
  static std::size_t block_for(std::size_t n) {
    // ~log2(n) keys per block: binary searches change blocks nearly every
    // probe (honest hop pricing) while scans amortize a hop over a block.
    std::size_t b = 2;
    while ((std::size_t{1} << b) < n) ++b;
    return b;
  }

  [[nodiscard]] net::host_id host_of_slot(std::size_t slot) const {
    const std::uint64_t z = salt_ ^ (slot / block_) ^ 0x2545f4914f6cdd1dull;
    return net::host_id{static_cast<std::uint32_t>(util::mix64(z) % hosts_)};
  }

  [[nodiscard]] std::size_t lower_bound_slot(const std::string& q, net::cursor& cur) const {
    std::size_t lo = 0, hi = keys_.size();
    while (lo < hi) {
      const std::size_t mid = lo + (hi - lo) / 2;
      cur.move_to(host_of_slot(mid));
      cur.note_comparisons(1);
      if (keys_[mid] < q) {
        lo = mid + 1;
      } else {
        hi = mid;
      }
    }
    return lo;
  }

  [[nodiscard]] std::size_t upper_bound_slot(const std::string& q, net::cursor& cur) const {
    std::size_t lo = 0, hi = keys_.size();
    while (lo < hi) {
      const std::size_t mid = lo + (hi - lo) / 2;
      cur.move_to(host_of_slot(mid));
      cur.note_comparisons(1);
      if (keys_[mid] <= q) {
        lo = mid + 1;
      } else {
        hi = mid;
      }
    }
    return lo;
  }

  // Enumerate slots [a, b): one hop when the block owner changes, one
  // comparison per emitted key. Deadline-aware: an expired cursor stops the
  // scan mid-window and marks the (lexicographic-prefix) answer degraded.
  [[nodiscard]] api::op_result<std::vector<std::string>> scan(std::size_t a, std::size_t b,
                                                              const api::op_stats& route,
                                                              net::host_id origin,
                                                              std::size_t limit) const {
    net::cursor cur(*net_, origin);
    api::op_result<std::vector<std::string>> res;
    for (std::size_t i = a; i < b; ++i) {
      if (limit != 0 && res.value.size() >= limit) break;
      if (cur.give_up()) break;
      cur.move_to(host_of_slot(i));
      cur.note_comparisons(1);
      res.value.push_back(keys_[i]);
    }
    res.stats = route + api::op_stats::of(cur);
    return res;
  }

  void charge_key(const std::string& s, std::int64_t sign) {
    const std::uint64_t z = salt_ + std::hash<std::string>{}(s) * 0x9e3779b97f4a7c15ull;
    const net::host_id h{static_cast<std::uint32_t>(util::mix64(z) % hosts_)};
    net_->charge(h, net::memory_kind::item, sign);
  }

  std::vector<std::string> keys_;
  net::network* net_;
  std::size_t hosts_;
  std::uint64_t salt_;
  std::size_t block_ = 4;
};

}  // namespace skipweb::core
