#pragma once

#include <algorithm>
#include <cstdint>
#include <map>
#include <string>
#include <unordered_map>
#include <vector>

#include "api/memory_footprint.h"
#include "api/string_index.h"
#include "net/cursor.h"
#include "net/network.h"
#include "util/rng.h"
#include "util/sw_assert.h"

namespace skipweb::core {

// Token -> posting-list directory behind string_index::intersect, shared by
// every string backend (the intersection contract is layout-independent, so
// one honest implementation serves them all — only the primary structures
// differ). Each stored key gets a monotonically increasing uid at insertion;
// a token's posting list is the ascending uid vector of the keys containing
// it (uids are never reused, so appends keep lists sorted).
//
// Intersection is the skip-index idiom inverted indexes use: the rarest
// term's list drives, and for each candidate uid every other list is
// *galloped* forward — doubling probes then a binary search over the bracket
// — so runs of non-matching positions are skipped in O(log gap) probes
// instead of scanned. Every probe is priced as one hop to the host owning
// that slot of that term's list (lists are blocked across the deployment),
// which is exactly what makes galloping worth measuring: the receipt shows
// probes, not positions passed over.
//
// Concurrency contract: intersect() reads the directory without writing any
// shared state (traffic rides in the caller's cursor), so concurrent const
// queries are data-race free; add/remove are single-writer, never concurrent
// with queries — same plane split as every core structure.
class posting_index {
 public:
  // `hosts` is the deployment size probes are blocked over (captured at
  // build, like every core's host mapping); `salt` decorrelates the slot->
  // host hash from the primary structure's.
  posting_index(std::size_t hosts, std::uint64_t salt) : hosts_(hosts), salt_(salt) {
    SW_EXPECTS(hosts_ > 0);
  }

  void add(const std::string& key) {
    const std::uint64_t uid = next_uid_++;
    const bool fresh = uid_of_.emplace(key, uid).second;
    SW_EXPECTS(fresh);
    key_of_.emplace(uid, key);
    for (const auto& t : distinct_tokens(key)) postings_[t].push_back(uid);
  }

  void remove(const std::string& key) {
    const auto it = uid_of_.find(key);
    SW_EXPECTS(it != uid_of_.end());
    const std::uint64_t uid = it->second;
    for (const auto& t : distinct_tokens(key)) {
      auto pit = postings_.find(t);
      SW_ASSERT(pit != postings_.end());
      auto& list = pit->second;
      const auto lit = std::lower_bound(list.begin(), list.end(), uid);
      SW_ASSERT(lit != list.end() && *lit == uid);
      list.erase(lit);
      if (list.empty()) postings_.erase(pit);
    }
    key_of_.erase(uid);
    uid_of_.erase(it);
  }

  // Keys containing every term as a token, ascending lexicographically after
  // the (uid-order) limit cap; traffic charged to `cur`. Deadline-aware: an
  // expired cursor stops the drive loop and marks the partial answer
  // degraded (an honest subset).
  [[nodiscard]] std::vector<std::string> intersect(const std::vector<std::string>& terms,
                                                   net::cursor& cur, std::size_t limit) const {
    SW_EXPECTS(!terms.empty());
    // One directory probe per term: the hop to the token's home slot is paid
    // whether or not the term exists (a real node would answer "no such
    // term" from there).
    std::vector<const std::vector<std::uint64_t>*> lists;
    lists.reserve(terms.size());
    for (const auto& t : terms) {
      cur.move_to(host_of(t, 0));
      cur.note_comparisons(1);
      const auto it = postings_.find(t);
      if (it == postings_.end()) return {};
      lists.push_back(&it->second);
    }
    std::vector<std::size_t> order(lists.size());
    for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;
    std::sort(order.begin(), order.end(),
              [&](std::size_t a, std::size_t b) { return lists[a]->size() < lists[b]->size(); });

    const auto& driver = *lists[order[0]];
    std::vector<std::size_t> frontier(lists.size(), 0);  // per-list resume point
    std::vector<std::string> out;
    for (const std::uint64_t uid : driver) {
      if (limit != 0 && out.size() >= limit) break;
      if (cur.give_up()) break;
      bool everywhere = true;
      for (std::size_t oi = 1; oi < order.size(); ++oi) {
        const std::size_t li = order[oi];
        const std::size_t pos = gallop(terms[li], *lists[li], frontier[li], uid, cur);
        frontier[li] = pos;
        if (pos == lists[li]->size() || (*lists[li])[pos] != uid) {
          everywhere = false;
          break;
        }
      }
      if (everywhere) out.push_back(key_of_.at(uid));
    }
    std::sort(out.begin(), out.end());
    return out;
  }

  // All directory: the maps and their heap strings plus the uid lists.
  [[nodiscard]] api::memory_footprint footprint() const {
    api::memory_footprint f;
    f.directory_bytes = api::map_bytes(uid_of_) + api::map_bytes(key_of_);
    for (const auto& [t, list] : postings_) {
      f.directory_bytes += t.capacity() + api::vector_bytes(list) +
                           sizeof(void*) * 4;  // rb-tree node overhead
      f.slack_bytes += api::vector_slack_bytes(list);
    }
    for (const auto& [k, uid] : uid_of_) f.directory_bytes += k.capacity();
    for (const auto& [uid, k] : key_of_) f.directory_bytes += k.capacity();
    return f;
  }

  void compact() {
    for (auto& [t, list] : postings_) list.shrink_to_fit();
  }

 private:
  static std::vector<std::string> distinct_tokens(const std::string& key) {
    auto toks = api::string_tokens(key);
    std::sort(toks.begin(), toks.end());
    toks.erase(std::unique(toks.begin(), toks.end()), toks.end());
    return toks;
  }

  // First position >= `target` in `list`, galloping from `from`: doubling
  // probes bracket the target, a binary search pins it. Every slot examined
  // is one priced hop — the probe count is what the receipt reports, and
  // what skipping saves.
  [[nodiscard]] std::size_t gallop(const std::string& term,
                                   const std::vector<std::uint64_t>& list, std::size_t from,
                                   std::uint64_t target, net::cursor& cur) const {
    const std::size_t n = list.size();
    auto probe = [&](std::size_t i) {
      cur.move_to(host_of(term, i));
      cur.note_comparisons(1);
      return list[i];
    };
    if (from >= n || probe(from) >= target) return from;
    std::size_t step = 1, lo = from, hi = from + 1;
    while (hi < n && probe(hi) < target) {
      lo = hi;
      hi = std::min(n, hi + step);
      step *= 2;
    }
    // Invariant: list[lo] < target; list[hi] >= target or hi == n.
    while (lo + 1 < hi) {
      const std::size_t mid = lo + (hi - lo) / 2;
      if (probe(mid) < target) {
        lo = mid;
      } else {
        hi = mid;
      }
    }
    return hi;
  }

  // Slot i of term t's posting list lives on host hash(t, i / block): lists
  // are blocked across the deployment, so sequential scans stay cheap while
  // long skips genuinely change hosts.
  static constexpr std::size_t kBlock = 16;
  [[nodiscard]] net::host_id host_of(const std::string& term, std::size_t slot) const {
    std::uint64_t z = salt_ ^ (std::hash<std::string>{}(term) + 0x9e3779b97f4a7c15ull);
    z ^= (slot / kBlock) + 0x2545f4914f6cdd1dull + (z << 6) + (z >> 2);
    return net::host_id{static_cast<std::uint32_t>(util::mix64(z) % hosts_)};
  }

  std::size_t hosts_;
  std::uint64_t salt_;
  std::uint64_t next_uid_ = 0;
  std::map<std::string, std::vector<std::uint64_t>> postings_;
  std::unordered_map<std::string, std::uint64_t> uid_of_;
  std::unordered_map<std::uint64_t, std::string> key_of_;
};

}  // namespace skipweb::core
