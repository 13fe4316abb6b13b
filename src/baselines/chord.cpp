#include "baselines/chord.h"

#include <algorithm>

#include "util/rng.h"
#include "util/sw_assert.h"

namespace skipweb::baselines {

std::uint64_t chord::hash_key(std::uint64_t k) { return util::mix64(k + 0x9e3779b97f4a7c15ull); }

chord::chord(std::size_t host_count, std::vector<std::uint64_t> keys, std::uint64_t seed,
             net::network& net)
    : net_(&net) {
  SW_EXPECTS(host_count >= 1);
  while (net_->host_count() < host_count) net_->add_host();
  util::rng r(seed);

  ring_.resize(host_count);
  for (std::size_t i = 0; i < host_count; ++i) {
    ring_[i].position = r.next_u64();
    ring_[i].host = net::host_id{static_cast<std::uint32_t>(i)};
  }
  std::sort(ring_.begin(), ring_.end(),
            [](const ring_node& a, const ring_node& b) { return a.position < b.position; });

  // Finger tables: successor of position + 2^k for k = 0..63 (deduplicated).
  for (auto& node : ring_) {
    std::size_t last = static_cast<std::size_t>(-1);
    for (int k = 0; k < 64; ++k) {
      const std::uint64_t target = node.position + (std::uint64_t{1} << k);  // wraps mod 2^64
      const std::size_t idx = successor_index(target);
      if (idx != last) {
        node.fingers.push_back(idx);
        last = idx;
        net_->charge(node.host, net::memory_kind::host_ref, 1);
      }
    }
  }

  for (const auto k : keys) {
    auto& owner = ring_[successor_index(hash_key(k))];
    owner.keys.insert(std::lower_bound(owner.keys.begin(), owner.keys.end(), k), k);
    net_->charge(owner.host, net::memory_kind::item, 1);
  }
  size_ = keys.size();
}

std::size_t chord::successor_index(std::uint64_t position) const {
  auto it = std::lower_bound(ring_.begin(), ring_.end(), position,
                             [](const ring_node& a, std::uint64_t p) { return a.position < p; });
  if (it == ring_.end()) it = ring_.begin();  // wrap around
  return static_cast<std::size_t>(it - ring_.begin());
}

std::size_t chord::route_to(std::uint64_t target, net::host_id origin, net::cursor& cur) const {
  const std::size_t dest = successor_index(target);

  // Greedy finger routing: from the current node, jump to the finger that
  // lands furthest ahead on the ring without passing the destination.
  // Unsigned wrap-around subtraction gives ring distances directly.
  std::size_t at = origin.value % ring_.size();
  for (std::size_t guard = 0; guard <= ring_.size() && at != dest; ++guard) {
    const std::uint64_t here = ring_[at].position;
    const std::uint64_t need = ring_[dest].position - here;
    std::size_t best = (at + 1) % ring_.size();  // the successor never overshoots
    std::uint64_t best_ahead = ring_[best].position - here;
    for (const std::size_t f : ring_[at].fingers) {
      cur.note_comparisons();
      const std::uint64_t ahead = ring_[f].position - here;
      if (ahead != 0 && ahead <= need && ahead > best_ahead) {
        best = f;
        best_ahead = ahead;
      }
    }
    at = best;
    cur.move_to(ring_[at].host);
  }
  SW_ASSERT(at == dest);
  return dest;
}

chord::lookup_result chord::lookup(std::uint64_t key, net::host_id origin) const {
  net::cursor cur(*net_, origin);
  const std::size_t dest = route_to(hash_key(key), origin, cur);

  lookup_result out;
  out.owner = ring_[dest].host;
  const auto& ks = ring_[dest].keys;
  out.found = std::binary_search(ks.begin(), ks.end(), key);
  out.stats = api::op_stats::of(cur);
  return out;
}

api::op_stats chord::insert(std::uint64_t key, net::host_id origin) {
  const net::structural_section sw_structural_guard(*net_);
  net::cursor cur(*net_, origin);
  const std::size_t dest = route_to(hash_key(key), origin, cur);
  auto& owner = ring_[dest];
  const auto at = std::lower_bound(owner.keys.begin(), owner.keys.end(), key);
  SW_EXPECTS(at == owner.keys.end() || *at != key);  // duplicates rejected
  owner.keys.insert(at, key);
  net_->charge(owner.host, net::memory_kind::item, 1);
  ++size_;
  return api::op_stats::of(cur);
}

api::op_stats chord::erase(std::uint64_t key, net::host_id origin) {
  const net::structural_section sw_structural_guard(*net_);
  net::cursor cur(*net_, origin);
  const std::size_t dest = route_to(hash_key(key), origin, cur);
  auto& owner = ring_[dest];
  const auto at = std::lower_bound(owner.keys.begin(), owner.keys.end(), key);
  SW_EXPECTS(at != owner.keys.end() && *at == key);  // key must be present
  owner.keys.erase(at);
  net_->charge(owner.host, net::memory_kind::item, -1);
  --size_;
  return api::op_stats::of(cur);
}

api::nn_result chord::nearest_by_flooding(std::uint64_t q, net::host_id origin) const {
  net::cursor cur(*net_, origin);
  api::nn_result out;
  for (const auto& node : ring_) {
    cur.move_to(node.host);  // one message per host: the whole network
    cur.note_comparisons();
    const auto it = std::upper_bound(node.keys.begin(), node.keys.end(), q);
    if (it != node.keys.begin()) {
      const std::uint64_t cand = *std::prev(it);
      if (!out.has_pred || cand > out.pred) {
        out.has_pred = true;
        out.pred = cand;
      }
    }
    if (it != node.keys.end() && (!out.has_succ || *it < out.succ)) {
      out.has_succ = true;
      out.succ = *it;
    }
  }
  out.stats = api::op_stats::of(cur);
  return out;
}

}  // namespace skipweb::baselines
