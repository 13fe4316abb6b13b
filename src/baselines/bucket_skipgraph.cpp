#include "baselines/bucket_skipgraph.h"

#include <algorithm>

#include "util/sw_assert.h"

namespace skipweb::baselines {

bucket_skip_graph::bucket_skip_graph(std::vector<std::uint64_t> keys, std::uint64_t seed,
                                     net::network& net, std::size_t bucket_count)
    : net_(&net) {
  std::sort(keys.begin(), keys.end());
  SW_EXPECTS(!keys.empty());
  SW_EXPECTS(std::adjacent_find(keys.begin(), keys.end()) == keys.end());
  SW_EXPECTS(bucket_count >= 1 && bucket_count <= keys.size());
  size_ = keys.size();

  const std::size_t per = (keys.size() + bucket_count - 1) / bucket_count;
  std::vector<std::uint64_t> lows;
  for (std::size_t b = 0, i = 0; b < bucket_count && i < keys.size(); ++b, i += per) {
    bucket bk;
    bk.low = b == 0 ? 0 : keys[i];  // bucket 0 covers everything below too
    bk.keys.assign(keys.begin() + static_cast<std::ptrdiff_t>(i),
                   keys.begin() + static_cast<std::ptrdiff_t>(std::min(i + per, keys.size())));
    bk.host = net_->add_host();
    for (std::size_t k = 0; k < bk.keys.size(); ++k) {
      net_->charge(bk.host, net::memory_kind::item, 1);
    }
    lows.push_back(bk.low);
    buckets_.push_back(std::move(bk));
  }

  // The routing skip graph lives on the bucket hosts: rebase its per-element
  // "own host" by building it over the lows, then overriding placement via
  // the element order (lows are inserted sorted, so element i = bucket i).
  router_ = std::make_unique<skip_graph>(lows, seed, net);
}

std::size_t bucket_skip_graph::bucket_index(std::uint64_t q) const {
  const auto it = std::upper_bound(buckets_.begin(), buckets_.end(), q,
                                   [](std::uint64_t v, const bucket& b) { return v < b.low; });
  if (it == buckets_.begin()) return 0;
  return static_cast<std::size_t>(it - buckets_.begin()) - 1;
}

api::nn_result bucket_skip_graph::nearest(std::uint64_t q, net::host_id origin) const {
  net::cursor cur(*net_, origin);
  const auto routed = router_->nearest(q, origin);
  const std::size_t idx = bucket_index(q);
  cur.move_to(buckets_[idx].host);

  const auto& ks = buckets_[idx].keys;
  api::nn_result out;
  const auto up = std::upper_bound(ks.begin(), ks.end(), q);
  if (up != ks.begin()) {
    out.has_pred = true;
    out.pred = *std::prev(up);
  } else {
    // Erasures may have emptied this bucket's lower range: the predecessor
    // lives in the nearest nonempty bucket to the left, one hop away.
    for (std::size_t j = idx; j-- > 0;) {
      if (!buckets_[j].keys.empty()) {
        cur.move_to(buckets_[j].host);
        out.has_pred = true;
        out.pred = buckets_[j].keys.back();
        break;
      }
    }
  }
  if (up != ks.end()) {
    out.has_succ = true;
    out.succ = *up;
  } else {
    // Successor lives in the next nonempty bucket: one more hop.
    for (std::size_t j = idx + 1; j < buckets_.size(); ++j) {
      if (!buckets_[j].keys.empty()) {
        cur.move_to(buckets_[j].host);
        out.has_succ = true;
        out.succ = buckets_[j].keys.front();
        break;
      }
    }
  }
  out.stats = routed.stats + api::op_stats::of(cur);
  return out;
}

api::op_stats bucket_skip_graph::insert(std::uint64_t key, net::host_id origin) {
  const net::structural_section sw_structural_guard(*net_);
  net::cursor cur(*net_, origin);
  const auto routed = router_->nearest(key, origin);
  const std::size_t idx = bucket_index(key);
  cur.move_to(buckets_[idx].host);
  auto& ks = buckets_[idx].keys;
  const auto at = std::lower_bound(ks.begin(), ks.end(), key);
  SW_EXPECTS(at == ks.end() || *at != key);
  ks.insert(at, key);
  net_->charge(buckets_[idx].host, net::memory_kind::item, 1);
  ++size_;
  return routed.stats + api::op_stats::of(cur);
}

api::op_stats bucket_skip_graph::erase(std::uint64_t key, net::host_id origin) {
  const net::structural_section sw_structural_guard(*net_);
  net::cursor cur(*net_, origin);
  const auto routed = router_->nearest(key, origin);
  const std::size_t idx = bucket_index(key);
  cur.move_to(buckets_[idx].host);
  auto& ks = buckets_[idx].keys;
  const auto at = std::lower_bound(ks.begin(), ks.end(), key);
  SW_EXPECTS(at != ks.end() && *at == key);
  ks.erase(at);
  net_->charge(buckets_[idx].host, net::memory_kind::item, -1);
  --size_;
  return routed.stats + api::op_stats::of(cur);
}

bool bucket_skip_graph::check_invariants() const {
  std::size_t total = 0;
  for (std::size_t b = 0; b < buckets_.size(); ++b) {
    const auto& ks = buckets_[b].keys;
    total += ks.size();
    if (!std::is_sorted(ks.begin(), ks.end())) return false;
    for (const auto k : ks) {
      if (b > 0 && k < buckets_[b].low) return false;
      if (b + 1 < buckets_.size() && k >= buckets_[b + 1].low) return false;
    }
  }
  return total == size_;
}

}  // namespace skipweb::baselines
