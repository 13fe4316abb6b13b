#include "baselines/family_tree.h"

#include <algorithm>

#include "util/sw_assert.h"

namespace skipweb::baselines {

family_tree::family_tree(std::vector<std::uint64_t> keys, std::uint64_t seed, net::network& net)
    : net_(&net), rng_(seed) {
  std::sort(keys.begin(), keys.end());
  SW_EXPECTS(!keys.empty());
  SW_EXPECTS(std::adjacent_find(keys.begin(), keys.end()) == keys.end());
  while (net_->host_count() < keys.size()) net_->add_host();

  // Build the treap bottom-up from the sorted order (stack construction),
  // then thread the in-order list.
  nodes_.resize(keys.size());
  for (std::size_t i = 0; i < keys.size(); ++i) {
    nodes_[i].key = keys[i];
    nodes_[i].priority = rng_.next_u64();
    nodes_[i].host = net::host_id{static_cast<std::uint32_t>(i)};
    nodes_[i].prev = i > 0 ? static_cast<int>(i) - 1 : -1;
    nodes_[i].next = i + 1 < keys.size() ? static_cast<int>(i) + 1 : -1;
  }
  std::vector<int> spine;  // rightmost path, decreasing priority
  for (int i = 0; i < static_cast<int>(nodes_.size()); ++i) {
    int last_popped = -1;
    while (!spine.empty() &&
           nodes_[static_cast<std::size_t>(spine.back())].priority <
               nodes_[static_cast<std::size_t>(i)].priority) {
      last_popped = spine.back();
      spine.pop_back();
    }
    if (last_popped >= 0) {
      nodes_[static_cast<std::size_t>(i)].left = last_popped;
      nodes_[static_cast<std::size_t>(last_popped)].parent = i;
    }
    if (!spine.empty()) {
      nodes_[static_cast<std::size_t>(spine.back())].right = i;
      nodes_[static_cast<std::size_t>(i)].parent = spine.back();
    }
    spine.push_back(i);
  }
  root_ = spine.front();
  size_ = keys.size();

  anchor_.assign(net_->host_count(), -1);
  for (std::size_t h = 0; h < net_->host_count(); ++h) {
    anchor_[h] = static_cast<int>(h % nodes_.size());
    net_->charge(net::host_id{static_cast<std::uint32_t>(h)}, net::memory_kind::host_ref, 1);
  }
  for (int i = 0; i < static_cast<int>(nodes_.size()); ++i) charge(i, +1);
}

void family_tree::charge(int item, std::int64_t sign) {
  const auto h = nodes_[static_cast<std::size_t>(item)].host;
  net_->charge(h, net::memory_kind::item, sign);
  net_->charge(h, net::memory_kind::node, sign);
  net_->charge(h, net::memory_kind::host_ref, 5 * sign);  // parent, 2 children, prev, next
}

std::uint64_t family_tree::max_refs_per_host() const {
  std::uint64_t best = 0;
  for (std::size_t h = 0; h < net_->host_count(); ++h) {
    best = std::max(best, net_->memory_used(net::host_id{static_cast<std::uint32_t>(h)},
                                            net::memory_kind::host_ref));
  }
  return best;
}

int family_tree::root_for(net::host_id origin, net::cursor& cur) const {
  SW_EXPECTS(origin.value < anchor_.size());
  int item = anchor_[origin.value];
  while (item >= 0 && !nodes_[static_cast<std::size_t>(item)].alive) {
    item = nodes_[static_cast<std::size_t>(item)].redirect;
  }
  if (item < 0) item = root_;
  SW_EXPECTS(item >= 0);
  cur.move_to(nodes_[static_cast<std::size_t>(item)].host);
  // Ascend to the root, one hop per parent edge (the O(1)-degree price).
  while (nodes_[static_cast<std::size_t>(item)].parent >= 0) {
    item = nodes_[static_cast<std::size_t>(item)].parent;
    cur.move_to(nodes_[static_cast<std::size_t>(item)].host);
  }
  return item;
}

api::nn_result family_tree::nearest(std::uint64_t q, net::host_id origin) const {
  net::cursor cur(*net_, origin);
  int item = root_for(origin, cur);
  int pred = -1, succ = -1;
  while (item >= 0) {
    const auto& n = nodes_[static_cast<std::size_t>(item)];
    cur.note_comparisons();
    if (n.key <= q) {
      pred = item;
      item = n.right;
    } else {
      succ = item;
      item = n.left;
    }
    if (item >= 0) cur.move_to(nodes_[static_cast<std::size_t>(item)].host);
  }
  return api::nn_from_flanks(
      pred, succ, [this](int i) { return nodes_[static_cast<std::size_t>(i)].key; }, cur);
}

void family_tree::set_child(int parent, int old_child, int new_child) {
  if (parent < 0) {
    SW_ASSERT(root_ == old_child);
    root_ = new_child;
  } else {
    auto& p = nodes_[static_cast<std::size_t>(parent)];
    if (p.left == old_child) {
      p.left = new_child;
    } else {
      SW_ASSERT(p.right == old_child);
      p.right = new_child;
    }
  }
  if (new_child >= 0) nodes_[static_cast<std::size_t>(new_child)].parent = parent;
}

void family_tree::rotate_up(int x, net::cursor& cur) {
  const int p = nodes_[static_cast<std::size_t>(x)].parent;
  SW_ASSERT(p >= 0);
  const int g = nodes_[static_cast<std::size_t>(p)].parent;
  cur.move_to(nodes_[static_cast<std::size_t>(p)].host);
  auto& xn = nodes_[static_cast<std::size_t>(x)];
  auto& pn = nodes_[static_cast<std::size_t>(p)];
  if (pn.left == x) {
    pn.left = xn.right;
    if (xn.right >= 0) nodes_[static_cast<std::size_t>(xn.right)].parent = p;
    xn.right = p;
  } else {
    SW_ASSERT(pn.right == x);
    pn.right = xn.left;
    if (xn.left >= 0) nodes_[static_cast<std::size_t>(xn.left)].parent = p;
    xn.left = p;
  }
  pn.parent = x;
  set_child(g, p, x);
  if (g >= 0) cur.move_to(nodes_[static_cast<std::size_t>(g)].host);
}

api::op_stats family_tree::insert(std::uint64_t key, net::host_id origin) {
  const net::structural_section sw_structural_guard(*net_);
  net::cursor cur(*net_, origin);
  int item = root_for(origin, cur);
  int parent = -1;
  bool left_side = false;
  int pred = -1, succ = -1;
  while (item >= 0) {
    const auto& n = nodes_[static_cast<std::size_t>(item)];
    SW_EXPECTS(n.key != key);  // duplicates rejected
    parent = item;
    if (key < n.key) {
      succ = item;
      left_side = true;
      item = n.left;
    } else {
      pred = item;
      left_side = false;
      item = n.right;
    }
    if (item >= 0) cur.move_to(nodes_[static_cast<std::size_t>(item)].host);
  }

  int idx;
  if (!free_.empty()) {
    idx = free_.back();
    free_.pop_back();
    nodes_[static_cast<std::size_t>(idx)] = node{};
  } else {
    idx = static_cast<int>(nodes_.size());
    nodes_.emplace_back();
  }
  node& nn = nodes_[static_cast<std::size_t>(idx)];
  nn.key = key;
  nn.priority = rng_.next_u64();
  nn.host = net_->add_host();
  anchor_.push_back(idx);
  net_->charge(nn.host, net::memory_kind::host_ref, 1);
  nn.parent = parent;
  cur.move_to(nn.host);
  if (parent >= 0) {
    auto& pn = nodes_[static_cast<std::size_t>(parent)];
    (left_side ? pn.left : pn.right) = idx;
    cur.move_to(pn.host);
  } else {
    root_ = idx;
  }
  // Thread the in-order list (prev/next hosts get one pointer update each).
  nn.prev = pred;
  nn.next = succ;
  if (pred >= 0) {
    nodes_[static_cast<std::size_t>(pred)].next = idx;
    cur.move_to(nodes_[static_cast<std::size_t>(pred)].host);
  }
  if (succ >= 0) {
    nodes_[static_cast<std::size_t>(succ)].prev = idx;
    cur.move_to(nodes_[static_cast<std::size_t>(succ)].host);
  }
  // Restore the heap property: expected O(1) rotations.
  while (nodes_[static_cast<std::size_t>(idx)].parent >= 0 &&
         nodes_[static_cast<std::size_t>(nodes_[static_cast<std::size_t>(idx)].parent)].priority <
             nodes_[static_cast<std::size_t>(idx)].priority) {
    rotate_up(idx, cur);
  }
  ++size_;
  charge(idx, +1);
  return api::op_stats::of(cur);
}

api::op_stats family_tree::erase(std::uint64_t key, net::host_id origin) {
  const net::structural_section sw_structural_guard(*net_);
  SW_EXPECTS(size_ >= 2);
  net::cursor cur(*net_, origin);
  int item = root_for(origin, cur);
  while (item >= 0 && nodes_[static_cast<std::size_t>(item)].key != key) {
    item = key < nodes_[static_cast<std::size_t>(item)].key
               ? nodes_[static_cast<std::size_t>(item)].left
               : nodes_[static_cast<std::size_t>(item)].right;
    if (item >= 0) cur.move_to(nodes_[static_cast<std::size_t>(item)].host);
  }
  SW_EXPECTS(item >= 0);  // key must be present

  // Rotate the node down to a leaf (treap delete), then unlink.
  while (nodes_[static_cast<std::size_t>(item)].left >= 0 ||
         nodes_[static_cast<std::size_t>(item)].right >= 0) {
    const int l = nodes_[static_cast<std::size_t>(item)].left;
    const int r = nodes_[static_cast<std::size_t>(item)].right;
    const int up = (l < 0) ? r
                 : (r < 0) ? l
                 : (nodes_[static_cast<std::size_t>(l)].priority >
                    nodes_[static_cast<std::size_t>(r)].priority)
                     ? l
                     : r;
    rotate_up(up, cur);
  }
  node& n = nodes_[static_cast<std::size_t>(item)];
  set_child(n.parent, item, -1);
  if (n.prev >= 0) {
    nodes_[static_cast<std::size_t>(n.prev)].next = n.next;
    cur.move_to(nodes_[static_cast<std::size_t>(n.prev)].host);
  }
  if (n.next >= 0) {
    nodes_[static_cast<std::size_t>(n.next)].prev = n.prev;
    cur.move_to(nodes_[static_cast<std::size_t>(n.next)].host);
  }
  n.redirect = n.next >= 0 ? n.next : n.prev;
  n.alive = false;
  charge(item, -1);
  free_.push_back(item);
  --size_;
  return api::op_stats::of(cur);
}

bool family_tree::check_invariants() const {
  std::size_t counted = 0;
  for (int i = 0; i < static_cast<int>(nodes_.size()); ++i) {
    const auto& n = nodes_[static_cast<std::size_t>(i)];
    if (!n.alive) continue;
    ++counted;
    for (const int c : {n.left, n.right}) {
      if (c < 0) continue;
      const auto& cn = nodes_[static_cast<std::size_t>(c)];
      if (!cn.alive || cn.parent != i) return false;
      if (cn.priority > n.priority) return false;  // heap order
      if (c == n.left && cn.key >= n.key) return false;
      if (c == n.right && cn.key <= n.key) return false;
    }
    if (n.next >= 0 && nodes_[static_cast<std::size_t>(n.next)].key <= n.key) return false;
  }
  if (counted != size_) return false;
  if (root_ >= 0 && nodes_[static_cast<std::size_t>(root_)].parent != -1) return false;
  return true;
}

}  // namespace skipweb::baselines
