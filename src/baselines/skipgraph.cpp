#include "baselines/skipgraph.h"

#include <algorithm>
#include <numeric>

#include "util/sw_assert.h"

namespace skipweb::baselines {

skip_graph::skip_graph(std::vector<std::uint64_t> keys, std::uint64_t seed, net::network& net)
    : net_(&net), rng_(seed) {
  std::sort(keys.begin(), keys.end());
  SW_EXPECTS(!keys.empty());
  SW_EXPECTS(std::adjacent_find(keys.begin(), keys.end()) == keys.end());
  build(std::move(keys));
}

void skip_graph::build(std::vector<std::uint64_t> keys) {
  while (net_->host_count() < keys.size()) net_->add_host();
  elems_.resize(keys.size());
  for (std::size_t i = 0; i < keys.size(); ++i) {
    elems_[i].key = keys[i];
    elems_[i].bits = util::draw_membership(rng_);
    elems_[i].host = net::host_id{static_cast<std::uint32_t>(i)};
  }
  size_ = keys.size();

  // Link level by level until every list is a singleton: the members of a
  // level-l list share an l-bit prefix; an element whose level-l list is a
  // singleton does not take part in level l+1.
  //
  // No hash maps: `active` is kept grouped by the current prefix (a stable
  // one-bit partition per level, radix style), so each level-l list is a
  // maximal run of equal masked bits — link adjacent run members, keep runs
  // of length >= 2, repartition by the next bit.
  std::vector<int> active(elems_.size());
  std::iota(active.begin(), active.end(), 0);
  std::vector<int> survivors, scratch;
  int level = 0;
  while (!active.empty() && level < util::max_levels) {
    const std::uint64_t mask =
        level == 64 ? ~std::uint64_t{0} : (std::uint64_t{1} << level) - 1;
    survivors.clear();
    const int* act = active.data();
    const std::size_t m = active.size();
    std::size_t i = 0;
    while (i < m) {
      const std::uint64_t p = elems_[static_cast<std::size_t>(act[i])].bits & mask;
      std::size_t j = i;
      int prev_in_run = -1;
      while (j < m) {
        const int e = act[j];
        if ((elems_[static_cast<std::size_t>(e)].bits & mask) != p) break;
        elems_[static_cast<std::size_t>(e)].prev.push_back(prev_in_run);
        elems_[static_cast<std::size_t>(e)].next.push_back(-1);
        if (prev_in_run >= 0) {
          elems_[static_cast<std::size_t>(prev_in_run)].next[static_cast<std::size_t>(level)] = e;
        }
        prev_in_run = e;
        ++j;
      }
      if (j - i >= 2) {
        survivors.insert(survivors.end(), active.begin() + static_cast<std::ptrdiff_t>(i),
                         active.begin() + static_cast<std::ptrdiff_t>(j));
      }
      i = j;
    }
    // Stable partition by the next membership bit: groups for level+1 become
    // contiguous while each keeps its key order.
    scratch.clear();
    for (const int s : survivors) {
      if (!util::membership_bit(elems_[static_cast<std::size_t>(s)].bits, level)) scratch.push_back(s);
    }
    for (const int s : survivors) {
      if (util::membership_bit(elems_[static_cast<std::size_t>(s)].bits, level)) scratch.push_back(s);
    }
    active.swap(scratch);
    ++level;
  }

  root_elem_.assign(net_->host_count(), -1);
  for (std::size_t h = 0; h < net_->host_count(); ++h) {
    root_elem_[h] = static_cast<int>(h % elems_.size());
    net_->charge(net::host_id{static_cast<std::uint32_t>(h)}, net::memory_kind::host_ref, 1);
  }
  for (int i = 0; i < element_count(); ++i) charge_element(i, +1);
}

void skip_graph::charge_element(int item, std::int64_t sign) {
  const auto& e = elem(item);
  net_->charge(e.host, net::memory_kind::item, sign);
  net_->charge(e.host, net::memory_kind::node, sign * e.height());
  net_->charge(e.host, net::memory_kind::host_ref, sign * 2 * e.height());
}

int skip_graph::max_height() const {
  int best = 0;
  for (const auto& e : elems_) {
    if (e.alive) best = std::max(best, e.height());
  }
  return best;
}

int skip_graph::root_for(net::host_id origin) const {
  SW_EXPECTS(origin.value < root_elem_.size());
  int item = root_elem_[origin.value];
  while (item >= 0 && !elems_[static_cast<std::size_t>(item)].alive) {
    item = elems_[static_cast<std::size_t>(item)].redirect;
  }
  if (item < 0) {
    for (int i = 0; i < element_count(); ++i) {
      if (elems_[static_cast<std::size_t>(i)].alive) {
        item = i;
        break;
      }
    }
  }
  SW_EXPECTS(item >= 0);
  return item;
}

std::pair<int, int> skip_graph::route(std::uint64_t q, net::host_id origin,
                                      net::cursor& cur) const {
  int item = root_for(origin);
  cur.move_to(elem(item).host);
  for (int l = elem(item).height() - 1; l >= 0; --l) {
    if (l >= elem(item).height()) continue;  // towers shrink as we move
    cur.note_comparisons();
    if (elem(item).key <= q) {
      for (;;) {
        const int nx = elem(item).next[static_cast<std::size_t>(l)];
        if (nx >= 0) cur.note_comparisons();
        if (nx < 0 || elem(nx).key > q) break;
        item = nx;
        cur.move_to(elem(item).host);
        if (l >= elem(item).height()) l = elem(item).height() - 1;
      }
    } else {
      for (;;) {
        const int pv = elem(item).prev[static_cast<std::size_t>(l)];
        if (pv >= 0) cur.note_comparisons();
        if (pv < 0 || elem(pv).key <= q) break;
        item = pv;
        cur.move_to(elem(item).host);
        if (l >= elem(item).height()) l = elem(item).height() - 1;
      }
    }
  }
  if (elem(item).key <= q) return {item, elem(item).next[0]};
  return {elem(item).prev[0], item};
}

api::nn_result skip_graph::nearest(std::uint64_t q, net::host_id origin) const {
  net::cursor cur(*net_, origin);
  const auto [pred, succ] = route(q, origin, cur);
  return api::nn_from_flanks(pred, succ, [this](int i) { return elem(i).key; }, cur);
}

api::op_stats skip_graph::insert(std::uint64_t key, net::host_id origin) {
  const net::structural_section sw_structural_guard(*net_);
  net::cursor cur(*net_, origin);
  const auto [pred0, succ0] = route(key, origin, cur);
  SW_EXPECTS(pred0 < 0 || elem(pred0).key != key);
  const auto bits = util::draw_membership(rng_);
  const int item = splice(key, bits, pred0, succ0, cur);
  after_link_change(item, cur);
  return api::op_stats::of(cur);
}

api::op_stats skip_graph::erase(std::uint64_t key, net::host_id origin) {
  const net::structural_section sw_structural_guard(*net_);
  SW_EXPECTS(size_ >= 2);
  net::cursor cur(*net_, origin);
  const auto [pred0, succ0] = route(key, origin, cur);
  (void)succ0;
  SW_EXPECTS(pred0 >= 0 && elem(pred0).key == key);
  after_link_change(pred0, cur);
  unsplice(pred0, cur);
  return api::op_stats::of(cur);
}

int skip_graph::splice(std::uint64_t key, util::membership_bits bits, int pred0, int succ0,
                       net::cursor& cur) {
  int idx;
  if (!free_.empty()) {
    idx = free_.back();
    free_.pop_back();
    elems_[static_cast<std::size_t>(idx)] = element{};
  } else {
    idx = element_count();
    elems_.emplace_back();
  }
  element& e = elems_[static_cast<std::size_t>(idx)];
  e.key = key;
  e.bits = bits;
  e.host = net_->add_host();
  root_elem_.push_back(idx);
  net_->charge(e.host, net::memory_kind::host_ref, 1);

  // Build the tower bottom-up: level-l neighbours are found by walking the
  // level-(l-1) list for the nearest element sharing one more prefix bit
  // (expected O(1) steps); the tower stops when it would be alone.
  int left = pred0, right = succ0;
  int l = 0;
  for (;;) {
    e.prev.push_back(left);
    e.next.push_back(right);
    if (left >= 0) {
      cur.move_to(elem(left).host);
      elems_[static_cast<std::size_t>(left)].next[static_cast<std::size_t>(l)] = idx;
    }
    if (right >= 0) {
      cur.move_to(elem(right).host);
      elems_[static_cast<std::size_t>(right)].prev[static_cast<std::size_t>(l)] = idx;
    }
    if (left < 0 && right < 0) break;  // alone: the tower ends here
    if (l + 1 >= util::max_levels) break;

    const auto target = util::prefix_of(bits, l + 1);
    int new_left = left;
    while (new_left >= 0 && (elem(new_left).height() <= l + 1 ||
                             util::prefix_of(elem(new_left).bits, l + 1) != target)) {
      const int pv = elem(new_left).prev[static_cast<std::size_t>(l)];
      if (pv >= 0) cur.move_to(elem(pv).host);
      new_left = pv;
    }
    int new_right;
    if (new_left >= 0) {
      new_right = elem(new_left).next[static_cast<std::size_t>(l + 1)];
    } else {
      new_right = right;
      while (new_right >= 0 && (elem(new_right).height() <= l + 1 ||
                                util::prefix_of(elem(new_right).bits, l + 1) != target)) {
        const int nx = elem(new_right).next[static_cast<std::size_t>(l)];
        if (nx >= 0) cur.move_to(elem(nx).host);
        new_right = nx;
      }
    }
    left = new_left;
    right = new_right;
    ++l;
  }
  ++size_;
  charge_element(idx, +1);
  return idx;
}

void skip_graph::unsplice(int item, net::cursor& cur) {
  element& e = elems_[static_cast<std::size_t>(item)];
  charge_element(item, -1);
  for (int l = 0; l < e.height(); ++l) {
    const int pv = e.prev[static_cast<std::size_t>(l)];
    const int nx = e.next[static_cast<std::size_t>(l)];
    if (pv >= 0) {
      cur.move_to(elem(pv).host);
      elems_[static_cast<std::size_t>(pv)].next[static_cast<std::size_t>(l)] = nx;
    }
    if (nx >= 0) {
      cur.move_to(elem(nx).host);
      elems_[static_cast<std::size_t>(nx)].prev[static_cast<std::size_t>(l)] = pv;
    }
    // A neighbour left alone at this level sheds the top of its tower.
    for (const int nb : {pv, nx}) {
      if (nb < 0) continue;
      element& n = elems_[static_cast<std::size_t>(nb)];
      while (n.height() > 1 && n.prev.back() < 0 && n.next.back() < 0) {
        n.prev.pop_back();
        n.next.pop_back();
        net_->charge(n.host, net::memory_kind::node, -1);
        net_->charge(n.host, net::memory_kind::host_ref, -2);
      }
    }
  }
  e.redirect = e.next[0] >= 0 ? e.next[0] : e.prev[0];
  e.alive = false;
  e.prev.clear();
  e.next.clear();
  free_.push_back(item);
  --size_;
}

void skip_graph::after_link_change(int item, net::cursor& cur) {
  (void)item;
  (void)cur;  // plain skip graphs have no extra tables to refresh
}

bool skip_graph::check_invariants() const {
  for (int i = 0; i < element_count(); ++i) {
    const auto& e = elems_[static_cast<std::size_t>(i)];
    if (!e.alive) continue;
    for (int l = 0; l < e.height(); ++l) {
      const int nx = e.next[static_cast<std::size_t>(l)];
      if (nx >= 0) {
        const auto& n = elems_[static_cast<std::size_t>(nx)];
        if (!n.alive || n.key <= e.key) return false;
        if (l >= n.height() || n.prev[static_cast<std::size_t>(l)] != i) return false;
        if (util::prefix_of(n.bits, l) != util::prefix_of(e.bits, l)) return false;
      }
      // Tower-stop rule: participating at level l+1 requires company at l.
      if (l + 1 < e.height() && e.prev[static_cast<std::size_t>(l)] < 0 &&
          e.next[static_cast<std::size_t>(l)] < 0) {
        return false;
      }
    }
  }
  return true;
}

}  // namespace skipweb::baselines
