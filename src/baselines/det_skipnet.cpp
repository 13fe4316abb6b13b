#include "baselines/det_skipnet.h"

#include <algorithm>

#include "core/routing_1d.h"
#include "util/prefetch.h"
#include "util/sw_assert.h"

namespace skipweb::baselines {

namespace {

// The lists over sorted `keys` with rank vectors: the membership vector of
// sorted rank r is r itself. Level-l lists group elements by the low l bits
// of their vector, so list c at level l holds exactly the ranks ≡ c (mod
// 2^l) — every 2^l-th element, a perfect skip list with worst-case
// O(log n) search.
std::unique_ptr<core::level_lists> rank_lists(std::vector<std::uint64_t> keys) {
  std::vector<util::membership_bits> bits(keys.size());
  for (std::size_t r = 0; r < keys.size(); ++r) bits[r] = r;
  const int levels = std::max(1, util::levels_for(keys.size()));
  return std::make_unique<core::level_lists>(std::move(keys), bits, levels);
}

}  // namespace

det_skipnet::det_skipnet(std::vector<std::uint64_t> keys, net::network& net) : net_(&net) {
  std::sort(keys.begin(), keys.end());
  SW_EXPECTS(!keys.empty());
  SW_EXPECTS(std::adjacent_find(keys.begin(), keys.end()) == keys.end());
  while (net_->host_count() < keys.size()) net_->add_host();

  lists_ = rank_lists(std::move(keys));

  owner_.resize(lists_->arena_size());
  for (std::size_t i = 0; i < owner_.size(); ++i) {
    owner_[i] = net::host_id{static_cast<std::uint32_t>(i)};
  }
  root_item_.assign(net_->host_count(), -1);
  for (std::size_t h = 0; h < net_->host_count(); ++h) {
    root_item_[h] = static_cast<int>(h % lists_->arena_size());
    net_->charge(net::host_id{static_cast<std::uint32_t>(h)}, net::memory_kind::host_ref, 1);
  }
  node_charge_ = lists_->levels() + 1;
  for (int i = 0; i < static_cast<int>(lists_->arena_size()); ++i) {
    const auto h = owner_[static_cast<std::size_t>(i)];
    net_->charge(h, net::memory_kind::item, 1);
    net_->charge(h, net::memory_kind::node, node_charge_);
    net_->charge(h, net::memory_kind::host_ref, 2 * node_charge_);
  }
}

net::host_id det_skipnet::host_of(int item, int level) const {
  (void)level;  // towers live whole on their owner host
  return owner_[static_cast<std::size_t>(item)];
}

int det_skipnet::root_for(net::host_id origin) const {
  SW_EXPECTS(origin.value < root_item_.size());
  int item = lists_->follow_redirects(root_item_[origin.value]);
  if (item < 0) item = lists_->any_alive();
  SW_EXPECTS(item >= 0);
  return item;
}

api::nn_result det_skipnet::nearest(std::uint64_t q, net::host_id origin) const {
  net::cursor cur(*net_, origin);
  const int root = root_for(origin);
  cur.move_to(host_of(root, lists_->levels()));
  const auto [pred, succ] = core::route_search(
      *lists_, q, root, lists_->levels(), cur, [this](int i, int l) { return host_of(i, l); },
      [this](int i) { util::prefetch(&owner_[static_cast<std::size_t>(i)]); });
  return api::nn_from_flanks(pred, succ, [this](int i) { return lists_->key(i); }, cur);
}

std::uint64_t det_skipnet::worst_case_search_messages() const {
  std::uint64_t worst = 0;
  for (int i = 0; i < static_cast<int>(lists_->arena_size()); ++i) {
    if (!lists_->alive(i)) continue;
    const auto r = nearest(lists_->key(i), net::host_id{0});
    worst = std::max(worst, r.stats.messages);
  }
  return worst;
}

api::op_stats det_skipnet::insert(std::uint64_t key, net::host_id origin) {
  const net::structural_section sw_structural_guard(*net_);
  net::cursor cur(*net_, origin);
  const int root = root_for(origin);
  cur.move_to(host_of(root, lists_->levels()));
  auto host_fn = [this](int i, int l) { return host_of(i, l); };
  const auto [pred0, succ0] = core::route_search(
      *lists_, key, root, lists_->levels(), cur, host_fn,
      [this](int i) { util::prefetch(&owner_[static_cast<std::size_t>(i)]); });
  SW_EXPECTS(pred0 < 0 || lists_->key(pred0) != key);

  // Deterministic drift splice: adopt the predecessor's vector (successor's
  // when inserting at the front) so every level list stays sorted.
  const auto bits = pred0 >= 0 ? lists_->bits(pred0) : lists_->bits(succ0);
  const auto nbrs = core::find_insert_neighbors(*lists_, bits, pred0, succ0, cur, host_fn);
  const int item = lists_->splice_in(key, bits, nbrs);

  const auto fresh = net_->add_host();
  if (owner_.size() < lists_->arena_size()) owner_.resize(lists_->arena_size());
  owner_[static_cast<std::size_t>(item)] = fresh;
  root_item_.push_back(item);
  net_->charge(fresh, net::memory_kind::host_ref, 1);
  net_->charge(fresh, net::memory_kind::item, 1);
  net_->charge(fresh, net::memory_kind::node, node_charge_);
  net_->charge(fresh, net::memory_kind::host_ref, 2 * node_charge_);

  auto stats = api::op_stats::of(cur);
  if (++updates_since_rebuild_ > lists_->size() / 2) {
    // Bulk re-vectoring traffic: one message (and visit) per surviving host.
    stats.messages += static_cast<std::uint64_t>(lists_->size());
    stats.host_visits += static_cast<std::uint64_t>(lists_->size());
    rebuild();
  }
  return stats;
}

api::op_stats det_skipnet::erase(std::uint64_t key, net::host_id origin) {
  const net::structural_section sw_structural_guard(*net_);
  SW_EXPECTS(lists_->size() >= 2);
  net::cursor cur(*net_, origin);
  const int root = root_for(origin);
  cur.move_to(host_of(root, lists_->levels()));
  auto host_fn = [this](int i, int l) { return host_of(i, l); };
  const auto [pred0, succ0] = core::route_search(
      *lists_, key, root, lists_->levels(), cur, host_fn,
      [this](int i) { util::prefetch(&owner_[static_cast<std::size_t>(i)]); });
  (void)succ0;
  SW_EXPECTS(pred0 >= 0 && lists_->key(pred0) == key);
  for (int l = 0; l <= lists_->levels(); ++l) {
    const int pv = lists_->prev(pred0, l);
    const int nx = lists_->next(pred0, l);
    if (pv >= 0) cur.move_to(host_of(pv, l));
    if (nx >= 0) cur.move_to(host_of(nx, l));
  }
  const auto h = owner_[static_cast<std::size_t>(pred0)];
  net_->charge(h, net::memory_kind::item, -1);
  net_->charge(h, net::memory_kind::node, -node_charge_);
  net_->charge(h, net::memory_kind::host_ref, -2 * node_charge_);
  lists_->unsplice(pred0);

  auto stats = api::op_stats::of(cur);
  if (++updates_since_rebuild_ > lists_->size() / 2) {
    stats.messages += static_cast<std::uint64_t>(lists_->size());
    stats.host_visits += static_cast<std::uint64_t>(lists_->size());
    rebuild();
  }
  return stats;
}

void det_skipnet::rebuild() {
  // Re-derive perfect rank vectors for the surviving keys; owners keep their
  // items, only the level links are re-laid.
  std::vector<std::pair<std::uint64_t, net::host_id>> survivors;
  for (int i = 0; i < static_cast<int>(lists_->arena_size()); ++i) {
    if (lists_->alive(i)) survivors.emplace_back(lists_->key(i), owner_[static_cast<std::size_t>(i)]);
  }
  std::sort(survivors.begin(), survivors.end());
  std::vector<std::uint64_t> keys;
  keys.reserve(survivors.size());
  for (const auto& [k, h] : survivors) keys.push_back(k);
  lists_ = rank_lists(std::move(keys));
  owner_.resize(lists_->arena_size());
  for (std::size_t i = 0; i < survivors.size(); ++i) owner_[i] = survivors[i].second;
  // Root anchors simply point at fresh arena slots again.
  for (std::size_t h = 0; h < root_item_.size(); ++h) {
    root_item_[h] = static_cast<int>(h % lists_->arena_size());
  }
  updates_since_rebuild_ = 0;
}

}  // namespace skipweb::baselines
