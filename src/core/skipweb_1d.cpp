#include "core/skipweb_1d.h"

#include <algorithm>
#include <bit>
#include <sstream>

#include "core/routing_1d.h"
#include "persist/net_snapshot.h"
#include "util/radix_sort.h"
#include "util/prefetch.h"

namespace skipweb::core {

namespace {

std::vector<std::uint64_t> sorted_unique(std::vector<std::uint64_t> keys) {
  util::radix_sort_u64(keys);  // ~4x std::sort at bulk-build sizes
  SW_EXPECTS(std::adjacent_find(keys.begin(), keys.end()) == keys.end());
  return keys;
}

std::uint64_t mix(std::uint64_t a, std::uint64_t b) {
  return util::mix64(a * 0x9e3779b97f4a7c15ull + b + 0x2545f4914f6cdd1dull);
}

// The placement word, range-checked before the cast.
skipweb_1d::placement placement_in(const persist::reader& r) {
  const auto p = r.u64("impl.policy");
  if (p > 2) throw persist::error("snapshot: unknown placement policy");
  return static_cast<skipweb_1d::placement>(p);
}

}  // namespace

level_lists skipweb_1d::make_lists(std::vector<std::uint64_t> keys, util::rng& r) {
  auto sorted = sorted_unique(std::move(keys));
  SW_EXPECTS(!sorted.empty());
  const int levels = util::levels_for(std::max<std::size_t>(sorted.size(), 2));
  return level_lists(std::move(sorted), r, levels);
}

skipweb_1d::skipweb_1d(std::vector<std::uint64_t> keys, std::uint64_t seed, net::network& net,
                       placement p, std::size_t replication)
    : rng_(seed), lists_(make_lists(std::move(keys), rng_)), net_(&net), policy_(p) {
  SW_EXPECTS(policy_ != placement::bucket);  // the bucket constructor carries M
  if (policy_ == placement::tower) {
    // One host per item; grow the network if the caller sized it smaller.
    if (net_->host_count() < lists_.size()) net_->add_hosts(lists_.size() - net_->host_count());
    owner_.resize(lists_.arena_size());
    for (std::size_t i = 0; i < lists_.arena_size(); ++i) {
      owner_[i] = net::host_id{static_cast<std::uint32_t>(i)};
    }
    // Successor/predecessor replica lists (tower placement only — see the
    // header). Installed before the memory ledger pass so the replica
    // host_refs are charged alongside the rest of each item's footprint.
    if (replication > 0) lists_.set_replication(replication);
  }
  finish_build();
}

skipweb_1d::skipweb_1d(std::vector<std::uint64_t> keys, std::uint64_t seed, net::network& net,
                       bucket b)
    : rng_(seed),
      lists_(make_lists(std::move(keys), rng_)),
      net_(&net),
      policy_(placement::bucket) {
  SW_EXPECTS(b.M >= 4);
  set_bucket_memory(b.M);
  // Basic levels every L, but never so high that the basic-level lists are
  // expected to be shorter than a run (n / 2^i >= B): tiny fragmented runs
  // would waste hosts and break the H <= c n log n / M budget. The top
  // stratum simply absorbs the remaining levels; its cone height stays
  // below 2L, so per-host memory remains Theta(M).
  int top_basic = 0;
  while ((std::size_t{1} << (top_basic + L_)) * B_ <= lists_.size()) top_basic += L_;
  strata_ = top_basic / L_ + 1;
  place_runs();
  finish_build();
}

void skipweb_1d::finish_build() {
  // Every host gets a root: an anchor item whose tower top seeds searches
  // (paper §1.1: "each host has a reference to the place where any search
  // from that host should begin").
  root_item_.assign(net_->host_count(), -1);
  for (std::size_t h = 0; h < net_->host_count(); ++h) {
    root_item_[h] = static_cast<int>(h % lists_.arena_size());
    net_->charge(net::host_id{static_cast<std::uint32_t>(h)}, net::memory_kind::host_ref, 1);
  }
  // Register the structure in the memory ledger.
  for (int i = 0; i < static_cast<int>(lists_.arena_size()); ++i) charge_item_memory(i, +1);
}

void skipweb_1d::set_bucket_memory(std::size_t M) {
  M_ = M;
  L_ = static_cast<int>(std::bit_width(M - 1));  // ceil(log2 M)
  B_ = std::max<std::size_t>(2, M / static_cast<std::size_t>(L_));
}

void skipweb_1d::restore_bucket_geometry(std::uint64_t M, std::uint64_t strata) {
  if (M < 4) throw persist::error("snapshot: bucket memory target below 4");
  set_bucket_memory(M);
  // Basic level (strata - 1)·L must be one of the lists' levels.
  if (strata == 0 || strata - 1 > static_cast<std::uint64_t>(lists_.levels() / L_)) {
    throw persist::error("snapshot: bucket strata disagree with the level count");
  }
  strata_ = static_cast<int>(strata);
}

void skipweb_1d::place_runs() {
  owner_.assign(lists_.arena_size() * static_cast<std::size_t>(strata_), net::host_id{});
  // For each stratum, walk every basic-level list head to tail and cut it
  // into runs of B consecutive items; one fresh host per run.
  for (int s = 0; s < strata_; ++s) {
    const int bl = s * L_;
    for (int i = 0; i < static_cast<int>(lists_.arena_size()); ++i) {
      if (!lists_.alive(i) || lists_.prev(i, bl) >= 0) continue;
      net::host_id host;
      std::size_t in_run = B_;
      for (int x = i; x >= 0; x = lists_.next(x, bl)) {
        if (in_run == B_) {
          host = net_->add_host();
          in_run = 0;
        }
        owner_at(x, s) = host;
        ++in_run;
      }
    }
  }
}

skipweb_1d::skipweb_1d(persist::reader& r, net::network& net)
    : rng_(0), lists_(r, "lists"), net_(&net), policy_(placement_in(r)) {
  std::istringstream iss(r.str("impl.rng"));
  iss >> rng_.engine();
  if (!iss) throw persist::error("snapshot: unreadable rng state");
  if (policy_ == placement::bucket) {
    std::size_t n = 0;
    const auto* geometry = r.array<std::uint64_t>("impl.bucket", n);
    if (n != 2) throw persist::error("snapshot: bucket geometry malformed");
    restore_bucket_geometry(geometry[0], geometry[1]);
  }
  owner_ = r.pods<net::host_id>("impl.owner");
  if (policy_ != placement::balanced &&
      owner_.size() != lists_.arena_size() * static_cast<std::size_t>(strata_)) {
    throw persist::error("snapshot: owner table disagrees with arena size");
  }
  root_item_ = r.pods<int>("impl.root_item");
  // Adopting the ledger grows the fresh network to the saved host count, so
  // root_for's per-host table lines up again after the check below.
  persist::restore_network(r, net, "net");
  if (root_item_.size() != net_->host_count()) {
    throw persist::error("snapshot: root table disagrees with host count");
  }
}

void skipweb_1d::save_snapshot(persist::writer& w) const {
  lists_.save(w, "lists");
  w.add_u64("impl.policy", static_cast<std::uint64_t>(policy_));
  // mt19937_64's full 2.5KB state round-trips through its stream operators.
  std::ostringstream oss;
  oss << rng_.engine();
  w.add_string("impl.rng", oss.str());
  if (policy_ == placement::bucket) {
    const std::uint64_t geometry[2] = {M_, static_cast<std::uint64_t>(strata_)};
    w.add_array("impl.bucket", geometry, 2);
  }
  w.add_pods("impl.owner", owner_);
  w.add_pods("impl.root_item", root_item_);
  persist::save_network(w, *net_, "net");
}

void skipweb_1d::compact() {
  lists_.compact();
  owner_.shrink_to_fit();
  root_item_.shrink_to_fit();
}

void skipweb_1d::prefetch_host(int item) const {
  if (policy_ == placement::tower) {
    util::prefetch(&owner_[static_cast<std::size_t>(item)]);
  } else if (policy_ == placement::bucket) {
    util::prefetch(&owner_at(item, 0));
  }
}

net::host_id skipweb_1d::host_of(int item, int level) const {
  if (policy_ == placement::tower) return owner_[static_cast<std::size_t>(item)];
  if (policy_ == placement::bucket) return owner_at(item, std::min(level / L_, strata_ - 1));
  return net::host_id{
      static_cast<std::uint32_t>(mix(lists_.uid(item), static_cast<std::uint64_t>(level)) %
                                 net_->host_count())};
}

int skipweb_1d::root_for(net::host_id origin) const {
  SW_EXPECTS(origin.value < root_item_.size());
  // A deleted anchor leaves a redirect to its old successor; follow it (the
  // replacement pointer handed over when the anchor's owner left). A chain
  // that ends, or that a hostile snapshot bent out of the arena, falls back
  // to any live item: every live tower is a valid entry point.
  int item = lists_.follow_redirects(root_item_[origin.value]);
  if (item < 0) item = lists_.any_alive();
  SW_EXPECTS(item >= 0);
  return item;
}

int skipweb_1d::enter(net::cursor& cur, net::host_id origin) const {
  // Try the origin's own root tower first, then successive hosts' roots —
  // with replicas each unreachable entry tower costs one timed-out probe.
  // At a dead fraction f the expected number of probes is 1/(1-f).
  const std::size_t hosts = root_item_.size();
  for (std::size_t attempt = 0; attempt < hosts; ++attempt) {
    const int item =
        root_for(net::host_id{static_cast<std::uint32_t>((origin.value + attempt) % hosts)});
    const auto top = host_of(item, lists_.levels());
    if (lists_.replication() == 0) {
      cur.move_to(top);
      return item;
    }
    if (cur.try_move_to(top)) return item;
  }
  cur.mark_failed();  // no live entry tower found from any host's root
  return lists_.any_alive();
}

std::pair<int, int> skipweb_1d::route(std::uint64_t q, net::cursor& cur,
                                      net::host_id origin) const {
  const int root = enter(cur, origin);
  return route_search(lists_, q, root, lists_.levels(), cur,
                      [this](int i, int l) { return host_of(i, l); },
                      [this](int i) { prefetch_host(i); });
}

api::nn_result skipweb_1d::answer(std::pair<int, int> flanks, const net::cursor& cur) const {
  return api::nn_from_flanks(flanks.first, flanks.second, [this](int i) { return lists_.key(i); },
                             cur);
}

api::nn_result skipweb_1d::nearest(std::uint64_t q, net::host_id origin) const {
  net::cursor cur(*net_, origin);
  const auto flanks = route(q, cur, origin);
  return answer(flanks, cur);
}

std::vector<api::nn_result> skipweb_1d::nearest_batch(const std::vector<std::uint64_t>& qs,
                                                      net::host_id origin) const {
  std::vector<api::nn_result> out(qs.size());
  if (qs.empty()) return out;
  if (fault_routing() || net_->adaptive_routing_active()) {
    // The interleaved router is neither replica- nor deadline-aware; the
    // batch == serial receipt contract is preserved by simply running
    // serially under faults, per-op deadlines or slow-host detours. (Pure
    // latency accumulation needs no gate: draw serials are cursor-private,
    // so the interleaved walk prices hops identically to the serial one.)
    for (std::size_t i = 0; i < qs.size(); ++i) out[i] = nearest(qs[i], origin);
    return out;
  }
  const int root = root_for(origin);
  const std::size_t lanes = std::min(batch_lanes, qs.size());
  std::vector<net::cursor> curs;
  curs.reserve(lanes);
  std::vector<std::pair<int, int>> flanks(lanes);
  const auto serve = [&](const auto& host, const auto& prefetch_owner) {
    for (std::size_t base = 0; base < qs.size(); base += batch_lanes) {
      const std::size_t count = std::min(batch_lanes, qs.size() - base);
      curs.clear();
      for (std::size_t i = 0; i < count; ++i) {
        curs.emplace_back(*net_, origin);
        curs.back().move_to(host(root, lists_.levels()));
      }
      route_search_batch(lists_, qs.data() + base, count, root, lists_.levels(), curs.data(),
                         flanks.data(), host, prefetch_owner);
      for (std::size_t i = 0; i < count; ++i) out[base + i] = answer(flanks[i], curs[i]);
    }
  };
  // The tower rule inlined into the hop loop (the placement perfbench's
  // lookup_1m serves): it reads the owner table through a pointer captured
  // by value, so the compiler need not reload it after the cursor's writes,
  // and it reads owner_, because a recycled arena slot has a fresh host, not
  // the one numbered after it. The other placements call host_of.
  if (policy_ == placement::tower) {
    const net::host_id* owner = owner_.data();
    serve([owner](int i, int) { return owner[static_cast<std::size_t>(i)]; },
          [owner](int i) { util::prefetch(owner + static_cast<std::size_t>(i)); });
  } else {
    serve([this](int i, int l) { return host_of(i, l); }, [this](int i) { prefetch_host(i); });
  }
  return out;
}

api::op_result<bool> skipweb_1d::contains(std::uint64_t q, net::host_id origin) const {
  const auto r = nearest(q, origin);
  return {r.has_pred && r.pred == q, r.stats};
}

api::op_result<std::vector<std::uint64_t>> skipweb_1d::range(std::uint64_t lo, std::uint64_t hi,
                                                             net::host_id origin,
                                                             std::size_t limit) const {
  SW_EXPECTS(lo <= hi);
  net::cursor cur(*net_, origin);
  const auto [pred, succ] = route(lo, cur, origin);
  api::op_result<std::vector<std::uint64_t>> out;
  // Walk the base list, checking each item against hi, the limit and the
  // deadline before hopping to it. first_live steps over dead runs (one
  // timed-out probe per dead candidate; a run longer than k marks the op
  // failed and ends the sweep with the keys gathered so far).
  int item = (pred >= 0 && lists_.key(pred) == lo) ? pred : succ;
  while (item >= 0 && lists_.key(item) <= hi) {
    if (limit != 0 && out.value.size() >= limit) break;
    // Deadline plane: give up mid-sweep, returning the keys gathered so far
    // as a degraded (honest-prefix) answer. The >= lo guard keeps the prefix
    // honest even when the descent itself gave up short of lo.
    if (cur.give_up()) break;
    cur.move_to(host_of(item, 0));
    if (lists_.key(item) >= lo) out.value.push_back(lists_.key(item));
    item = first_live(lists_, item, /*fwd=*/true, cur,
                      [this](int i, int l) { return host_of(i, l); });
  }
  out.stats = api::op_stats::of(cur);
  return out;
}

api::op_stats skipweb_1d::insert(std::uint64_t key, net::host_id origin) {
  const net::structural_section sw_structural_guard(*net_);
  // Structural edits require a repaired structure (no dead item still
  // spliced): a replicated route returns LIVE flanks, and splice_in needs
  // the direct ones — after repair they coincide.
  SW_EXPECTS(!needs_repair());
  net::cursor cur(*net_, origin);
  const auto [pred0, succ0] = route(key, cur, origin);
  SW_EXPECTS(pred0 < 0 || lists_.key(pred0) != key);  // duplicate keys rejected

  const auto bits = util::draw_membership(rng_);
  const auto nbrs = find_insert_neighbors(lists_, bits, pred0, succ0, cur,
                                          [this](int i, int l) { return host_of(i, l); });

  const int item = lists_.splice_in(key, bits, nbrs);
  if (policy_ == placement::bucket) {
    const std::size_t slots = lists_.arena_size() * static_cast<std::size_t>(strata_);
    if (owner_.size() < slots) owner_.resize(slots, net::host_id{});
    // One join (and expected-O(1) pointer repairs) per stratum: this is
    // where the O(log n / log log n) update bound comes from — messages go
    // to basic levels only, non-basic cone updates ride along on the run's
    // host.
    for (int s = 0; s < strata_; ++s) join_run(item, s, cur);
    return api::op_stats::of(cur);
  }
  if (policy_ == placement::tower) {
    // The new item's tower gets its own fresh host, which also seeds its
    // searches at the new item.
    const auto fresh = net_->add_host();
    if (owner_.size() < lists_.arena_size()) owner_.resize(lists_.arena_size(), net::host_id{});
    owner_[static_cast<std::size_t>(item)] = fresh;
    root_item_.push_back(item);
    net_->charge(fresh, net::memory_kind::host_ref, 1);
  }

  // Place the new nodes and update both flanking nodes per level: visiting
  // the new node's host and any remote neighbours is what §4's bottom-up
  // repair costs.
  for (int l = 0; l <= lists_.levels(); ++l) {
    cur.move_to(host_of(item, l));
    const auto [left, right] = nbrs[static_cast<std::size_t>(l)];
    if (left >= 0) cur.move_to(host_of(left, l));
    if (right >= 0) cur.move_to(host_of(right, l));
  }
  // Replica maintenance (replication k > 0): the k nearest neighbours on
  // each side refreshed their successor/predecessor lists — one visit each.
  charge_replica_refresh(cur, lists_.prev(item, 0), lists_.next(item, 0));
  charge_item_memory(item, +1);
  return api::op_stats::of(cur);
}

api::op_stats skipweb_1d::erase(std::uint64_t key, net::host_id origin) {
  const net::structural_section sw_structural_guard(*net_);
  SW_EXPECTS(lists_.size() >= 2);  // the structure never becomes empty
  SW_EXPECTS(!needs_repair());     // see insert
  net::cursor cur(*net_, origin);
  const int item = route(key, cur, origin).first;
  SW_EXPECTS(item >= 0 && lists_.key(item) == key);  // key must be present

  if (policy_ == placement::bucket) {
    // Neighbour pointer repairs at each basic level, then the item leaves
    // that stratum's run: one message to the run's host.
    for (int s = 0; s < strata_; ++s) {
      const int bl = s * L_;
      const int pv = lists_.prev(item, bl);
      const int nx = lists_.next(item, bl);
      if (pv >= 0) cur.move_to(host_of(pv, bl));
      if (nx >= 0) cur.move_to(host_of(nx, bl));
      const auto host = owner_at(item, s);
      cur.move_to(host);
      charge_stratum(s, host, -1);
    }
    lists_.unsplice(item);
    return api::op_stats::of(cur);
  }
  // Unsplice level by level, visiting the node and its remote neighbours.
  for (int l = 0; l <= lists_.levels(); ++l) {
    cur.move_to(host_of(item, l));
    const int pv = lists_.prev(item, l);
    const int nx = lists_.next(item, l);
    if (pv >= 0) cur.move_to(host_of(pv, l));
    if (nx >= 0) cur.move_to(host_of(nx, l));
  }
  const int pv0 = lists_.prev(item, 0);
  const int nx0 = lists_.next(item, 0);
  charge_item_memory(item, -1);
  lists_.unsplice(item);
  // Survivors flanking the removal refreshed their replica lists.
  charge_replica_refresh(cur, pv0, nx0);
  return api::op_stats::of(cur);
}

void skipweb_1d::charge_replica_refresh(net::cursor& cur, int left0, int right0) {
  const std::size_t k = lists_.replication();
  if (k == 0) return;
  // Rows reach neighbours up to distance k+1, so k+1 items per side refresh
  // (mirrors level_lists::unsplice / rebuild_replicas_around).
  int s = left0;
  for (std::size_t j = 0; j <= k && s >= 0; ++j, s = lists_.prev(s, 0)) {
    (void)cur.try_move_to(host_of(s, 0));  // dead neighbours cost the probe only
  }
  s = right0;
  for (std::size_t j = 0; j <= k && s >= 0; ++j, s = lists_.next(s, 0)) {
    (void)cur.try_move_to(host_of(s, 0));
  }
}

bool skipweb_1d::needs_repair() const {
  if (lists_.replication() == 0 || !net_->faults_active()) return false;
  for (int i = 0; i < static_cast<int>(lists_.arena_size()); ++i) {
    if (lists_.alive(i) && !net_->host_alive(owner_[static_cast<std::size_t>(i)])) return true;
  }
  return false;
}

api::op_result<std::size_t> skipweb_1d::repair_step(net::host_id origin) {
  SW_EXPECTS(lists_.replication() > 0);  // repair is part of the replication plane
  const net::structural_section sw_structural_guard(*net_);
  // Repair is driven from a live host (the daemon runs somewhere alive).
  net::cursor cur(*net_, net_->host_alive(origin) ? origin : net_->any_live_host(origin));
  for (int i = 0; i < static_cast<int>(lists_.arena_size()); ++i) {
    if (!lists_.alive(i)) continue;
    const auto owner = owner_[static_cast<std::size_t>(i)];
    if (net_->host_alive(owner)) continue;
    SW_EXPECTS(lists_.size() >= 2);  // the structure never becomes empty
    // The failed ping that detected the crash.
    (void)cur.try_move_to(owner);
    // Relink every level around the dead item, visiting each surviving
    // neighbour (dead neighbours — not yet repaired themselves — cost the
    // detection probe only; their own step removes them later, and
    // unsplicing in any order keeps the lists consistent).
    for (int l = 0; l <= lists_.levels(); ++l) {
      const int pv = lists_.prev(i, l);
      const int nx = lists_.next(i, l);
      if (pv >= 0) (void)cur.try_move_to(host_of(pv, l));
      if (nx >= 0) (void)cur.try_move_to(host_of(nx, l));
    }
    const int pv0 = lists_.prev(i, 0);
    const int nx0 = lists_.next(i, 0);
    charge_item_memory(i, -1);
    lists_.unsplice(i);
    charge_replica_refresh(cur, pv0, nx0);
    return {1, api::op_stats::of(cur)};
  }
  return {0, api::op_stats::of(cur)};
}

void skipweb_1d::charge_item_memory(int item, std::int64_t sign) {
  // Per level node: the node itself, prev/next remote references, and the
  // hyperlink to the same item's node one level down (paper §2.3). The data
  // item lives with the level-0 node, alongside its replica lists (k further
  // host references per direction) when replication is on.
  if (policy_ == placement::bucket) {
    for (int s = 0; s < strata_; ++s) charge_stratum(s, owner_at(item, s), sign);
    return;
  }
  const auto k = static_cast<std::int64_t>(lists_.replication());
  if (policy_ == placement::tower) {
    // Tower placement maps every level of an item to the same host, so the
    // whole tower's ledger entries collapse into one charge per kind — the
    // bulk build registers n items in a row and the per-level loop (42
    // ledger calls per item at n = 1M) was a measurable slice of its wall
    // clock.
    const auto h = host_of(item, 0);
    const auto tower = static_cast<std::int64_t>(lists_.levels()) + 1;
    net_->charge(h, net::memory_kind::node, tower * sign);
    net_->charge(h, net::memory_kind::host_ref, (3 * tower + 2 * k) * sign);
    net_->charge(h, net::memory_kind::item, sign);
    return;
  }
  for (int l = 0; l <= lists_.levels(); ++l) {
    const auto h = host_of(item, l);
    net_->charge(h, net::memory_kind::node, sign);
    net_->charge(h, net::memory_kind::host_ref, 3 * sign);
  }
  net_->charge(host_of(item, 0), net::memory_kind::item, sign);
  if (k > 0) net_->charge(host_of(item, 0), net::memory_kind::host_ref, 2 * k * sign);
}

void skipweb_1d::charge_stratum(int s, net::host_id host, std::int64_t sign) {
  // Stratum s spans levels s·L up to the next basic level; the top stratum
  // absorbs every level above its basic one.
  const int lo = s * L_;
  const int hi = s + 1 < strata_ ? lo + L_ - 1 : lists_.levels();
  const std::int64_t height = hi - lo + 1;
  net_->charge(host, net::memory_kind::node, height * sign);
  net_->charge(host, net::memory_kind::host_ref, 3 * height * sign);
  if (s == 0) net_->charge(host, net::memory_kind::item, sign);
}

void skipweb_1d::join_run(int item, int s, net::cursor& cur) {
  const int bl = s * L_;
  const int left = lists_.prev(item, bl);
  const int right = lists_.next(item, bl);
  net::host_id host;
  if (left >= 0) {
    host = owner_at(left, s);
  } else if (right >= 0) {
    host = owner_at(right, s);
  } else {
    // First member of a brand-new basic-level list: a fresh run and host.
    host = net_->add_host();
    root_item_.push_back(item);
    net_->charge(host, net::memory_kind::host_ref, 1);
  }
  cur.move_to(host);  // the join itself: one message to the run's host
  owner_at(item, s) = host;
  charge_stratum(s, host, +1);

  // The run is the maximal stretch of `host` in this basic-level list.
  int head = item;
  for (int pv = lists_.prev(head, bl); pv >= 0 && owner_at(pv, s) == host;
       pv = lists_.prev(head, bl)) {
    head = pv;
  }
  std::size_t run = 0;
  int tail = head;
  for (int x = head; x >= 0 && owner_at(x, s) == host; x = lists_.next(x, bl)) {
    tail = x;
    ++run;
  }
  if (run <= 2 * B_) return;
  // Split: the upper half moves to a fresh host. O(1) messages here; the
  // bulk state transfer is amortized against the B inserts that filled the
  // run (paper §4).
  const auto fresh = net_->add_host();
  root_item_.push_back(tail);
  net_->charge(fresh, net::memory_kind::host_ref, 1);
  int x = head;
  for (std::size_t k = 0; k < run / 2; ++k) x = lists_.next(x, bl);
  for (std::size_t k = run / 2; k < run; ++k, x = lists_.next(x, bl)) {
    owner_at(x, s) = fresh;
    charge_stratum(s, host, -1);
    charge_stratum(s, fresh, +1);
  }
  cur.move_to(fresh);  // hand-off message to the new run's host
}

std::size_t skipweb_1d::live_block_count() const {
  std::size_t runs = 0;
  for (int s = 0; s < strata_; ++s) {
    const int bl = s * L_;
    for (int i = 0; i < static_cast<int>(lists_.arena_size()); ++i) {
      if (!lists_.alive(i)) continue;
      const int pv = lists_.prev(i, bl);
      runs += pv < 0 || owner_at(pv, s) != owner_at(i, s) ? 1 : 0;  // i heads a run
    }
  }
  return runs;
}

bool skipweb_1d::check_block_invariants() const {
  std::vector<bool> owns_run(net_->host_count(), false);
  for (int s = 0; s < strata_; ++s) {
    const int bl = s * L_;
    for (int i = 0; i < static_cast<int>(lists_.arena_size()); ++i) {
      if (!lists_.alive(i)) continue;
      const auto host = owner_at(i, s);
      const int pv = lists_.prev(i, bl);
      if (pv >= 0 && owner_at(pv, s) == host) continue;  // inside a run
      // i heads a run: its host owns no other run, and it holds [1, 2B] items.
      if (host.value >= owns_run.size() || owns_run[host.value]) return false;
      owns_run[host.value] = true;
      std::size_t run = 0;
      for (int x = i; x >= 0 && owner_at(x, s) == host; x = lists_.next(x, bl)) ++run;
      if (run > 2 * B_) return false;
    }
  }
  return true;
}

}  // namespace skipweb::core
