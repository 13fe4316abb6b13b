#include "core/skip_trapmap.h"

#include <algorithm>
#include <cmath>

#include "util/sw_assert.h"

namespace skipweb::core {

skip_trapmap::skip_trapmap(const std::vector<seq::segment>& segs, double xmin, double xmax,
                           double ymin, double ymax, std::uint64_t seed, net::network& net)
    : net_(&net),
      rng_(seed),
      segment_count_(segs.size()),
      xmin_(xmin),
      xmax_(xmax),
      ymin_(ymin),
      ymax_(ymax) {
  SW_EXPECTS(!segs.empty());
  levels_ = util::levels_for(segs.size());
  maps_.resize(static_cast<std::size_t>(levels_) + 1);
  seg_bits_.reserve(segs.size());
  for (auto s : segs) {
    if (s.x1 > s.x2) {
      std::swap(s.x1, s.x2);
      std::swap(s.y1, s.y2);
    }
    seg_bits_.emplace_back(s, util::draw_membership(rng_));
  }

  for (int l = 0; l <= levels_; ++l) {
    std::unordered_map<std::uint64_t, std::vector<seq::segment>> groups;
    for (const auto& [seg, bits] : seg_bits_) {
      groups[util::prefix_of(bits, l).bits].push_back(seg);
    }
    for (auto& [prefix, members] : groups) {
      level_map lm{seq::trapmap(members, xmin_, xmax_, ymin_, ymax_), std::move(members), {}};
      maps_[static_cast<std::size_t>(l)].emplace(prefix, std::move(lm));
    }
  }

  // Conflict hyperlinks: every map's trapezoids against the parent-level map
  // of its own prefix chain (Lemma 5: expected O(1) per trapezoid).
  for (int l = 1; l <= levels_; ++l) {
    for (auto& [prefix, lm] : maps_[static_cast<std::size_t>(l)]) {
      (void)lm;
      refresh_conflicts(l, prefix);
    }
  }

  for (int l = 0; l <= levels_; ++l) {
    for (const auto& [prefix, lm] : maps_[static_cast<std::size_t>(l)]) {
      charge_map_nodes(l, prefix, lm, +1);
    }
  }

  anchors_.reserve(net_->host_count());
  for (std::size_t h = 0; h < net_->host_count(); ++h) {
    anchors_.push_back(seg_bits_[h % seg_bits_.size()].second);
    net_->charge(net::host_id{static_cast<std::uint32_t>(h)}, net::memory_kind::host_ref, 1);
  }
}

const seq::trapmap& skip_trapmap::ground() const { return maps_[0].begin()->second.map; }

net::host_id skip_trapmap::host_of(int level, std::uint64_t prefix, int trap) const {
  return net::host_id{util::placement_host(level, prefix, trap, 0, net_->host_count())};
}

void skip_trapmap::charge_map_nodes(int level, std::uint64_t prefix, const level_map& lm,
                                    std::int64_t sign) {
  // A trapezoid node stores 4 neighbour references plus its conflict
  // hyperlinks; segments are the data items, living with level 0.
  for (std::size_t t = 0; t < lm.map.trapezoid_count(); ++t) {
    const auto h = host_of(level, prefix, static_cast<int>(t));
    net_->charge(h, net::memory_kind::node, sign);
    const std::int64_t refs =
        4 + (level > 0 && t < lm.conflicts.size()
                 ? static_cast<std::int64_t>(lm.conflicts[t].size())
                 : 0);
    net_->charge(h, net::memory_kind::host_ref, refs * sign);
  }
  for (std::size_t s = 0; s < lm.map.segment_count(); ++s) {
    net_->charge(host_of(level, prefix, -2 - static_cast<int>(s)),
                 level == 0 ? net::memory_kind::item : net::memory_kind::pointer, sign);
  }
}

void skip_trapmap::refresh_conflicts(int level, std::uint64_t prefix) {
  SW_ASSERT(level >= 1);
  auto it = maps_[static_cast<std::size_t>(level)].find(prefix);
  if (it == maps_[static_cast<std::size_t>(level)].end()) return;
  const auto parent_prefix = util::level_prefix{level, prefix}.parent();
  const auto pit = maps_[static_cast<std::size_t>(level - 1)].find(parent_prefix.bits);
  SW_ASSERT(pit != maps_[static_cast<std::size_t>(level - 1)].end());
  it->second.conflicts = conflicts_all(it->second.map, pit->second.map);
}

skip_trapmap::pl_result skip_trapmap::locate(double x, double y, net::host_id origin) const {
  net::cursor cur(*net_, origin);
  const auto w = anchors_[origin.value];

  int trap = -1;                    // trapezoid containing q at the previous level
  const level_map* prev = nullptr;  // its map
  for (int l = levels_; l >= 0; --l) {
    const auto prefix = util::prefix_of(w, l).bits;
    const auto it = maps_[static_cast<std::size_t>(l)].find(prefix);
    if (it == maps_[static_cast<std::size_t>(l)].end()) continue;  // empty set
    const level_map& lm = it->second;

    int found = -1;
    if (prev == nullptr) {
      // Topmost nonempty map of the chain: scan its (expected O(1))
      // trapezoids, hopping to each examined node.
      for (std::size_t t = 0; t < lm.map.trapezoid_count(); ++t) {
        cur.move_to(host_of(l, prefix, static_cast<int>(t)));
        if (lm.map.contains(static_cast<int>(t), x, y)) {
          found = static_cast<int>(t);
          break;
        }
      }
    } else {
      // Follow the conflict hyperlinks of the trapezoid located one level
      // sparser: expected O(1) candidates (Lemma 5), one hop each.
      for (const int cand : prev->conflicts[static_cast<std::size_t>(trap)]) {
        cur.move_to(host_of(l, prefix, cand));
        if (lm.map.contains(cand, x, y)) {
          found = cand;
          break;
        }
      }
    }
    SW_ASSERT(found >= 0);  // conflict lists cover point location
    trap = found;
    prev = &lm;
  }
  pl_result out;
  out.trap = trap;
  out.stats = api::op_stats::of(cur);
  return out;
}

api::op_stats skip_trapmap::rebuild_chain(util::membership_bits bits, const seq::segment& s,
                                          bool add, net::host_id origin) {
  // Route to the segment's location first (a probe just above its midpoint;
  // generated workloads keep neighbouring segments far beyond this offset).
  const double xm = 0.5 * (s.x1 + s.x2);
  const double ym = s.y_at(xm) + 1e-9;
  api::op_stats stats = locate(xm, ym, origin).stats;

  // The affected maps: the chain of the segment's own prefix plus, at each
  // level >= 1, the sibling set whose conflict lists point into the rebuilt
  // parent.
  std::vector<std::pair<int, std::uint64_t>> affected;
  for (int l = 0; l <= levels_; ++l) {
    const auto chain = util::prefix_of(bits, l).bits;
    affected.emplace_back(l, chain);
    if (l >= 1) {
      affected.emplace_back(l, chain ^ (std::uint64_t{1} << (l - 1)));  // the sibling
    }
  }

  // De-charge the old state of every affected map.
  for (const auto& [l, prefix] : affected) {
    const auto it = maps_[static_cast<std::size_t>(l)].find(prefix);
    if (it != maps_[static_cast<std::size_t>(l)].end()) {
      charge_map_nodes(l, prefix, it->second, -1);
    }
  }

  // Rebuild the chain maps with the segment added/removed. Messages: one per
  // trapezoid of the new map that the segment touches (the created walls and
  // split cells — the paper's output-sensitive term).
  net::cursor cur(*net_, origin);
  for (int l = 0; l <= levels_; ++l) {
    const auto prefix = util::prefix_of(bits, l).bits;
    auto& slot = maps_[static_cast<std::size_t>(l)];
    auto it = slot.find(prefix);
    std::vector<seq::segment> members = it != slot.end() ? it->second.members
                                                         : std::vector<seq::segment>{};
    if (add) {
      members.push_back(s);
    } else {
      const auto at = std::find(members.begin(), members.end(), s);
      SW_EXPECTS(at != members.end());
      members.erase(at);
    }
    if (members.empty()) {
      if (it != slot.end()) slot.erase(it);
      continue;
    }
    level_map fresh{seq::trapmap(members, xmin_, xmax_, ymin_, ymax_), std::move(members), {}};
    // Touched trapezoids in the new map: those whose x-range covers the
    // segment and whose vertical span it crosses.
    for (std::size_t t = 0; t < fresh.map.trapezoid_count(); ++t) {
      const auto& tr = fresh.map.trap(static_cast<int>(t));
      if (tr.right_x <= s.x1 || tr.left_x >= s.x2) continue;
      const double cx = 0.5 * (std::max(tr.left_x, s.x1) + std::min(tr.right_x, s.x2));
      const double sy = s.y_at(cx);
      const double top = fresh.map.seg(tr.top).y_at(cx);
      const double bot = fresh.map.seg(tr.bottom).y_at(cx);
      if (sy >= bot && sy <= top) cur.move_to(host_of(l, prefix, static_cast<int>(t)));
    }
    if (it != slot.end()) {
      it->second = std::move(fresh);
    } else {
      slot.emplace(prefix, std::move(fresh));
    }
  }

  // Refresh the conflict hyperlinks that point into rebuilt maps, then
  // re-charge the new state.
  for (const auto& [l, prefix] : affected) {
    if (l >= 1) refresh_conflicts(l, prefix);
  }
  for (const auto& [l, prefix] : affected) {
    const auto it = maps_[static_cast<std::size_t>(l)].find(prefix);
    if (it != maps_[static_cast<std::size_t>(l)].end()) {
      charge_map_nodes(l, prefix, it->second, +1);
    }
  }
  return stats + api::op_stats::of(cur);
}

api::op_stats skip_trapmap::insert(const seq::segment& s, net::host_id origin) {
  const net::structural_section sw_structural_guard(*net_);
  seq::segment norm = s;
  if (norm.x1 > norm.x2) {
    std::swap(norm.x1, norm.x2);
    std::swap(norm.y1, norm.y2);
  }
  for (const auto& [existing, bits] : seg_bits_) {
    SW_EXPECTS(!(existing == norm));  // duplicates rejected
  }
  const auto bits = util::draw_membership(rng_);
  const auto stats = rebuild_chain(bits, norm, /*add=*/true, origin);
  seg_bits_.emplace_back(norm, bits);
  ++segment_count_;
  return stats;
}

api::op_stats skip_trapmap::erase(const seq::segment& s, net::host_id origin) {
  const net::structural_section sw_structural_guard(*net_);
  SW_EXPECTS(segment_count_ >= 2);  // the structure never becomes empty
  seq::segment norm = s;
  if (norm.x1 > norm.x2) {
    std::swap(norm.x1, norm.x2);
    std::swap(norm.y1, norm.y2);
  }
  auto it = std::find_if(seg_bits_.begin(), seg_bits_.end(),
                         [&](const auto& p) { return p.first == norm; });
  SW_EXPECTS(it != seg_bits_.end());
  const auto bits = it->second;
  seg_bits_.erase(it);
  --segment_count_;
  return rebuild_chain(bits, norm, /*add=*/false, origin);
}

double skip_trapmap::mean_conflicts() const {
  std::uint64_t total = 0, count = 0;
  for (int l = 1; l <= levels_; ++l) {
    for (const auto& [prefix, lm] : maps_[static_cast<std::size_t>(l)]) {
      for (const auto& c : lm.conflicts) {
        total += c.size();
        ++count;
      }
    }
  }
  return count == 0 ? 0.0 : static_cast<double>(total) / static_cast<double>(count);
}

std::vector<std::vector<int>> skip_trapmap::conflicts_all(const seq::trapmap& sparse,
                                                          const seq::trapmap& dense) {
  // Bucket the dense trapezoids into a uniform x-grid, then test each sparse
  // trapezoid only against candidates sharing a cell: near-linear for the
  // short trapezoids random segment sets produce.
  const std::size_t cells = std::max<std::size_t>(8, dense.trapezoid_count());
  const double x0 = dense.xmin();
  const double width = (dense.xmax() - dense.xmin()) / static_cast<double>(cells);
  auto cell_of = [&](double x) {
    const auto c = static_cast<std::ptrdiff_t>((x - x0) / width);
    return static_cast<std::size_t>(
        std::clamp<std::ptrdiff_t>(c, 0, static_cast<std::ptrdiff_t>(cells) - 1));
  };
  std::vector<std::vector<int>> grid(cells);
  for (std::size_t u = 0; u < dense.trapezoid_count(); ++u) {
    const auto& t = dense.trap(static_cast<int>(u));
    for (std::size_t c = cell_of(t.left_x); c <= cell_of(t.right_x); ++c) {
      grid[c].push_back(static_cast<int>(u));
    }
  }

  std::vector<std::vector<int>> out(sparse.trapezoid_count());
  std::vector<int> stamp(dense.trapezoid_count(), -1);
  for (std::size_t t = 0; t < sparse.trapezoid_count(); ++t) {
    const auto& st = sparse.trap(static_cast<int>(t));
    for (std::size_t c = cell_of(st.left_x); c <= cell_of(st.right_x); ++c) {
      for (const int u : grid[c]) {
        if (stamp[static_cast<std::size_t>(u)] == static_cast<int>(t)) continue;
        stamp[static_cast<std::size_t>(u)] = static_cast<int>(t);
        if (sparse.overlaps(static_cast<int>(t), dense, u)) {
          out[t].push_back(u);
        }
      }
    }
    std::sort(out[t].begin(), out[t].end());
  }
  return out;
}

}  // namespace skipweb::core
