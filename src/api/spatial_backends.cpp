// Built-in spatial backends of the registry: thin adapters pinning each
// multi-dimensional structure behind the spatial_index interface.
//
// - skip_quadtree2 / skip_quadtree3: the native instantiation — arena-backed
//   skip quadtree/octree with native orthogonal range, exact best-first NN,
//   and interleaved batched point location.
// - skip_trie: the Morton bridge. A compressed trie over z-order codes *is*
//   a quadtree in disguise (one 2-bit character per dyadic level), so the
//   string skip-web answers spatial queries: locate = longest-prefix
//   descent, range = dyadic decomposition of the box pruned by prefix
//   probes, NN = the generic expanding-box reduction.
// - skip_trapmap: points stored as short horizontal "platform" segments in
//   a trapezoidal-map skip-web; locate is planar point location just above
//   the platform, with platform x's salted per point so the map's
//   distinct-endpoint-x contract holds even when grid coordinates collide
//   at double precision. The structure has no native range surface, so
//   range queries are priced honestly as a full sweep (one hop per stored
//   item — the same convention as chord's nearest flooding in the 1-D
//   registry).
//
// Like the 1-D adapters, these are stateless pass-throughs: the query paths
// (including the adapters' own bookkeeping — the trapmap mirror directory is
// only read by locate, written by insert/erase) keep the interface's
// concurrent-const-query contract, with traffic metered through cursor-local
// receipts (net/receipt.h) so serve::executor can fan locate streams across
// threads.

#include <bit>
#include <cstdint>
#include <functional>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "api/lifecycle.h"
#include "api/spatial_index.h"
#include "core/skip_quadtree.h"
#include "core/skip_trapmap.h"
#include "core/skip_trie.h"
#include "net/cursor.h"
#include "net/network.h"
#include "persist/replay_log.h"
#include "seq/trapmap.h"

namespace skipweb::api {

namespace {

constexpr capability spatial_base_caps = capability::locate | capability::insert |
                                         capability::erase | capability::range |
                                         capability::approx_nn;

void expect_valid_box(const spatial_box& b, int dims) {
  for (int d = 0; d < dims; ++d) {
    SW_EXPECTS(b.lo.x[static_cast<std::size_t>(d)] <= b.hi.x[static_cast<std::size_t>(d)]);
  }
}

// --- skip quadtree / octree --------------------------------------------------

template <int D>
std::vector<seq::qpoint<D>> to_points(const std::vector<spatial_point>& pts) {
  std::vector<seq::qpoint<D>> out;
  out.reserve(pts.size());
  for (const auto& p : pts) out.push_back(from_spatial<D>(p));
  return out;
}

template <int D>
class quadtree_adapter final : public spatial_index {
 public:
  quadtree_adapter(std::string_view name, std::vector<spatial_point> pts,
                   const index_options& opts, net::network& net)
      : name_(name),
        impl_(to_points<D>(pts), opts.seed(), net, opts.replication()) {}

  // Native restore (DESIGN.md §13): the structure's restore constructor
  // borrows the arenas straight from the open snapshot.
  quadtree_adapter(std::string_view name, persist::reader& r, net::network& net)
      : name_(name), impl_(r, net) {}

  [[nodiscard]] std::string_view backend() const override { return name_; }
  [[nodiscard]] int dims() const override { return D; }
  [[nodiscard]] std::size_t size() const override { return impl_.size(); }
  [[nodiscard]] capability capabilities() const override {
    auto c = spatial_base_caps | capability::native_range | capability::native_nn |
             capability::snapshot;
    if (impl_.replication() > 0) c = c | capability::fault_tolerant;
    return c;
  }

  void save_snapshot(persist::writer& w) const override { impl_.save_snapshot(w); }
  void compact() override { impl_.compact(); }

  op_result<std::size_t> repair_step(net::host_id origin) override {
    if (impl_.replication() == 0) return index_base::repair_step(origin);  // throws
    return impl_.repair_step(origin);
  }
  [[nodiscard]] std::size_t replication() const override { return impl_.replication(); }

  [[nodiscard]] spatial_locate_result locate(const spatial_point& q,
                                             net::host_id origin) const override {
    return convert(impl_.locate(from_spatial<D>(q), origin));
  }

  [[nodiscard]] std::vector<spatial_locate_result> locate_batch(
      const std::vector<spatial_point>& qs, net::host_id origin) const override {
    std::vector<seq::qpoint<D>> native;
    native.reserve(qs.size());
    for (const auto& q : qs) native.push_back(from_spatial<D>(q));
    std::vector<spatial_locate_result> out;
    out.reserve(qs.size());
    for (const auto& r : impl_.locate_batch(native, origin)) out.push_back(convert(r));
    return out;
  }

  op_stats insert(const spatial_point& p, net::host_id origin) override {
    return impl_.insert(from_spatial<D>(p), origin);
  }
  op_stats erase(const spatial_point& p, net::host_id origin) override {
    return impl_.erase(from_spatial<D>(p), origin);
  }

  [[nodiscard]] op_result<std::vector<spatial_point>> orthogonal_range(
      const spatial_box& b, net::host_id origin, std::size_t limit) const override {
    expect_valid_box(b, D);
    const auto native = impl_.range(from_spatial<D>(b.lo), from_spatial<D>(b.hi), origin, limit);
    op_result<std::vector<spatial_point>> out;
    out.stats = native.stats;
    out.value.reserve(native.value.size());
    for (const auto& p : native.value) out.value.push_back(to_spatial<D>(p));
    return out;  // native order is already ascending lexicographic
  }

  [[nodiscard]] op_result<spatial_point> approx_nn(const spatial_point& q,
                                                   net::host_id origin) const override {
    const auto r = impl_.nearest(from_spatial<D>(q), origin);
    return {to_spatial<D>(r.value), r.stats};
  }

  [[nodiscard]] memory_footprint footprint() const override { return impl_.footprint(); }

 private:
  [[nodiscard]] static spatial_locate_result convert(
      const typename core::skip_quadtree<D>::locate_result& r) {
    spatial_locate_result out;
    out.found = r.is_point;
    out.cell = seq::qcube_hash<D>{}(r.cell);
    out.scale = r.cell.side();
    out.stats = r.stats;
    return out;
  }

  std::string name_;
  core::skip_quadtree<D> impl_;
};

// --- Morton-coded skip trie --------------------------------------------------

class trie_adapter final : public spatial_index {
 public:
  static constexpr int D = 2;

  trie_adapter(std::vector<spatial_point> pts, const index_options& opts, net::network& net)
      : replay_{opts.seed(), net.host_count(), std::move(pts), {}, {}},
        impl_(encode_all(replay_.build_keys), opts.seed(), net) {}

  [[nodiscard]] std::string_view backend() const override { return "skip_trie"; }
  [[nodiscard]] int dims() const override { return D; }
  [[nodiscard]] std::size_t size() const override { return impl_.size(); }
  [[nodiscard]] capability capabilities() const override {
    return spatial_base_caps | capability::snapshot;
  }

  // Replay snapshot (DESIGN.md §13): the trie's inner structure is not
  // arena-backed, so the deterministic record is what persists.
  void save_snapshot(persist::writer& w) const override { replay_.save(w); }
  void compact() override { replay_.compact(); }

  [[nodiscard]] spatial_locate_result locate(const spatial_point& q,
                                             net::host_id origin) const override {
    const auto r = impl_.locate(encode(q), origin);
    spatial_locate_result out;
    out.found = r.is_key;
    out.cell = std::hash<std::string>{}(r.matched_path);
    // One char = one dyadic level; `matched` includes the partial edge, so
    // it is the tightest cell the descent pinned down (and the tightest
    // seed radius for the generic NN reduction).
    out.scale = seq::coord_span >> std::min<std::size_t>(r.matched, seq::coord_bits);
    out.stats = r.stats;
    return out;
  }

  op_stats insert(const spatial_point& p, net::host_id origin) override {
    const auto stats = impl_.insert(encode(p), origin);
    replay_.record(persist::replay_op::insert, origin, p);
    return stats;
  }
  op_stats erase(const spatial_point& p, net::host_id origin) override {
    const auto stats = impl_.erase(encode(p), origin);
    replay_.record(persist::replay_op::erase, origin, p);
    return stats;
  }

  // Dyadic decomposition of the box: recurse over z-order cells (= prefix
  // strings), enumerating cells fully inside via with_prefix and pruning
  // partially-overlapping cells whose prefix no stored code extends (one
  // longest_common_prefix probe each — O(log n) messages, honestly metered).
  [[nodiscard]] op_result<std::vector<spatial_point>> orthogonal_range(
      const spatial_box& b, net::host_id origin, std::size_t limit) const override {
    expect_valid_box(b, D);
    op_result<std::vector<spatial_point>> out;
    std::string prefix;
    prefix.reserve(seq::coord_bits);
    collect(prefix, {0, 0}, 0, b, limit, origin, out);
    std::sort(out.value.begin(), out.value.end());
    if (limit != 0 && out.value.size() > limit) out.value.resize(limit);
    return out;
  }

  [[nodiscard]] memory_footprint footprint() const override { return impl_.footprint(); }

 private:
  // One character per dyadic level, interleaving the level's coordinate bits
  // (the classic z-order / Morton code, spelled over the alphabet "0123").
  static std::string encode(const spatial_point& p) {
    std::string s(seq::coord_bits, '0');
    for (int i = 0; i < seq::coord_bits; ++i) {
      int v = 0;
      for (int d = 0; d < D; ++d) {
        v |= static_cast<int>(
                 (p.x[static_cast<std::size_t>(d)] >> (seq::coord_bits - 1 - i)) & 1u)
             << d;
      }
      s[static_cast<std::size_t>(i)] = static_cast<char>('0' + v);
    }
    return s;
  }

  static spatial_point decode(const std::string& s) {
    SW_ASSERT(s.size() == seq::coord_bits);
    spatial_point p;
    for (int i = 0; i < seq::coord_bits; ++i) {
      const int v = s[static_cast<std::size_t>(i)] - '0';
      for (int d = 0; d < D; ++d) {
        p.x[static_cast<std::size_t>(d)] |=
            static_cast<std::uint64_t>((v >> d) & 1) << (seq::coord_bits - 1 - i);
      }
    }
    return p;
  }

  static std::vector<std::string> encode_all(const std::vector<spatial_point>& pts) {
    std::vector<std::string> out;
    out.reserve(pts.size());
    for (const auto& p : pts) out.push_back(encode(p));
    return out;
  }

  void collect(std::string& prefix, std::array<std::uint64_t, D> corner, int level,
               const spatial_box& b, std::size_t limit, net::host_id origin,
               op_result<std::vector<spatial_point>>& out) const {
    if (limit != 0 && out.value.size() >= limit) return;
    const std::uint64_t side = seq::coord_span >> level;
    bool inside = true;
    for (int d = 0; d < D; ++d) {
      const auto i = static_cast<std::size_t>(d);
      if (corner[i] > b.hi.x[i] || corner[i] + (side - 1) < b.lo.x[i]) return;  // disjoint
      inside = inside && corner[i] >= b.lo.x[i] && corner[i] + (side - 1) <= b.hi.x[i];
    }
    if (inside) {
      const auto res = impl_.with_prefix(prefix, origin, limit == 0 ? 0 : limit - out.value.size());
      out.stats += res.stats;
      for (const auto& s : res.value) out.value.push_back(decode(s));
      return;
    }
    // Partial overlap: descend only where some stored code extends the cell.
    if (!prefix.empty()) {
      const auto probe = impl_.longest_common_prefix(prefix, origin);
      out.stats += probe.stats;
      if (probe.value.size() < prefix.size()) return;
    }
    SW_ASSERT(level < seq::coord_bits);  // single grid cells are never partial
    for (int v = 0; v < (1 << D); ++v) {
      auto child = corner;
      for (int d = 0; d < D; ++d) {
        if (((v >> d) & 1) != 0) child[static_cast<std::size_t>(d)] += side >> 1;
      }
      prefix.push_back(static_cast<char>('0' + v));
      collect(prefix, child, level + 1, b, limit, origin, out);
      prefix.pop_back();
    }
  }

  persist::replay_log<spatial_point> replay_;  // first: see replay_log.h
  core::skip_trie impl_;
};

// --- trapezoidal-map platforms ----------------------------------------------

class trapmap_adapter final : public spatial_index {
 public:
  static constexpr int D = 2;
  // The map's bounding box pads the unit square so platform segments near
  // the border stay strictly interior.
  static constexpr double kPad = 0.125;
  // Platform half-width and the probe's lift above it. Both sit far below
  // the coordinate gaps general-position workloads produce, and far above
  // double rounding at unit scale.
  static constexpr double kHalf = 1.0 / (1ull << 40);
  static constexpr double kLift = 1.0 / (1ull << 44);
  // Per-point x salt granularity/range (see jitter()): up to 2^32 steps of
  // 2^-52, i.e. offsets below 2^-20.
  static constexpr double kJitterStep = 1.0 / (1ull << 52);

  trapmap_adapter(std::vector<spatial_point> pts, const index_options& opts, net::network& net)
      : replay_{opts.seed(), net.host_count(), std::move(pts), {}, {}},
        net_(&net),
        impl_(segments_for(replay_.build_keys), -kPad, 1.0 + kPad, -kPad, 1.0 + kPad, opts.seed(),
              net) {
    for (const auto& p : replay_.build_keys) remember(p);
  }

  [[nodiscard]] std::string_view backend() const override { return "skip_trapmap"; }
  [[nodiscard]] int dims() const override { return D; }
  [[nodiscard]] std::size_t size() const override { return impl_.size(); }
  [[nodiscard]] capability capabilities() const override {
    return spatial_base_caps | capability::snapshot;
  }

  // Replay snapshot: the trapezoidal map's node/pointer web is not
  // arena-backed either.
  void save_snapshot(persist::writer& w) const override { replay_.save(w); }
  void compact() override {
    replay_.compact();
    items_.shrink_to_fit();
  }

  [[nodiscard]] spatial_locate_result locate(const spatial_point& q,
                                             net::host_id origin) const override {
    const auto [x, y] = unit(q);
    // Probe just above the point's would-be platform position.
    const auto r = impl_.locate(x, y + kLift, origin);
    spatial_locate_result out;
    out.stats = r.stats;
    out.cell = static_cast<std::uint64_t>(r.trap);
    const auto& tr = impl_.ground().trap(r.trap);
    const double width = tr.right_x - tr.left_x;
    out.scale = std::max<std::uint64_t>(
        1, static_cast<std::uint64_t>(width * static_cast<double>(seq::coord_span)));
    // Membership is answered from the adapter's exact grid-point mirror (the
    // payload directory a deployment would keep with the platforms); the
    // distributed work — and the receipt — is the point location above.
    out.found = index_of_.find(q) != index_of_.end();
    return out;
  }

  op_stats insert(const spatial_point& p, net::host_id origin) override {
    const auto stats = impl_.insert(segment_for(p), origin);
    remember(p);  // after the insert, so contract violations leave no trace
    replay_.record(persist::replay_op::insert, origin, p);
    return stats;
  }

  op_stats erase(const spatial_point& p, net::host_id origin) override {
    const auto stats = impl_.erase(segment_for(p), origin);
    forget(p);
    replay_.record(persist::replay_op::erase, origin, p);
    return stats;
  }

  // No native range surface: a trapezoidal map decomposes the plane around
  // its segments, not around axis boxes. Priced as a full sweep — one hop
  // per stored platform, mirroring how chord's orderless layout floods for
  // `nearest` in the 1-D registry.
  [[nodiscard]] op_result<std::vector<spatial_point>> orthogonal_range(
      const spatial_box& b, net::host_id origin, std::size_t limit) const override {
    expect_valid_box(b, D);
    net::cursor cur(*net_, origin);
    op_result<std::vector<spatial_point>> out;
    for (std::size_t i = 0; i < items_.size(); ++i) {
      cur.move_to(impl_.host_of(0, 0, static_cast<int>(i)));
      cur.note_comparisons(1);
      const auto& p = items_[i];
      if (p.x[0] >= b.lo.x[0] && p.x[0] <= b.hi.x[0] && p.x[1] >= b.lo.x[1] &&
          p.x[1] <= b.hi.x[1]) {
        out.value.push_back(p);
      }
    }
    std::sort(out.value.begin(), out.value.end());
    if (limit != 0 && out.value.size() > limit) out.value.resize(limit);
    out.stats = op_stats::of(cur);
    return out;
  }

  // impl_'s split plus the adapter's payload mirror (directory — the
  // grid-point store a deployment would keep beside the platforms).
  [[nodiscard]] memory_footprint footprint() const override {
    memory_footprint f = impl_.footprint();
    f.directory_bytes += vector_bytes(items_) + map_bytes(index_of_);
    return f;
  }

 private:
  struct point_hash {
    std::size_t operator()(const spatial_point& p) const {
      std::size_t h = 0;
      for (const auto v : p.x) h = h * 0x9e3779b97f4a7c15ull + v;
      return h;
    }
  };

  // The 62-bit grid is finer than double precision (~2^-53 at unit scale),
  // so nearby grid x's can collapse to one double and break the trapezoidal
  // map's distinct-endpoint-x contract on otherwise legal input. Each
  // platform's x is therefore salted with a per-point hash offset (2^32
  // steps of 2^-52, magnitude < 2^-20): distinct points get distinct
  // platform x's unless a 2^-32 hash collision lands them together — the
  // residual case the map's own contract check still guards.
  static double jitter(const spatial_point& p) {
    std::uint64_t z = p.x[0] * 0x9e3779b97f4a7c15ull ^ std::rotl(p.x[1], 31);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
    return static_cast<double>(z & 0xffffffffull) * kJitterStep;
  }

  static std::pair<double, double> unit(const spatial_point& p) {
    return {(static_cast<double>(p.x[0]) + 0.5) / static_cast<double>(seq::coord_span) + jitter(p),
            (static_cast<double>(p.x[1]) + 0.5) / static_cast<double>(seq::coord_span)};
  }

  static seq::segment segment_for(const spatial_point& p) {
    const auto [x, y] = unit(p);
    return seq::segment{x - kHalf, y, x + kHalf, y};
  }

  static std::vector<seq::segment> segments_for(const std::vector<spatial_point>& pts) {
    std::vector<seq::segment> out;
    out.reserve(pts.size());
    for (const auto& p : pts) out.push_back(segment_for(p));
    return out;
  }

  void remember(const spatial_point& p) {
    items_.push_back(p);
    index_of_[p] = items_.size() - 1;
  }

  void forget(const spatial_point& p) {
    const auto it = index_of_.find(p);
    SW_ASSERT(it != index_of_.end());
    const std::size_t at = it->second;
    index_of_.erase(it);
    if (at + 1 != items_.size()) {  // swap-remove, re-index the mover
      items_[at] = items_.back();
      index_of_[items_[at]] = at;
    }
    items_.pop_back();
  }

  persist::replay_log<spatial_point> replay_;  // first: see replay_log.h
  net::network* net_;
  core::skip_trapmap impl_;
  std::vector<spatial_point> items_;
  std::unordered_map<spatial_point, std::size_t, point_hash> index_of_;
};

}  // namespace

// skip_quadtree2/3 restore natively; skip_trie and skip_trapmap register no
// restorer, so their snapshots rebuild through the factories by replay.
void add_builtins(backend_table<spatial_index, spatial_point>& t) {
  t["skip_quadtree2"] = {
      [](std::vector<spatial_point> pts, const index_options& opts, net::network& net) {
        return std::make_unique<quadtree_adapter<2>>("skip_quadtree2", std::move(pts), opts, net);
      },
      [](persist::reader& r, net::network& net) {
        return std::make_unique<quadtree_adapter<2>>("skip_quadtree2", r, net);
      },
      2};
  t["skip_quadtree3"] = {
      [](std::vector<spatial_point> pts, const index_options& opts, net::network& net) {
        return std::make_unique<quadtree_adapter<3>>("skip_quadtree3", std::move(pts), opts, net);
      },
      [](persist::reader& r, net::network& net) {
        return std::make_unique<quadtree_adapter<3>>("skip_quadtree3", r, net);
      },
      3};
  t["skip_trie"] = {
      [](std::vector<spatial_point> pts, const index_options& opts, net::network& net) {
        return std::make_unique<trie_adapter>(std::move(pts), opts, net);
      },
      {},
      2};
  t["skip_trapmap"] = {
      [](std::vector<spatial_point> pts, const index_options& opts, net::network& net) {
        return std::make_unique<trapmap_adapter>(std::move(pts), opts, net);
      },
      {},
      2};
}

}  // namespace skipweb::api
