// spatial_2d_128k: the skip quadtree (core/quad_levels.h) over 2^17
// clustered 2-D points, read-mostly: executor point location, single-client
// locate and bounded orthogonal_range latency, an insert-then-erase update
// pass, then compact + save and an mmap restart. See ../README.md.

#include <algorithm>
#include <array>
#include <bit>
#include <cmath>
#include <memory>
#include <string>
#include <unordered_set>
#include <vector>

#include "api/spatial_registry.h"
#include "common.h"
#include "core/skip_quadtree.h"
#include "net/network.h"
#include "serve/executor.h"
#include "serve/route_cache.h"
#include "util/radix_sort.h"
#include "util/rng.h"
#include "workloads/workloads.h"

namespace perfbench {

namespace api = skipweb::api;
namespace core = skipweb::core;
namespace net = skipweb::net;
namespace seq = skipweb::seq;
namespace serve = skipweb::serve;
namespace util = skipweb::util;
namespace wl = skipweb::workloads;

namespace {

using point = api::spatial_point;
constexpr std::size_t batch = 24;
constexpr std::size_t hosts = 1024;          // nodes hash over this many hosts
constexpr std::size_t range_limit = 1024;    // bound on every range's output
constexpr std::size_t first_batch_n = 256;   // answers timed into restart_ms
constexpr std::size_t brute_samples = 64;    // answers also checked brute force

struct point_hash {
  std::size_t operator()(const point& p) const {
    return seq::qpoint_hash<2>{}(api::from_spatial<2>(p));
  }
};

[[nodiscard]] bool same_locate(const api::spatial_locate_result& a,
                               const api::spatial_locate_result& b) {
  return a.found == b.found && a.cell == b.cell && a.scale == b.scale;
}

// Deepest interesting cube (root, or >= 2 occupied quadrants) containing q,
// by a scan of every point: for each level L, the points whose common prefix
// with q is exactly L occupy quadrants other than q's, and those sharing a
// longer prefix occupy q's own.
api::spatial_locate_result brute_locate(const std::vector<point>& pts, const point& q) {
  std::array<std::uint64_t, seq::coord_bits + 1> at_prefix{};  // points sharing exactly L bits
  std::array<unsigned, seq::coord_bits + 1> quads{};
  for (const auto& p : pts) {
    const int pr = std::min(seq::common_prefix(p.x[0], q.x[0]), seq::common_prefix(p.x[1], q.x[1]));
    ++at_prefix[static_cast<std::size_t>(pr)];
    if (pr < seq::coord_bits) {
      const int shift = seq::coord_bits - pr - 1;
      const unsigned quad = static_cast<unsigned>((p.x[0] >> shift) & 1u) |
                            (static_cast<unsigned>((p.x[1] >> shift) & 1u) << 1);
      quads[static_cast<std::size_t>(pr)] |= 1u << quad;
    }
  }
  api::spatial_locate_result out;
  out.found = at_prefix[seq::coord_bits] > 0;
  int best = 0;
  std::uint64_t below = at_prefix[seq::coord_bits];
  for (int l = seq::coord_bits - 1; l > 0; --l) {
    const int occupied = std::popcount(quads[static_cast<std::size_t>(l)]) + (below > 0 ? 1 : 0);
    if (occupied >= 2) {
      best = l;
      break;
    }
    below += at_prefix[static_cast<std::size_t>(l)];
  }
  seq::qcube<2> c;
  c.level = best;
  for (int d = 0; d < 2; ++d) {
    const auto sd = static_cast<std::size_t>(d);
    const int shift = seq::coord_bits - best;
    c.corner[sd] = best == 0 ? 0 : (q.x[sd] >> shift) << shift;
  }
  out.cell = seq::qcube_hash<2>{}(c);
  out.scale = c.side();
  return out;
}

// Lexicographically sorted points: a range scans the x-slab and filters y.
struct point_oracle {
  std::vector<point> sorted;

  [[nodiscard]] std::vector<point> range(const api::spatial_box& b) const {
    point from;
    from.x[0] = b.lo.x[0];
    std::vector<point> out;
    for (auto it = std::lower_bound(sorted.begin(), sorted.end(), from);
         it != sorted.end() && it->x[0] <= b.hi.x[0]; ++it) {
      if (it->x[1] >= b.lo.x[1] && it->x[1] <= b.hi.x[1]) out.push_back(*it);
    }
    return out;
  }
};

std::vector<point> brute_range(const std::vector<point>& pts, const api::spatial_box& b) {
  std::vector<point> out;
  for (const auto& p : pts) {
    if (p.x[0] >= b.lo.x[0] && p.x[0] <= b.hi.x[0] && p.x[1] >= b.lo.x[1] && p.x[1] <= b.hi.x[1]) {
      out.push_back(p);
    }
  }
  std::sort(out.begin(), out.end());
  return out;
}

std::uint64_t clamp_add(std::uint64_t v, std::int64_t d) {
  const auto s = static_cast<std::int64_t>(v) + d;
  constexpr auto top = static_cast<std::int64_t>(seq::coord_span - 1);
  return static_cast<std::uint64_t>(std::clamp<std::int64_t>(s, 0, top));
}

point jitter(const point& p, std::uint64_t radius, util::rng& r) {
  point q;
  for (std::size_t d = 0; d < 2; ++d) {
    q.x[d] = clamp_add(p.x[d], static_cast<std::int64_t>(r.uniform_u64(0, 2 * radius)) -
                                   static_cast<std::int64_t>(radius));
  }
  return q;
}

struct built {
  std::unique_ptr<net::network> netw;
  std::unique_ptr<api::spatial_index> idx;

  void release() {
    idx.reset();
    netw.reset();
  }
};

built build_index(const std::vector<point>& pts, std::uint64_t seed, double& seconds,
                  std::int64_t op) {
  built b;
  b.netw = std::make_unique<net::network>(1);
  auto copy = pts;
  span sp("api.make_spatial_index", op);
  sp.attr("n", static_cast<double>(pts.size()));
  const auto t0 = now_ns();
  b.idx = api::make_spatial_index("skip_quadtree2", std::move(copy),
                                  api::index_options{}.seed(seed).initial_hosts(hosts), *b.netw);
  seconds = seconds_since(t0);
  return b;
}

void check_locates(result& out, const std::vector<api::spatial_locate_result>& got,
                   const std::vector<api::spatial_locate_result>& want, const char* what) {
  std::uint64_t ok = 0;
  for (std::size_t i = 0; i < got.size(); ++i) {
    if (same_locate(got[i], want[i]) && !flagged(got[i].stats)) {
      ++ok;
    } else {
      out.check(false, what);
    }
  }
  out.passed(ok);
}

// One mmap restart: restore the snapshot and locate `first`, timed together
// as a restart_ms sample; the answers are checked after the clock stops.
void restart(snapshot_samples& snap, const std::vector<point>& first,
             const std::vector<api::spatial_locate_result>& want, result& out,
             std::int64_t round) {
  net::network rn(1);
  std::unique_ptr<api::spatial_index> twin;
  std::vector<api::spatial_locate_result> got;
  {
    span sp("bench.restart", round);
    const auto t0 = now_ns();
    {
      span rs("api.restore_index", round);
      twin = api::restore_spatial_index(snap.path, skipweb::persist::restore_mode::map, rn);
    }
    {
      span fs("api.first_batch", round);
      got = twin->locate_batch(first, frontend(0));
    }
    snap.restart_ms.push_back(seconds_since(t0) * 1e3);
  }
  check_locates(out, got, want, "restored locate");
}

void save_2d(api::spatial_index& idx, const std::string& path) {
  api::save_spatial_snapshot(idx, path);
}

// The traced run's layer twins, as in one_d.cpp: adapter against a core
// skip_quadtree<2> with the same points and seed, executor slices against a
// one-thread locate_batch, route cache on against off, each pair alternated
// block by block; then the core twin alone.
constexpr std::size_t twin_block = 4096;

void twin_phase(result& out, const std::vector<point>& pts, std::uint64_t seed,
                const std::vector<point>& probes, const std::vector<api::spatial_box>& boxes,
                const std::vector<point>& fresh) {
  span phase("bench.twins");
  {
    std::vector<std::uint64_t> xs;
    xs.reserve(pts.size());
    for (const auto& p : pts) xs.push_back(p.x[0]);
    span sp("util.radix_sort_u64");
    sp.attr("n", static_cast<double>(xs.size()));
    util::radix_sort_u64(xs);
  }
  using qpt = seq::qpoint<2>;
  const auto native = [](const std::vector<point>& in) {
    std::vector<qpt> o;
    o.reserve(in.size());
    for (const auto& p : in) o.push_back(api::from_spatial<2>(p));
    return o;
  };
  const std::size_t n = probes.size();
  const auto nq = native(probes);
  double build_s = 0;
  auto a = build_index(pts, seed, build_s, -1);
  const auto& idx = *a.idx;
  net::network nc(1);
  while (nc.host_count() < hosts) nc.add_host();  // as make_spatial_index does
  std::unique_ptr<core::skip_quadtree<2>> c;
  {
    const auto np = native(pts);
    span sp("core.build");
    c = std::make_unique<core::skip_quadtree<2>>(np, seed, nc);
  }
  sweep(probes, [&](const point& q, net::host_id o) { (void)idx.locate(q, o); });  // warm-up
  sweep(nq, [&](const qpt& q, net::host_id o) { (void)c->locate(q, o); });

  receipt_sum ra, rc;
  alternate(
      n, twin_block, "api.route_block",
      [&](std::size_t lo, std::size_t hi, span&) {
        for (std::size_t i = lo; i < hi; ++i) ra.add(idx.locate(probes[i], frontend(i)).stats);
      },
      "core.route_block",
      [&](std::size_t lo, std::size_t hi, span&) {
        for (std::size_t i = lo; i < hi; ++i) rc.add(c->locate(nq[i], frontend(i)).stats);
      });
  out.check(ra.total.messages == rc.total.messages, "core twin receipts equal the adapter's");

  serve::executor ex(2);
  const auto batch_read = [&](const std::vector<point>& g, net::host_id o) {
    (void)idx.locate_batch(g, o);
  };
  alternate(
      n, 4 * twin_block, "serve.for_slices",
      [&](std::size_t lo, std::size_t hi, span& sp) {
        const int parent = sp.id();
        ex.for_slices(hi - lo, [&](std::size_t w, std::size_t l, std::size_t h) {
          span ws("serve.worker", static_cast<std::int64_t>(w), parent);
          ws.attr("ops", static_cast<double>(h - l));
          sweep_groups(probes, lo + l, lo + h, batch, batch_read);
        });
      },
      "api.route_batch_1t",
      [&](std::size_t lo, std::size_t hi, span&) {
        sweep_groups(probes, lo, hi, batch, batch_read);
      });

  serve::route_cache cache;
  a.netw->attach_hop_cache(&cache);
  sweep(probes, [&](const point& q, net::host_id o) { (void)idx.locate(q, o); });  // training
  cache.reset_stats();
  const auto cached_pass = [&](bool on) {
    return [&, on](std::size_t lo, std::size_t hi, span& sp) {
      a.netw->attach_hop_cache(on ? &cache : nullptr);
      const auto hits0 = cache.hits();
      std::uint64_t m = 0;
      for (std::size_t i = lo; i < hi; ++i) m += idx.locate(probes[i], frontend(i)).stats.messages;
      sp.attr("messages", static_cast<double>(m));
      sp.attr("hits", static_cast<double>(cache.hits() - hits0));
    };
  };
  alternate(n, twin_block, "serve.cache_off_block", cached_pass(false), "serve.cache_on_block",
            cached_pass(true));
  a.netw->attach_hop_cache(nullptr);
  a.release();

  {
    span sp("core.route_batch_loop");
    sp.attr("ops", static_cast<double>(n));
    sweep_groups(nq, 0, n, batch,
                 [&](const std::vector<qpt>& g, net::host_id o) { (void)c->locate_batch(g, o); });
  }
  {
    span sp("core.locate_loop");
    sp.attr("ops", static_cast<double>(n));
    sweep(nq, [&](const qpt& q, net::host_id o) { (void)c->contains(q, o); });
  }
  {
    span sp("core.range_loop");
    std::uint64_t results = 0;
    sweep(boxes, [&](const api::spatial_box& b, net::host_id o) {
      const auto lo = api::from_spatial<2>(b.lo), hi = api::from_spatial<2>(b.hi);
      results += c->range(lo, hi, o, range_limit).value.size();
    });
    sp.attr("ops", static_cast<double>(boxes.size()));
    sp.attr("results", static_cast<double>(results));
  }
  const auto nf = native(fresh);
  for (std::size_t i = 0; i < nf.size(); ++i) {
    op_span sp("core.insert", static_cast<std::int64_t>(i));
    (void)c->insert(nf[i], frontend(i));
  }
  for (std::size_t i = 0; i < nf.size(); ++i) {
    op_span sp("core.erase", static_cast<std::int64_t>(nf.size() + i));
    (void)c->erase(nf[i], frontend(nf.size() + i));
  }
  commit_cost(nc.host_count(), ra.median_messages());
}

}  // namespace

void run_spatial(const args& a, result& out) {
  const std::size_t n = a.scaled(std::size_t{1} << 17);
  const std::size_t stream_n = a.scaled(std::size_t{1} << 18);
  const std::size_t lat_n = a.scaled(std::size_t{1} << 16);
  const std::size_t range_n = a.scaled(std::size_t{1} << 12);
  const std::size_t update_n = a.scaled(std::size_t{1} << 11);

  std::vector<point> pts, stream, fresh;
  std::vector<api::spatial_box> boxes;
  {
    span sp("workloads.gen");
    auto r = util::rng::stream(a.seed, 102);
    pts = wl::spatial_points(2, n, /*clustered=*/true, r);
    // wl::clustered_points spreads each of its ~sqrt(n) clusters over a
    // square of side 2 * (coord_span >> 12); a box of this half-side around
    // a stored point holds ~32 points of its cluster.
    const double nd = static_cast<double>(n);
    const double per_cluster = nd / std::ceil(std::sqrt(nd));
    const double radius = static_cast<double>(seq::coord_span >> 12);
    const auto half = static_cast<std::uint64_t>(radius * std::sqrt(32.0 / per_cluster));
    // Probes: a quarter are stored points, the rest land near one.
    stream.reserve(stream_n);
    for (std::size_t i = 0; i < stream_n; ++i) {
      const auto& p = pts[r.index(n)];
      stream.push_back(r.index(4) == 0 ? p : jitter(p, half, r));
    }
    boxes.resize(range_n);
    for (auto& b : boxes) {
      const auto& c = pts[r.index(n)];
      for (std::size_t d = 0; d < 2; ++d) {
        b.lo.x[d] = clamp_add(c.x[d], -static_cast<std::int64_t>(half));
        b.hi.x[d] = clamp_add(c.x[d], static_cast<std::int64_t>(half));
      }
    }
    std::unordered_set<point, point_hash> taken(pts.begin(), pts.end());
    while (fresh.size() < update_n) {
      const auto p = jitter(pts[r.index(n)], half, r);
      if (taken.insert(p).second) fresh.push_back(p);
    }
  }
  const std::unordered_set<point, point_hash> stored(pts.begin(), pts.end());
  point_oracle oracle{pts};
  std::sort(oracle.sorted.begin(), oracle.sorted.end());

  const auto huge0 = anon_huge_bytes();
  std::vector<double> setup_s;
  built b;
  for (int i = 0; i < 3; ++i) {
    b.release();
    double s = 0;
    b = build_index(pts, a.seed, s, i);
    setup_s.push_back(s);
  }
  record_anon_huge(out, huge0);
  out.metric("setup_s", median(setup_s), "s");
  auto& idx = *b.idx;
  out.metric("bytes_per_key", footprint_bytes_per_key(idx), "B");

  // The executor serves one origin per call, so each pass serves the stream
  // as `frontends` contiguous chunks, chunk k from frontend k.
  serve::executor ex(2);
  std::vector<std::vector<point>> chunks(frontends);
  for (std::size_t k = 0; k < frontends; ++k) {
    const auto [lo, hi] = serve::executor::slice(stream.size(), k, frontends);
    chunks[k].assign(stream.begin() + static_cast<std::ptrdiff_t>(lo),
                     stream.begin() + static_cast<std::ptrdiff_t>(hi));
  }
  const auto serve_pass = [&](std::int64_t round) {
    span sp("serve.run_locate", round);
    serve::executor::locate_outcome all;
    all.results.reserve(stream.size());
    for (std::size_t k = 0; k < frontends; ++k) {
      auto o = ex.run_locate(idx, chunks[k], frontend(k), batch);
      all.results.insert(all.results.end(), o.results.begin(), o.results.end());
      all.total += o.total;
    }
    receipt_attrs(sp, all.total, stream.size());
    return all;
  };
  b.netw->reset_traffic();
  auto ref = serve_pass(-1);
  congestion_span(*b.netw, stream.size());
  if (tracer::get().on()) {
    span rs("bench.receipts");
    receipt_attrs(rs, ref.total, stream.size());
  }
  out.metric("messages_per_op", per(ref.total.messages, stream.size()), "count");
  if (a.inject_wrong_answer) ref.results[0].found = !ref.results[0].found;
  for (std::size_t i = 0; i < stream.size(); ++i) {
    const auto& r = ref.results[i];
    out.check(r.found == (stored.count(stream[i]) > 0) && !flagged(r.stats), "locate found");
  }
  for (std::size_t i = 0; i < std::min(brute_samples, stream.size()); ++i) {
    const auto want = brute_locate(pts, stream[i]);
    out.check(same_locate(ref.results[i], want), "locate cell (brute force)");
  }
  for (std::size_t i = 0; i < std::min<std::size_t>(16, boxes.size()); ++i) {
    out.check(brute_range(pts, boxes[i]) == oracle.range(boxes[i]), "range oracle (brute force)");
  }
  std::vector<std::vector<point>> range_want(boxes.size());
  for (std::size_t i = 0; i < boxes.size(); ++i) range_want[i] = oracle.range(boxes[i]);

  std::vector<double> ops_s, q50, q99, r50, r99, u50, u99;
  std::vector<api::spatial_locate_result> lat_got(lat_n);
  const auto lat_want = head(ref.results, lat_n);
  // Every round erases what it inserted, so the restored index answers the
  // first stream probes as the warm-up pass did.
  snapshot_samples snap{a.snapshot_dir + "/" + a.workload + ".snap", {}, {}};
  const auto first = head(stream, first_batch_n);
  const auto first_want = head(ref.results, first_batch_n);
  const auto t_budget = now_ns();
  for (int round = 0; round < 4 || seconds_since(t_budget) < a.seconds; ++round) {
    span rs("bench.round", round);
    tracer::get().set_op_spans(round < 2);
    {
      const auto t0 = now_ns();
      const auto o = serve_pass(round);
      ops_s.push_back(static_cast<double>(stream.size()) / seconds_since(t0));
      check_locates(out, o.results, ref.results, "executor locate");
    }
    {
      span sp("bench.query_latency", round);
      std::vector<std::int64_t> ns(lat_n);
      for (std::size_t i = 0; i < lat_n; ++i) {
        op_span op("api.locate", static_cast<std::int64_t>(i));
        const auto t0 = now_ns();
        lat_got[i] = idx.locate(stream[i], frontend(i));
        ns[i] = now_ns() - t0;
      }
      q50.push_back(quantile_us(ns, 0.5));
      q99.push_back(quantile_us(ns, 0.99));
      check_locates(out, lat_got, lat_want, "single-client locate");
    }
    {
      span sp("bench.range_latency", round);
      std::vector<std::int64_t> ns(boxes.size());
      for (std::size_t i = 0; i < boxes.size(); ++i) {
        op_span op("api.orthogonal_range", static_cast<std::int64_t>(i));
        const auto t0 = now_ns();
        const auto res = idx.orthogonal_range(boxes[i], frontend(i), range_limit);
        ns[i] = now_ns() - t0;
        out.check(res.value == range_want[i] && !flagged(res.stats), "range answer");
      }
      r50.push_back(quantile_us(ns, 0.5));
      r99.push_back(quantile_us(ns, 0.99));
    }
    {
      span sp("bench.update_latency", round);
      std::vector<std::int64_t> ns(2 * fresh.size());
      for (std::size_t i = 0; i < fresh.size(); ++i) {
        op_span op("api.insert", static_cast<std::int64_t>(i));
        const auto t0 = now_ns();
        const auto s = idx.insert(fresh[i], frontend(i));
        ns[i] = now_ns() - t0;
        out.check_stats(s, "insert");
      }
      for (std::size_t i = 0; i < fresh.size(); ++i) {
        op_span op("api.erase", static_cast<std::int64_t>(fresh.size() + i));
        const auto t0 = now_ns();
        const auto s = idx.erase(fresh[i], frontend(i));
        ns[fresh.size() + i] = now_ns() - t0;
        out.check_stats(s, "erase");
      }
      u50.push_back(quantile_us(ns, 0.5));
      u99.push_back(quantile_us(ns, 0.99));
    }
    snap.save(idx, save_2d, round);
    restart(snap, first, first_want, out, round);
  }
  tracer::get().set_op_spans(true);
  out.context("rounds", std::to_string(ops_s.size()));
  out.metric("ops_s", median(ops_s), "ops/s");
  out.metric("query_p50_us", median(q50), "us");
  out.metric("query_p99_us", median(q99), "us");
  out.metric("range_p50_us", median(r50), "us");
  out.metric("range_p99_us", median(r99), "us");
  out.metric("update_p50_us", median(u50), "us");
  out.metric("update_p99_us", median(u99), "us");

  snap.finish(out, n);
  b.release();

  if (tracer::get().on()) {
    twin_phase(out, pts, a.seed, head(stream, lat_n), boxes, fresh);
  }
}

}  // namespace perfbench
