// Wall-clock throughput harness for the multi-dimensional stack: drives 2-D
// and 3-D point workloads (uniform and clustered) through the spatial
// registry across every backend, measuring ops/sec alongside the
// message/visit/comparison ledgers, and emits the run as BENCH_spatial.json
// for perf-trajectory tracking — the spatial sibling of bench_throughput.
//
// Usage:
//   bench_spatial [--n 1024,4096,16384] [--backends a,b|all]
//                 [--mixes locate,range,nn,churn] [--dists uniform,clustered]
//                 [--max-ops N] [--time SECONDS_PER_CELL] [--batch B]
//                 [--seed S] [--threads T1,T2,...] [--out NAME] [--smoke]
//
// --threads adds a thread-scaling section under bench_throughput's protocol
// (bench_common.h run_scale_samples): a 2^16-probe pure-locate stream of
// uniform 2-D/3-D points served through serve::executor at each listed
// thread count, as 16 frontend chunks, chunk k from host k, each cell the
// median of 5 time-bounded samples (receipts identical to serial); the JSON
// gains a "thread_scaling" array.
//
// Mixes: `locate` (pure point location; batched through locate_batch in
// groups of --batch B, default 16 as in bench_throughput — identical
// receipts, overlapped latency; --batch 1 forces serial), `range`
// (orthogonal boxes sized for ~16 hits), `nn` (nearest neighbour), `churn`
// (50/50 insert/erase). --smoke shrinks everything for CI.

#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "api/spatial_registry.h"
#include "bench_common.h"
#include "net/network.h"
#include "serve/executor.h"
#include "util/rng.h"
#include "workloads/workloads.h"

namespace {

using namespace skipweb;
using namespace skipweb::bench;
using api::spatial_box;
using api::spatial_point;
namespace wl = skipweb::workloads;

using clock_t_ = std::chrono::steady_clock;

constexpr const char* kMixes[] = {"locate", "range", "nn", "churn"};
constexpr const char* kDists[] = {"uniform", "clustered"};

// Ops between timing checks (small: churn ops on some backends are heavy).
constexpr std::uint64_t kCheck = 8;

struct config {
  std::vector<std::size_t> ns = {1024, 4096, 16384};
  std::vector<std::string> backends;  // empty = all registered
  std::vector<std::string> mixes = {"locate", "range", "nn", "churn"};
  std::vector<std::string> dists = {"uniform", "clustered"};
  std::uint64_t max_ops = 50000;
  double time_budget = 0.25;  // seconds per (backend, dist, mix, n) cell
  std::size_t batch = 16;     // >1: drive locate cells via locate_batch
  std::uint64_t seed = 1;
  std::vector<std::size_t> thread_counts;  // non-empty: executor scaling sweep
  std::string out = "spatial";
};

struct cell_result {
  double build_seconds = 0;
  double seconds = 0;
  std::uint64_t ops = 0;
  std::uint64_t results = 0;  // points returned by range/nn cells
  api::op_stats totals;
  api::memory_footprint fp;  // captured right after build

  [[nodiscard]] double ops_per_sec() const {
    return seconds > 0 ? static_cast<double>(ops) / seconds : 0.0;
  }
  [[nodiscard]] double per_op(std::uint64_t c) const {
    return ops > 0 ? static_cast<double>(c) / static_cast<double>(ops) : 0.0;
  }
};


bool known_name(const char* const* names, std::size_t count, const std::string& v) {
  for (std::size_t i = 0; i < count; ++i) {
    if (v == names[i]) return true;
  }
  return false;
}

std::vector<spatial_point> points_for(int dims, const std::string& dist, std::size_t n,
                                      util::rng& r) {
  return wl::spatial_points(dims, n, dist == "clustered", r);
}

// A box around `c` sized so a uniform set of n points yields ~16 hits.
spatial_box box_probe(const spatial_point& c, int dims, std::size_t n) {
  const double frac = std::pow(16.0 / static_cast<double>(n), 1.0 / dims);
  const auto r = static_cast<std::uint64_t>(
      frac * 0.5 * static_cast<double>(seq::coord_span));
  return api::spatial_box_around(c, std::max<std::uint64_t>(r, 1), dims);
}

// One timed cell: build the backend over n points, then run the mix until
// the time budget or the op cap is hit. Churn erases points the bench
// inserted (LIFO), so inserts are always absent and erases always present.
cell_result run_cell(const std::string& backend, const std::string& dist, const std::string& mix,
                     std::size_t n, const config& cfg) {
  const int dims = api::spatial_backend_dims(backend);
  util::rng r(cfg.seed * 6121 + n);
  auto all = points_for(dims, dist, n + 2048, r);
  std::vector<spatial_point> pts(all.begin(), all.begin() + static_cast<std::ptrdiff_t>(n));
  std::vector<spatial_point> fresh(all.begin() + static_cast<std::ptrdiff_t>(n), all.end());
  std::vector<spatial_point> probes(2048);
  for (auto& q : probes) q = wl::spatial_probe(dims, r);

  cell_result res;
  net::network net(1);
  const auto t_build0 = clock_t_::now();
  const auto idx = api::make_spatial_index(backend, pts,
                                           api::index_options{}.seed(cfg.seed).initial_hosts(64),
                                           net);
  res.build_seconds = std::chrono::duration<double>(clock_t_::now() - t_build0).count();
  res.fp = idx->footprint();

  std::vector<spatial_point> inserted;
  std::size_t probe_i = 0;
  std::uint32_t origin = 0;
  auto next_origin = [&] {
    const auto o = net::host_id{origin};
    origin = static_cast<std::uint32_t>((origin + 1) % net.host_count());
    return o;
  };

  if (mix == "locate" && cfg.batch > 1) {
    std::vector<spatial_point> group(cfg.batch);
    const auto t0 = clock_t_::now();
    while (res.ops < cfg.max_ops) {
      const auto o = next_origin();
      for (auto& q : group) {
        q = probes[probe_i];
        probe_i = (probe_i + 1) % probes.size();
      }
      for (const auto& lr : idx->locate_batch(group, o)) res.totals += lr.stats;
      res.ops += group.size();
      res.seconds = std::chrono::duration<double>(clock_t_::now() - t0).count();
      if (res.seconds >= cfg.time_budget) break;
    }
    res.seconds = std::chrono::duration<double>(clock_t_::now() - t0).count();
    return res;
  }

  const auto t0 = clock_t_::now();
  while (res.ops < cfg.max_ops) {
    for (std::uint64_t b = 0; b < kCheck && res.ops < cfg.max_ops; ++b) {
      const auto o = next_origin();
      const auto& q = probes[probe_i];
      probe_i = (probe_i + 1) % probes.size();
      if (mix == "locate") {
        res.totals += idx->locate(q, o).stats;
      } else if (mix == "range") {
        const auto rr = idx->orthogonal_range(box_probe(q, dims, n), o);
        res.totals += rr.stats;
        res.results += rr.value.size();
      } else if (mix == "nn") {
        const auto nn = idx->approx_nn(q, o);
        res.totals += nn.stats;
        ++res.results;
      } else {  // churn
        const bool do_erase = !inserted.empty() && (res.ops % 2 == 1 || fresh.empty());
        if (do_erase) {
          const auto p = inserted.back();
          inserted.pop_back();
          res.totals += idx->erase(p, o);
          fresh.push_back(p);
        } else {
          const auto p = fresh.back();
          fresh.pop_back();
          res.totals += idx->insert(p, o);
          inserted.push_back(p);
        }
      }
      ++res.ops;
    }
    res.seconds = std::chrono::duration<double>(clock_t_::now() - t0).count();
    if (res.seconds >= cfg.time_budget) break;
  }
  res.seconds = std::chrono::duration<double>(clock_t_::now() - t0).count();
  return res;
}

// One thread-scaling cell: uniform points, pure locate through a T-worker
// executor under the shared protocol (bench_common.h run_scale_samples).
scale_result run_scale_cell(const std::string& backend, std::size_t n, std::size_t threads,
                            const config& cfg) {
  const int dims = api::spatial_backend_dims(backend);
  util::rng r(cfg.seed * 6121 + n);  // same build inputs as run_cell (uniform)
  const auto pts = wl::spatial_points(dims, n, false, r);
  const auto qs = wl::spatial_query_stream(dims, kScaleProbes, cfg.seed * 104729 + n);

  net::network net(1);
  const auto t_build0 = clock_t_::now();
  const auto idx = api::make_spatial_index(backend, pts,
                                           api::index_options{}.seed(cfg.seed).initial_hosts(64),
                                           net);
  const double build_seconds = std::chrono::duration<double>(clock_t_::now() - t_build0).count();

  serve::executor ex(threads);
  const std::size_t batch = cfg.batch > 1 ? cfg.batch : 1;
  return run_scale_samples(qs, net, build_seconds, cfg.max_ops, cfg.time_budget,
                           [&](const std::vector<api::spatial_point>& chunk, net::host_id origin) {
                             return ex.run_locate(*idx, chunk, origin, batch).total;
                           });
}

void usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s [--n 1024,4096,...] [--backends a,b|all] [--mixes locate,range,nn,churn]\n"
               "          [--dists uniform,clustered] [--max-ops N] [--time SECONDS] [--batch B]\n"
               "          [--seed S] [--threads T1,T2,...] [--out NAME] [--smoke]\n",
               argv0);
}

}  // namespace

int main(int argc, char** argv) {
  config cfg;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    auto need = [&](const char* flag) -> const char* {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "%s needs a value\n", flag);
        usage(argv[0]);
        std::exit(2);
      }
      return argv[++i];
    };
    if (a == "--n") {
      cfg.ns.clear();
      for (const auto& s : split_list(need("--n"))) {
        cfg.ns.push_back(std::strtoull(s.c_str(), nullptr, 10));
      }
    } else if (a == "--backends") {
      const auto v = split_list(need("--backends"));
      cfg.backends = (v.size() == 1 && v[0] == "all") ? std::vector<std::string>{} : v;
    } else if (a == "--mixes") {
      cfg.mixes = split_list(need("--mixes"));
    } else if (a == "--dists") {
      cfg.dists = split_list(need("--dists"));
    } else if (a == "--max-ops") {
      cfg.max_ops = std::strtoull(need("--max-ops"), nullptr, 10);
    } else if (a == "--time") {
      cfg.time_budget = std::strtod(need("--time"), nullptr);
    } else if (a == "--batch") {
      cfg.batch = std::strtoull(need("--batch"), nullptr, 10);
      if (cfg.batch == 0) cfg.batch = 1;
    } else if (a == "--seed") {
      cfg.seed = std::strtoull(need("--seed"), nullptr, 10);
    } else if (a == "--threads") {
      cfg.thread_counts.clear();
      for (const auto& s : split_list(need("--threads"))) {
        const auto t = std::strtoull(s.c_str(), nullptr, 10);
        cfg.thread_counts.push_back(t == 0 ? 1 : static_cast<std::size_t>(t));
      }
    } else if (a == "--out") {
      cfg.out = need("--out");
    } else if (a == "--smoke") {
      cfg.ns = {256, 1024};
      cfg.max_ops = 1500;
      cfg.time_budget = 0.04;
    } else {
      usage(argv[0]);
      return a == "--help" || a == "-h" ? 0 : 2;
    }
  }
  if (cfg.backends.empty()) cfg.backends = api::registered_spatial_backends();
  for (const auto& m : cfg.mixes) {
    if (!known_name(kMixes, std::size(kMixes), m)) {
      std::fprintf(stderr, "unknown mix '%s'\n", m.c_str());
      return 2;
    }
  }
  for (const auto& d : cfg.dists) {
    if (!known_name(kDists, std::size(kDists), d)) {
      std::fprintf(stderr, "unknown dist '%s'\n", d.c_str());
      return 2;
    }
  }
  for (const auto& b : cfg.backends) {
    if (!api::spatial_backend_known(b)) {
      std::fprintf(stderr, "unknown spatial backend '%s'\n", b.c_str());
      return 2;
    }
  }

#if SW_CONTRACTS
  const bool contracts = true;
#else
  const bool contracts = false;
#endif
#if defined(NDEBUG)
  const bool ndebug = true;
#else
  const bool ndebug = false;
#endif

  print_header("Spatial throughput - wall-clock ops/sec per backend per workload mix");
  std::printf("contracts=%s ndebug=%s  (release-bench preset: contracts off, -O3 -DNDEBUG)\n",
              contracts ? "on" : "off", ndebug ? "on" : "off");
  print_rule();
  print_row({"backend", "dist", "mix", "n", "ops", "sec", "ops/sec", "msgs/op", "visits/op",
             "build_s", "B/key"},
            15);
  print_rule();

  json_writer jw;
  jw.begin_object();
  jw.field("bench", "spatial");
  jw.field("contracts", contracts);
  jw.field("ndebug", ndebug);
  jw.field("seed", cfg.seed);
  jw.field("batch", static_cast<std::uint64_t>(cfg.batch));
  json_hardware_fields(jw);
  jw.key("samples").begin_array();

  for (const auto& backend : cfg.backends) {
    for (const auto& dist : cfg.dists) {
      for (const auto& mix : cfg.mixes) {
        for (const std::size_t n : cfg.ns) {
          const auto res = run_cell(backend, dist, mix, n, cfg);
          print_row({backend, dist, mix, fmt_u(n), fmt_u(res.ops), fmt(res.seconds, 3),
                     fmt(res.ops_per_sec(), 0), fmt(res.per_op(res.totals.messages), 2),
                     fmt(res.per_op(res.totals.host_visits), 2), fmt(res.build_seconds, 3),
                     fmt(res.fp.bytes_per_key(n), 1)},
                    15);
          jw.begin_object();
          jw.field("backend", backend);
          jw.field("dims", api::spatial_backend_dims(backend));
          jw.field("dist", dist);
          jw.field("mix", mix);
          jw.field("n", n);
          jw.field("ops", res.ops);
          jw.field("seconds", res.seconds);
          jw.field("ops_per_sec", res.ops_per_sec());
          json_thread_fields(jw, 1, res.ops_per_sec());  // classic cells are serial
          jw.field("build_seconds", res.build_seconds);
          jw.field("messages_per_op", res.per_op(res.totals.messages));
          jw.field("host_visits_per_op", res.per_op(res.totals.host_visits));
          jw.field("comparisons_per_op", res.per_op(res.totals.comparisons));
          jw.field("results", res.results);
          json_footprint_fields(jw, res.fp, n);
          jw.end_object();
        }
      }
    }
    print_rule();
  }

  jw.end_array();

  if (!cfg.thread_counts.empty()) {
    print_header("Thread scaling - serve::executor over pure locate, ops/sec vs worker count");
    std::printf("hardware_concurrency=%u  (speedup is vs the sweep's first thread count)\n",
                std::thread::hardware_concurrency());
    print_rule();
    print_row({"backend", "n", "threads", "ops", "sec", "ops/sec", "ops/sec/thread", "speedup",
               "msgs/op"},
              15);
    print_rule();

    jw.key("thread_scaling").begin_array();
    for (const auto& backend : cfg.backends) {
      for (const std::size_t n : cfg.ns) {
        double base_ops_per_sec = 0;
        for (const std::size_t T : cfg.thread_counts) {
          const auto res = run_scale_cell(backend, n, T, cfg);
          if (base_ops_per_sec == 0) base_ops_per_sec = res.ops_per_sec();
          const double speedup =
              base_ops_per_sec > 0 ? res.ops_per_sec() / base_ops_per_sec : 0.0;
          print_row({backend, fmt_u(n), fmt_u(T), fmt_u(res.ops), fmt(res.seconds, 3),
                     fmt(res.ops_per_sec(), 0),
                     fmt(res.ops_per_sec() / static_cast<double>(T), 0), fmt(speedup, 2),
                     fmt(res.per_op(res.totals.messages), 2)},
                    15);
          jw.begin_object();
          jw.field("backend", backend);
          jw.field("dims", api::spatial_backend_dims(backend));
          jw.field("mix", "locate");
          jw.field("n", n);
          json_scale_fields(jw, res, T, speedup);
          jw.end_object();
        }
      }
      print_rule();
    }
    jw.end_array();
  }

  jw.end_object();
  write_bench_json(cfg.out, jw.str());
  return 0;
}
