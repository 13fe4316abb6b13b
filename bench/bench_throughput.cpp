// Wall-clock throughput harness: drives batched search/insert/erase mixes
// through the api registry across every backend and several n, measuring
// ops/sec alongside the message/visit/comparison ledgers, and emits the
// whole run as BENCH_throughput.json for perf-trajectory tracking.
//
// The message ledgers model the *distributed* cost (the paper's Q/U/C
// axes); ops/sec measures what the simulator itself costs on real hardware.
// Both matter: the first validates the paper, the second is the number that
// must go up PR over PR (see DESIGN.md "Performance model & memory layout").
//
// Usage:
//   bench_throughput [--n 1024,4096,16384] [--backends a,b|all]
//                    [--mixes search,mixed,churn] [--max-ops N]
//                    [--time SECONDS_PER_CELL] [--batch B] [--seed S]
//                    [--threads T1,T2,...] [--out NAME] [--smoke]
//
// --batch B > 1 runs pure-search cells through nearest_batch() in groups of
// B (identical results and receipts; overlapped memory latency). Mixed and
// churn cells always run one op at a time.
//
// --threads adds a thread-scaling section under the protocol bench_spatial
// shares (bench_common.h run_scale_samples): a 2^16-probe search stream is
// served through the serve::executor thread pool at each listed thread
// count, as 16 frontend chunks, chunk k from host k (the same stream
// statically partitioned across workers — results and summed receipts
// identical to the serial loop by the executor contract). Each cell is the
// median of 5 time-bounded samples, and the run's JSON gains a
// "thread_scaling" array. The serving plane is query-only; mixed/churn cells
// stay single-threaded.
//
// --smoke shrinks everything for CI (two small n, tight time budget).

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <string>
#include <vector>

#include "api/registry.h"
#include "bench_common.h"
#include "net/network.h"
#include "serve/executor.h"
#include "util/rng.h"
#include "workloads/workloads.h"

namespace {

using namespace skipweb;
using namespace skipweb::bench;
namespace wl = skipweb::workloads;

using clock_t_ = std::chrono::steady_clock;

struct mix_t {
  const char* name;
  int search_pct;  // remainder splits evenly between insert and erase
  int insert_pct;
  int erase_pct;
};

constexpr mix_t kMixes[] = {
    {"search", 100, 0, 0},
    {"mixed", 80, 10, 10},
    {"churn", 0, 50, 50},
};

// Ops per timing check; also the ceiling for --batch group size.
constexpr std::uint64_t kBatch = 128;

// Batch width for the big-n scaling cells — the microbench guard from
// DESIGN.md §12: the interleaved router's batch-24 speedup must hold at 1M.
constexpr std::size_t kBignBatch = 24;

struct config {
  std::vector<std::size_t> ns = {1024, 4096, 16384};
  std::vector<std::string> backends;  // empty = all registered
  std::vector<std::string> mixes = {"search", "mixed", "churn"};
  std::uint64_t max_ops = 50000;
  double time_budget = 0.25;  // seconds per (backend, mix, n) cell
  std::size_t batch = 16;     // >1: drive pure-search cells via nearest_batch
  std::uint64_t seed = 1;
  std::vector<std::size_t> thread_counts;  // non-empty: executor scaling sweep
  // Big-n scaling sweep: bulk-built deployments at sizes where the log vs
  // log/log-log query separation is visible. Only bulk-capable backends by
  // default — populating a baseline at 4M costs n full insert routes.
  std::vector<std::size_t> bign_ns = {1u << 18, 1u << 20, 1u << 22};
  std::vector<std::string> bign_backends = {"skipweb1d", "bucket_skipweb"};
  // Instant-restart sweep (DESIGN.md §13): snapshot-save a bulk-built
  // deployment, then time the cold-start alternatives — mmap restore
  // (headline), owned-read restore, and time-to-first-query — against the
  // bulk build itself and the extrapolated incremental population.
  std::vector<std::size_t> restart_ns = {1u << 20, 1u << 22};
  std::vector<std::string> restart_backends = {"skipweb1d", "bucket_skipweb"};
  std::string out = "throughput";
};

struct cell_result {
  double build_seconds = 0;
  double seconds = 0;
  std::uint64_t ops = 0;
  std::uint64_t searches = 0, inserts = 0, erases = 0;
  api::op_stats totals;
  api::memory_footprint fp;  // captured right after build

  [[nodiscard]] double ops_per_sec() const { return seconds > 0 ? static_cast<double>(ops) / seconds : 0.0; }
  [[nodiscard]] double per_op(std::uint64_t c) const {
    return ops > 0 ? static_cast<double>(c) / static_cast<double>(ops) : 0.0;
  }
};

const mix_t* find_mix(const std::string& name) {
  for (const auto& m : kMixes) {
    if (name == m.name) return &m;
  }
  return nullptr;
}

// One timed cell: build the backend over n keys, then run the mix until the
// time budget or the op cap is hit. Erases pop keys the bench inserted
// (LIFO) and recycle them into the fresh-key pool, so the key population
// hovers at n and insert keys are always absent / erase keys always present.
cell_result run_cell(const std::string& backend, const mix_t& mix, std::size_t n,
                     const config& cfg) {
  util::rng r(cfg.seed * 7919 + n);
  auto all = wl::uniform_keys(n + 8192, r);
  std::vector<std::uint64_t> keys(all.begin(), all.begin() + static_cast<std::ptrdiff_t>(n));
  std::vector<std::uint64_t> fresh(all.begin() + static_cast<std::ptrdiff_t>(n), all.end());
  const auto probes = wl::probe_keys(keys, 4096, r);

  cell_result res;
  net::network net(1);
  const auto t_build0 = clock_t_::now();
  const auto idx = api::make_index(backend, keys, api::index_options{}.seed(cfg.seed), net);
  res.build_seconds = std::chrono::duration<double>(clock_t_::now() - t_build0).count();
  res.fp = idx->footprint();

  std::vector<std::uint64_t> inserted;  // keys this bench added, LIFO
  std::size_t probe_i = 0;
  std::uint32_t origin = 0;

  // Pure-search cells can go through the batched entry point: same ops,
  // same receipts, overlapped latency.
  if (mix.search_pct == 100 && cfg.batch > 1) {
    std::vector<std::uint64_t> group(cfg.batch);
    const auto t0 = clock_t_::now();
    while (res.ops < cfg.max_ops) {
      for (std::uint64_t b = 0; b + cfg.batch <= kBatch && res.ops < cfg.max_ops; b += cfg.batch) {
        const auto o = net::host_id{origin};
        origin = static_cast<std::uint32_t>((origin + 1) % net.host_count());
        for (auto& q : group) {
          q = probes[probe_i];
          probe_i = (probe_i + 1) % probes.size();
        }
        for (const auto& nn : idx->nearest_batch(group, o)) res.totals += nn.stats;
        res.searches += group.size();
        res.ops += group.size();
      }
      res.seconds = std::chrono::duration<double>(clock_t_::now() - t0).count();
      if (res.seconds >= cfg.time_budget) break;
    }
    res.seconds = std::chrono::duration<double>(clock_t_::now() - t0).count();
    return res;
  }

  const auto t0 = clock_t_::now();
  while (res.ops < cfg.max_ops) {
    for (std::uint64_t b = 0; b < kBatch && res.ops < cfg.max_ops; ++b) {
      const auto o = net::host_id{origin};
      origin = static_cast<std::uint32_t>((origin + 1) % net.host_count());
      int kind = static_cast<int>(r.index(100));
      bool do_insert = kind >= mix.search_pct && kind < mix.search_pct + mix.insert_pct;
      bool do_erase = kind >= mix.search_pct + mix.insert_pct;
      if (do_erase && inserted.empty()) {
        do_erase = false;
        do_insert = true;  // nothing of ours to erase yet
      }
      if (do_insert && fresh.empty()) {
        do_insert = false;
        do_erase = !inserted.empty();
      }
      if (do_insert) {
        const auto k = fresh.back();
        fresh.pop_back();
        res.totals += idx->insert(k, o);
        inserted.push_back(k);
        ++res.inserts;
      } else if (do_erase) {
        const auto k = inserted.back();
        inserted.pop_back();
        res.totals += idx->erase(k, o);
        fresh.push_back(k);
        ++res.erases;
      } else {
        const auto q = probes[probe_i];
        probe_i = (probe_i + 1) % probes.size();
        res.totals += idx->nearest(q, o).stats;
        ++res.searches;
      }
      ++res.ops;
    }
    res.seconds = std::chrono::duration<double>(clock_t_::now() - t0).count();
    if (res.seconds >= cfg.time_budget) break;
  }
  res.seconds = std::chrono::duration<double>(clock_t_::now() - t0).count();
  return res;
}

// One thread-scaling cell: build the backend over n keys once, then serve a
// pregenerated probe stream through a T-worker executor under the shared
// protocol (bench_common.h run_scale_samples).
scale_result run_scale_cell(const std::string& backend, std::size_t n, std::size_t threads,
                            const config& cfg) {
  util::rng r(cfg.seed * 7919 + n);  // same build inputs as run_cell
  auto all = wl::uniform_keys(n + 8192, r);
  std::vector<std::uint64_t> keys(all.begin(), all.begin() + static_cast<std::ptrdiff_t>(n));
  const auto qs = wl::query_stream(keys, kScaleProbes, cfg.seed * 104729 + n);

  net::network net(1);
  const auto t_build0 = clock_t_::now();
  const auto idx = api::make_index(backend, keys, api::index_options{}.seed(cfg.seed), net);
  const double build_seconds = std::chrono::duration<double>(clock_t_::now() - t_build0).count();

  serve::executor ex(threads);
  const std::size_t batch = cfg.batch > 1 ? cfg.batch : 1;
  return run_scale_samples(qs, net, build_seconds, cfg.max_ops, cfg.time_budget,
                           [&](const std::vector<std::uint64_t>& chunk, net::host_id origin) {
                             return ex.run_nearest(*idx, chunk, origin, batch).total;
                           });
}

// One big-n scaling cell: bulk-build the backend at n, record its memory
// footprint, measure serial and batch-24 search throughput over the pristine
// structure, then sample routed inserts to extrapolate what an incremental
// n-key population would have cost. The extrapolation (insert us/op x n) is
// the honest comparison at 4M — actually running n insert routes is exactly
// the cost the bulk path exists to avoid.
struct bign_result {
  double bulk_build_seconds = 0;
  double insert_us_per_op = 0;
  double est_incremental_seconds = 0;
  double serial_ops_per_sec = 0;
  double batch_ops_per_sec = 0;
  std::uint64_t inserts_sampled = 0;
  api::memory_footprint fp;
};

bign_result run_bign_cell(const std::string& backend, std::size_t n, const config& cfg) {
  bign_result res;
  util::rng r(cfg.seed * 6151 + n);
  const std::size_t sample = std::min<std::size_t>(20000, n / 8);
  auto all = wl::uniform_keys(n + sample, r);
  const std::vector<std::uint64_t> keys(all.begin(), all.begin() + static_cast<std::ptrdiff_t>(n));
  const std::vector<std::uint64_t> fresh(all.begin() + static_cast<std::ptrdiff_t>(n), all.end());
  const auto probes = wl::probe_keys(keys, 8192, r);

  net::network net(1);
  const auto t_build0 = clock_t_::now();
  const auto idx = api::make_index(backend, keys, api::index_options{}.seed(cfg.seed), net);
  res.bulk_build_seconds = std::chrono::duration<double>(clock_t_::now() - t_build0).count();
  res.fp = idx->footprint();

  std::uint32_t origin = 0;
  const auto next_origin = [&] {
    const auto o = net::host_id{origin};
    origin = static_cast<std::uint32_t>((origin + 1) % net.host_count());
    return o;
  };

  // Routed-insert sampling first, on the cold just-built structure — that
  // mirrors population conditions (an incremental build never runs on a
  // search-warmed cache) and includes the arena-growth reallocations a real
  // n-insert population would pay.
  {
    const auto t0 = clock_t_::now();
    for (const auto k : fresh) (void)idx->insert(k, next_origin());
    const double secs = std::chrono::duration<double>(clock_t_::now() - t0).count();
    res.inserts_sampled = fresh.size();
    if (!fresh.empty()) {
      res.insert_us_per_op = secs * 1e6 / static_cast<double>(fresh.size());
      res.est_incremental_seconds = res.insert_us_per_op * static_cast<double>(n) / 1e6;
    }
  }

  // Serial search throughput.
  {
    std::uint64_t ops = 0;
    std::size_t pi = 0;
    double secs = 0;
    const auto t0 = clock_t_::now();
    while (ops < cfg.max_ops) {
      for (std::uint64_t b = 0; b < kBatch && ops < cfg.max_ops; ++b) {
        (void)idx->nearest(probes[pi], next_origin());
        pi = (pi + 1) % probes.size();
        ++ops;
      }
      secs = std::chrono::duration<double>(clock_t_::now() - t0).count();
      if (secs >= cfg.time_budget) break;
    }
    secs = std::chrono::duration<double>(clock_t_::now() - t0).count();
    res.serial_ops_per_sec = secs > 0 ? static_cast<double>(ops) / secs : 0.0;
  }

  // Batch-24 through the interleaved router: same answers and receipts,
  // overlapped memory latency.
  {
    std::vector<std::uint64_t> group(kBignBatch);
    std::uint64_t ops = 0;
    std::size_t pi = 0;
    double secs = 0;
    const auto t0 = clock_t_::now();
    while (ops < cfg.max_ops) {
      for (std::uint64_t b = 0; b + kBignBatch <= kBatch && ops < cfg.max_ops; b += kBignBatch) {
        const auto o = next_origin();
        for (auto& q : group) {
          q = probes[pi];
          pi = (pi + 1) % probes.size();
        }
        (void)idx->nearest_batch(group, o);
        ops += group.size();
      }
      secs = std::chrono::duration<double>(clock_t_::now() - t0).count();
      if (secs >= cfg.time_budget) break;
    }
    secs = std::chrono::duration<double>(clock_t_::now() - t0).count();
    res.batch_ops_per_sec = secs > 0 ? static_cast<double>(ops) / secs : 0.0;
  }
  return res;
}

// One restart cell: bulk-build at n, persist the snapshot, then measure what
// the next process start costs. The map restore is the headline — the arenas,
// placement tables and memory ledger come back as borrowed spans over the
// file mapping, so the restore time is metadata validation plus whatever the
// backend still rebuilds from its sections, not an O(n) read. A crash-restart
// smoke rides along: the restored twin (fresh network, nothing shared but
// the file) must answer a probe sample identically to the original.
struct restart_result {
  double bulk_build_seconds = 0;
  double save_seconds = 0;  // compact + checksummed write
  double restore_map_seconds = 0;
  double restore_load_seconds = 0;
  double first_query_ms = 0;  // map restore + one routed nearest, end to end
  std::uint64_t snapshot_bytes = 0;
  bool answers_match = true;
};

restart_result run_restart_cell(const std::string& backend, std::size_t n, const config& cfg) {
  restart_result res;
  util::rng r(cfg.seed * 6151 + n);  // same deployment as the bign cell
  auto keys = wl::uniform_keys(n, r);
  const auto probes = wl::probe_keys(keys, 64, r);
  const auto path = (std::filesystem::temp_directory_path() /
                     ("bench_restart_" + backend + "_" + std::to_string(n) + ".snap"))
                        .string();

  net::network net(1);
  const auto t_build0 = clock_t_::now();
  const auto idx =
      api::make_index(backend, std::move(keys), api::index_options{}.seed(cfg.seed), net);
  res.bulk_build_seconds = std::chrono::duration<double>(clock_t_::now() - t_build0).count();

  const auto t_save0 = clock_t_::now();
  api::save_index_snapshot(*idx, path);
  res.save_seconds = std::chrono::duration<double>(clock_t_::now() - t_save0).count();
  res.snapshot_bytes = std::filesystem::file_size(path);

  {  // owned read: every payload checksum verified up front
    net::network net_l(1);
    const auto t0 = clock_t_::now();
    const auto twin = api::restore_index(path, persist::restore_mode::load, net_l);
    res.restore_load_seconds = std::chrono::duration<double>(clock_t_::now() - t0).count();
  }
  {  // mmap + time-to-first-query + the crash-restart answer smoke
    net::network net_m(1);
    const auto t0 = clock_t_::now();
    const auto twin = api::restore_index(path, persist::restore_mode::map, net_m);
    res.restore_map_seconds = std::chrono::duration<double>(clock_t_::now() - t0).count();
    (void)twin->nearest(probes[0], net::host_id{0});
    res.first_query_ms =
        std::chrono::duration<double>(clock_t_::now() - t0).count() * 1e3;
    for (const auto q : probes) {
      const auto a = idx->nearest(q, net::host_id{0});
      const auto b = twin->nearest(q, net::host_id{0});
      if (a.pred != b.pred || a.succ != b.succ || !(a.stats == b.stats)) {
        res.answers_match = false;
        break;
      }
    }
  }
  std::filesystem::remove(path);
  return res;
}

void usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s [--n 1024,4096,...] [--backends a,b|all] [--mixes search,mixed,churn]\n"
               "          [--max-ops N] [--time SECONDS] [--batch B] [--seed S]\n"
               "          [--threads T1,T2,...] [--bign N1,N2,...|none]\n"
               "          [--bign-backends a,b] [--restart N1,N2,...|none]\n"
               "          [--restart-backends a,b] [--out NAME] [--smoke]\n",
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
      for (const auto& s : split_list(need("--n"))) cfg.ns.push_back(std::strtoull(s.c_str(), nullptr, 10));
    } else if (a == "--backends") {
      const auto v = split_list(need("--backends"));
      cfg.backends = (v.size() == 1 && v[0] == "all") ? std::vector<std::string>{} : v;
    } else if (a == "--mixes") {
      cfg.mixes = split_list(need("--mixes"));
    } else if (a == "--max-ops") {
      cfg.max_ops = std::strtoull(need("--max-ops"), nullptr, 10);
    } else if (a == "--time") {
      cfg.time_budget = std::strtod(need("--time"), nullptr);
    } else if (a == "--batch") {
      cfg.batch = std::strtoull(need("--batch"), nullptr, 10);
      if (cfg.batch == 0) cfg.batch = 1;
      if (cfg.batch > kBatch) cfg.batch = kBatch;  // group cap; larger spins zero ops
    } else if (a == "--seed") {
      cfg.seed = std::strtoull(need("--seed"), nullptr, 10);
    } else if (a == "--threads") {
      cfg.thread_counts.clear();
      for (const auto& s : split_list(need("--threads"))) {
        const auto t = std::strtoull(s.c_str(), nullptr, 10);
        cfg.thread_counts.push_back(t == 0 ? 1 : static_cast<std::size_t>(t));
      }
    } else if (a == "--bign") {
      cfg.bign_ns.clear();
      for (const auto& s : split_list(need("--bign"))) {
        if (s == "none") continue;
        cfg.bign_ns.push_back(std::strtoull(s.c_str(), nullptr, 10));
      }
    } else if (a == "--bign-backends") {
      cfg.bign_backends = split_list(need("--bign-backends"));
    } else if (a == "--restart") {
      cfg.restart_ns.clear();
      for (const auto& s : split_list(need("--restart"))) {
        if (s == "none") continue;
        cfg.restart_ns.push_back(std::strtoull(s.c_str(), nullptr, 10));
      }
    } else if (a == "--restart-backends") {
      cfg.restart_backends = split_list(need("--restart-backends"));
    } else if (a == "--out") {
      cfg.out = need("--out");
    } else if (a == "--smoke") {
      cfg.ns = {256, 1024};
      cfg.max_ops = 2000;
      cfg.time_budget = 0.05;
      cfg.bign_ns = {1u << 18};  // CI smoke: one bulk-built 256k deployment
      cfg.restart_ns = {1u << 17};  // CI smoke: one save/restore cycle at 128k
    } else {
      usage(argv[0]);
      return a == "--help" || a == "-h" ? 0 : 2;
    }
  }
  if (cfg.backends.empty()) cfg.backends = api::registered_backends();
  for (const auto& m : cfg.mixes) {
    if (find_mix(m) == nullptr) {
      std::fprintf(stderr, "unknown mix '%s'\n", m.c_str());
      return 2;
    }
  }
  for (const auto& b : cfg.backends) {
    if (!api::backend_known(b)) {
      std::fprintf(stderr, "unknown backend '%s'\n", b.c_str());
      return 2;
    }
  }
  for (const auto& b : cfg.bign_backends) {
    if (!api::backend_known(b)) {
      std::fprintf(stderr, "unknown bign backend '%s'\n", b.c_str());
      return 2;
    }
  }
  for (const auto& b : cfg.restart_backends) {
    if (!api::backend_known(b)) {
      std::fprintf(stderr, "unknown restart backend '%s'\n", b.c_str());
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

  print_header("Throughput - wall-clock ops/sec per backend per workload mix");
  std::printf("contracts=%s ndebug=%s  (release-bench preset: contracts off, -O3 -DNDEBUG)\n",
              contracts ? "on" : "off", ndebug ? "on" : "off");
  print_rule();
  print_row({"backend", "mix", "n", "ops", "sec", "ops/sec", "msgs/op", "visits/op", "cmps/op",
             "build_s", "B/key"},
            17);
  print_rule();

  json_writer jw;
  jw.begin_object();
  jw.field("bench", "throughput");
  jw.field("contracts", contracts);
  jw.field("ndebug", ndebug);
  jw.field("seed", cfg.seed);
  jw.field("batch", static_cast<std::uint64_t>(cfg.batch));
  json_hardware_fields(jw);
  jw.key("samples").begin_array();

  for (const auto& backend : cfg.backends) {
    for (const auto& mix_name : cfg.mixes) {
      const mix_t& mix = *find_mix(mix_name);
      for (const std::size_t n : cfg.ns) {
        const auto res = run_cell(backend, mix, n, cfg);
        print_row({backend, mix.name, fmt_u(n), fmt_u(res.ops), fmt(res.seconds, 3),
                   fmt(res.ops_per_sec(), 0), fmt(res.per_op(res.totals.messages), 2),
                   fmt(res.per_op(res.totals.host_visits), 2),
                   fmt(res.per_op(res.totals.comparisons), 2), fmt(res.build_seconds, 3),
                   fmt(res.fp.bytes_per_key(n), 1)},
                  17);
        jw.begin_object();
        jw.field("backend", backend);
        jw.field("mix", mix.name);
        jw.field("n", n);
        jw.field("ops", res.ops);
        jw.field("seconds", res.seconds);
        jw.field("ops_per_sec", res.ops_per_sec());
        json_thread_fields(jw, 1, res.ops_per_sec());  // classic cells are serial
        jw.field("build_seconds", res.build_seconds);
        jw.field("messages_per_op", res.per_op(res.totals.messages));
        jw.field("host_visits_per_op", res.per_op(res.totals.host_visits));
        jw.field("comparisons_per_op", res.per_op(res.totals.comparisons));
        jw.field("searches", res.searches);
        jw.field("inserts", res.inserts);
        jw.field("erases", res.erases);
        json_footprint_fields(jw, res.fp, n);
        jw.end_object();
      }
    }
    print_rule();
  }

  jw.end_array();

  if (!cfg.bign_ns.empty()) {
    print_header("Big-n scaling - bulk-build vs extrapolated incremental, search ops/s, bytes/key");
    std::printf("batch width %zu; est_incr_s extrapolates the sampled routed-insert cost to n ops\n",
                kBignBatch);
    print_rule();
    print_row({"backend", "n", "bulk_s", "ins_us/op", "est_incr_s", "speedup", "serial_ops/s",
               "b24_ops/s", "MiB", "B/key"},
              14);
    print_rule();

    jw.key("bign_scaling").begin_array();
    for (const auto& backend : cfg.bign_backends) {
      for (const std::size_t n : cfg.bign_ns) {
        const auto res = run_bign_cell(backend, n, cfg);
        const double speedup =
            res.bulk_build_seconds > 0 ? res.est_incremental_seconds / res.bulk_build_seconds : 0.0;
        print_row({backend, fmt_u(n), fmt(res.bulk_build_seconds, 3), fmt(res.insert_us_per_op, 2),
                   fmt(res.est_incremental_seconds, 2), fmt(speedup, 1),
                   fmt(res.serial_ops_per_sec, 0), fmt(res.batch_ops_per_sec, 0),
                   fmt(static_cast<double>(res.fp.total_bytes()) / (1024.0 * 1024.0), 1),
                   fmt(res.fp.bytes_per_key(n), 1)},
                  14);
        jw.begin_object();
        jw.field("backend", backend);
        jw.field("n", n);
        jw.field("bulk_build_seconds", res.bulk_build_seconds);
        jw.field("insert_us_per_op", res.insert_us_per_op);
        jw.field("inserts_sampled", res.inserts_sampled);
        jw.field("est_incremental_build_seconds", res.est_incremental_seconds);
        jw.field("bulk_speedup", speedup);
        jw.field("serial_ops_per_sec", res.serial_ops_per_sec);
        jw.field("batch", static_cast<std::uint64_t>(kBignBatch));
        jw.field("batch_ops_per_sec", res.batch_ops_per_sec);
        json_footprint_fields(jw, res.fp, n);
        jw.end_object();
      }
      print_rule();
    }
    jw.end_array();
  }

  if (!cfg.restart_ns.empty()) {
    print_header("Instant restart - snapshot save/restore vs building from scratch");
    std::printf("restore(map) is the cold-start headline; ttfq = map restore + first routed query\n");
    print_rule();
    print_row({"backend", "n", "bulk_s", "save_s", "snap_MiB", "load_s", "map_ms", "ttfq_ms",
               "speedup", "match"},
              12);
    print_rule();

    jw.key("restart").begin_array();
    for (const auto& backend : cfg.restart_backends) {
      for (const std::size_t n : cfg.restart_ns) {
        const auto res = run_restart_cell(backend, n, cfg);
        const double speedup = res.restore_map_seconds > 0
                                   ? res.bulk_build_seconds / res.restore_map_seconds
                                   : 0.0;
        print_row({backend, fmt_u(n), fmt(res.bulk_build_seconds, 3), fmt(res.save_seconds, 3),
                   fmt(static_cast<double>(res.snapshot_bytes) / (1024.0 * 1024.0), 1),
                   fmt(res.restore_load_seconds, 3), fmt(res.restore_map_seconds * 1e3, 2),
                   fmt(res.first_query_ms, 2), fmt(speedup, 1),
                   res.answers_match ? "yes" : "NO"},
                  12);
        jw.begin_object();
        jw.field("backend", backend);
        jw.field("n", n);
        jw.field("bulk_build_seconds", res.bulk_build_seconds);
        jw.field("save_seconds", res.save_seconds);
        jw.field("snapshot_bytes", res.snapshot_bytes);
        jw.field("restore_load_seconds", res.restore_load_seconds);
        jw.field("restore_map_seconds", res.restore_map_seconds);
        jw.field("first_query_ms", res.first_query_ms);
        jw.field("restore_speedup_vs_bulk", speedup);
        jw.field("answers_match", res.answers_match);
        jw.end_object();
      }
      print_rule();
    }
    jw.end_array();
  }

  if (!cfg.thread_counts.empty()) {
    print_header("Thread scaling - serve::executor over pure search, ops/sec vs worker count");
    std::printf("hardware_concurrency=%u  (speedup is vs the sweep's first thread count)\n",
                std::thread::hardware_concurrency());
    print_rule();
    print_row({"backend", "n", "threads", "ops", "sec", "ops/sec", "ops/sec/thread", "speedup",
               "msgs/op"},
              17);
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
                    17);
          jw.begin_object();
          jw.field("backend", backend);
          jw.field("mix", "search");
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
