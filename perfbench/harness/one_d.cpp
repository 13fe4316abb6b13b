// The two 1-D workloads: lookup_1m (DRAM-bound reads, executor serving,
// big-arena persistence) and churn_zipf_16k (in-cache Zipf reads beside
// inserts and erases, with the route cache attached). Both run whole passes
// over fixed seeded tapes; see ../README.md for why.

#include <algorithm>
#include <functional>
#include <memory>
#include <set>
#include <string>
#include <unordered_set>
#include <vector>

#include "api/registry.h"
#include "common.h"
#include "core/skipweb_1d.h"
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
namespace serve = skipweb::serve;
namespace util = skipweb::util;
namespace wl = skipweb::workloads;

namespace {

constexpr std::uint64_t key_span = std::uint64_t{1} << 62;
constexpr std::size_t batch = 24;           // executor batch width
constexpr std::size_t range_limit = 256;    // bound on every range's output
constexpr std::size_t first_batch_n = 256;  // answers timed into restart_ms

struct range_q {
  std::uint64_t lo, hi;
};

// The sorted-vector oracle.
struct sorted_oracle {
  std::vector<std::uint64_t> keys;  // ascending

  [[nodiscard]] api::nn_result nn(std::uint64_t q) const {
    api::nn_result r;
    const auto it = std::upper_bound(keys.begin(), keys.end(), q);
    if (it != keys.end()) {
      r.has_succ = true;
      r.succ = *it;
    }
    if (it != keys.begin()) {
      r.has_pred = true;
      r.pred = *(it - 1);
    }
    return r;
  }
  [[nodiscard]] std::vector<std::uint64_t> range(std::uint64_t lo, std::uint64_t hi) const {
    auto it = std::lower_bound(keys.begin(), keys.end(), lo);
    std::vector<std::uint64_t> out;
    for (; it != keys.end() && *it <= hi && out.size() < range_limit; ++it) out.push_back(*it);
    return out;
  }
};

[[nodiscard]] bool same_nn(const api::nn_result& a, const api::nn_result& b) {
  return a.has_pred == b.has_pred && a.has_succ == b.has_succ &&
         (!a.has_pred || a.pred == b.pred) && (!a.has_succ || a.succ == b.succ);
}

// Checks a batch of answers against reference answers, one verdict per op.
void check_nn_all(result& out, const std::vector<api::nn_result>& got,
                  const std::vector<api::nn_result>& want, const char* what) {
  std::uint64_t ok = 0;
  for (std::size_t i = 0; i < got.size(); ++i) {
    if (same_nn(got[i], want[i]) && !flagged(got[i].stats)) {
      ++ok;
    } else {
      out.check(false, what);
    }
  }
  out.passed(ok);
}

std::vector<range_q> make_ranges(std::size_t count, std::size_t n, util::rng& r) {
  // ~32 keys per range: 32 mean gaps of n uniform keys over [0, key_span).
  const std::uint64_t width = key_span / n * 32;
  std::vector<range_q> out(count);
  for (auto& q : out) {
    q.lo = r.uniform_u64(0, key_span - 1 - width);
    q.hi = q.lo + width;
  }
  return out;
}

// Fresh keys: distinct, and absent from `taken` (which they are added to).
std::vector<std::uint64_t> fresh_keys(std::size_t count, std::unordered_set<std::uint64_t>& taken,
                                      util::rng& r) {
  std::vector<std::uint64_t> out;
  out.reserve(count);
  while (out.size() < count) {
    const std::uint64_t k = r.uniform_u64(0, key_span - 1);
    if (taken.insert(k).second) out.push_back(k);
  }
  return out;
}

// An index with the network and cache it uses; members are destroyed index
// first. Never move-assign one over a live one (that frees the network
// first); call release().
struct built {
  std::unique_ptr<net::network> netw;
  std::unique_ptr<serve::route_cache> cache;
  std::unique_ptr<api::distributed_index> idx;

  void release() {
    idx.reset();
    cache.reset();
    netw.reset();
  }
};

// One timed build through the public factory; the key copy is made first so
// only make_index is timed.
built build_index(const std::vector<std::uint64_t>& keys, std::uint64_t seed, bool with_cache,
                  double& seconds, std::int64_t op) {
  built b;
  b.netw = std::make_unique<net::network>(1);
  auto opts = api::index_options{}.seed(seed);
  if (with_cache) {
    b.cache = std::make_unique<serve::route_cache>();
    opts.route_cache(b.cache.get());
  }
  auto copy = keys;
  span sp("api.make_index", op);
  sp.attr("n", static_cast<double>(keys.size()));
  const auto t0 = now_ns();
  b.idx = api::make_index("skipweb1d", std::move(copy), opts, *b.netw);
  seconds = seconds_since(t0);
  return b;
}

// Single-client latency of ranges; answers land in `got`.
void range_pass(const api::distributed_index& idx, const std::vector<range_q>& qs,
                std::vector<std::vector<std::uint64_t>>& got, std::vector<api::op_stats>& stats,
                std::vector<double>& p50, std::vector<double>& p99) {
  span sp("bench.range_latency");
  std::vector<std::int64_t> ns(qs.size());
  got.resize(qs.size());
  stats.resize(qs.size());
  for (std::size_t i = 0; i < qs.size(); ++i) {
    op_span op("api.range", static_cast<std::int64_t>(i));
    const auto t0 = now_ns();
    auto r = idx.range(qs[i].lo, qs[i].hi, frontend(i), range_limit);
    ns[i] = now_ns() - t0;
    got[i] = std::move(r.value);
    stats[i] = r.stats;
  }
  p50.push_back(quantile_us(ns, 0.5));
  p99.push_back(quantile_us(ns, 0.99));
}

void check_ranges(result& out, const std::vector<range_q>& qs,
                  const std::vector<std::vector<std::uint64_t>>& got,
                  const std::vector<api::op_stats>& stats, const sorted_oracle& oracle) {
  for (std::size_t i = 0; i < qs.size(); ++i) {
    out.check(got[i] == oracle.range(qs[i].lo, qs[i].hi) && !flagged(stats[i]), "range answer");
  }
}

// One mmap restart: restore the snapshot and answer `first`, timed together
// as a restart_ms sample; the answers are checked after the clock stops.
void restart(snapshot_samples& snap, const std::vector<std::uint64_t>& first,
             const std::vector<api::nn_result>& want, result& out, std::int64_t round) {
  net::network rn(1);
  std::unique_ptr<api::distributed_index> twin;
  std::vector<api::nn_result> got;
  {
    span sp("bench.restart", round);
    const auto t0 = now_ns();
    {
      span rs("api.restore_index", round);
      twin = api::restore_index(snap.path, skipweb::persist::restore_mode::map, rn);
    }
    {
      span fs("api.first_batch", round);
      got = twin->nearest_batch(first, frontend(0));
    }
    snap.restart_ms.push_back(seconds_since(t0) * 1e3);
  }
  check_nn_all(out, got, want, "restored answer");
}

void save_1d(api::distributed_index& idx, const std::string& path) {
  api::save_index_snapshot(idx, path);
}

// --- the traced run's layer twins ----------------------------------------------
//
// Timed from the harness around calls into each layer. An adapter built
// through the factory and a core::skipweb_1d twin with the same keys and seed
// answer the same probes with identical receipts, so their time difference
// is the adapter's dispatch. Then the executor's per-worker busy time against
// a one-thread nearest_batch, the route cache on against off, and the core
// twin alone. Each compared pair alternates block by block.

constexpr std::size_t twin_block = 4096;

void twin_phase(result& out, const std::vector<std::uint64_t>& keys, std::uint64_t seed,
                const std::vector<std::uint64_t>& probes, const std::vector<range_q>& ranges,
                const std::function<void(core::skipweb_1d&)>& replay_updates) {
  span phase("bench.twins");
  {
    auto copy = keys;
    span sp("util.radix_sort_u64");
    sp.attr("n", static_cast<double>(copy.size()));
    util::radix_sort_u64(copy);
  }
  const std::size_t n = probes.size();
  double build_s = 0;
  auto a = build_index(keys, seed, false, build_s, -1);
  const auto& idx = *a.idx;
  net::network nc(1);
  std::unique_ptr<core::skipweb_1d> c;
  {
    auto copy = keys;
    span sp("core.build");
    c = std::make_unique<core::skipweb_1d>(std::move(copy), seed, nc,
                                           core::skipweb_1d::placement::tower);
  }
  sweep(probes, [&](std::uint64_t q, net::host_id o) {  // warm-up
    (void)idx.nearest(q, o);
    (void)c->nearest(q, o);
  });

  receipt_sum ra, rc;
  alternate(
      n, twin_block, "api.route_block",
      [&](std::size_t lo, std::size_t hi, span&) {
        for (std::size_t i = lo; i < hi; ++i) ra.add(idx.nearest(probes[i], frontend(i)).stats);
      },
      "core.route_block",
      [&](std::size_t lo, std::size_t hi, span&) {
        for (std::size_t i = lo; i < hi; ++i) rc.add(c->nearest(probes[i], frontend(i)).stats);
      });
  out.check(ra.total.messages == rc.total.messages, "core twin receipts equal the adapter's");

  serve::executor ex(2);
  const auto batch_read = [&](const std::vector<std::uint64_t>& g, net::host_id o) {
    (void)idx.nearest_batch(g, o);
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
  sweep(probes, [&](std::uint64_t q, net::host_id o) { (void)idx.nearest(q, o); });  // training
  cache.reset_stats();
  const auto cached_pass = [&](bool on) {
    return [&, on](std::size_t lo, std::size_t hi, span& sp) {
      a.netw->attach_hop_cache(on ? &cache : nullptr);
      const auto hits0 = cache.hits();
      std::uint64_t m = 0;
      for (std::size_t i = lo; i < hi; ++i) m += idx.nearest(probes[i], frontend(i)).stats.messages;
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
    sweep_groups(probes, 0, n, batch, [&](const std::vector<std::uint64_t>& g, net::host_id o) {
      (void)c->nearest_batch(g, o);
    });
  }
  {
    span sp("core.locate_loop");
    sp.attr("ops", static_cast<double>(n));
    sweep(probes, [&](std::uint64_t q, net::host_id o) { (void)c->contains(q, o); });
  }
  {
    span sp("core.range_loop");
    std::uint64_t results = 0;
    sweep(ranges, [&](const range_q& q, net::host_id o) {
      results += c->range(q.lo, q.hi, o, range_limit).value.size();
    });
    sp.attr("ops", static_cast<double>(ranges.size()));
    sp.attr("results", static_cast<double>(results));
  }
  replay_updates(*c);
  commit_cost(nc.host_count(), ra.median_messages());
}

void core_update(core::skipweb_1d& c, bool insert, std::uint64_t key, std::int64_t op) {
  op_span sp(insert ? "core.insert" : "core.erase", op);
  if (insert) {
    (void)c.insert(key, frontend(static_cast<std::size_t>(op)));
  } else {
    (void)c.erase(key, frontend(static_cast<std::size_t>(op)));
  }
}

}  // namespace

// lookup_1m: 2^20 uniform keys, read-only serving through the executor,
// single-client latency, bounded ranges, a balanced update tape, then
// compact + save and an mmap restart.
void run_lookup(const args& a, result& out) {
  const std::size_t n = a.scaled(std::size_t{1} << 20);
  const std::size_t stream_n = a.scaled(std::size_t{1} << 20);
  const std::size_t lat_n = a.scaled(std::size_t{1} << 16);
  const std::size_t range_n = a.scaled(std::size_t{1} << 13);
  const std::size_t update_pairs = a.scaled(std::size_t{1} << 12);

  std::vector<std::uint64_t> keys, stream, lat_probes, victims, fresh;
  std::vector<range_q> ranges;
  {
    span sp("workloads.gen");
    auto r = util::rng::stream(a.seed, 100);
    keys = wl::uniform_keys(n, r);
    stream = wl::query_stream(keys, stream_n, a.seed);
    lat_probes = wl::probe_keys(keys, lat_n, r);
    ranges = make_ranges(range_n, n, r);
    // Update tape: erase a stored key, insert a fresh one; its second half
    // undoes the first.
    std::vector<std::size_t> pick(n);
    for (std::size_t i = 0; i < n; ++i) pick[i] = i;
    for (std::size_t i = 0; i < update_pairs; ++i) {
      std::swap(pick[i], pick[i + r.index(n - i)]);
      victims.push_back(keys[pick[i]]);
    }
    std::unordered_set<std::uint64_t> taken(keys.begin(), keys.end());
    fresh = fresh_keys(update_pairs, taken, r);
  }
  sorted_oracle oracle{keys};
  std::sort(oracle.keys.begin(), oracle.keys.end());

  const auto huge0 = anon_huge_bytes();
  std::vector<double> setup_s;
  built b;
  for (int i = 0; i < 3; ++i) {
    b.release();  // one 1M index resident at a time
    double s = 0;
    b = build_index(keys, a.seed, false, s, i);
    setup_s.push_back(s);
  }
  record_anon_huge(out, huge0);
  out.metric("setup_s", median(setup_s), "s");
  out.metric("bytes_per_key", footprint_bytes_per_key(*b.idx), "B");
  auto& idx = *b.idx;

  // The executor serves one origin per call, so each pass serves the stream
  // as `frontends` contiguous chunks, chunk k from frontend k.
  serve::executor ex(2);
  std::vector<std::vector<std::uint64_t>> chunks(frontends);
  std::vector<std::vector<api::nn_result>> want(frontends);
  for (std::size_t k = 0; k < frontends; ++k) {
    const auto [lo, hi] = serve::executor::slice(stream.size(), k, frontends);
    for (std::size_t i = lo; i < hi; ++i) {
      chunks[k].push_back(stream[i]);
      want[k].push_back(oracle.nn(stream[i]));
    }
  }
  const auto serve_pass = [&](std::int64_t round) {
    span sp("serve.run_nearest", round);
    api::op_stats total;
    std::vector<std::vector<api::nn_result>> got(frontends);
    for (std::size_t k = 0; k < frontends; ++k) {
      auto o = ex.run_nearest(idx, chunks[k], frontend(k), batch);
      got[k] = std::move(o.results);
      total += o.total;
    }
    receipt_attrs(sp, total, stream.size());
    return std::pair{std::move(got), total};
  };
  b.netw->reset_traffic();
  auto [warm, warm_total] = serve_pass(-1);
  congestion_span(*b.netw, stream.size());
  if (a.inject_wrong_answer) warm[0][0].pred ^= 1;
  for (std::size_t k = 0; k < frontends; ++k) {
    check_nn_all(out, warm[k], want[k], "executor answer");
  }
  out.metric("messages_per_op", per(warm_total.messages, stream.size()), "count");
  if (tracer::get().on()) {
    span sp("bench.receipts");
    receipt_attrs(sp, warm_total, stream.size());
  }

  std::vector<api::nn_result> lat_want(lat_probes.size());
  for (std::size_t i = 0; i < lat_probes.size(); ++i) lat_want[i] = oracle.nn(lat_probes[i]);
  std::vector<double> ops_s, q50, q99, r50, r99, u50, u99;
  std::vector<api::nn_result> lat_got(lat_probes.size());
  std::vector<std::vector<std::uint64_t>> range_got;
  std::vector<api::op_stats> range_stats;
  snapshot_samples snap{a.snapshot_dir + "/" + a.workload + ".snap", {}, {}};
  const auto first = head(stream, first_batch_n);
  const auto first_want = head(want[0], first_batch_n);
  const auto t_budget = now_ns();
  for (int round = 0; round < 4 || seconds_since(t_budget) < a.seconds; ++round) {
    span rs("bench.round", round);
    tracer::get().set_op_spans(round < 2);
    {
      const auto t0 = now_ns();
      const auto served = serve_pass(round);
      ops_s.push_back(static_cast<double>(stream.size()) / seconds_since(t0));
      for (std::size_t k = 0; k < frontends; ++k) {
        check_nn_all(out, served.first[k], want[k], "executor answer");
      }
    }
    {
      span sp("bench.query_latency", round);
      std::vector<std::int64_t> ns(lat_probes.size());
      for (std::size_t i = 0; i < lat_probes.size(); ++i) {
        op_span op("api.nearest", static_cast<std::int64_t>(i));
        const auto t0 = now_ns();
        lat_got[i] = idx.nearest(lat_probes[i], frontend(i));
        ns[i] = now_ns() - t0;
      }
      q50.push_back(quantile_us(ns, 0.5));
      q99.push_back(quantile_us(ns, 0.99));
      check_nn_all(out, lat_got, lat_want, "single-client answer");
    }
    range_pass(idx, ranges, range_got, range_stats, r50, r99);
    check_ranges(out, ranges, range_got, range_stats, oracle);
    {
      // Swap the victims out for the fresh keys, then back: the round ends
      // on the original key set, so every round reads the same structure.
      span sp("bench.update_latency", round);
      std::vector<std::int64_t> ns;
      ns.reserve(4 * update_pairs);
      for (int half = 0; half < 2; ++half) {
        const auto& gone = half == 0 ? victims : fresh;
        const auto& added = half == 0 ? fresh : victims;
        for (std::size_t i = 0; i < update_pairs; ++i) {
          {
            op_span op("api.erase", static_cast<std::int64_t>(ns.size()));
            const auto t0 = now_ns();
            const auto s = idx.erase(gone[i], frontend(i));
            ns.push_back(now_ns() - t0);
            out.check_stats(s, "erase");
          }
          {
            op_span op("api.insert", static_cast<std::int64_t>(ns.size()));
            const auto t0 = now_ns();
            const auto s = idx.insert(added[i], frontend(i));
            ns.push_back(now_ns() - t0);
            out.check_stats(s, "insert");
          }
        }
      }
      u50.push_back(quantile_us(ns, 0.5));
      u99.push_back(quantile_us(ns, 0.99));
    }
    snap.save(idx, save_1d, round);
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

  snap.finish(out, idx.size());
  b.release();

  if (tracer::get().on()) {
    twin_phase(out, keys, a.seed, lat_probes, ranges, [&](core::skipweb_1d& c) {
      for (int pass = 0; pass < 2; ++pass) {
        const auto& gone = pass == 0 ? victims : fresh;
        const auto& added = pass == 0 ? fresh : victims;
        for (std::size_t i = 0; i < update_pairs; ++i) {
          const auto op = static_cast<std::int64_t>(2 * (pass * update_pairs + i));
          core_update(c, false, gone[i], op);
          core_update(c, true, added[i], op + 1);
        }
      }
    });
  }
}

namespace {

enum class churn_kind : std::uint8_t { read, insert, erase };

struct churn_op {
  churn_kind k;
  std::uint64_t key;
};

// One key set and tape of churn_zipf_16k, with its oracle answers (the tape
// replayed on a std::set) and, once it has run, its first round's answers
// and receipt total, which later rounds must repeat exactly.
struct churn_config {
  std::vector<std::uint64_t> keys, reads;
  std::vector<churn_op> tape;
  std::vector<range_q> ranges;
  std::vector<api::nn_result> want;  // by tape index; reads only
  sorted_oracle final_oracle;        // the key set after the tape
  std::vector<api::nn_result> first_got;
  std::uint64_t first_messages = 0;
  std::vector<std::uint64_t> first;       // timed into restart_ms
  std::vector<api::nn_result> first_want;
  bool seen = false;
};

churn_config make_churn_config(std::uint64_t seed, std::size_t n, std::size_t tape_n,
                               std::size_t range_n) {
  churn_config c;
  auto r = util::rng::stream(seed, 101);
  c.keys = wl::uniform_keys(n, r);
  const auto zipf = wl::zipf_query_stream(c.keys, tape_n, r.next_u64(), 1.1);
  std::unordered_set<std::uint64_t> taken(c.keys.begin(), c.keys.end());
  std::vector<std::uint64_t> inserted;  // tape-inserted keys still stored
  std::size_t next_read = 0;
  c.tape.reserve(tape_n);
  while (c.tape.size() < tape_n) {
    const double u = r.uniform_real();
    if (u < 0.8) {
      c.tape.push_back({churn_kind::read, zipf[next_read++]});
      c.reads.push_back(c.tape.back().key);
    } else if (u < 0.9 || inserted.empty()) {
      const auto k = fresh_keys(1, taken, r)[0];
      inserted.push_back(k);
      c.tape.push_back({churn_kind::insert, k});
    } else {
      const std::size_t j = r.index(inserted.size());
      c.tape.push_back({churn_kind::erase, inserted[j]});
      inserted[j] = inserted.back();
      inserted.pop_back();
    }
  }
  c.ranges = make_ranges(range_n, n, r);

  c.want.resize(c.tape.size());
  std::set<std::uint64_t> s(c.keys.begin(), c.keys.end());
  for (std::size_t i = 0; i < c.tape.size(); ++i) {
    const auto& t = c.tape[i];
    if (t.k == churn_kind::insert) {
      s.insert(t.key);
    } else if (t.k == churn_kind::erase) {
      s.erase(t.key);
    } else {
      auto& w = c.want[i];
      const auto it = s.upper_bound(t.key);
      if (it != s.end()) {
        w.has_succ = true;
        w.succ = *it;
      }
      if (it != s.begin()) {
        w.has_pred = true;
        w.pred = *std::prev(it);
      }
    }
  }
  c.final_oracle.keys.assign(s.begin(), s.end());
  c.first = head(c.reads, first_batch_n);
  for (const auto q : c.first) c.first_want.push_back(c.final_oracle.nn(q));
  return c;
}

}  // namespace

// churn_zipf_16k: 2^14 keys with the route cache attached; a single client
// runs a tape of 80% Zipf(1.1) nearest on stored keys, 10% inserts of fresh
// keys and 10% erases of keys the tape inserted. One Zipf(1.1) draw puts
// ~13% of the reads on its hottest key, so a single tape's cost depends on
// where that key sits; a run therefore cycles through `configs` key sets and
// tapes derived from the seed, in whole cycles. Each round rebuilds, so the
// rounds of one configuration repeat exactly.
void run_churn(const args& a, result& out) {
  constexpr int configs = 8;
  const std::size_t n = a.scaled(std::size_t{1} << 14);
  const std::size_t tape_n = a.scaled(std::size_t{1} << 16);
  const std::size_t range_n = a.scaled(std::size_t{1} << 11);

  std::vector<churn_config> cfg;
  {
    span sp("workloads.gen");
    for (int c = 0; c < configs; ++c) {
      const auto seed = util::rng::stream(a.seed, 1000 + static_cast<std::uint64_t>(c)).next_u64();
      cfg.push_back(make_churn_config(seed, n, tape_n, range_n));
    }
  }

  std::vector<double> setup_s, ops_s, q50, q99, u50, u99, r50, r99;
  std::vector<api::nn_result> got(tape_n);
  std::vector<std::vector<std::uint64_t>> range_got;
  std::vector<api::op_stats> range_stats;
  api::op_stats first_cycle;
  double bytes_per_key = 0;
  snapshot_samples snap{a.snapshot_dir + "/" + a.workload + ".snap", {}, {}};
  built b;
  const auto t_budget = now_ns();
  for (int round = 0;
       round < configs || round % configs != 0 || seconds_since(t_budget) < a.seconds; ++round) {
    auto& c = cfg[static_cast<std::size_t>(round % configs)];
    span rs("bench.round", round);
    tracer::get().set_op_spans(round < 2);
    b.release();
    double s = 0;
    const auto huge0 = anon_huge_bytes();
    b = build_index(c.keys, a.seed, true, s, round);
    setup_s.push_back(s);
    if (round == 0) record_anon_huge(out, huge0);
    if (!c.seen) bytes_per_key += footprint_bytes_per_key(*b.idx) / configs;
    auto& idx = *b.idx;
    {
      span sp("bench.warmup", round);
      for (std::size_t i = 0; i < c.tape.size(); ++i) {
        if (c.tape[i].k == churn_kind::read) (void)idx.nearest(c.tape[i].key, frontend(i));
      }
    }
    b.cache->reset_stats();
    b.netw->reset_traffic();
    std::vector<std::int64_t> q_ns, u_ns;
    q_ns.reserve(c.reads.size());
    u_ns.reserve(c.tape.size() - c.reads.size());
    api::op_stats total;
    {
      span sp("bench.tape", round);
      const auto t_tape = now_ns();
      for (std::size_t i = 0; i < c.tape.size(); ++i) {
        const auto& t = c.tape[i];
        if (t.k == churn_kind::read) {
          op_span o("api.nearest", static_cast<std::int64_t>(i));
          const auto t0 = now_ns();
          got[i] = idx.nearest(t.key, frontend(i));
          q_ns.push_back(now_ns() - t0);
          total += got[i].stats;
        } else {
          const bool ins = t.k == churn_kind::insert;
          op_span o(ins ? "api.insert" : "api.erase", static_cast<std::int64_t>(i));
          const auto t0 = now_ns();
          const auto st = ins ? idx.insert(t.key, frontend(i)) : idx.erase(t.key, frontend(i));
          u_ns.push_back(now_ns() - t0);
          total += st;
          out.check_stats(st, ins ? "insert" : "erase");
        }
      }
      ops_s.push_back(static_cast<double>(c.tape.size()) / seconds_since(t_tape));
    }
    q50.push_back(quantile_us(q_ns, 0.5));
    q99.push_back(quantile_us(q_ns, 0.99));
    u50.push_back(quantile_us(u_ns, 0.5));
    u99.push_back(quantile_us(u_ns, 0.99));
    if (round == 0) congestion_span(*b.netw, c.tape.size());
    if (!c.seen) {
      if (a.inject_wrong_answer && round == 0) {
        const auto i = static_cast<std::size_t>(
            std::find_if(c.tape.begin(), c.tape.end(),
                         [](const churn_op& t) { return t.k == churn_kind::read; }) -
            c.tape.begin());
        got[i].has_pred = !got[i].has_pred;
      }
      for (std::size_t i = 0; i < c.tape.size(); ++i) {
        if (c.tape[i].k == churn_kind::read) {
          out.check(same_nn(got[i], c.want[i]) && !flagged(got[i].stats), "tape answer");
        }
      }
      c.first_got = got;
      c.first_messages = total.messages;
      first_cycle += total;
      c.seen = true;
    } else {
      // Same tape, same structure, cache trained from scratch on one thread:
      // answers and receipts repeat exactly.
      out.check(total.messages == c.first_messages, "tape receipts repeat");
      for (std::size_t i = 0; i < c.tape.size(); ++i) {
        if (c.tape[i].k == churn_kind::read) {
          out.check(same_nn(got[i], c.first_got[i]), "tape answer");
        }
      }
    }
    range_pass(idx, c.ranges, range_got, range_stats, r50, r99);
    check_ranges(out, c.ranges, range_got, range_stats, c.final_oracle);
    snap.save(idx, save_1d, round);
    restart(snap, c.first, c.first_want, out, round);
  }
  tracer::get().set_op_spans(true);
  const double cycle_ops = static_cast<double>(configs) * static_cast<double>(tape_n);
  out.context("rounds", std::to_string(ops_s.size()));
  out.metric("setup_s", median(setup_s), "s");
  out.metric("bytes_per_key", bytes_per_key, "B");
  out.metric("messages_per_op", static_cast<double>(first_cycle.messages) / cycle_ops, "count");
  if (tracer::get().on()) {
    span sp("bench.receipts");
    receipt_attrs(sp, first_cycle, configs * tape_n);
  }
  out.metric("ops_s", median(ops_s), "ops/s");
  out.metric("query_p50_us", median(q50), "us");
  out.metric("query_p99_us", median(q99), "us");
  out.metric("update_p50_us", median(u50), "us");
  out.metric("update_p99_us", median(u99), "us");
  out.metric("range_p50_us", median(r50), "us");
  out.metric("range_p99_us", median(r99), "us");

  snap.finish(out, n);
  b.release();

  if (tracer::get().on()) {
    const auto& c = cfg[0];
    twin_phase(out, c.keys, a.seed, c.reads, c.ranges, [&](core::skipweb_1d& tw) {
      for (std::size_t i = 0; i < c.tape.size(); ++i) {
        const auto& t = c.tape[i];
        if (t.k == churn_kind::read) {
          (void)tw.nearest(t.key, frontend(i));
        } else {
          core_update(tw, t.k == churn_kind::insert, t.key, static_cast<std::int64_t>(i));
        }
      }
    });
  }
}

}  // namespace perfbench
