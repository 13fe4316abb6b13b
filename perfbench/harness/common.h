#pragma once

// Shared machinery of the benchmark harness: clocks and order statistics,
// the result sink (end-to-end metrics plus the oracle's attempted/failed
// counts), and the span tracer behind the traced run mode.

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

#include "api/op_stats.h"
#include "net/types.h"

namespace skipweb::net {
class network;
}

namespace perfbench {

[[nodiscard]] inline std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

[[nodiscard]] inline double seconds_since(std::int64_t t0) {
  return static_cast<double>(now_ns() - t0) * 1e-9;
}

// a / b, for counts.
[[nodiscard]] inline double per(std::uint64_t a, std::uint64_t b) {
  return static_cast<double>(a) / static_cast<double>(b);
}

// The first min(n, v.size()) elements of v.
template <typename T>
[[nodiscard]] std::vector<T> head(const std::vector<T>& v, std::size_t n) {
  return {v.begin(), v.begin() + static_cast<std::ptrdiff_t>(std::min(n, v.size()))};
}

// Median of a sample (mean of the middle pair for even sizes); 0 when empty.
[[nodiscard]] double median(std::vector<double> v);

// Nearest-rank quantile q in [0, 1] of a latency sample in ns, returned in µs.
[[nodiscard]] double quantile_us(std::vector<std::int64_t> ns, double q);

// Op i is issued from frontend host i % frontends. A search starts at its
// origin's root tower, whose height is random, so a single origin would give
// every op of a run the same head start or handicap.
constexpr std::size_t frontends = 16;
[[nodiscard]] inline skipweb::net::host_id frontend(std::size_t i) {
  return skipweb::net::host_id{static_cast<std::uint32_t>(i % frontends)};
}

// f(q, origin) for every probe, op i from frontend(i).
template <typename Q, typename F>
void sweep(const std::vector<Q>& qs, F&& f) {
  for (std::size_t i = 0; i < qs.size(); ++i) f(qs[i], frontend(i));
}

// f(group, origin) over [lo, hi) in consecutive groups of `width` probes,
// group g from frontend(g) (the batch entry points take one origin).
template <typename Q, typename F>
void sweep_groups(const std::vector<Q>& qs, std::size_t lo, std::size_t hi, std::size_t width,
                  F&& f) {
  std::vector<Q> group;
  for (std::size_t i = lo; i < hi; i += width) {
    group.assign(qs.begin() + static_cast<std::ptrdiff_t>(i),
                 qs.begin() + static_cast<std::ptrdiff_t>(std::min(hi, i + width)));
    f(group, frontend(i / width));
  }
}

// --- command line ------------------------------------------------------------

struct args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string spans_path;  // where the traced run writes its spans
  std::string snapshot_dir = ".";
  // Divide every size by 2^scale: quick runs and the oracle self-test.
  int scale = 0;
  // Corrupt one answer before the oracle sees it (harness self-test).
  bool inject_wrong_answer = false;

  [[nodiscard]] std::size_t scaled(std::size_t n) const {
    return std::max<std::size_t>(n >> scale, 64);
  }
};

// --- results -------------------------------------------------------------------

class result {
 public:
  void metric(const std::string& name, double value, const std::string& unit) {
    metrics_[name] = {value, unit};
  }
  void context(const std::string& name, const std::string& json_value) {
    context_[name] = json_value;
  }

  // The oracle: every checked answer counts as attempted; a wrong answer,
  // or one the library flagged failed / timed out / degraded, counts failed.
  void check(bool ok, const char* what);
  void check_stats(const skipweb::api::op_stats& s, const char* what) {
    check(!s.failed && !s.timed_out && !s.degraded, what);
  }
  // Adds `count` checked answers that were all compared and found equal.
  void passed(std::uint64_t count) { attempted_ += count; }

  [[nodiscard]] std::uint64_t attempted() const { return attempted_; }
  [[nodiscard]] std::uint64_t failed() const { return failed_; }

  // The harness's last stdout line: one JSON object that run.py reads.
  [[nodiscard]] std::string to_json() const;

 private:
  std::map<std::string, std::pair<double, std::string>> metrics_;
  std::map<std::string, std::string> context_;
  std::uint64_t attempted_ = 0;
  std::uint64_t failed_ = 0;
};

// --- tracing -------------------------------------------------------------------
//
// Spans are recorded only in the traced run, around the harness's own calls
// into each library layer; the span name's prefix up to the first '.' names
// the layer (workloads, util, api, core, net, serve, persist; "bench" for the
// harness's own phases). Spans stay in memory and are written once at exit.
// With tracing off every entry point is a single branch.

class tracer {
 public:
  static tracer& get();

  void enable() { on_ = true; }
  [[nodiscard]] bool on() const { return on_; }
  // Per-op spans are kept for the first rounds only, which bounds the
  // trace's size however many rounds a run fits in.
  void set_op_spans(bool v) { op_spans_ = v; }
  [[nodiscard]] bool op_spans() const { return on_ && op_spans_; }

  // Opens a span; parent -2 means "the calling thread's innermost open span".
  int begin(const char* name, std::int64_t op, int parent = -2);
  void end(int id);
  void attr(int id, const char* key, double value);

  // Writes one tab-separated line per span:
  // id, parent, name, op, t0_ns, t1_ns, key=value,... (attrs).
  bool write(const std::string& path) const;

 private:
  struct record {
    const char* name;
    int parent;
    std::int64_t op;
    std::int64_t t0, t1;
    std::vector<std::pair<const char*, double>> attrs;
  };
  bool on_ = false;
  bool op_spans_ = true;
  mutable std::mutex mu_;
  std::vector<record> spans_;
};

// RAII span; a no-op when tracing is off.
class span {
 public:
  explicit span(const char* name, std::int64_t op = -1, int parent = -2)
      : id_(tracer::get().on() ? tracer::get().begin(name, op, parent) : -1) {}
  ~span() {
    if (id_ >= 0) tracer::get().end(id_);
  }
  span(const span&) = delete;
  span& operator=(const span&) = delete;

  span& attr(const char* key, double v) {
    if (id_ >= 0) tracer::get().attr(id_, key, v);
    return *this;
  }
  [[nodiscard]] int id() const { return id_; }

 private:
  int id_;
};

// The span of one operation of a timed loop; the harness opens it outside
// the op's own timed interval, so per-op latencies exclude its bookkeeping.
class op_span {
 public:
  op_span(const char* name, std::int64_t op)
      : id_(tracer::get().op_spans() ? tracer::get().begin(name, op) : -1) {}
  ~op_span() {
    if (id_ >= 0) tracer::get().end(id_);
  }
  op_span(const op_span&) = delete;
  op_span& operator=(const op_span&) = delete;

 private:
  int id_;
};

// Two timed loops over the same n probes, alternated block by block so both
// see the same drifts of the machine; `a` goes first in even blocks and `b`
// in odd ones. Each block is one span per side (attr ops); f(lo, hi, span).
template <typename F, typename G>
void alternate(std::size_t n, std::size_t block, const char* name_a, F&& a, const char* name_b,
               G&& b) {
  for (std::size_t lo = 0, k = 0; lo < n; lo += block, ++k) {
    const std::size_t hi = std::min(n, lo + block);
    const auto run = [&](const char* name, auto& f) {
      span sp(name, static_cast<std::int64_t>(k));
      sp.attr("ops", static_cast<double>(hi - lo));
      f(lo, hi, sp);
    };
    if (k % 2 == 0) {
      run(name_a, a);
      run(name_b, b);
    } else {
      run(name_b, b);
      run(name_a, a);
    }
  }
}

// --- shared layer probes -------------------------------------------------------

// True when the library flagged the op failed, timed out or degraded.
[[nodiscard]] inline bool flagged(const skipweb::api::op_stats& s) {
  return s.failed || s.timed_out || s.degraded;
}

// footprint() over size() for bytes_per_key; the split goes to the trace.
template <typename Index>
[[nodiscard]] double footprint_bytes_per_key(const Index& idx) {
  const auto fp = idx.footprint();
  const auto n = static_cast<double>(idx.size());
  span sp("api.footprint");
  sp.attr("n", n).attr("arena", static_cast<double>(fp.arena_bytes));
  sp.attr("link", static_cast<double>(fp.link_bytes));
  sp.attr("directory", static_cast<double>(fp.directory_bytes));
  sp.attr("slack", static_cast<double>(fp.slack_bytes));
  return static_cast<double>(fp.total_bytes()) / n;
}

// Records the AnonHugePages growth since `before` in the run context, and
// the current figure in the trace.
void record_anon_huge(result& out, std::uint64_t before);

// Traced runs only: congestion_profile() of `netw` over `ops` ops.
void congestion_span(const skipweb::net::network& netw, std::uint64_t ops);

// Save and mmap-restart samples, one of each per round, so save_s and
// restart_ms sample the whole run rather than its last second.
struct snapshot_samples {
  std::string path;
  std::vector<double> save_s, restart_ms;

  // Times idx.compact() and the save that follows as one save_s sample
  // (the library's save_*_snapshot compacts first), spanning each part.
  template <typename Index, typename Save>
  void save(Index& idx, Save&& save_fn, std::int64_t round) {
    const auto t0 = now_ns();
    {
      span sp("api.compact", round);
      idx.compact();
    }
    {
      span sp("api.save_snapshot", round);
      save_fn(idx, path);
    }
    save_s.push_back(seconds_since(t0));
  }

  // Reports save_s and restart_ms; in a traced run records the file's size
  // and checksum rate. Removes the file.
  void finish(result& out, std::size_t n);
};

// AnonHugePages of this process in bytes (from /proc/self/smaps_rollup), or
// 0 where the kernel does not report it.
[[nodiscard]] std::uint64_t anon_huge_bytes();

// Times persist::checksum64 over the whole file at `path` (mapped read-only)
// and returns GB/s; records the span persist.checksum64.
double checksum_gbps(const std::string& path);

// Times network::commit of a synthetic receipt with `hops` hops over
// `hosts` hosts, on one thread and on two, and records the spans
// net.commit (attrs ops, threads).
void commit_cost(std::size_t hosts, std::size_t hops);

// Summary of per-op receipts: totals and the median message count.
struct receipt_sum {
  skipweb::api::op_stats total;
  std::vector<std::uint64_t> messages;  // one entry per op

  void add(const skipweb::api::op_stats& s) {
    total += s;
    messages.push_back(s.messages);
  }
  [[nodiscard]] std::size_t median_messages() const;
};

// Attach the receipt counters of `s` over `ops` operations to span `sp`.
void receipt_attrs(span& sp, const skipweb::api::op_stats& s, std::uint64_t ops);

}  // namespace perfbench
