#pragma once

#include <cstdint>

namespace skipweb::api {

// The uniform cost receipt of one distributed operation. Every public
// operation of every backend — core skip-webs and baselines alike — returns
// one of these (alone, or embedded in an `nn_result` / `op_result`),
// replacing the per-class `messages` fields and `std::uint64_t*` out-params
// the structures used to expose.
//
// The three counters mirror the paper's cost axes (§1.1):
//   messages    — inter-host hops of the operation's locus (Q(n)/U(n));
//   host_visits — hosts the locus touched, revisits included (the per-op
//                 share of the congestion ledger C(n));
//   comparisons — key/point comparisons the router performed. Counted where
//                 the routing loops compare keys; purely local bookkeeping
//                 (e.g. binary search inside one bucket) may be uncounted.
// Under the fault plane (net/network.h, DESIGN.md §10) an operation also
// carries `failed`: true when its route leaned on an unreachable host (or a
// replicated router ran out of live replicas) — the answer is then not
// backed by live hosts and availability metrics count it unavailable. With
// faults disabled it is always false, so the field is invisible to
// pre-fault comparisons.
//
// Under the latency/deadline plane (net/latency.h, DESIGN.md §11) an
// operation additionally carries:
//   sim_latency_ns — simulated time the route spent: per-hop model draws ×
//                    destination slowdowns, probe timeouts, retry backoffs;
//   retries        — retry attempts (lost sends + replica fallbacks);
//   hedges         — duplicate requests issued by hedged serving (only the
//                    executor sets this; single ops report 0);
//   timed_out      — the op exceeded its index_options::deadline budget;
//   degraded       — the op gave up mid-route and returned a partial (but
//                    honest-prefix) answer.
// All five are zero/false with no model active, so pre-latency comparisons
// never see them.
struct op_stats {
  std::uint64_t messages = 0;
  std::uint64_t host_visits = 0;
  std::uint64_t comparisons = 0;
  std::uint64_t sim_latency_ns = 0;
  std::uint64_t retries = 0;
  std::uint64_t hedges = 0;
  bool failed = false;
  bool timed_out = false;
  bool degraded = false;

  op_stats& operator+=(const op_stats& o) {
    messages += o.messages;
    host_visits += o.host_visits;
    comparisons += o.comparisons;
    sim_latency_ns += o.sim_latency_ns;
    retries += o.retries;
    hedges += o.hedges;
    failed = failed || o.failed;
    timed_out = timed_out || o.timed_out;
    degraded = degraded || o.degraded;
    return *this;
  }
  friend op_stats operator+(op_stats a, const op_stats& b) { return a += b; }
  friend bool operator==(const op_stats&, const op_stats&) = default;

  // Snapshot the counters of a cursor-like object (anything exposing
  // messages()/visits()/comparisons(), i.e. net::cursor). Templated so this
  // header stays a leaf with no dependency on the net layer; the fault and
  // latency fields are picked up when the cursor type exposes them.
  template <typename Cursor>
  [[nodiscard]] static op_stats of(const Cursor& c) {
    op_stats s;
    s.messages = c.messages();
    s.host_visits = c.visits();
    s.comparisons = c.comparisons();
    if constexpr (requires { c.failed(); }) s.failed = c.failed();
    if constexpr (requires { c.sim_ns(); }) s.sim_latency_ns = c.sim_ns();
    if constexpr (requires { c.retries(); }) s.retries = c.retries();
    if constexpr (requires { c.timed_out(); }) s.timed_out = c.timed_out();
    if constexpr (requires { c.degraded(); }) s.degraded = c.degraded();
    return s;
  }
};

// An operation that yields a value alongside its cost receipt.
template <typename T>
struct op_result {
  T value{};
  op_stats stats;
};

// THE nearest-neighbour result. One definition for the whole library: the
// level-0 predecessor (largest key <= q) and successor (smallest key > q).
struct nn_result {
  bool has_pred = false, has_succ = false;
  std::uint64_t pred = 0, succ = 0;
  op_stats stats;
};

// The nn_result of a route's two flank slots (-1: no flank on that side):
// `key_of` reads a slot's key, and the receipt is the cursor's.
template <typename KeyOf, typename Cursor>
[[nodiscard]] nn_result nn_from_flanks(int pred, int succ, KeyOf&& key_of, const Cursor& cur) {
  nn_result out;
  if (pred >= 0) {
    out.has_pred = true;
    out.pred = key_of(pred);
  }
  if (succ >= 0) {
    out.has_succ = true;
    out.succ = key_of(succ);
  }
  out.stats = op_stats::of(cur);
  return out;
}

}  // namespace skipweb::api
