#pragma once

#include <algorithm>
#include <cstdint>

#include "net/network.h"
#include "net/receipt.h"
#include "net/types.h"
#include "util/rng.h"

namespace skipweb::net {

// The locus of one distributed operation (a query or an update). Protocols
// may only look at data on the host the cursor currently occupies; examining
// anything elsewhere requires move_to(), which charges one message. Counting
// hops of the query locus is the same message-complexity convention used by
// skip graphs and SkipNet.
//
// Accounting is shared-nothing while the operation runs: every hop is
// appended to a cursor-local traffic_receipt (thread-private memory), and
// the receipt is merged exactly once, by the destructor, via
// network::commit(), into the committing thread's own shard of the network's
// ledger. The receipt is also the cursor's only count: messages(), visits()
// and sim_ns() read it. Concurrent queries therefore never contend on the
// ledger, mid-route or at commit, which is what lets serve::executor drive
// one structure from many threads.
//
// One hop rule: move_to() and try_move_to() share hop(). The planes are
// captured at construction into one word (absorption, faults, latency; loss
// rides on faults, deadlines and detours on latency), so a network with no
// plane active pays one test per hop before recording it, and every plane
// rule lives in plane_hop(), which charges each send through charge().
//
// Hot-route absorption: when the network has a hop_cache attached (see
// network::attach_hop_cache, serve::route_cache), a hop inside the
// operation's first `absorb_depth()` hops whose destination's routing
// entries are replicated is served from the local replica — the locus still
// moves (the routing decision is unchanged, so answers are identical) but
// no message is charged and no visit is logged. Absorbed hops are counted
// separately (`absorbed()`).
// Fault semantics (see network.h §fault plane): the cursor captures
// faults_active() at construction (faults()), so a network that never saw a
// kill, partition or loss setting routes through a code path byte-identical
// to the fault-free build. With faults active:
//  - move_to() toward an unreachable host charges ONE timed-out probe
//    message (recorded against the target — its link was the bandwidth
//    spent) and marks the operation `failed()`; the locus still moves so
//    fault-unaware protocols complete mechanically and their answers stay
//    byte-identical — only the failed flag tells the caller the route leaned
//    on a dead host.
//  - try_move_to() is the fault-aware seam: same probe charge on an
//    unreachable target, but it returns false with the locus unchanged and
//    WITHOUT marking the op failed, so replicated routers can fall back.
//    reachable() asks the same question for free, without moving.
//  - Message loss charges retry messages per hop, decided statelessly from
//    (loss seed, from, to, attempt serial) — deterministic per route at any
//    thread count.
//
// Latency plane (net/latency.h, DESIGN.md §11): with a model active, every
// charged hop also accumulates simulated nanoseconds (the model draw times
// the destination's slowdown multiplier) into the receipt; lost sends and
// failed probes additionally price the retry backoff, and unreachable
// probes cost the failure detector's timeout window. Draw serials are
// cursor-private, so simulated times are deterministic for any thread
// count, like every other receipt number. A query-plane cursor also
// captures the op deadline: once accumulated time exceeds it, timed_out()
// flips, and deadline-aware walks (route_search, the range walks) end at
// their next `if (cur.give_up()) break;` checkpoint, which marks the
// partial answer degraded(). Structural-section cursors capture no deadline
// and no detour threshold — an update must finish what it started.
class cursor {
 public:
  // Absorption is query-plane only: a cursor constructed inside a
  // structural_section (insert/erase/build bodies, including their nested
  // query sub-calls) prices every hop in full.
  cursor(network& net, host_id start)
      : net_(&net),
        at_(start),
        cache_(net.attached_hop_cache()),
        absorb_window_(cache_ != nullptr && !net.in_structural_section()
                           ? cache_->absorb_depth()
                           : 0),
        planes_((absorb_window_ > 0 ? kAbsorb : 0) | (net.faults_active() ? kFaults : 0) |
                (net.latency_active() ? kLatency : 0)),
        loss_threshold_(
            faults() ? static_cast<std::uint64_t>(net.message_loss() * 18446744073709551615.0)
                     : 0),
        loss_seed_(faults() ? net.message_loss_seed() : 0),
        deadline_ns_(latency() && !net.in_structural_section() ? net.op_deadline_ns() : 0),
        avoid_threshold_(latency() && !net.in_structural_section() ? net.slow_host_threshold()
                                                                   : 0.0) {
    SW_EXPECTS(start.valid() && start.value < net.host_count());
  }

  // The one commit. A moved-from cursor commits nothing: traffic_receipt's
  // move empties it.
  ~cursor() {
    if (net_ != nullptr && !receipt_.empty()) net_->commit(receipt_);
  }

  cursor(const cursor&) = delete;
  cursor& operator=(const cursor&) = delete;

  // Move-constructible so batch routers can keep cursors in vectors.
  cursor(cursor&&) = default;

  // Hop to `h`. A hop to the current host is free (local pointer chase).
  // With a hop cache attached, a hop to a replicated host inside the
  // operation's first absorb_depth() hops is served locally: the locus
  // moves, nothing is charged (see the class comment).
  void move_to(host_id h) { hop(h, /*fall_back=*/false); }

  // Fault-aware hop: like move_to, but an unreachable target costs one
  // timed-out probe and returns false with the locus unchanged — the caller
  // falls back to a replica instead of the op being marked failed. Always
  // true (and identical to move_to) when the target is reachable.
  [[nodiscard]] bool try_move_to(host_id h) { return hop(h, /*fall_back=*/true); }

  // Would a hop to `h` from the current locus be delivered? Charges nothing:
  // it is the failure detector's local knowledge, which lets a replicated
  // router pick a live neighbour without visiting it. Always true on a
  // network that had no fault active at construction.
  [[nodiscard]] bool reachable(host_id h) const { return !faults() || net_->reachable(at_, h); }

  // The fault plane as captured at construction: replicated routers take
  // their replica-scanning path only when this is set.
  [[nodiscard]] bool faults() const { return (planes_ & kFaults) != 0; }

  // A fault-aware route that exhausted every replica reports the op
  // unavailable through the same flag a ghost hop sets.
  void mark_failed() { failed_ = true; }
  // True if this operation's route leaned on an unreachable host (or a
  // replicated router gave up): the answer is not backed by live hosts.
  [[nodiscard]] bool failed() const { return failed_; }

  // Key/point comparisons performed while routing: protocols call this next
  // to their comparison sites so api::op_stats can report them per-op.
  void note_comparisons(std::uint64_t n = 1) { comparisons_ += n; }

  [[nodiscard]] host_id at() const { return at_; }
  [[nodiscard]] std::uint64_t messages() const { return receipt_.size(); }
  // Hosts this operation's locus touched, revisits included (origin counts).
  // Absorbed hops are excluded: they never left the client.
  [[nodiscard]] std::uint64_t visits() const { return receipt_.size() + 1; }
  // Hops served from the attached hop cache's replicas (0 without a cache).
  [[nodiscard]] std::uint64_t absorbed() const { return absorbed_; }
  [[nodiscard]] std::uint64_t comparisons() const { return comparisons_; }
  // The not-yet-committed hop log (exposed for tests).
  [[nodiscard]] const traffic_receipt& receipt() const { return receipt_; }

  // ---- latency / deadline plane (all zero when no model is active) ----

  // Simulated time this operation has spent: hop draws × destination
  // slowdowns, probe timeouts, retry backoffs.
  [[nodiscard]] std::uint64_t sim_ns() const { return receipt_.sim_ns(); }
  // Retry attempts: lost sends plus replica fallbacks after failed probes.
  [[nodiscard]] std::uint64_t retries() const { return retries_; }
  // Latched once sim_ns() first exceeded the op deadline captured at
  // construction (never set for structural cursors or without a deadline).
  [[nodiscard]] bool timed_out() const { return timed_out_; }
  // The deadline checkpoint of every deadline-aware walk: true once the op
  // timed out, in which case the walk stops and its answer — an honest
  // prefix or approximation, not the full result — is marked degraded().
  [[nodiscard]] bool give_up() {
    if (timed_out_) degraded_ = true;
    return timed_out_;
  }
  [[nodiscard]] bool degraded() const { return degraded_; }
  // Slow-host detours: captured at construction like the fault flag. A
  // router may descend early rather than hop to an avoided host, as long as
  // the detour cannot change the answer (level-0 hops never detour).
  [[nodiscard]] bool detours() const { return avoid_threshold_ > 0.0; }
  [[nodiscard]] bool avoids(host_id h) const {
    return avoid_threshold_ > 0.0 && net_->host_slowdown(h) >= avoid_threshold_;
  }

 private:
  // The plane word's bits. Loss is captured only with faults, deadlines and
  // detours only with a latency model.
  static constexpr std::uint8_t kAbsorb = 1, kFaults = 2, kLatency = 4;

  [[nodiscard]] bool latency() const { return (planes_ & kLatency) != 0; }

  // Inlined at every call site by force: left to the compiler's heuristics,
  // whether a router's hot loop inlined it changed with unrelated code in
  // the same file, and lookup_1m ops_s moved by about 9% with it (DESIGN.md
  // §10).
  [[gnu::always_inline]] bool hop(host_id h, bool fall_back) {
    SW_EXPECTS(h.valid() && h.value < net_->host_count());
    if (h == at_) return true;
    if (planes_ != 0) return plane_hop(h, fall_back);
    receipt_.record(h);
    at_ = h;
    return true;
  }

  // Every plane rule, out of the inlined no-plane path.
  [[gnu::noinline]] bool plane_hop(host_id h, bool fall_back) {
    if (receipt_.size() + absorbed_ < absorb_window_ && cache_->absorbs(h)) {
      ++absorbed_;
      at_ = h;
      return true;
    }
    if (faults()) {
      if (!net_->reachable(at_, h)) {
        // Timed-out probe: the message toward h was sent and lost to the
        // crash — charged to h's slot, its time at least the failure
        // detector's window.
        charge(h, net_->hop_latency().probe_timeout_ns);
        if (fall_back) {
          // The caller will fall back to a replica: that retry waits out a
          // capped exponential backoff first.
          charge_retry_backoff();
          return false;
        }
        // The op is damaged; the locus still "moves" so fault-unaware
        // protocols complete mechanically.
        failed_ = true;
        at_ = h;
        return true;
      }
      charge_loss_retries(h);
    }
    charge(h, 0);
    at_ = h;
    return true;
  }

  // Seeded per-attempt loss: each physical send attempt toward a reachable
  // host may be lost and retried, every attempt charged. The decision is a
  // pure function of (loss seed, from, to, attempt serial) — no shared RNG,
  // so receipts are deterministic for any thread count. Retries are capped
  // so adversarial p can't spin a route forever.
  void charge_loss_retries(host_id h) {
    if (loss_threshold_ == 0) return;
    for (int attempt = 0; attempt < 64; ++attempt) {
      std::uint64_t z = loss_seed_ + 0x9e3779b97f4a7c15ull * (hop_serial_++ + 1);
      z ^= (static_cast<std::uint64_t>(at_.value) << 32) | h.value;
      if (util::mix64(z) >= loss_threshold_) return;  // this attempt got through
      // The lost send still burned a message, a wire round and the retry's
      // backoff.
      charge(h, 0);
      charge_retry_backoff();
    }
  }

  // One send toward h: a message, a visit and (with a model active) the
  // simulated wire time, at least `floor_ns` (a probe's timeout window).
  void charge(host_id h, std::uint64_t floor_ns) {
    receipt_.record(h);
    if (latency()) add_sim(std::max(net_->hop_cost_ns(at_, h, sim_serial_++), floor_ns));
  }

  // Count a retry and (with a model active) wait out its capped exponential
  // backoff; the attempt serial is cursor-private, like the draw serial.
  void charge_retry_backoff() {
    ++retries_;
    if (latency()) add_sim(net_->hop_latency().backoff_ns(backoff_serial_++));
  }

  void add_sim(std::uint64_t ns) {
    receipt_.add_sim_ns(ns);
    if (deadline_ns_ != 0 && receipt_.sim_ns() > deadline_ns_) timed_out_ = true;
  }

  network* net_;
  host_id at_;
  const hop_cache* cache_ = nullptr;  // only read when kAbsorb is set
  std::size_t absorb_window_ = 0;
  std::uint8_t planes_ = 0;  // kAbsorb | kFaults | kLatency, captured at construction
  std::uint64_t loss_threshold_ = 0;
  std::uint64_t loss_seed_ = 0;
  std::uint64_t deadline_ns_ = 0;    // 0 = none (structural cursors: always 0)
  double avoid_threshold_ = 0.0;     // 0 = no slow-host detours
  std::uint64_t hop_serial_ = 0;
  std::uint64_t sim_serial_ = 0;      // latency draw serial (cursor-private)
  std::uint64_t backoff_serial_ = 0;  // retry attempt serial, prices backoff
  std::uint64_t retries_ = 0;
  bool failed_ = false;
  bool timed_out_ = false;
  bool degraded_ = false;
  std::uint64_t absorbed_ = 0;
  std::uint64_t comparisons_ = 0;
  traffic_receipt receipt_;
};

}  // namespace skipweb::net
