#pragma once

#include <algorithm>
#include <cstdint>

#include "net/network.h"
#include "net/receipt.h"
#include "net/types.h"

namespace skipweb::net {

// The locus of one distributed operation (a query or an update). Protocols
// may only look at data on the host the cursor currently occupies; examining
// anything elsewhere requires move_to(), which charges one message. Counting
// hops of the query locus is the same message-complexity convention used by
// skip graphs and SkipNet.
//
// Accounting is shared-nothing while the operation runs: every hop is
// appended to a cursor-local traffic_receipt (thread-private memory), and
// the receipt is merged exactly once — by the destructor, or an explicit
// settle() — via network::commit(), into the committing thread's own shard
// of the network's ledger. Concurrent queries therefore never contend on the
// ledger, mid-route or at commit, which is what lets serve::executor drive
// one structure from many threads; the folded totals are identical to the
// old write-per-hop scheme.
//
// Hot-route absorption: when the network has a hop_cache attached (see
// network::attach_hop_cache, serve::route_cache), a hop inside the
// operation's first `absorb_depth()` hops whose destination's routing
// entries are replicated is served from the local replica — the locus still
// moves (the routing decision is unchanged, so answers are identical) but
// no message is charged and no visit is logged. Absorbed hops are counted
// separately (`absorbed()`).
// Fault semantics (see network.h §fault plane): the cursor captures
// faults_active() at construction, so a network that never saw a kill,
// partition or loss setting routes through a code path byte-identical to the
// fault-free build. With faults active:
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
// flips and deadline-aware walks (route_search, the range walks) give up
// mid-route, marking the partial answer degraded(). Structural-section
// cursors capture no deadline and no detour threshold — an update must
// finish what it started.
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
        faults_(net.faults_active()),
        loss_threshold_(
            faults_ ? static_cast<std::uint64_t>(net.message_loss() * 18446744073709551615.0)
                    : 0),
        loss_seed_(faults_ ? net.message_loss_seed() : 0),
        lat_(net.latency_active()),
        deadline_ns_(lat_ && !net.in_structural_section() ? net.op_deadline_ns() : 0),
        avoid_threshold_(lat_ && !net.in_structural_section() ? net.slow_host_threshold() : 0.0) {
    SW_EXPECTS(start.valid() && start.value < net.host_count());
  }

  ~cursor() { settle(); }

  cursor(const cursor&) = delete;
  cursor& operator=(const cursor&) = delete;

  // Move-constructible so batch routers can keep cursors in vectors. A
  // moved-from cursor commits nothing: traffic_receipt's move empties it.
  cursor(cursor&&) = default;

  // Hop to `h`. A hop to the current host is free (local pointer chase).
  // With a hop cache attached, a hop to a replicated host inside the
  // operation's first absorb_depth() hops is served locally: the locus
  // moves, nothing is charged (see the class comment).
  void move_to(host_id h) {
    SW_EXPECTS(h.valid() && h.value < net_->host_count());
    if (h != at_) {
      if (messages_ + absorbed_ < absorb_window_ && cache_->absorbs(h)) {
        ++absorbed_;
        at_ = h;
        return;
      }
      if (faults_) {
        if (!net_->reachable(at_, h)) {
          // Timed-out probe: the message toward h was sent and lost to the
          // crash — charged to h's slot. The op is damaged; the locus still
          // "moves" so fault-unaware protocols complete mechanically.
          charge_probe(h);
          failed_ = true;
          at_ = h;
          return;
        }
        charge_loss_retries(h);
      }
      charge_hop(h);
      at_ = h;
    }
  }

  // Fault-aware hop: like move_to, but an unreachable target costs one
  // timed-out probe and returns false with the locus unchanged — the caller
  // falls back to a replica instead of the op being marked failed. Always
  // true (and identical to move_to) when the target is reachable.
  [[nodiscard]] bool try_move_to(host_id h) {
    SW_EXPECTS(h.valid() && h.value < net_->host_count());
    if (h == at_) return true;
    if (messages_ + absorbed_ < absorb_window_ && cache_->absorbs(h)) {
      ++absorbed_;
      at_ = h;
      return true;
    }
    if (faults_) {
      if (!net_->reachable(at_, h)) {
        charge_probe(h);
        // The caller will fall back to a replica: that retry waits out a
        // capped exponential backoff first (free when no model is active).
        charge_retry_backoff();
        return false;
      }
      charge_loss_retries(h);
    }
    charge_hop(h);
    at_ = h;
    return true;
  }

  void move_to(const address& a) { move_to(a.host); }

  // Would a hop to `h` from the current locus be delivered? Charges nothing:
  // it is the failure detector's local knowledge, which lets a replicated
  // router pick a live neighbour without visiting it. Always true on a
  // network that had no fault active at construction.
  [[nodiscard]] bool reachable(host_id h) const { return !faults_ || net_->reachable(at_, h); }

  // A fault-aware route that exhausted every replica reports the op
  // unavailable through the same flag a ghost hop sets.
  void mark_failed() { failed_ = true; }
  // True if this operation's route leaned on an unreachable host (or a
  // replicated router gave up): the answer is not backed by live hosts.
  [[nodiscard]] bool failed() const { return failed_; }

  // Key/point comparisons performed while routing: protocols call this next
  // to their comparison sites so api::op_stats can report them per-op.
  void note_comparisons(std::uint64_t n = 1) { comparisons_ += n; }

  // Merge the accumulated receipt into the network's traffic ledger now
  // (idempotent: the receipt is cleared, and the destructor commits only
  // what accumulated since). Counters on the cursor itself are unaffected.
  void settle() {
    if (net_ != nullptr && !receipt_.empty()) {
      net_->commit(receipt_);
      receipt_.clear();
    }
  }

  [[nodiscard]] host_id at() const { return at_; }
  [[nodiscard]] std::uint64_t messages() const { return messages_; }
  // Hosts this operation's locus touched, revisits included (origin counts).
  // Absorbed hops are excluded: they never left the client.
  [[nodiscard]] std::uint64_t visits() const { return messages_ + 1; }
  // Hops served from the attached hop cache's replicas (0 without a cache).
  [[nodiscard]] std::uint64_t absorbed() const { return absorbed_; }
  [[nodiscard]] std::uint64_t comparisons() const { return comparisons_; }
  // The not-yet-committed hop log (exposed for tests).
  [[nodiscard]] const traffic_receipt& receipt() const { return receipt_; }

  // ---- latency / deadline plane (all zero when no model is active) ----

  // Simulated time this operation has spent: hop draws × destination
  // slowdowns, probe timeouts, retry backoffs.
  [[nodiscard]] std::uint64_t sim_ns() const { return sim_ns_; }
  // Retry attempts: lost sends plus replica fallbacks after failed probes.
  [[nodiscard]] std::uint64_t retries() const { return retries_; }
  // Latched once sim_ns() first exceeded the op deadline captured at
  // construction (never set for structural cursors or without a deadline).
  [[nodiscard]] bool timed_out() const { return timed_out_; }
  // Alias routers read at give-up checkpoints; same latch as timed_out().
  [[nodiscard]] bool expired() const { return timed_out_; }
  // Set by deadline-aware walks that gave up mid-route: the answer is an
  // honest prefix/approximation, not the full result.
  [[nodiscard]] bool degraded() const { return degraded_; }
  void mark_degraded() { degraded_ = true; }
  // Slow-host detours: captured at construction like the fault flags. A
  // router may descend early rather than hop to an avoided host, as long as
  // the detour cannot change the answer (level-0 hops never detour).
  [[nodiscard]] bool detours() const { return avoid_threshold_ > 0.0; }
  [[nodiscard]] bool avoids(host_id h) const {
    return avoid_threshold_ > 0.0 && net_->host_slowdown(h) >= avoid_threshold_;
  }

 private:
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
      z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
      z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
      z ^= z >> 31;
      if (z >= loss_threshold_) return;  // this attempt got through
      ++messages_;                       // lost attempt: charged, retried
      receipt_.record(h);
      // The lost send still burned a wire round plus the retry's backoff.
      if (lat_) add_sim(net_->hop_cost_ns(at_, h, sim_serial_++));
      charge_retry_backoff();
    }
  }

  // One successfully delivered hop: message + visit + simulated wire time.
  void charge_hop(host_id h) {
    ++messages_;
    receipt_.record(h);
    if (lat_) add_sim(net_->hop_cost_ns(at_, h, sim_serial_++));
  }

  // A probe that timed out against an unreachable host: same message/visit
  // charge, but simulated time is at least the failure detector's window.
  void charge_probe(host_id h) {
    ++messages_;
    receipt_.record(h);
    if (lat_) {
      const std::uint64_t draw = net_->hop_cost_ns(at_, h, sim_serial_++);
      add_sim(std::max(draw, net_->hop_latency().probe_timeout_ns));
    }
  }

  // Count a retry and (with a model active) wait out its capped exponential
  // backoff; the attempt serial is cursor-private, like the draw serial.
  void charge_retry_backoff() {
    ++retries_;
    if (lat_) add_sim(net_->hop_latency().backoff_ns(backoff_serial_++));
  }

  void add_sim(std::uint64_t ns) {
    sim_ns_ += ns;
    receipt_.add_sim_ns(ns);
    if (deadline_ns_ != 0 && sim_ns_ > deadline_ns_) timed_out_ = true;
  }

  network* net_;
  host_id at_;
  const hop_cache* cache_ = nullptr;  // only read when absorb_window_ > 0
  std::size_t absorb_window_ = 0;
  bool faults_ = false;  // captured at construction, like the hop cache
  std::uint64_t loss_threshold_ = 0;
  std::uint64_t loss_seed_ = 0;
  bool lat_ = false;                 // latency model captured at construction
  std::uint64_t deadline_ns_ = 0;    // 0 = none (structural cursors: always 0)
  double avoid_threshold_ = 0.0;     // 0 = no slow-host detours
  std::uint64_t hop_serial_ = 0;
  std::uint64_t sim_serial_ = 0;      // latency draw serial (cursor-private)
  std::uint64_t backoff_serial_ = 0;  // retry attempt serial, prices backoff
  std::uint64_t sim_ns_ = 0;
  std::uint64_t retries_ = 0;
  bool failed_ = false;
  bool timed_out_ = false;
  bool degraded_ = false;
  std::uint64_t messages_ = 0;
  std::uint64_t absorbed_ = 0;
  std::uint64_t comparisons_ = 0;
  traffic_receipt receipt_;
};

}  // namespace skipweb::net
