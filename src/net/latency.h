#pragma once

#include <cmath>
#include <cstdint>
#include <limits>

#include "net/types.h"
#include "util/rng.h"

namespace skipweb::net {

// Pluggable per-hop latency model (the deadline plane, DESIGN.md §11). The
// simulated network stays a ledger — no wall clock is involved — but every
// charged hop now also costs *simulated nanoseconds*, accumulated into the
// operation's traffic_receipt and surfaced as op_stats::sim_latency_ns.
//
// Determinism contract (the same one the loss plane keeps): a hop's cost is
// a pure function of (model, from, to, per-cursor draw serial), computed by
// stateless hashing — no shared RNG, no call-order coupling between
// operations — so per-op simulated latencies are identical for any thread
// count and any interleaving. `shape::zero` (the default) disables the plane
// entirely: cursors capture that at construction and take a code path
// byte-identical to the pre-latency build.
struct latency_model {
  enum class shape : std::uint8_t { zero, constant, lognormal };

  shape dist = shape::zero;
  // constant: every hop costs base_ns. lognormal: base_ns is the MEDIAN hop
  // cost (exp(mu) of the underlying normal) and `sigma` the shape parameter.
  std::uint64_t base_ns = 0;
  double sigma = 0.0;
  std::uint64_t seed = 0;
  // Retry pricing. A timed-out probe toward an unreachable host costs
  // max(hop draw, probe_timeout_ns) — the failure detector's window, usually
  // several RTTs. Each retry (a lost send, or a failed probe a replica
  // router falls back from) additionally waits a capped exponential backoff:
  // attempt a (0-based) costs min(backoff_base_ns << a, backoff_cap_ns).
  // All three default to 0 = free, so enabling the model alone only prices
  // successful hops.
  std::uint64_t probe_timeout_ns = 0;
  std::uint64_t backoff_base_ns = 0;
  std::uint64_t backoff_cap_ns = 0;

  [[nodiscard]] static latency_model none() { return {}; }

  // Constant per-hop cost with opinionated retry pricing: probes time out at
  // 4 hops, backoff starts at one hop and caps at 32.
  [[nodiscard]] static latency_model constant(std::uint64_t ns) {
    latency_model m;
    m.dist = shape::constant;
    m.base_ns = ns;
    m.probe_timeout_ns = 4 * ns;
    m.backoff_base_ns = ns;
    m.backoff_cap_ns = 32 * ns;
    return m;
  }

  // Seeded LogNormal(median_ns, sigma) per-hop cost; same retry defaults,
  // scaled by the median.
  [[nodiscard]] static latency_model lognormal(std::uint64_t median_ns, double sg,
                                               std::uint64_t sd) {
    latency_model m = constant(median_ns);
    m.dist = shape::lognormal;
    m.sigma = sg;
    m.seed = sd;
    return m;
  }

  [[nodiscard]] bool active() const { return dist != shape::zero; }

  // One hop's simulated wire+service time BEFORE the destination host's
  // slowdown multiplier (network::hop_cost_ns applies that). Pure function
  // of (model, from, to, serial); `serial` is the issuing cursor's private
  // draw counter, so concurrent ops never share randomness.
  [[nodiscard]] std::uint64_t sample_ns(host_id from, host_id to, std::uint64_t serial) const {
    if (dist == shape::constant) return base_ns;
    if (dist == shape::zero) return 0;
    // Two stateless uniforms drive a Box–Muller normal; exp() maps it to the
    // LogNormal. ~40ns of math per hop — fine for a simulator whose hops are
    // worth hundreds of simulated microseconds.
    const std::uint64_t key =
        (static_cast<std::uint64_t>(from.value) << 32) | static_cast<std::uint64_t>(to.value);
    const double u1 =
        (static_cast<double>(mix(seed ^ key, 2 * serial + 1) >> 11) + 0.5) * 0x1.0p-53;
    const double u2 = static_cast<double>(mix(seed ^ key, 2 * serial + 2) >> 11) * 0x1.0p-53;
    const double z = std::sqrt(-2.0 * std::log(u1)) * std::cos(6.283185307179586 * u2);
    const double ns = static_cast<double>(base_ns) * std::exp(sigma * z);
    return ns <= 1.0 ? 1 : static_cast<std::uint64_t>(ns);
  }

  // The backoff wait before retry `attempt` (0-based), capped.
  [[nodiscard]] std::uint64_t backoff_ns(std::uint64_t attempt) const {
    if (backoff_base_ns == 0) return 0;
    const std::uint64_t cap =
        backoff_cap_ns != 0 ? backoff_cap_ns : std::numeric_limits<std::uint64_t>::max();
    if (attempt >= 32) return cap;
    return std::min(backoff_base_ns << attempt, cap);
  }

 private:
  [[nodiscard]] static std::uint64_t mix(std::uint64_t a, std::uint64_t b) {
    return util::mix64(a + 0x9e3779b97f4a7c15ull * (b + 1));
  }
};

}  // namespace skipweb::net
