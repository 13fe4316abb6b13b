#pragma once

#include <atomic>
#include <chrono>
#include <cstddef>
#include <functional>
#include <shared_mutex>

#include "api/op_stats.h"
#include "net/types.h"
#include "util/pool.h"

namespace skipweb::api {
class index_base;
}  // namespace skipweb::api

namespace skipweb::fault {

// Aggregate outcome of driving a backend's repair_step to quiescence: how
// much was repaired, how many steps it took, and the merged cost receipt —
// the "repair-message cost" axis of BENCH_failures.json.
struct repair_report {
  std::size_t repaired = 0;  // records unspliced (1-D) / re-homed (spatial)
  std::size_t rounds = 0;    // repair_step calls, including the final clean one
  api::op_stats cost;        // every step's receipts, merged
};

// Call ix.repair_step(origin) until it reports nothing left to repair, for
// an index of any kind. `max_rounds` bounds the loop (0 = until quiescent);
// the backend must advertise capability::fault_tolerant. Structural plane,
// like the repair steps themselves.
repair_report repair_to_quiescence(api::index_base& ix, net::host_id origin,
                                   std::size_t max_rounds = 0);

// Background self-repair under a live query plane — the deployment shape:
// queries keep flowing while a maintenance thread, the daemon's one
// util::pool helper, heals the structure.
//
// repair_step is structural-plane (single writer, no concurrent queries),
// so the daemon exposes the coordination point explicitly: gate(). The
// daemon runs each repair step holding the gate exclusively; query threads
// wrap each operation in std::shared_lock<std::shared_mutex> lk(d.gate()).
// That reader/writer bracket — not any lock inside the structures — is what
// makes "repair racing the query plane" sound, and it is exactly what
// tests/test_failures.cpp runs under TSan.
class repair_daemon {
 public:
  struct stats {
    std::size_t rounds = 0;    // repair_step invocations so far
    std::size_t repaired = 0;  // records they reported repaired
  };

  // `step` performs one repair step and returns how many records it fixed;
  // the daemon invokes it while holding gate() exclusively. `interval` is
  // the idle pause between steps (short in tests, so repair genuinely
  // overlaps the query stream). Starts the helper thread, idle until
  // start(); throws std::system_error when it does not start.
  repair_daemon(std::function<std::size_t()> step, std::chrono::microseconds interval);
  ~repair_daemon();  // stops if still running, dropping a step's exception

  // Runs steps on the helper until stop(), or until a step throws.
  void start();
  // Ends the steps and waits for the helper, then rethrows the exception a
  // step threw, if one did (the steps ended there). start() may follow.
  void stop();
  [[nodiscard]] bool running() const { return running_; }

  // The query-plane/repair coordination lock (see class comment).
  [[nodiscard]] std::shared_mutex& gate() { return gate_; }

  [[nodiscard]] stats snapshot() const {
    return {rounds_.load(std::memory_order_relaxed), repaired_.load(std::memory_order_relaxed)};
  }

 private:
  void loop();

  std::function<std::size_t()> step_;
  std::chrono::microseconds interval_;
  std::shared_mutex gate_;
  std::atomic<bool> quit_{false};
  std::atomic<std::size_t> rounds_{0};
  std::atomic<std::size_t> repaired_{0};
  bool running_ = false;
  const std::function<void(std::size_t)> job_ = [this](std::size_t) { loop(); };
  util::pool helper_{1};  // last: start() publishes job_ on it
};

}  // namespace skipweb::fault
