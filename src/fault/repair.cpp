#include "fault/repair.h"

#include <mutex>
#include <thread>
#include <utility>

#include "api/distributed_index.h"
#include "api/spatial_index.h"
#include "util/sw_assert.h"

namespace skipweb::fault {

namespace {

// Shared driver: both interfaces expose the same repair_step shape.
template <typename Index>
repair_report drive(Index& ix, net::host_id origin, std::size_t max_rounds) {
  repair_report rep;
  for (;;) {
    const auto r = ix.repair_step(origin);
    ++rep.rounds;
    rep.cost += r.stats;
    rep.repaired += r.value;
    if (r.value == 0) break;  // a clean step means nothing is left
    if (max_rounds != 0 && rep.rounds >= max_rounds) break;
  }
  return rep;
}

}  // namespace

repair_report repair_to_quiescence(api::distributed_index& ix, net::host_id origin,
                                   std::size_t max_rounds) {
  SW_EXPECTS(ix.supports(api::capability::fault_tolerant));
  return drive(ix, origin, max_rounds);
}

repair_report repair_to_quiescence(api::spatial_index& ix, net::host_id origin,
                                   std::size_t max_rounds) {
  SW_EXPECTS(ix.supports(api::spatial_capability::fault_tolerant));
  return drive(ix, origin, max_rounds);
}

repair_daemon::repair_daemon(std::function<std::size_t()> step, std::chrono::microseconds interval)
    : step_(std::move(step)), interval_(interval) {
  SW_EXPECTS(step_ != nullptr);
  if (helper_.helpers() == 0) {
    throw std::system_error(std::make_error_code(std::errc::resource_unavailable_try_again),
                            "fault::repair_daemon: the helper thread did not start");
  }
}

repair_daemon::~repair_daemon() {
  quit_.store(true, std::memory_order_relaxed);
  (void)helper_.join();  // only stop() rethrows a step's exception
}

void repair_daemon::start() {
  SW_EXPECTS(!running());
  quit_.store(false, std::memory_order_relaxed);
  helper_.publish(job_);
  running_ = true;
}

void repair_daemon::stop() {
  quit_.store(true, std::memory_order_relaxed);
  running_ = false;
  if (auto error = helper_.join()) std::rethrow_exception(error);
}

void repair_daemon::loop() {
  while (!quit_.load(std::memory_order_relaxed)) {
    {
      // Exclusive against every query thread's shared_lock: while we hold
      // the gate the query plane is drained, which is the structural-plane
      // precondition repair_step asserts (traffic_quiescent).
      const std::unique_lock<std::shared_mutex> lk(gate_);
      repaired_.fetch_add(step_(), std::memory_order_relaxed);
      rounds_.fetch_add(1, std::memory_order_relaxed);
    }
    if (interval_.count() > 0) std::this_thread::sleep_for(interval_);
    else std::this_thread::yield();
  }
}

}  // namespace skipweb::fault
