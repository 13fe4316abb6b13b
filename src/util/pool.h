#pragma once

#include <algorithm>
#include <atomic>
#include <cstddef>
#include <cstdint>
#include <exception>
#include <functional>
#include <limits>
#include <mutex>
#include <system_error>
#include <thread>
#include <utility>
#include <vector>

#include "util/sw_assert.h"

namespace skipweb::util {

// The helper threads of the library, one pool per user: fan_out below (the
// bulk builds and the snapshot writer), serve::executor's serving helpers
// and fault::repair_daemon's loop (DESIGN.md §8, §10, §12). A pool runs one
// job at a time on every helper: publish(job) starts job(k) on helper k and
// returns at once, so the calling thread can do its own share, and join()
// waits for the helpers. publish writes the job before a release bump of an
// epoch word; idle helpers wait on that word and join on the helpers'
// countdown, both in std::atomic::wait. A job's workers share one claim
// counter. The first exception one throws is kept and stops the claims, and
// join() returns it; the pool then runs the next job normally.
class pool {
 public:
  // Starts up to `helpers` threads, fewer when starting one throws
  // std::system_error: the helpers that did start run every job.
  explicit pool(std::size_t helpers) {
    threads_.reserve(helpers);
    try {
      for (std::size_t k = 0; k < helpers; ++k) {
        threads_.emplace_back([this, k] { helper_loop(k); });
      }
    } catch (const std::system_error&) {
      // No more threads to be had.
    } catch (...) {
      stop();
      throw;
    }
  }
  ~pool() { stop(); }

  pool(const pool&) = delete;
  pool& operator=(const pool&) = delete;

  [[nodiscard]] std::size_t helpers() const { return threads_.size(); }

  // Starts job(k) on helper k for every helper and returns at once. The pool
  // keeps a pointer to the job, so it must outlive join(): a named local,
  // never a temporary built at the call.
  void publish(const std::function<void(std::size_t)>& job) {
    SW_EXPECTS(job_ == nullptr);  // one job at a time
    job_ = &job;
    next_.store(0, std::memory_order_relaxed);
    outstanding_.store(threads_.size(), std::memory_order_relaxed);
    epoch_.fetch_add(1, std::memory_order_release);
    epoch_.notify_all();
  }

  // Returns once every helper has finished the published job, which its
  // acquire orders before the return, with the job's first exception (null
  // if none was kept).
  [[nodiscard]] std::exception_ptr join() {
    for (std::size_t left = outstanding_.load(std::memory_order_acquire); left != 0;
         left = outstanding_.load(std::memory_order_acquire)) {
      outstanding_.wait(left, std::memory_order_acquire);
    }
    job_ = nullptr;
    const std::lock_guard lock(error_mu_);
    return std::exchange(error_, nullptr);
  }

  // The running job's next index below n, in index order, or n once every
  // index is claimed or the claims are stopped.
  [[nodiscard]] std::size_t claim(std::size_t n) {
    return std::min(next_.fetch_add(1, std::memory_order_relaxed), n);
  }
  // Ends the claims: far past any count, and far from wrapping.
  void stop_claims() {
    next_.store(std::numeric_limits<std::size_t>::max() / 2, std::memory_order_relaxed);
  }
  // Keeps `error` if it is the running job's first exception, and stops the
  // claims. A helper's throw lands here, and so may the calling thread's.
  void fail(std::exception_ptr error) {
    const std::lock_guard lock(error_mu_);
    if (!error_) error_ = std::move(error);
    stop_claims();
  }

 private:
  void helper_loop(std::size_t k) {
    std::uint64_t seen = 0;
    for (;;) {
      epoch_.wait(seen, std::memory_order_acquire);
      // A publish bumps the epoch once and joins every helper before the
      // next bump, so no helper misses a job, a late-starting one included.
      seen = epoch_.load(std::memory_order_acquire);
      if (stopping_) return;
      try {
        (*job_)(k);
      } catch (...) {
        fail(std::current_exception());
      }
      if (outstanding_.fetch_sub(1, std::memory_order_acq_rel) == 1) outstanding_.notify_one();
    }
  }
  // Ends the helpers: the last epoch bump, then the joins.
  void stop() {
    stopping_ = true;
    epoch_.fetch_add(1, std::memory_order_release);
    epoch_.notify_all();
    for (auto& t : threads_) t.join();
  }

  // publish writes job_ (stop writes stopping_) before the epoch bump.
  const std::function<void(std::size_t)>* job_ = nullptr;
  bool stopping_ = false;
  std::atomic<std::uint64_t> epoch_{0};
  std::atomic<std::size_t> outstanding_{0};
  std::atomic<std::size_t> next_{0};
  std::mutex error_mu_;
  std::exception_ptr error_;  // the running job's first exception; guarded by error_mu_
  std::vector<std::thread> threads_;  // last: the helpers use every member above
};

// The workers a fan-out of `tasks` tasks can use: one per hardware thread,
// at most one per task, at least one.
inline std::size_t fan_out_workers(std::size_t tasks) {
  const std::size_t most = std::max<std::size_t>(tasks, 1);
  return std::clamp<std::size_t>(std::thread::hardware_concurrency(), 1, most);
}

// Runs task(t, worker) once for every t in [0, tasks) on a pool started for
// the call: the calling thread is worker 0 and helper k is worker k + 1, up
// to min(workers, fan_out_workers(tasks)) − 1 helpers (fewer when starting
// one throws std::system_error: the workers that did start share every
// task). Each worker claims the next task index from the pool's counter, so
// tasks start in index order; a worker index is below `workers`, which lets
// a caller give each worker its own state. After a task throws, on any
// worker, no further task is claimed. Every helper has finished before
// fan_out returns or rethrows the first exception. The bulk builds
// (DESIGN.md §12) use it for everything they run on several cores, and the
// snapshot writer to hash a large section while it writes it (§13).
template <typename Task>
void fan_out(std::size_t tasks, std::size_t workers, Task&& task) {
  pool helpers(std::clamp<std::size_t>(workers, 1, fan_out_workers(tasks)) - 1);
  const auto work = [&](std::size_t worker) {
    for (std::size_t t = helpers.claim(tasks); t < tasks; t = helpers.claim(tasks)) task(t, worker);
  };
  const std::function<void(std::size_t)> job = [&](std::size_t k) { work(k + 1); };
  helpers.publish(job);
  try {
    work(0);
  } catch (...) {
    helpers.fail(std::current_exception());
  }
  if (auto error = helpers.join()) std::rethrow_exception(error);
}

}  // namespace skipweb::util
