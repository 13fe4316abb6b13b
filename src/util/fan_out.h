#pragma once

#include <algorithm>
#include <atomic>
#include <cstddef>
#include <exception>
#include <mutex>
#include <system_error>
#include <thread>
#include <vector>

namespace skipweb::util {

// The workers a fan-out of `tasks` tasks can use: one per hardware thread,
// at most one per task, at least one.
inline std::size_t fan_out_workers(std::size_t tasks) {
  const std::size_t most = std::max<std::size_t>(tasks, 1);
  return std::clamp<std::size_t>(std::thread::hardware_concurrency(), 1, most);
}

// Runs task(t, worker) once for every t in [0, tasks): the calling thread is
// worker 0, and up to min(workers, fan_out_workers(tasks)) − 1 std::jthread
// helpers are workers 1, 2, ... (fewer when starting one throws
// std::system_error: the workers that did start share every task). Each
// worker claims the next task index from one atomic counter, so tasks start
// in index order; a worker index is below `workers`, which lets a caller
// give each worker its own state. After a task throws, no further task is
// claimed. Every helper is joined before fan_out returns or rethrows the
// first exception. The bulk builds (DESIGN.md §12) use it for everything
// they run on several cores, and the snapshot writer to hash a large
// section while it writes it (§13).
template <typename Task>
void fan_out(std::size_t tasks, std::size_t workers, Task&& task) {
  std::atomic<std::size_t> next{0};
  std::mutex error_mutex;
  std::exception_ptr error;  // guarded by error_mutex
  const auto work = [&](std::size_t worker) {
    for (std::size_t t = next.fetch_add(1); t < tasks; t = next.fetch_add(1)) {
      try {
        task(t, worker);
      } catch (...) {
        const std::lock_guard lock(error_mutex);
        if (!error) error = std::current_exception();
        next.store(tasks);
      }
    }
  };
  {
    const std::size_t wanted = std::clamp<std::size_t>(workers, 1, fan_out_workers(tasks)) - 1;
    std::vector<std::jthread> helpers;  // joined on leaving this scope
    helpers.reserve(wanted);
    try {
      for (std::size_t k = 1; k <= wanted; ++k) helpers.emplace_back(work, k);
    } catch (const std::system_error&) {
      // No more threads to be had: the workers that did start share the rest.
    }
    work(0);
  }
  if (error) std::rethrow_exception(error);
}

}  // namespace skipweb::util
