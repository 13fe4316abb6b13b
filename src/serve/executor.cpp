#include "serve/executor.h"

#include <algorithm>
#include <atomic>
#include <queue>

#include "util/sw_assert.h"

namespace skipweb::serve {

executor::executor(std::size_t threads) : pool_(std::max<std::size_t>(threads, 1)) {
  if (pool_.helpers() < std::max<std::size_t>(threads, 1)) {
    throw std::system_error(std::make_error_code(std::errc::resource_unavailable_try_again),
                            "serve::executor: a helper thread did not start");
  }
}

void executor::for_slices(std::size_t n,
                          const std::function<void(std::size_t, std::size_t, std::size_t)>& fn) {
  const std::function<void(std::size_t)> job = [&](std::size_t worker) {
    const auto [lo, hi] = slice(n, worker, threads());
    if (lo < hi) fn(worker, lo, hi);
  };
  pool_.publish(job);
  if (auto error = pool_.join()) std::rethrow_exception(error);
}

template <typename Outcome, typename Query, typename Serve>
Outcome executor::run_batches(const std::vector<Query>& qs, std::size_t batch,
                              const Serve& serve) {
  using answers = decltype(Outcome::results);
  const std::size_t width = std::max<std::size_t>(batch, 1);
  const std::size_t groups = (qs.size() + width - 1) / width;
  Outcome out;
  std::vector<api::op_stats> partial(threads());
  // Whether out.results may take answers yet: the caller sizes it after the
  // publish, beside the helpers.
  enum : std::uint8_t { pending, sized, abandoned };
  std::atomic<std::uint8_t> sizing{pending};
  const std::function<void(std::size_t)> job = [&](std::size_t worker) {
    api::op_stats sum;
    std::vector<Query> group;
    // The groups this worker served before the answers were sized, by base.
    std::vector<std::pair<std::size_t, answers>> held;
    bool ready = false;
    const auto store = [&](std::size_t base, answers& res) {
      for (std::size_t i = 0; i < res.size(); ++i) out.results[base + i] = std::move(res[i]);
    };
    for (std::size_t g = pool_.claim(groups); g < groups; g = pool_.claim(groups)) {
      const std::size_t base = g * width;
      const std::size_t count = std::min(width, qs.size() - base);
      group.assign(qs.begin() + static_cast<std::ptrdiff_t>(base),
                   qs.begin() + static_cast<std::ptrdiff_t>(base + count));
      answers res = serve(group);
      SW_ASSERT(res.size() == count);
      for (const auto& r : res) sum += r.stats;
      if (!ready && sizing.load(std::memory_order_acquire) == sized) {
        ready = true;
        for (auto& [b, h] : held) store(b, h);
        held.clear();
      }
      if (ready) {
        store(base, res);
      } else {
        held.emplace_back(base, std::move(res));
      }
    }
    if (!held.empty()) {
      sizing.wait(pending, std::memory_order_acquire);
      if (sizing.load(std::memory_order_acquire) == sized) {
        for (auto& [b, h] : held) store(b, h);
      }
    }
    partial[worker] = sum;
  };
  pool_.publish(job);
  try {
    out.results.resize(qs.size());
  } catch (...) {
    pool_.stop_claims();
    sizing.store(abandoned, std::memory_order_release);
    sizing.notify_all();
    (void)pool_.join();  // the sizing failure outranks a worker's
    throw;
  }
  sizing.store(sized, std::memory_order_release);
  sizing.notify_all();
  if (auto error = pool_.join()) std::rethrow_exception(error);
  // Which worker served a group varies from run to run, but the counters are
  // u64 sums, so the totals are the same for every thread count anyway.
  for (const auto& p : partial) out.total += p;
  return out;
}

executor::nearest_outcome executor::run_nearest(const api::distributed_index& idx,
                                                const std::vector<std::uint64_t>& qs,
                                                net::host_id origin, std::size_t batch) {
  return run_batches<nearest_outcome>(
      qs, batch, [&](const auto& group) { return idx.nearest_batch(group, origin); });
}

executor::locate_outcome executor::run_locate(const api::spatial_index& idx,
                                              const std::vector<api::spatial_point>& qs,
                                              net::host_id origin, std::size_t batch) {
  return run_batches<locate_outcome>(
      qs, batch, [&](const auto& group) { return idx.locate_batch(group, origin); });
}

executor::contains_outcome executor::run_contains(const api::string_index& idx,
                                                  const std::vector<std::string>& qs,
                                                  net::host_id origin, std::size_t batch) {
  return run_batches<contains_outcome>(
      qs, batch, [&](const auto& group) { return idx.contains_batch(group, origin); });
}

executor::open_loop_outcome executor::run_open_loop(const api::distributed_index& idx,
                                                    const std::vector<std::uint64_t>& qs,
                                                    const std::vector<std::uint64_t>& arrivals_ns,
                                                    const open_loop_config& cfg) {
  SW_EXPECTS(qs.size() == arrivals_ns.size());
  SW_EXPECTS(cfg.hedge_delay_ns == 0 || cfg.hedge_origin.valid());
  const std::size_t window = std::max<std::size_t>(cfg.inflight, 1);
  open_loop_outcome out;
  out.results.resize(qs.size());
  out.latency_ns.resize(qs.size());
  struct worker_tally {
    api::op_stats total;
    std::uint64_t hedged = 0, hedge_wins = 0, timed_out = 0, failed = 0, makespan = 0;
  };
  std::vector<worker_tally> partial(threads());
  for_slices(qs.size(), [&](std::size_t worker, std::size_t lo, std::size_t hi) {
    worker_tally t;
    // In-flight simulated completion times, earliest on top: the event loop
    // of this worker's share of the open-loop stream.
    std::priority_queue<std::uint64_t, std::vector<std::uint64_t>, std::greater<>> inflight;
    for (std::size_t i = lo; i < hi; ++i) {
      const std::uint64_t arrival = arrivals_ns[i];
      std::uint64_t start = arrival;
      // Window full: this query queues behind the earliest completion.
      while (inflight.size() >= window) {
        start = std::max(start, inflight.top());
        inflight.pop();
      }
      while (!inflight.empty() && inflight.top() <= start) inflight.pop();
      api::nn_result r = idx.nearest(qs[i], cfg.origin);
      std::uint64_t service = r.stats.sim_latency_ns;
      if (cfg.hedge_delay_ns != 0 && service > cfg.hedge_delay_ns) {
        // Hedge: duplicate the request from the backup frontend after the
        // trigger delay; keep whichever reply lands first. The loser ran its
        // whole route before the cancel reached it, so BOTH routes' hops,
        // retries and simulated work are charged (cancel-and-account);
        // only the op's end-to-end service time is the winner's.
        api::nn_result backup = idx.nearest(qs[i], cfg.hedge_origin);
        const std::uint64_t backup_done = cfg.hedge_delay_ns + backup.stats.sim_latency_ns;
        ++t.hedged;
        if (backup_done < service) {
          ++t.hedge_wins;
          service = backup_done;
        }
        r.stats += backup.stats;
        r.stats.sim_latency_ns = service;
        r.stats.hedges = 1;
      }
      const std::uint64_t done = start + service;
      inflight.push(done);
      out.results[i] = r;
      out.latency_ns[i] = done - arrival;
      t.total += r.stats;
      t.timed_out += r.stats.timed_out ? 1 : 0;
      t.failed += r.stats.failed ? 1 : 0;
      t.makespan = std::max(t.makespan, done);
    }
    partial[worker] = t;
  });
  for (const auto& p : partial) {
    out.total += p.total;
    out.hedged += p.hedged;
    out.hedge_wins += p.hedge_wins;
    out.timed_out_ops += p.timed_out;
    out.failed_ops += p.failed;
    out.makespan_ns = std::max(out.makespan_ns, p.makespan);
  }
  return out;
}

std::uint64_t executor::percentile_ns(std::vector<std::uint64_t> sample, double q) {
  if (sample.empty()) return 0;
  std::sort(sample.begin(), sample.end());
  const auto idx =
      static_cast<std::size_t>(q * (static_cast<double>(sample.size()) - 1.0));
  return sample[std::min(idx, sample.size() - 1)];
}

}  // namespace skipweb::serve
