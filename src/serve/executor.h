#pragma once

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <exception>
#include <functional>
#include <limits>
#include <mutex>
#include <thread>
#include <utility>
#include <vector>

#include "api/distributed_index.h"
#include "api/op_stats.h"
#include "api/spatial_index.h"
#include "api/string_index.h"

namespace skipweb::serve {

/// \brief Fixed thread-pool serving driver: the piece of the library that
/// turns "the structures are safe for concurrent const queries" (the
/// receipt-based accounting plane, net/cursor.h) into wall-clock multi-core
/// throughput. T helper threads are workers 0..T−1. run_nearest /
/// run_locate / run_contains cut the query stream into `batch`-wide groups
/// that the workers claim from one atomic counter, each group driven
/// through the backend's interleaved batch router
/// (distributed_index::nearest_batch / spatial_index::locate_batch /
/// string_index::contains_batch); results land at their input positions
/// and the op_stats receipts sum to exactly the serial loop's totals — the
/// output is deterministic for any thread count and batch width (tested at
/// T ∈ {1,2,3,4,8}).
///
/// \par Dispatch
/// A run publishes its job with one epoch bump and waits for the helpers'
/// countdown; idle helpers wait on the epoch. Both waits are
/// `std::atomic::wait`. The calling thread serves no queries (DESIGN.md §8
/// says why). It sizes the answer vector after the publish, while the
/// helpers serve, then releases a ready flag: a helper holds the answers of
/// the groups it served before the flag, stores them once it sees it, and
/// waits on the flag only if it runs out of groups while holding some. The
/// first exception any worker throws stops the group claims; the run waits
/// for every helper and rethrows it on the caller, and the pool serves the
/// next run normally. If the sizing itself throws, the caller stops the
/// claims, releases the flag as abandoned (the helpers drop what they
/// hold), joins and rethrows.
///
/// \par Thread-safety plane
/// Serving is the *query* plane only: inserts/erases are structural and
/// keep the single-writer contract (see net/network.h). Run updates between
/// executor calls, never during one. One executor runs one job at a time
/// (the run_* entry points are not themselves reentrant); use one executor
/// per concurrent driver.
///
/// \par The congestion plane
/// Workers commit one receipt per query, each into its own shard of the
/// network's traffic ledger (net/network.h), so commits from different
/// workers write no shared cache line. The run's completion wave orders
/// every worker's commits before the caller's next ledger read, which folds
/// the shards. With a hot-route replica cache attached to the network
/// (serve/route_cache.h), those committed receipts are exactly what trains
/// the cache, and the workers' cursors absorb their first hops to
/// replicated hot hosts — answers stay identical, the congestion profile
/// flattens. NOTE: the receipt half of the determinism
/// contract above assumes no hop cache is attached. With one attached,
/// *answers* remain identical at every thread count, but which hops get
/// absorbed depends on training order (and on_commit's lossy try-lock), so
/// receipts and congestion numbers are interleaving-dependent — compare
/// them across runs only at threads = 1.
class executor {
 public:
  /// \brief A pool of `threads` helper threads (clamped to >= 1), alive
  /// until destruction; a run's calling thread publishes it and waits.
  explicit executor(std::size_t threads);
  ~executor();

  executor(const executor&) = delete;
  executor& operator=(const executor&) = delete;

  /// \brief Worker count of the pool (>= 1). O(1).
  [[nodiscard]] std::size_t threads() const { return thread_count_; }

  /// \brief The contiguous slice of [0, n) worker `t` of `T` owns: sizes
  /// differ by at most one and the slices concatenate to [0, n) in order, so
  /// the partition (hence every result position and receipt) is a pure
  /// function of (n, T).
  /// \return the half-open pair {lo, hi}.
  [[nodiscard]] static std::pair<std::size_t, std::size_t> slice(std::size_t n, std::size_t t,
                                                                 std::size_t T) {
    const std::size_t lo = (n * t) / T;
    const std::size_t hi = (n * (t + 1)) / T;
    return {lo, hi};
  }

  /// Result of run_nearest: per-query answers plus the exact receipt sum.
  struct nearest_outcome {
    std::vector<api::nn_result> results;  ///< input order
    api::op_stats total;                  ///< sum of every per-op receipt
  };

  /// \brief Drive 1-D nearest-neighbour queries over the pool.
  /// Results and summed receipts are identical to
  /// `for (q : qs) idx.nearest(q, origin)` regardless of thread count or
  /// batch width (the nearest_batch receipt-equality contract).
  /// \param idx    any registered backend; only its const query surface is
  ///               touched.
  /// \param qs     the whole query stream (workers claim groups of it).
  /// \param origin serving frontend: every query is issued from this host.
  /// \param batch  group size handed to nearest_batch per call.
  /// \note Blocks until the stream is served. Wall-clock O(|qs|/T) batches.
  [[nodiscard]] nearest_outcome run_nearest(const api::distributed_index& idx,
                                            const std::vector<std::uint64_t>& qs,
                                            net::host_id origin, std::size_t batch = 24);

  /// Result of run_locate: per-query answers plus the exact receipt sum.
  struct locate_outcome {
    std::vector<api::spatial_locate_result> results;  ///< input order
    api::op_stats total;                              ///< sum of per-op receipts
  };

  /// \brief Spatial sibling of run_nearest: drive point-location queries
  /// through locate_batch. Same determinism contract.
  [[nodiscard]] locate_outcome run_locate(const api::spatial_index& idx,
                                          const std::vector<api::spatial_point>& qs,
                                          net::host_id origin, std::size_t batch = 24);

  /// Result of run_contains: per-query answers plus the exact receipt sum.
  struct contains_outcome {
    std::vector<api::op_result<bool>> results;  ///< input order
    api::op_stats total;                        ///< sum of per-op receipts
  };

  /// \brief String-plane sibling of run_nearest: drive exact-membership
  /// queries through contains_batch. Same determinism contract.
  [[nodiscard]] contains_outcome run_contains(const api::string_index& idx,
                                              const std::vector<std::string>& qs,
                                              net::host_id origin, std::size_t batch = 24);

  /// Configuration of run_open_loop (the deadline plane, DESIGN.md §11).
  struct open_loop_config {
    net::host_id origin;        ///< serving frontend every query is issued from
    net::host_id hedge_origin;  ///< frontend hedged duplicates are issued from
    /// Hedge trigger: a query whose primary route's simulated service time
    /// exceeds this is re-issued from hedge_origin, and the first reply
    /// wins (typically derived from a measured p99). 0 disables hedging.
    std::uint64_t hedge_delay_ns = 0;
    /// Per-worker in-flight window: arrivals beyond this many outstanding
    /// ops queue behind the earliest simulated completion.
    std::size_t inflight = 128;
  };

  /// Result of run_open_loop: answers, per-op simulated latencies (completion
  /// minus arrival — queueing included), and tail-plane accounting.
  struct open_loop_outcome {
    std::vector<api::nn_result> results;    ///< input order
    std::vector<std::uint64_t> latency_ns;  ///< per-op, input order
    api::op_stats total;                    ///< sum of every per-op receipt
    std::uint64_t hedged = 0;        ///< duplicate requests issued
    std::uint64_t hedge_wins = 0;    ///< duplicates that beat their primary
    std::uint64_t timed_out_ops = 0; ///< ops that exceeded their deadline
    std::uint64_t failed_ops = 0;    ///< ops whose route leaned on dead hosts
    std::uint64_t makespan_ns = 0;   ///< last simulated completion time
  };

  /// \brief Open-loop event-driven serving: queries arrive at
  /// `arrivals_ns[i]` (simulated, nondecreasing per worker slice) and each
  /// worker drives its slice in simulated-completion order — a binary heap
  /// of in-flight completions bounds the window at `cfg.inflight`, so a
  /// burst queues behind the earliest completion instead of fanning out
  /// unboundedly. With `hedge_delay_ns > 0`, a query whose primary service
  /// time exceeds the delay is duplicated from `hedge_origin`; the first
  /// reply wins and the loser's whole route is still charged
  /// (cancel-and-account — the receipts stay honest).
  /// \note Answers and summed receipts remain thread-count invariant (per-op
  ///       work is cursor-local); per-op *latencies* depend on the worker
  ///       partition, so compare latency distributions at fixed T.
  [[nodiscard]] open_loop_outcome run_open_loop(const api::distributed_index& idx,
                                                const std::vector<std::uint64_t>& qs,
                                                const std::vector<std::uint64_t>& arrivals_ns,
                                                const open_loop_config& cfg);

  /// \brief The q-th quantile (q in [0,1]) of a latency sample, by the same
  /// nearest-rank convention the congestion profile uses; sorts a copy.
  [[nodiscard]] static std::uint64_t percentile_ns(std::vector<std::uint64_t> sample, double q);

  /// \brief Run fn(worker, lo, hi) on every worker over the static partition
  /// of [0, n) (`slice`), slice w on helper w. Blocks until all workers
  /// finish, then rethrows the first exception any of them threw.
  /// run_open_loop's per-worker event loops use it; exposed for custom
  /// query mixes.
  /// \note `fn` must itself stay on the query plane when touching shared
  ///       structures.
  void for_slices(std::size_t n, const std::function<void(std::size_t, std::size_t, std::size_t)>& fn);

 private:
  // Helper `worker`'s loop: runs each published job once; an exception is
  // kept (the first one only) and ends the job's group claims.
  void helper_loop(std::size_t worker);
  // Starts job(w) on helper w for every worker w and returns at once; the
  // job must stay alive until join().
  void publish(const std::function<void(std::size_t)>& job);
  // Returns once every helper has finished the published job, with the
  // first exception any of them threw (null if none did).
  [[nodiscard]] std::exception_ptr join();
  // The next group index of the running job, or `groups` once every group
  // is claimed or the run is stopping.
  [[nodiscard]] std::size_t claim(std::size_t groups) {
    return std::min(next_group_.fetch_add(1, std::memory_order_relaxed), groups);
  }
  // Ends the running job's group claims: far past any group count, and far
  // from wrapping.
  void stop_claims() {
    next_group_.store(std::numeric_limits<std::size_t>::max() / 2, std::memory_order_relaxed);
  }
  // The group/merge loop of run_nearest / run_locate / run_contains: each
  // worker claims `batch`-wide groups of the stream, hands each to `serve`
  // (one *_batch call), stores the answers in input order and sums the
  // receipts. The caller sizes the answers meanwhile (see Dispatch).
  template <typename Outcome, typename Query, typename Serve>
  Outcome run_batches(const std::vector<Query>& qs, std::size_t batch, const Serve& serve);
  // Ends the helpers: the last epoch bump, then the joins.
  void stop();

  std::size_t thread_count_;

  // One job at a time. publish writes job_ (stop() writes stopping_) before
  // the release bump of epoch_ that publishes it; a helper that acquires the
  // new epoch runs the job once and counts `outstanding_` down, and join's
  // acquire of zero orders every helper's work before its return.
  const std::function<void(std::size_t)>* job_ = nullptr;
  bool stopping_ = false;
  std::atomic<std::uint64_t> epoch_{0};
  std::atomic<std::size_t> outstanding_{0};
  std::atomic<std::size_t> next_group_{0};
  std::mutex error_mu_;
  std::exception_ptr error_;  // the running job's first exception; guarded by error_mu_
  std::vector<std::thread> helpers_;  // last: the helpers use every member above
};

}  // namespace skipweb::serve
