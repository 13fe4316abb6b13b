#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <string>
#include <utility>

namespace skipweb::net {
class hop_cache;
}

namespace skipweb::api {

// Node→host assignment policy for backends that support a choice (paper
// §2.4). Backends with a fixed layout (blocked, bucketed, hashed) ignore it.
enum class placement_policy : std::uint8_t {
  tower,     // item i's whole tower on host i (H = n; skip-graph layout)
  balanced,  // nodes hashed over the existing hosts (arbitrary assignment)
};

// Build-time options shared by every backend, consumed by the registry's
// uniform build entry point (`make_index`). Chainable builder:
//
//   auto idx = api::make_index("bucket_skipweb", keys,
//                              api::index_options{}.seed(7).bucket_size(16),
//                              net);
//
// Fields a backend does not use are ignored; zero means "derive a sensible
// default from n" (see the *_or_default helpers).
class index_options {
 public:
  index_options& seed(std::uint64_t v) {
    seed_ = v;
    return *this;
  }
  index_options& placement(placement_policy p) {
    placement_ = p;
    return *this;
  }
  // Hosts guaranteed to exist before the build (make_index grows the network
  // to this count). Backends that allocate their own hosts add on top.
  index_options& initial_hosts(std::size_t h) {
    initial_hosts_ = h;
    return *this;
  }
  // Per-host memory target M for blocked layouts (bucket skip-web).
  index_options& bucket_size(std::size_t m) {
    bucket_size_ = m;
    return *this;
  }
  // Bucket/host count for bucketed baselines (bucket skip graph, chord ring).
  index_options& buckets(std::size_t b) {
    buckets_ = b;
    return *this;
  }
  // Opt into hot-route replica caching: make_index / make_spatial_index /
  // make_string_index attach `c` to the network (network::attach_hop_cache)
  // on a build and on a restore alike, so queries on the built index absorb
  // their first hops to replicated hot hosts and committed receipts train
  // the cache. Answers are unchanged by contract (see serve/route_cache.h);
  // only receipts and the congestion ledger differ. The cache must outlive
  // the network attachment; nullptr (the default) leaves whatever is
  // attached untouched.
  index_options& route_cache(net::hop_cache* c) {
    route_cache_ = c;
    return *this;
  }
  // Opt into k-way neighbor replication (the fault plane, DESIGN.md §10):
  // fault-tolerant backends keep k extra successor/predecessor (or replica-
  // host) entries per record so queries route around up to k dead hosts, and
  // expose repair_step() to restore redundancy after crashes. 0 (the
  // default) disables the plane entirely — routing is byte-identical to the
  // pre-fault build. Backends without fault support ignore it (their
  // capability set simply never advertises fault_tolerant). Clamped to 8
  // here; make_index additionally clamps against what the deployment can
  // honor — a k-th replica needs k+1 distinct records, so the build caps k
  // at max(existing hosts, records) - 1 (tower placements grow hosts to the
  // record count). index::replication() reports the honored value.
  index_options& replication(std::size_t k) {
    replication_ = std::min<std::size_t>(k, 8);
    return *this;
  }
  // Opt into per-op deadlines (the latency plane, DESIGN.md §11): with a
  // latency model active (network::set_latency_model), an operation whose
  // accumulated simulated time exceeds this budget gives up mid-route,
  // reporting op_stats::timed_out — and, for range/NN walks, returns what it
  // gathered so far tagged op_stats::degraded (an honest prefix of the true
  // answer). 0 (the default) means no deadline; structural operations
  // (insert/erase/build) always run to completion regardless.
  index_options& deadline(std::uint64_t sim_ns) {
    deadline_ns_ = sim_ns;
    return *this;
  }
  // Opt into instant restart (the persistence plane, DESIGN.md §13): with a
  // path set, make_index / make_spatial_index / make_string_index first look
  // for a snapshot file there — if one exists the index is RESTORED from it
  // (mmap mode: cold start in milliseconds, arenas borrowed from the mapping
  // until first write) instead of built; if not, the index is built
  // normally, compacted, and SAVED there for the next start. Either way the
  // caller gets an index whose answers, uids and receipts are byte-identical
  // to a fresh build. Only snapshot-capable backends (capability::snapshot)
  // participate; with others the path is ignored. Empty (the default)
  // disables the plane.
  index_options& snapshot_path(std::string path) {
    snapshot_path_ = std::move(path);
    return *this;
  }

  [[nodiscard]] std::uint64_t seed() const { return seed_; }
  [[nodiscard]] placement_policy placement() const { return placement_; }
  [[nodiscard]] std::size_t initial_hosts() const { return initial_hosts_; }
  [[nodiscard]] std::size_t bucket_size() const { return bucket_size_; }
  [[nodiscard]] std::size_t buckets() const { return buckets_; }
  [[nodiscard]] net::hop_cache* route_cache() const { return route_cache_; }
  [[nodiscard]] std::size_t replication() const { return replication_; }
  [[nodiscard]] std::uint64_t deadline_ns() const { return deadline_ns_; }
  [[nodiscard]] const std::string& snapshot_path() const { return snapshot_path_; }

  // M defaults to Theta(log n) — the regime where the blocked skip-web hits
  // its O(log n / log log n) query bound (paper §2.4.1).
  [[nodiscard]] std::size_t bucket_size_or_default(std::size_t n) const {
    if (bucket_size_ != 0) return bucket_size_;
    std::size_t m = 4;
    while ((std::size_t{1} << (m / 2)) < std::max<std::size_t>(n, 2)) ++m;
    return m;
  }

  // Bucket count defaults to n/8 (H < n, each host holding a handful of
  // items), clamped to [1, n].
  [[nodiscard]] std::size_t buckets_or_default(std::size_t n) const {
    if (buckets_ != 0) return std::min(buckets_, std::max<std::size_t>(n, 1));
    return std::clamp<std::size_t>(n / 8, 1, std::max<std::size_t>(n, 1));
  }

 private:
  std::uint64_t seed_ = 1;
  placement_policy placement_ = placement_policy::tower;
  std::size_t initial_hosts_ = 1;
  std::size_t bucket_size_ = 0;
  std::size_t buckets_ = 0;
  net::hop_cache* route_cache_ = nullptr;
  std::size_t replication_ = 0;
  std::uint64_t deadline_ns_ = 0;
  std::string snapshot_path_;
};

}  // namespace skipweb::api
