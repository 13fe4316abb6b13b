#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "api/op_stats.h"
#include "baselines/skipgraph.h"
#include "net/network.h"

namespace skipweb::baselines {

// Bucket skip graphs [Aspnes–Kirsch–Krishnamurthy 2]: fewer hosts than items
// (H < n). The sorted key space is chopped into H contiguous buckets, one
// per host; a plain skip graph over the bucket boundary keys routes a query
// to the right bucket in O(log H) expected messages, and the rest is local.
// Per-host memory is n/H items plus the O(log H) routing tower — the
// comparison row that motivates the paper's bucket skip-webs, which beat
// this O(log H) query cost with O(log_M H).
class bucket_skip_graph {
 public:
  // Splits `keys` into `buckets` contiguous ranges; each bucket gets a fresh
  // host on `net` (so H == buckets + whatever hosts the caller had).
  bucket_skip_graph(std::vector<std::uint64_t> keys, std::uint64_t seed, net::network& net,
                    std::size_t buckets);

  [[nodiscard]] std::size_t size() const { return size_; }
  [[nodiscard]] std::size_t bucket_count() const { return buckets_.size(); }

  [[nodiscard]] api::nn_result nearest(std::uint64_t q, net::host_id origin) const;

  api::op_stats insert(std::uint64_t key, net::host_id origin);
  api::op_stats erase(std::uint64_t key, net::host_id origin);

  [[nodiscard]] bool check_invariants() const;

  // Measured resident bytes (DESIGN.md §12): bucket key stores are arena,
  // the boundary-key router contributes its own split, and the bucket table
  // is directory.
  [[nodiscard]] api::memory_footprint footprint() const {
    api::memory_footprint f = router_ != nullptr ? router_->footprint() : api::memory_footprint{};
    f.directory_bytes += api::vector_bytes(buckets_);
    for (const bucket& b : buckets_) f.arena_bytes += api::vector_bytes(b.keys);
    return f;
  }

 private:
  struct bucket {
    std::uint64_t low = 0;              // routing key (bucket covers [low, next.low))
    std::vector<std::uint64_t> keys;    // sorted
    net::host_id host;
  };

  // Which bucket covers q (bucket 0 also catches everything below all lows).
  [[nodiscard]] std::size_t bucket_index(std::uint64_t q) const;

  std::vector<bucket> buckets_;  // sorted by low
  std::unique_ptr<skip_graph> router_;  // skip graph over the bucket lows
  net::network* net_;
  std::size_t size_ = 0;
};

}  // namespace skipweb::baselines
