#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "api/memory_footprint.h"
#include "api/op_stats.h"
#include "core/level_lists.h"
#include "net/cursor.h"
#include "net/network.h"

namespace skipweb::baselines {

// Deterministic SkipNet baseline [Harvey–Munro 9]: the same level-list
// anatomy as a skip graph, but with *deterministic* membership vectors, so
// the O(log n) search bound is worst-case rather than expected.
//
// Construction: element at sorted rank r gets membership vector
// bit-reverse(r) — level-l lists then pick exactly every 2^l-th element,
// i.e. perfect skip-list towers. Searches reuse the shared 1-D router.
//
// Updates (the [9] brief announcement leaves the mechanism open; documented
// substitution): new keys are spliced into every level with their
// predecessor's vector, which keeps lists sorted but lets balance drift;
// after n/2 updates the structure re-derives all vectors from the current
// ranks. The rebuild's bulk pointer traffic is charged to the update that
// triggers it, giving amortized O(log n) messages — the paper's own
// O(log² n) worst-case row is reported alongside in EXPERIMENTS.md.
class det_skipnet {
 public:
  det_skipnet(std::vector<std::uint64_t> keys, net::network& net);

  [[nodiscard]] std::size_t size() const { return lists_->size(); }
  [[nodiscard]] int levels() const { return lists_->levels(); }

  [[nodiscard]] api::nn_result nearest(std::uint64_t q, net::host_id origin) const;

  api::op_stats insert(std::uint64_t key, net::host_id origin);
  api::op_stats erase(std::uint64_t key, net::host_id origin);

  // Worst-case search cost over every key (the determinism claim).
  [[nodiscard]] std::uint64_t worst_case_search_messages() const;

  [[nodiscard]] net::host_id host_of(int item, int level) const;
  [[nodiscard]] const core::level_lists& lists() const { return *lists_; }

  // Measured resident bytes (DESIGN.md §12): arena/links from the
  // deterministically-rebuilt level_lists; owner and root tables are
  // directory.
  [[nodiscard]] api::memory_footprint footprint() const {
    api::memory_footprint f = lists_->footprint();
    f.directory_bytes += api::vector_bytes(owner_) + api::vector_bytes(root_item_);
    return f;
  }

 private:
  void rebuild();
  [[nodiscard]] int root_for(net::host_id origin) const;

  std::unique_ptr<core::level_lists> lists_;
  net::network* net_;
  std::vector<net::host_id> owner_;  // per arena slot
  std::vector<int> root_item_;       // per host
  std::size_t updates_since_rebuild_ = 0;
  // Ledger units per tower, fixed at construction so that charge/decharge
  // pairs stay balanced across rebuilds (levels may drift by one).
  std::int64_t node_charge_ = 0;
};

}  // namespace skipweb::baselines
