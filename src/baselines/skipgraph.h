#pragma once

#include <cstdint>
#include <vector>

#include "api/memory_footprint.h"
#include "api/op_stats.h"
#include "net/cursor.h"
#include "net/network.h"
#include "util/membership.h"
#include "util/rng.h"

namespace skipweb::baselines {

// Aspnes–Shah skip graphs [3] (and, for Table 1's cost rows, SkipNet [10]):
// the randomized distributed dictionary the skip-web framework improves on.
//
// Every element is a host (H = n) and carries a random membership vector;
// the level-i lists partition elements by their i-bit prefixes, exactly as
// in a 1-D skip-web — but an element's tower stops at the first level where
// it is alone in its list (towers are O(log n) whp instead of exactly
// ceil(log n)), and each element's whole tower lives on its own host.
// Search from any element is the standard top-down route: O(log n) expected
// messages; insert finds its level-(i+1) neighbours by walking the level-i
// list (expected O(1) steps per level), O(log n) expected messages total.
class skip_graph {
 public:
  skip_graph(std::vector<std::uint64_t> keys, std::uint64_t seed, net::network& net);

  [[nodiscard]] std::size_t size() const { return size_; }

  [[nodiscard]] api::nn_result nearest(std::uint64_t q, net::host_id origin) const;

  api::op_stats insert(std::uint64_t key, net::host_id origin);
  api::op_stats erase(std::uint64_t key, net::host_id origin);

  // Highest list level in use (for tests: O(log n) whp).
  [[nodiscard]] int max_height() const;

  // Structural checks for tests: sorted consistent lists; every non-top
  // level list membership matches the prefix; towers stop exactly when
  // their list becomes a singleton.
  [[nodiscard]] bool check_invariants() const;

  // Measured resident bytes (DESIGN.md §12). Skip graphs pay O(log n) link
  // bytes per element — the per-tower prev/next level vectors — versus the
  // skip-web arena's O(1) expected; this surface is where that contrast
  // shows up as bytes/key in the benches. Covers the NoN variant too (its
  // 2-hop tables are simulated-ledger charges, not resident memory).
  [[nodiscard]] api::memory_footprint footprint() const {
    api::memory_footprint f;
    f.arena_bytes = api::vector_bytes(elems_) + api::vector_bytes(free_);
    for (const element& e : elems_) {
      f.link_bytes += api::vector_bytes(e.prev) + api::vector_bytes(e.next);
    }
    f.directory_bytes = api::vector_bytes(root_elem_);
    return f;
  }

 protected:
  struct element {
    std::uint64_t key = 0;
    util::membership_bits bits = 0;
    net::host_id host;                 // tower host (H = n)
    std::vector<int> prev, next;       // per level 0..height-1
    bool alive = true;
    int redirect = -1;
    [[nodiscard]] int height() const { return static_cast<int>(next.size()); }
  };

  [[nodiscard]] const element& elem(int i) const { return elems_[static_cast<std::size_t>(i)]; }
  [[nodiscard]] int element_count() const { return static_cast<int>(elems_.size()); }

  // Search returning the flanking element ids at level 0.
  std::pair<int, int> route(std::uint64_t q, net::host_id origin, net::cursor& cur) const;

  // The element whose tower seeds searches from this host.
  [[nodiscard]] int root_for(net::host_id origin) const;

  // Hook for the NoN variant: extra update traffic after a splice/unsplice.
  virtual void after_link_change(int item, net::cursor& cur);
  virtual void charge_element(int item, std::int64_t sign);

  std::vector<element> elems_;
  std::vector<int> free_;
  std::vector<int> root_elem_;  // per host
  net::network* net_;
  util::rng rng_;
  std::size_t size_ = 0;

 public:
  virtual ~skip_graph() = default;
  skip_graph(const skip_graph&) = delete;
  skip_graph& operator=(const skip_graph&) = delete;

 private:
  int splice(std::uint64_t key, util::membership_bits bits, int pred0, int succ0,
             net::cursor& cur);
  void unsplice(int item, net::cursor& cur);
  void build(std::vector<std::uint64_t> keys);
};

}  // namespace skipweb::baselines
