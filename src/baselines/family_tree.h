#pragma once

#include <cstdint>
#include <vector>

#include "api/memory_footprint.h"
#include "api/op_stats.h"
#include "net/cursor.h"
#include "net/network.h"
#include "util/rng.h"

namespace skipweb::baselines {

// Family-tree baseline [Zatloukal–Harvey 20]: an ordered distributed
// dictionary with O(1) pointers per host.
//
// Substitution note (documented in DESIGN.md/EXPERIMENTS.md): the original
// family-tree construction is reproduced here *by its Table 1 row* — O(1)
// degree, O~(log n) search and update — using a distributed treap: each
// element-host keeps exactly five references (parent, two children, and the
// in-order prev/next used to answer nearest-neighbour queries), priorities
// are drawn from the element's random bits, and a search ascends from the
// origin's element to the root and then descends BST-style, O(log n)
// expected hops total. The one row this substitute does NOT faithfully
// reproduce is congestion: a treap funnels traffic through the root
// (C(n) = Θ(queries)), whereas real family trees spread it to O(log n) —
// the Table 1 bench reports this deviation.
class family_tree {
 public:
  family_tree(std::vector<std::uint64_t> keys, std::uint64_t seed, net::network& net);

  [[nodiscard]] std::size_t size() const { return size_; }

  [[nodiscard]] api::nn_result nearest(std::uint64_t q, net::host_id origin) const;

  api::op_stats insert(std::uint64_t key, net::host_id origin);
  api::op_stats erase(std::uint64_t key, net::host_id origin);

  // Max references any host stores: must stay O(1) (the row's point).
  [[nodiscard]] std::uint64_t max_refs_per_host() const;

  [[nodiscard]] bool check_invariants() const;

  // Measured resident bytes (DESIGN.md §12). A treap node packs its
  // parent/child/threading links inline, so the record is split by field:
  // five ints of links, the rest arena.
  [[nodiscard]] api::memory_footprint footprint() const {
    constexpr std::uint64_t links_per_node = 5 * sizeof(int);
    api::memory_footprint f;
    const auto node_bytes = api::vector_bytes(nodes_);
    f.link_bytes = static_cast<std::uint64_t>(nodes_.capacity()) * links_per_node;
    f.arena_bytes = node_bytes - f.link_bytes + api::vector_bytes(free_);
    f.directory_bytes = api::vector_bytes(anchor_);
    return f;
  }

 private:
  struct node {
    std::uint64_t key = 0;
    std::uint64_t priority = 0;
    net::host_id host;
    int parent = -1, left = -1, right = -1;
    int prev = -1, next = -1;  // in-order threading
    bool alive = true;
    int redirect = -1;
  };

  [[nodiscard]] int root_for(net::host_id origin, net::cursor& cur) const;
  void rotate_up(int x, net::cursor& cur);
  void set_child(int parent, int old_child, int new_child);
  void charge(int item, std::int64_t sign);

  std::vector<node> nodes_;
  std::vector<int> free_;
  std::vector<int> anchor_;  // per host: the element owned by/known to it
  int root_ = -1;
  net::network* net_;
  util::rng rng_;
  std::size_t size_ = 0;
};

}  // namespace skipweb::baselines
