#pragma once

#include "baselines/skipgraph.h"

namespace skipweb::baselines {

// NoN ("know thy neighbour's neighbour") skip graphs [Manku–Naor–Wieder 13,
// Naor–Wieder 14]: a skip graph where every node also caches its neighbours'
// routing tables, enabling greedy 2-hop lookahead.
//
// Search repeatedly jumps to the best key among all nodes within two hops of
// the current node, paying one message per jump: expected
// O(log n / log log n) messages — the bound the (bucketed) skip-web matches
// with only O(log n) memory, versus O(log² n) memory and O(log² n) expected
// update messages here (every node within two hops must refresh its cached
// tables when links change).
class non_skip_graph : public skip_graph {
 public:
  non_skip_graph(std::vector<std::uint64_t> keys, std::uint64_t seed, net::network& net);

  // Lookahead search (hides the base single-hop routing on purpose: the two
  // classes share structure, not search).
  [[nodiscard]] api::nn_result nearest(std::uint64_t q, net::host_id origin) const;

 protected:
  // Refresh traffic for the cached 2-hop tables after a link change at
  // `item`: every neighbour, and each of their neighbours, gets one message.
  void after_link_change(int item, net::cursor& cur) override;

 private:
  [[nodiscard]] std::vector<int> neighbors(int item) const;
  void charge_non_tables(std::int64_t sign);
};

}  // namespace skipweb::baselines
