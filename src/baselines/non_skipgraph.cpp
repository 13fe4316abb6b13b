#include "baselines/non_skipgraph.h"

#include <algorithm>
#include <unordered_set>

#include "util/sw_assert.h"

namespace skipweb::baselines {

non_skip_graph::non_skip_graph(std::vector<std::uint64_t> keys, std::uint64_t seed,
                               net::network& net)
    : skip_graph(std::move(keys), seed, net) {
  // The base build charged the plain tables; add the cached neighbour
  // tables: for each neighbour v of u, u stores v's ~2·height(v) entries.
  charge_non_tables(+1);
}

void non_skip_graph::charge_non_tables(std::int64_t sign) {
  for (int i = 0; i < element_count(); ++i) {
    if (!elem(i).alive) continue;
    std::int64_t cached = 0;
    for (const int v : neighbors(i)) cached += 2 * elem(v).height();
    net_->charge(elem(i).host, net::memory_kind::host_ref, sign * cached);
  }
}

std::vector<int> non_skip_graph::neighbors(int item) const {
  std::vector<int> out;
  const auto& e = elem(item);
  for (int l = 0; l < e.height(); ++l) {
    for (const int nb : {e.prev[static_cast<std::size_t>(l)], e.next[static_cast<std::size_t>(l)]}) {
      if (nb >= 0 && std::find(out.begin(), out.end(), nb) == out.end()) out.push_back(nb);
    }
  }
  return out;
}

api::nn_result non_skip_graph::nearest(std::uint64_t q, net::host_id origin) const {
  net::cursor cur(*net_, origin);
  int item = root_for(origin);
  cur.move_to(elem(item).host);

  // Greedy 2-hop lookahead: among everything visible from here (this node's
  // tables plus its neighbours' cached tables), jump straight to the key
  // closest to q; one message per jump.
  for (;;) {
    auto better = [&](std::uint64_t cand, std::uint64_t best) {
      const auto dist = [&](std::uint64_t k) { return k <= q ? q - k : k - q; };
      cur.note_comparisons();
      return dist(cand) < dist(best);
    };
    int best = item;
    auto consider = [&](int w) {
      if (w >= 0 && elem(w).alive && better(elem(w).key, elem(best).key)) best = w;
    };
    for (const int u : neighbors(item)) {
      consider(u);
      for (const int w : neighbors(u)) consider(w);
    }
    if (best == item) break;
    item = best;
    cur.move_to(elem(item).host);
  }

  const int pred = elem(item).key <= q ? item : elem(item).prev[0];
  const int succ = elem(item).key <= q ? elem(item).next[0] : item;
  return api::nn_from_flanks(pred, succ, [this](int i) { return elem(i).key; }, cur);
}

void non_skip_graph::after_link_change(int item, net::cursor& cur) {
  // Everyone whose cached tables mention the changed links sits within two
  // hops: O(log² n) expected refresh messages.
  std::unordered_set<int> notified;
  for (const int u : neighbors(item)) {
    if (notified.insert(u).second) cur.move_to(elem(u).host);
    for (const int w : neighbors(u)) {
      if (notified.insert(w).second) cur.move_to(elem(w).host);
    }
  }
}

}  // namespace skipweb::baselines
