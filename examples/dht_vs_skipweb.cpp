// The paper's opening argument (§1.2) made runnable: DHTs answer exact-match
// lookups in O(log H) hops, but hashing destroys key order, so the ordered
// queries skip-webs serve — nearest neighbour, range — cost a full network
// flood on a DHT. Same keys, same hosts, side by side.

#include <algorithm>
#include <cstdio>
#include <vector>

#include "baselines/chord.h"
#include "core/skipweb_1d.h"
#include "net/network.h"
#include "util/rng.h"
#include "workloads/workloads.h"

int main() {
  using namespace skipweb;
  namespace wl = skipweb::workloads;

  const std::size_t n = 2048;
  util::rng rng(51);
  const auto keys = wl::uniform_keys(n, rng);

  net::network dht_net(1);
  baselines::chord dht(256, keys, 3, dht_net);

  net::network web_net(1);
  core::skipweb_1d web(keys, 4, web_net, core::skipweb_1d::bucket{32});

  std::printf("same %zu keys; Chord on %zu hosts vs bucket skip-web on %zu hosts\n\n", n,
              dht.ring_size(), web_net.host_count());

  // Round 1: exact match — both are fast.
  const auto k = keys[500];
  const auto hit = dht.lookup(k, net::host_id{0});
  const auto web_hit = web.contains(k, net::host_id{0});
  std::printf("exact match:        chord %llu hops | skip-web %llu messages\n",
              static_cast<unsigned long long>(hit.stats.messages),
              static_cast<unsigned long long>(web_hit.stats.messages));

  // Round 2: nearest neighbour — the DHT must flood.
  const auto q = wl::probe_keys(keys, 1, rng)[0];
  const auto flood = dht.nearest_by_flooding(q, net::host_id{0});
  const auto res = web.nearest(q, net::host_id{0});
  std::printf("nearest neighbour:  chord %llu messages (flood) | skip-web %llu messages\n",
              static_cast<unsigned long long>(flood.stats.messages),
              static_cast<unsigned long long>(res.stats.messages));
  std::printf("  both agree: pred = %llu %s\n", static_cast<unsigned long long>(res.pred),
              res.has_pred && flood.has_pred && res.pred == flood.pred ? "(match)"
                                                                       : "(MISMATCH!)");

  // Round 3: range query — natural on the skip-web, impossible without a
  // flood on the DHT.
  std::vector<std::uint64_t> sorted = keys;
  std::sort(sorted.begin(), sorted.end());
  const auto window = web.range(sorted[1000], sorted[1040], net::host_id{0});
  std::printf("range of %zu keys:   chord would flood all %zu hosts | skip-web %llu messages\n",
              window.value.size(), dht.ring_size(),
              static_cast<unsigned long long>(window.stats.messages));

  std::printf(
      "\nthe point (paper section 1.2): hashing spreads load but erases order; the\n"
      "skip-web keeps order *and* spreads load, so ordered queries stay logarithmic.\n");
  return 0;
}
