// Ablation: the one design axis the skip-web framework owns relative to
// skip graphs is *node→host placement* (paper §2.4 and the Figure 2
// caption). Same level lists, same routing — three placements:
//
//   tower    : an item's whole tower on its own host (skip-graph layout)
//   balanced : every level node hashed to an arbitrary host
//   blocked  : contiguous blocks + cones (the §2.4.1 layout)
//
// The sweep shows what each buys: tower gets free descents, balanced gets
// perfect load spreading at the price of paying for every descent, and
// blocked converts memory M into fewer messages.

#include <cmath>
#include <cstdio>

#include "bench_common.h"
#include "core/skipweb_1d.h"
#include "net/network.h"
#include "util/rng.h"
#include "workloads/workloads.h"

namespace {

using namespace skipweb;
using namespace skipweb::bench;
namespace wl = skipweb::workloads;

template <typename Structure>
void measure(const char* label, Structure& s, net::network& net,
             const std::vector<std::uint64_t>& probes) {
  net.reset_traffic();
  util::accumulator acc;
  std::uint32_t o = 0;
  for (const auto q : probes) {
    acc.add(static_cast<double>(s.nearest(q, net::host_id{o}).stats.messages));
    o = static_cast<std::uint32_t>((o + 1) % net.host_count());
  }
  print_row({label, fmt(acc.mean(), 2), fmt(acc.max(), 0),
             fmt(static_cast<double>(net.max_visits()), 0), fmt_u(net.max_memory()),
             fmt(net.mean_memory(), 1), fmt_u(net.host_count())},
            16);
}

}  // namespace

int main() {
  const std::size_t n = 4096;
  util::rng r(4242);
  const auto keys = wl::uniform_keys(n, r);
  const auto probes = wl::probe_keys(keys, 400, r);

  print_header("Ablation - node->host placement at n = 4096 (same lists, same router)");
  print_row({"placement", "Q mean", "Q max", "C max", "M max", "M mean", "hosts"}, 16);
  print_rule();

  {
    net::network net(n);
    core::skipweb_1d s(keys, 1, net, core::skipweb_1d::placement::tower);
    measure("tower", s, net, probes);
  }
  {
    net::network net(n);
    core::skipweb_1d s(keys, 1, net, core::skipweb_1d::placement::balanced);
    measure("balanced", s, net, probes);
  }
  for (const std::size_t M : {std::size_t{16}, std::size_t{64}}) {
    net::network net(1);
    core::skipweb_1d s(keys, 1, net, core::skipweb_1d::bucket{M});
    const std::string label = "blocked M=" + std::to_string(M);
    measure(label.c_str(), s, net, probes);
  }
  print_rule();
  std::printf(
      "tower: descents free (tower co-located), walks pay; balanced: best congestion\n"
      "spread but every hop remote; blocked: the paper's point - raising M buys routing\n"
      "speed at constant per-host storage, which neither other placement can do.\n");
  return 0;
}
