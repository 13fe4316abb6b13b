// Reproduces §2.4.1 and the bucket rows of Table 1: bucket skip-web query
// cost is O(log_M H) — sweeping the per-host memory M at fixed n must
// flatten the message count, reaching ~O(1) once M = n^epsilon. The bucket
// skip graph, which routes in O(log H) regardless of M, is the comparison.

#include <cmath>
#include <cstdio>

#include "baselines/bucket_skipgraph.h"
#include "bench_common.h"
#include "core/skipweb_1d.h"
#include "net/network.h"
#include "util/rng.h"
#include "workloads/workloads.h"

int main() {
  using namespace skipweb;
  using namespace skipweb::bench;
  namespace wl = skipweb::workloads;

  const std::size_t n = 8192;
  util::rng r(77);
  const auto keys = wl::uniform_keys(n, r);
  const auto probes = wl::probe_keys(keys, 400, r);

  print_header("Bucket skip-web M-sweep at n = 8192: Q ~ O(log_M H) (Table 1 bucket rows)");
  print_row({"M", "hosts H", "log_M H", "Q mean", "Q max", "mem max"});
  print_rule();

  std::vector<double> model, measured;
  for (const std::size_t M : {std::size_t{8}, std::size_t{16}, std::size_t{32}, std::size_t{64},
                              std::size_t{256}, std::size_t{1024}}) {
    net::network net(1);
    core::skipweb_1d web(keys, 78, net, core::skipweb_1d::bucket{M});
    util::accumulator acc;
    std::uint32_t o = 0;
    for (const auto q : probes) {
      acc.add(static_cast<double>(web.nearest(q, net::host_id{o}).stats.messages));
      o = static_cast<std::uint32_t>((o + 1) % net.host_count());
    }
    const double H = static_cast<double>(web.live_block_count());
    const double logmh = std::log(std::max(2.0, H)) / std::log(static_cast<double>(M));
    print_row({fmt_u(M), fmt(H, 0), fmt(logmh, 2), fmt(acc.mean(), 2), fmt(acc.max(), 0),
               fmt_u(net.max_memory())});
    model.push_back(logmh);
    measured.push_back(acc.mean());
  }
  print_rule();
  std::printf("Q vs log_M H: %s — larger hosts, flatter routing; M = n^eps gives ~O(1).\n",
              shape_verdict(model, measured).c_str());

  // Comparison: the bucket skip graph at matching host counts pays O(log H)
  // regardless of how much memory each host has.
  std::printf("\nbucket skip graph (routes in O(log H), memory does not help):\n");
  print_row({"buckets H", "Q mean", "log2 H"});
  for (const std::size_t H : {std::size_t{1024}, std::size_t{128}, std::size_t{16}}) {
    net::network net(1);
    baselines::bucket_skip_graph g(keys, 79, net, H);
    util::accumulator acc;
    for (const auto q : probes) acc.add(static_cast<double>(g.nearest(q, net::host_id{0}).stats.messages));
    print_row({fmt_u(H), fmt(acc.mean(), 2), fmt(std::log2(static_cast<double>(H)), 1)});
  }
  return 0;
}
