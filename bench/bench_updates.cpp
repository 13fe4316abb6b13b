// Reproduces §4: dynamic updates. Inserts and deletes cost O(log n) expected
// messages for the tree-structured skip-webs and skip graphs, O(log² n) for
// NoN skip graphs (table refresh), and O(log n / log log n) for the blocked
// 1-D skip-web, whose block splits amortize to O(1).

#include <cmath>
#include <cstdio>
#include <set>

#include "baselines/non_skipgraph.h"
#include "baselines/skipgraph.h"
#include "bench_common.h"
#include "core/skip_quadtree.h"
#include "core/skip_trapmap.h"
#include "core/skip_trie.h"
#include "core/skipweb_1d.h"
#include "net/network.h"
#include "util/rng.h"
#include "workloads/workloads.h"

namespace {

using namespace skipweb;
using namespace skipweb::bench;
namespace wl = skipweb::workloads;

template <typename InsertFn, typename EraseFn>
std::pair<double, double> run_updates(InsertFn&& ins, EraseFn&& del, std::size_t count) {
  util::accumulator ins_acc, del_acc;
  for (std::size_t i = 0; i < count; ++i) ins_acc.add(ins(i));
  for (std::size_t i = 0; i < count; ++i) del_acc.add(del(i));
  return {ins_acc.mean(), del_acc.mean()};
}

}  // namespace

int main() {
  print_header("Section 4 - update message costs (64 inserts then 64 deletes per structure)");
  print_row({"structure", "n", "insert mean", "delete mean", "log2 n", "log n/loglog n"});
  print_rule();

  for (const std::size_t n : {std::size_t{1024}, std::size_t{4096}}) {
    util::rng r(2100 + n);
    const auto keys = wl::uniform_keys(n, r);
    auto extra_pool = wl::uniform_keys(n + 128, r);
    std::set<std::uint64_t> present(keys.begin(), keys.end());
    std::vector<std::uint64_t> fresh;
    for (const auto k : extra_pool) {
      if (fresh.size() == 64) break;
      if (present.insert(k).second) fresh.push_back(k);
    }
    const double logn = std::log2(static_cast<double>(n));
    const double lll = util::log_over_loglog(static_cast<double>(n));

    {
      net::network net(n);
      core::skipweb_1d s(keys, 21, net, core::skipweb_1d::placement::tower);
      const auto [im, dm] = run_updates(
          [&](std::size_t i) { return double(s.insert(fresh[i], net::host_id{0}).messages); },
          [&](std::size_t i) { return double(s.erase(fresh[i], net::host_id{0}).messages); }, fresh.size());
      print_row({"1-D skip-web", fmt_u(n), fmt(im, 2), fmt(dm, 2), fmt(logn, 1), fmt(lll, 2)});
    }
    {
      const auto M = static_cast<std::size_t>(2.0 * logn);
      net::network net(1);
      core::skipweb_1d s(keys, 22, net, core::skipweb_1d::bucket{M});
      const auto [im, dm] = run_updates(
          [&](std::size_t i) { return double(s.insert(fresh[i], net::host_id{0}).messages); },
          [&](std::size_t i) { return double(s.erase(fresh[i], net::host_id{0}).messages); }, fresh.size());
      print_row({"1-D blocked", fmt_u(n), fmt(im, 2), fmt(dm, 2), fmt(logn, 1), fmt(lll, 2)});
    }
    {
      util::rng pr(2200 + n);
      const auto pts = wl::uniform_points<2>(n, pr);
      const auto extra = wl::uniform_points<2>(64, pr);
      net::network net(n);
      core::skip_quadtree<2> s(pts, 23, net);
      const auto [im, dm] = run_updates(
          [&](std::size_t i) { return double(s.insert(extra[i], net::host_id{0}).messages); },
          [&](std::size_t i) { return double(s.erase(extra[i], net::host_id{0}).messages); }, extra.size());
      print_row({"skip quadtree", fmt_u(n), fmt(im, 2), fmt(dm, 2), fmt(logn, 1), "-"});
    }
    {
      util::rng sr(2300 + n);
      const auto strs = wl::random_strings(n, 4, 14, "abcd", sr);
      const auto extra = wl::random_strings(64, 15, 18, "abcd", sr);  // disjoint lengths
      net::network net(n);
      core::skip_trie s(strs, 24, net);
      const auto [im, dm] = run_updates(
          [&](std::size_t i) { return double(s.insert(extra[i], net::host_id{0}).messages); },
          [&](std::size_t i) { return double(s.erase(extra[i], net::host_id{0}).messages); }, extra.size());
      print_row({"skip trie", fmt_u(n), fmt(im, 2), fmt(dm, 2), fmt(logn, 1), "-"});
    }
    if (n <= 1024) {  // trapezoidal maps rebuild per level: keep the sweep light
      util::rng tr(2400 + n);
      auto segs = wl::random_disjoint_segments(n + 64, tr);
      const std::vector<seq::segment> initial(segs.begin(), segs.begin() + static_cast<long>(n));
      const std::vector<seq::segment> extra(segs.end() - 64, segs.end());
      const auto box = wl::segment_box();
      net::network net(n);
      core::skip_trapmap s(initial, box.xmin, box.xmax, box.ymin, box.ymax, 27, net);
      const auto [im, dm] = run_updates(
          [&](std::size_t i) { return double(s.insert(extra[i], net::host_id{0}).messages); },
          [&](std::size_t i) { return double(s.erase(extra[i], net::host_id{0}).messages); }, extra.size());
      print_row({"skip trapmap", fmt_u(n), fmt(im, 2), fmt(dm, 2), fmt(logn, 1), "-"});
    }
    {
      net::network net(1);
      baselines::skip_graph s(keys, 25, net);
      const auto [im, dm] = run_updates(
          [&](std::size_t i) { return double(s.insert(fresh[i], net::host_id{0}).messages); },
          [&](std::size_t i) { return double(s.erase(fresh[i], net::host_id{0}).messages); }, fresh.size());
      print_row({"skip graph", fmt_u(n), fmt(im, 2), fmt(dm, 2), fmt(logn, 1), "-"});
    }
    {
      net::network net(1);
      baselines::non_skip_graph s(keys, 26, net);
      const auto [im, dm] = run_updates(
          [&](std::size_t i) { return double(s.insert(fresh[i], net::host_id{0}).messages); },
          [&](std::size_t i) { return double(s.erase(fresh[i], net::host_id{0}).messages); }, fresh.size());
      print_row({"NoN skip graph", fmt_u(n), fmt(im, 2), fmt(dm, 2), fmt(logn, 1),
                 "log^2 n=" + fmt(logn * logn, 0)});
    }
    print_rule();
  }

  std::printf(
      "Expected shapes: NoN >> plain structures (its 2-hop tables must refresh);\n"
      "blocked 1-D skip-web < tower skip-web (messages only at basic levels, splits\n"
      "amortized); tree skip-webs ~ O(log n) with O(1) structural edits per level.\n");
  return 0;
}
