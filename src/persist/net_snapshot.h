#pragma once

#include <cstdint>
#include <limits>
#include <string>

#include "net/network.h"
#include "persist/snapshot.h"

namespace skipweb::persist {

// Simulated-deployment reconstruction for arena snapshots: the snapshot
// records the full per-host memory ledger — one net::memory_row (four
// memory_kind counters) per host, so the row count is the host count — and
// restore hands
// that section to the network as its ledger (network::adopt_memory_rows).
// Nothing is replayed: the rows stay a borrowed span over the snapshot until
// the first charge() copies them, so a restore costs O(1) in the host count.
// A backend restored this way passes the same exact ledger-equality
// invariants as its never-persisted twin (e.g.
// skip_quadtree::check_invariants). Traffic counters are NOT saved: a
// restarted process starts with a cold traffic ledger by design.

inline void save_network(writer& w, const net::network& net, std::string_view prefix) {
  w.add_pods(std::string(prefix) + ".memory_rows", net.memory_rows());
}

// Restores onto a network with at most the saved host count (a fresh one,
// in practice). The host count is the row count of the ledger section; a
// count beyond the u32 host_id space, or a network that already has more
// hosts than the snapshot, is a persist::error.
inline void restore_network(const reader& r, net::network& net, std::string_view prefix) {
  auto rows = r.pods<net::memory_row>(std::string(prefix) + ".memory_rows");
  if (rows.size() > std::numeric_limits<std::uint32_t>::max()) {
    throw error("snapshot: host count does not fit a host id");
  }
  if (rows.size() < net.host_count()) {
    throw error("snapshot: network has " + std::to_string(net.host_count()) +
                " hosts, more than the snapshot's " + std::to_string(rows.size()));
  }
  net.adopt_memory_rows(std::move(rows));
}

}  // namespace skipweb::persist
