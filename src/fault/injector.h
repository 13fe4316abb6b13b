#pragma once

#include <cstddef>
#include <vector>

#include "net/network.h"
#include "workloads/workloads.h"

namespace skipweb::fault {

// Replays a workloads::churn_schedule against a network: the driving loop
// calls advance_to(i) just before executing operation i of its op stream,
// and every scheduled kill/revive with at_op <= i fires exactly once, in
// schedule order. Replaying the same schedule against the same run is
// therefore deterministic end to end.
//
// Structural plane: kills and revives mutate host liveness, so advance_to
// must only be called while the network is traffic-quiescent (between
// operations / after worker threads joined) — the same contract as
// insert/erase. The query-plane reads that liveness feeds (cursor probes)
// are race-free against nothing because nothing runs concurrently.
class injector {
 public:
  injector(net::network& net, std::vector<workloads::churn_event> events);

  // Fire every pending event with at_op <= op. Returns how many fired.
  std::size_t advance_to(std::size_t op);

  // Fire everything still pending (end of the run).
  std::size_t finish();

  [[nodiscard]] std::size_t remaining() const { return events_.size() - next_; }
  [[nodiscard]] const std::vector<workloads::churn_event>& events() const { return events_; }

 private:
  net::network* net_;
  std::vector<workloads::churn_event> events_;
  std::size_t next_ = 0;
};

}  // namespace skipweb::fault
