#include "net/network.h"

#include <algorithm>
#include <limits>

#include "util/anon_map.h"

namespace skipweb::net {

namespace {

// Visit-ledger storage (util/anon_map.h): zero on demand, so growing to 2^20
// hosts touches no page and a commit pays for the page it lands on. Commits
// land on scattered hosts, so the arrays stay on small pages: the first
// touch of a huge page would zero 2 MiB of counters.
constexpr std::size_t visit_bytes(std::size_t slots) { return slots * sizeof(std::uint64_t); }

std::uint64_t* map_visits(std::size_t slots) {
  return static_cast<std::uint64_t*>(util::map_anon(visit_bytes(slots), false));
}

// Counters in a visit array for at least `n` hosts: whole pages.
std::size_t visit_slots(std::size_t n) {
  constexpr std::size_t page_slots = 4096 / sizeof(std::uint64_t);
  return (n + page_slots - 1) / page_slots * page_slots;
}

std::atomic<std::uint64_t> next_serial{1};

// Thread slots: a small index per live committing thread, the same in every
// network. A thread takes one on its first commit and gives it back when it
// exits, so the next thread to start reuses it — and keeps adding into that
// slot's shard of every network. A network's shard count is thereby bounded
// by the most committing threads alive at once, not by thread churn. The
// mutex orders the old owner's increments before the new owner's.
struct slot_registry {
  std::mutex mu;
  std::vector<std::uint32_t> free;
  std::uint32_t next = 0;
};

slot_registry& slots() {
  static slot_registry reg;
  return reg;
}

struct thread_slot {
  std::uint32_t value = 0;
  thread_slot() {
    auto& reg = slots();
    std::lock_guard lock(reg.mu);
    if (reg.free.empty()) {
      value = reg.next++;
    } else {
      value = reg.free.back();
      reg.free.pop_back();
    }
  }
  ~thread_slot() {
    auto& reg = slots();
    std::lock_guard lock(reg.mu);
    reg.free.push_back(value);
  }
  thread_slot(const thread_slot&) = delete;
  thread_slot& operator=(const thread_slot&) = delete;
};

std::uint32_t this_thread_slot() {
  thread_local const thread_slot slot;
  return slot.value;
}

}  // namespace

constinit thread_local network::shard_cache network::tl_shard_{};

network::network(std::size_t host_count)
    : serial_(next_serial.fetch_add(1, std::memory_order_relaxed)) {
  SW_EXPECTS(host_count > 0);
  memory_.assign(host_count, memory_row{});
  grow_to(host_count);
}

network::~network() {
  for (const auto& s : shards_) {
    if (s) util::unmap_anon(s->visits, visit_bytes(visit_capacity_));
  }
}

host_id network::add_host() { return add_hosts(1); }

host_id network::add_hosts(std::size_t count) {
  SW_EXPECTS(traffic_quiescent());  // structural plane: no queries in flight
  SW_EXPECTS(count > 0);
  memory_.resize(hosts_ + count, memory_row{});
  grow_to(hosts_ + count);
  return host_id{static_cast<std::uint32_t>(hosts_ - count)};
}

void network::adopt_memory_rows(persist::pod_array<memory_row> rows) {
  SW_EXPECTS(traffic_quiescent());
  SW_EXPECTS(rows.size() >= hosts_);
  SW_EXPECTS(rows.size() <= std::numeric_limits<std::uint32_t>::max());  // host_id space
  memory_ = std::move(rows);
  grow_to(memory_.size());
}

void network::grow_to(std::size_t hosts) {
  if (hosts > visit_capacity_) {
    // Geometric, so add_host one at a time stays amortized O(1). A remap
    // moves the touched pages and copies no counter; the new tail is
    // untouched zero pages. Every registered shard grows; threads cache the
    // shard, never its array, so none is left holding a moved one.
    const std::size_t cap = visit_slots(std::max(hosts, 2 * visit_capacity_));
    for (const auto& s : shards_) {
      if (!s) continue;
      s->visits = static_cast<std::uint64_t*>(util::remap_anon(
          s->visits, visit_bytes(visit_capacity_), visit_bytes(cap), false));
    }
    visit_capacity_ = cap;
  }
  if (!dead_.empty()) dead_.resize(hosts, 0);
  if (!partition_.empty()) partition_.resize(hosts, 0);
  if (!slowdown_.empty()) slowdown_.resize(hosts, 1.0);
  hosts_ = hosts;
}

void network::set_host_slowdown(host_id h, double factor) {
  SW_EXPECTS(traffic_quiescent());  // structural plane, like kill_host
  SW_EXPECTS(h.valid() && h.value < hosts_);
  SW_EXPECTS(factor > 0.0);
  if (slowdown_.empty()) slowdown_.assign(hosts_, 1.0);
  const bool was = slowdown_[h.value] != 1.0;
  const bool now = factor != 1.0;
  slowdown_[h.value] = factor;
  if (now && !was) ++slowed_count_;
  if (!now && was) --slowed_count_;
}

void network::kill_host(host_id h) {
  SW_EXPECTS(traffic_quiescent());  // structural plane, like add_host
  SW_EXPECTS(h.valid() && h.value < hosts_);
  if (dead_.empty()) dead_.assign(hosts_, 0);
  if (dead_[h.value] == 0) {
    dead_[h.value] = 1;
    ++killed_count_;
  }
  SW_ASSERT(killed_count_ < hosts_);  // at least one live host always remains
}

void network::revive_host(host_id h) {
  SW_EXPECTS(traffic_quiescent());
  SW_EXPECTS(h.valid() && h.value < hosts_);
  if (!dead_.empty() && dead_[h.value] != 0) {
    dead_[h.value] = 0;
    --killed_count_;
  }
}

host_id network::any_live_host(host_id near) const {
  SW_EXPECTS(killed_count_ < hosts_);
  const std::uint32_t start = near.valid() ? near.value % hosts_ : 0;
  for (std::size_t i = 0; i < hosts_; ++i) {
    const auto h = host_id{static_cast<std::uint32_t>((start + i) % hosts_)};
    if (host_alive(h)) return h;
  }
  SW_ASSERT(false);
  return host_id{};
}

void network::set_partitions(const std::vector<std::vector<host_id>>& groups) {
  SW_EXPECTS(traffic_quiescent());
  if (groups.empty()) {
    partition_.clear();
    return;
  }
  partition_.assign(hosts_, 0);
  for (std::size_t g = 0; g < groups.size(); ++g) {
    for (const auto h : groups[g]) {
      SW_EXPECTS(h.valid() && h.value < hosts_);
      partition_[h.value] = static_cast<std::uint32_t>(g + 1);
    }
  }
}

void network::set_message_loss(double p, std::uint64_t seed) {
  SW_EXPECTS(traffic_quiescent());
  SW_EXPECTS(p >= 0.0 && p < 1.0);
  loss_p_ = p;
  loss_seed_ = seed;
}

void network::charge(host_id h, memory_kind kind, std::int64_t delta) {
  SW_EXPECTS(traffic_quiescent());  // structural plane, like add_host
  SW_EXPECTS(h.valid() && h.value < memory_.size());
  // Non-const access: after a restore, the first charge copies the adopted
  // rows out of the snapshot (pod_array copy-on-first-write).
  auto& cell = memory_[h.value].counts[static_cast<std::size_t>(kind)];
  if (delta < 0) {
    SW_EXPECTS(cell >= static_cast<std::uint64_t>(-delta));
    cell -= static_cast<std::uint64_t>(-delta);
  } else {
    cell += static_cast<std::uint64_t>(delta);
  }
}

std::uint64_t network::memory_used(host_id h) const {
  SW_EXPECTS(h.valid() && h.value < memory_.size());
  const auto& row = memory_[h.value];
  return row.counts[0] + row.counts[1] + row.counts[2] + row.counts[3];
}

std::uint64_t network::memory_used(host_id h, memory_kind kind) const {
  SW_EXPECTS(h.valid() && h.value < memory_.size());
  return memory_[h.value].counts[static_cast<std::size_t>(kind)];
}

std::uint64_t network::max_memory() const {
  std::uint64_t best = 0;
  for (std::size_t i = 0; i < memory_.size(); ++i) best = std::max(best, memory_used(host_id{static_cast<std::uint32_t>(i)}));
  return best;
}

double network::mean_memory() const {
  return static_cast<double>(total_memory()) / static_cast<double>(memory_.size());
}

std::uint64_t network::total_memory() const {
  std::uint64_t sum = 0;
  for (std::size_t i = 0; i < memory_.size(); ++i) sum += memory_used(host_id{static_cast<std::uint32_t>(i)});
  return sum;
}

network::ledger_shard& network::register_shard() {
  const std::uint32_t slot = this_thread_slot();
  std::lock_guard lock(shards_mu_);
  if (slot >= shards_.size()) shards_.resize(slot + 1);
  auto& s = shards_[slot];
  if (!s) {
    auto fresh = std::make_unique<ledger_shard>();
    fresh->visits = map_visits(visit_capacity_);
    s = std::move(fresh);
  }
  tl_shard_ = {serial_, s.get()};
  return *s;
}

void network::commit(const traffic_receipt& r) {
  if (r.empty()) return;  // hop-free operations never touch the ledger
#if SW_CONTRACTS
  commits_in_flight_.fetch_add(1, std::memory_order_acq_rel);
#endif
  ledger_shard& shard = tl_shard_.serial == serial_ ? *tl_shard_.shard : register_shard();
  shard.messages += r.size();
  // The time ledger (latency plane): zero unless a model is active.
  shard.sim_ns += r.sim_ns();
  std::uint64_t* const visits = shard.visits;
  r.for_each([this, visits](host_id to) {
    SW_ASSERT(to.valid() && to.value < hosts_);
    ++visits[to.value];
  });
  // Per-op service-cost accounting: the worst single-host load this one
  // operation imposed. Gated: the multiplicity count is measurably
  // expensive on hop-heavy receipts (see max_op_host_load() in the header).
  if (op_load_tracking_.load(std::memory_order_relaxed)) {
    shard.max_op_load = std::max(shard.max_op_load, r.max_host_load());
  }
  // The cache seam learns from exactly the receipts the ledger absorbed.
  if (hop_cache_ != nullptr) hop_cache_->on_commit(r);
#if SW_CONTRACTS
  commits_in_flight_.fetch_sub(1, std::memory_order_release);
#endif
}

std::uint64_t network::visit_sum(std::size_t host) const {
  std::uint64_t sum = 0;
  for (const auto& s : shards_) sum += s ? s->visits[host] : 0;
  return sum;
}

std::uint64_t network::total_messages() const {
  SW_EXPECTS(traffic_quiescent());
  std::uint64_t sum = 0;
  for (const auto& s : shards_) sum += s ? s->messages : 0;
  return sum;
}

std::uint64_t network::total_sim_ns() const {
  SW_EXPECTS(traffic_quiescent());
  std::uint64_t sum = 0;
  for (const auto& s : shards_) sum += s ? s->sim_ns : 0;
  return sum;
}

std::uint64_t network::max_op_host_load() const {
  SW_EXPECTS(traffic_quiescent());
  std::uint64_t best = 0;
  for (const auto& s : shards_) best = std::max(best, s ? s->max_op_load : 0);
  return best;
}

std::uint64_t network::visits(host_id h) const {
  SW_EXPECTS(h.valid() && h.value < hosts_);
  SW_EXPECTS(traffic_quiescent());
  return visit_sum(h.value);
}

std::uint64_t network::max_visits() const {
  SW_EXPECTS(traffic_quiescent());
  std::uint64_t best = 0;
  for (std::size_t i = 0; i < hosts_; ++i) best = std::max(best, visit_sum(i));
  return best;
}

congestion_profile network::congestion_profile() const {
  SW_EXPECTS(traffic_quiescent());
  struct congestion_profile out;
  out.hosts = hosts_ - killed_count_;
  out.hosts_killed = killed_count_;
  out.max_op_host_load = max_op_host_load();
  // Distribution statistics run over LIVE slots only — a dead host carries no
  // load, and counting it as a zero-visit host deflates the mean and p99 of
  // the hosts actually serving. total_visits still sums every slot (probes
  // toward dead hosts were charged there) so it reconciles with
  // total_messages() under churn too.
  std::vector<std::uint64_t> visits;
  visits.reserve(hosts_ - killed_count_);
  std::uint64_t live_total = 0;
  for (std::size_t i = 0; i < hosts_; ++i) {
    const std::uint64_t v = visit_sum(i);
    out.total_visits += v;
    if (!host_alive(host_id{static_cast<std::uint32_t>(i)})) continue;
    visits.push_back(v);
    live_total += v;
  }
  std::sort(visits.begin(), visits.end());
  for (const auto v : visits) out.hosts_touched += (v > 0);
  out.max_visits = visits.empty() ? 0 : visits.back();
  out.p99_visits =
      visits.empty()
          ? 0
          : visits[static_cast<std::size_t>(0.99 * (static_cast<double>(visits.size()) - 1.0))];
  out.mean_visits =
      visits.empty() ? 0.0 : static_cast<double>(live_total) / static_cast<double>(visits.size());
  return out;
}

void network::reset_traffic() {
  SW_EXPECTS(traffic_quiescent());
  for (const auto& s : shards_) {
    if (!s) continue;
    std::uint64_t* fresh = map_visits(visit_capacity_);
    util::unmap_anon(s->visits, visit_bytes(visit_capacity_));
    s->visits = fresh;
    s->messages = 0;
    s->sim_ns = 0;
    s->max_op_load = 0;
  }
}

}  // namespace skipweb::net
