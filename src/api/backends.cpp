// Built-in backends of the registry: thin adapters pinning each concrete
// structure behind the distributed_index interface. Post-redesign all 1-D
// structures share the exact same operation signatures (api::nn_result /
// api::op_stats / api::op_result returns), so one adapter template covers
// everything except chord, whose hashing makes ordered queries special.
//
// The adapters are stateless pass-throughs, so the interface's concurrency
// contract reduces to the wrapped structures': every builtin's query path
// routes through a net::cursor whose traffic receipt is thread-private until
// committed (net/receipt.h), and the query surface is const all the way down
// (enforced below at compile time) — which is what lets serve::executor
// drive any registered backend from multiple threads.

#include <cmath>
#include <concepts>
#include <utility>

#include "api/distributed_index.h"
#include "api/lifecycle.h"
#include "baselines/bucket_skipgraph.h"
#include "baselines/chord.h"
#include "baselines/det_skipnet.h"
#include "baselines/family_tree.h"
#include "baselines/non_skipgraph.h"
#include "baselines/skipgraph.h"
#include "core/skipweb_1d.h"
#include "net/network.h"

namespace skipweb::api {

namespace {

constexpr capability base_caps =
    capability::nearest | capability::contains | capability::insert | capability::erase |
    capability::range;

template <typename S>
class adapter final : public distributed_index {
 public:
  template <typename... Args>
  explicit adapter(std::string_view name, Args&&... args)
      : name_(name), impl_(std::forward<Args>(args)...) {}

  [[nodiscard]] std::string_view backend() const override { return name_; }
  [[nodiscard]] std::size_t size() const override { return impl_.size(); }

  [[nodiscard]] capability capabilities() const override {
    capability c = base_caps;
    if constexpr (has_native_range) c = c | capability::native_range;
    if constexpr (has_repair) {
      // Replication is a construction-time knob; the capability reflects
      // whether THIS instance actually installed replicas.
      if (impl_.replication() > 0) c = c | capability::fault_tolerant;
    }
    if constexpr (has_snapshot) c = c | capability::snapshot;
    return c;
  }

  void save_snapshot(persist::writer& w) const override {
    if constexpr (has_snapshot) {
      impl_.save_snapshot(w);
    } else {
      index_base::save_snapshot(w);  // throws unsupported_operation
    }
  }

  void compact() override {
    if constexpr (has_compact) impl_.compact();
  }

  op_result<std::size_t> repair_step(net::host_id origin) override {
    if constexpr (has_repair) {
      if (impl_.replication() > 0) return impl_.repair_step(origin);
    }
    return index_base::repair_step(origin);  // throws unsupported_operation
  }

  [[nodiscard]] std::size_t replication() const override {
    if constexpr (has_repair) {
      return impl_.replication();
    } else {
      return 0;
    }
  }

  [[nodiscard]] nn_result nearest(std::uint64_t q, net::host_id origin) const override {
    return impl_.nearest(q, origin);
  }
  [[nodiscard]] std::vector<nn_result> nearest_batch(const std::vector<std::uint64_t>& qs,
                                                     net::host_id origin) const override {
    if constexpr (has_nearest_batch) {
      return impl_.nearest_batch(qs, origin);
    } else {
      return distributed_index::nearest_batch(qs, origin);
    }
  }
  op_stats insert(std::uint64_t key, net::host_id origin) override {
    return impl_.insert(key, origin);
  }
  op_stats erase(std::uint64_t key, net::host_id origin) override {
    return impl_.erase(key, origin);
  }
  [[nodiscard]] op_result<std::vector<std::uint64_t>> range(std::uint64_t lo, std::uint64_t hi,
                                                            net::host_id origin,
                                                            std::size_t limit) const override {
    if constexpr (has_native_range) {
      return impl_.range(lo, hi, origin, limit);
    } else {
      return distributed_index::range(lo, hi, origin, limit);
    }
  }

  [[nodiscard]] memory_footprint footprint() const override {
    if constexpr (has_footprint) {
      return impl_.footprint();
    } else {
      return {};
    }
  }

 private:
  static constexpr bool has_footprint = requires(const S& s) {
    { s.footprint() } -> std::convertible_to<memory_footprint>;
  };
  static constexpr bool has_native_range =
      requires(const S& s) { s.range(std::uint64_t{}, std::uint64_t{}, net::host_id{}, std::size_t{}); };
  static constexpr bool has_nearest_batch =
      requires(const S& s) { s.nearest_batch(std::vector<std::uint64_t>{}, net::host_id{}); };
  static constexpr bool has_repair = requires(S& s) {
    s.repair_step(net::host_id{});
    { s.replication() } -> std::convertible_to<std::size_t>;
  };
  static constexpr bool has_snapshot =
      requires(const S& s, persist::writer& w) { s.save_snapshot(w); };
  static constexpr bool has_compact = requires(S& s) { s.compact(); };
  // The interface promises thread-safe concurrent const queries; that only
  // holds if the wrapped structure's query surface is itself const.
  static_assert(requires(const S& s) { s.nearest(std::uint64_t{}, net::host_id{}); },
                "query methods must be const for the concurrent-read contract");

  std::string name_;
  S impl_;
};

// Chord resolves exact matches in O(log H) hops but has no order-preserving
// routing: `nearest` floods every host, and `range` (inherited default)
// floods once per result key — the paper's §1.2 contrast, priced honestly.
class chord_adapter final : public distributed_index {
 public:
  // `hosts` is derived from keys.size() by the factory *before* the key
  // vector is moved (argument evaluation order is unspecified).
  chord_adapter(std::size_t hosts, std::vector<std::uint64_t> keys, const index_options& opts,
                net::network& net)
      : impl_(hosts, std::move(keys), opts.seed(), net) {}

  [[nodiscard]] std::string_view backend() const override { return "chord"; }
  [[nodiscard]] std::size_t size() const override { return impl_.size(); }
  [[nodiscard]] capability capabilities() const override { return base_caps; }

  [[nodiscard]] nn_result nearest(std::uint64_t q, net::host_id origin) const override {
    return impl_.nearest_by_flooding(q, origin);
  }
  [[nodiscard]] op_result<bool> contains(std::uint64_t q, net::host_id origin) const override {
    const auto r = impl_.lookup(q, origin);
    return {r.found, r.stats};
  }
  op_stats insert(std::uint64_t key, net::host_id origin) override {
    return impl_.insert(key, origin);
  }
  op_stats erase(std::uint64_t key, net::host_id origin) override {
    return impl_.erase(key, origin);
  }
  [[nodiscard]] memory_footprint footprint() const override { return impl_.footprint(); }

 private:
  baselines::chord impl_;
};

template <typename S, typename... Args>
std::unique_ptr<distributed_index> make_adapter(std::string_view name, Args&&... args) {
  return std::make_unique<adapter<S>>(name, std::forward<Args>(args)...);
}

}  // namespace

// Only the arena-backed builtins restore natively: the restorer forwards the
// (reader, network) pair to the structure's restore constructor. The other
// baselines have no snapshot capability.
void add_builtins(backend_table<distributed_index, std::uint64_t>& t) {
  t["skipweb1d"] = {
      [](std::vector<std::uint64_t> keys, const index_options& opts, net::network& net) {
        const auto p = opts.placement() == placement_policy::balanced
                           ? core::skipweb_1d::placement::balanced
                           : core::skipweb_1d::placement::tower;
        return make_adapter<core::skipweb_1d>("skipweb1d", std::move(keys), opts.seed(), net, p,
                                              opts.replication());
      },
      [](persist::reader& r, net::network& net) {
        return make_adapter<core::skipweb_1d>("skipweb1d", r, net);
      }};
  t["bucket_skipweb"] = {
      [](std::vector<std::uint64_t> keys, const index_options& opts, net::network& net) {
        const core::skipweb_1d::bucket b{opts.bucket_size_or_default(keys.size())};
        return make_adapter<core::skipweb_1d>("bucket_skipweb", std::move(keys), opts.seed(), net,
                                              b);
      },
      [](persist::reader& r, net::network& net) {
        return make_adapter<core::skipweb_1d>("bucket_skipweb", r, net);
      }};
  t["skip_graph"] = {[](std::vector<std::uint64_t> keys, const index_options& opts,
                        net::network& net) {
    return make_adapter<baselines::skip_graph>("skip_graph", std::move(keys), opts.seed(), net);
  }};
  t["non_skipgraph"] = {[](std::vector<std::uint64_t> keys, const index_options& opts,
                           net::network& net) {
    return make_adapter<baselines::non_skip_graph>("non_skipgraph", std::move(keys), opts.seed(),
                                                   net);
  }};
  t["bucket_skipgraph"] = {[](std::vector<std::uint64_t> keys, const index_options& opts,
                              net::network& net) {
    const auto buckets = opts.buckets_or_default(keys.size());
    return make_adapter<baselines::bucket_skip_graph>("bucket_skipgraph", std::move(keys),
                                                      opts.seed(), net, buckets);
  }};
  t["det_skipnet"] = {[](std::vector<std::uint64_t> keys, const index_options& opts,
                         net::network& net) {
    (void)opts;  // deterministic: no seed
    return make_adapter<baselines::det_skipnet>("det_skipnet", std::move(keys), net);
  }};
  t["family_tree"] = {[](std::vector<std::uint64_t> keys, const index_options& opts,
                         net::network& net) {
    return make_adapter<baselines::family_tree>("family_tree", std::move(keys), opts.seed(), net);
  }};
  t["chord"] = {[](std::vector<std::uint64_t> keys, const index_options& opts,
                   net::network& net) {
    const auto hosts = opts.buckets_or_default(keys.size());
    return std::make_unique<chord_adapter>(hosts, std::move(keys), opts, net);
  }};
}

}  // namespace skipweb::api
