// The one index lifecycle behind the three registries (registry.h,
// spatial_registry.h, string_registry.h): a class template over (index
// interface, key type), instantiated once per index kind below. Everything a
// kind differs in is a template argument or a compile-time trait — there is
// no runtime branch on which kind is being served.

#include "api/registry.h"

#include <algorithm>
#include <cstdio>
#include <mutex>
#include <optional>
#include <stdexcept>
#include <utility>

#include "api/lifecycle.h"
#include "api/spatial_registry.h"
#include "api/string_registry.h"
#include "net/network.h"
#include "persist/replay_log.h"

namespace skipweb::api {

// The "meta.index_kind" tag a snapshot carries and the noun errors use.
template <typename Index>
struct kind_traits;
template <>
struct kind_traits<distributed_index> {
  static constexpr std::uint64_t tag = 0;
  static constexpr const char* noun = "1-D";
};
template <>
struct kind_traits<spatial_index> {
  static constexpr std::uint64_t tag = 1;
  static constexpr const char* noun = "spatial";
};
template <>
struct kind_traits<string_index> {
  static constexpr std::uint64_t tag = 2;
  static constexpr const char* noun = "string";
};

template <typename Index, typename Key>
class lifecycle {
 public:
  using entry = backend_entry<Index, Key>;

  // The builtin bootstrap: the first use of each kind loads its builtins,
  // once (a function-local static initializes exactly once, thread-safely,
  // like std::call_once), before any lookup or user registration can run —
  // so a user entry under a builtin name is an override the builtins never
  // clobber.
  static lifecycle& get() {
    static lifecycle self;
    return self;
  }

  // Registers (or replaces) a whole entry.
  void add(std::string name, entry e) {
    std::scoped_lock lock(mu_);
    table_.insert_or_assign(std::move(name), std::move(e));
  }

  [[nodiscard]] std::optional<entry> lookup(std::string_view name) const {
    std::scoped_lock lock(mu_);
    const auto it = table_.find(name);
    if (it == table_.end()) return std::nullopt;
    return it->second;
  }

  [[nodiscard]] entry find(std::string_view name) const {
    auto e = lookup(name);
    if (!e) {
      throw std::out_of_range(std::string("unknown ") + kind_traits<Index>::noun +
                              " backend: " + std::string(name));
    }
    return *std::move(e);
  }

  [[nodiscard]] std::vector<std::string> names() const {
    std::scoped_lock lock(mu_);
    std::vector<std::string> out;
    out.reserve(table_.size());
    for (const auto& [name, e] : table_) out.push_back(name);
    return out;
  }

  // The uniform build entry point, with instant restart folded in
  // (DESIGN.md §13): a snapshot at opts.snapshot_path() restores instead of
  // building (`keys` are dropped — the file IS the structure); with the path
  // set but no file there, the fresh build is saved to it.
  [[nodiscard]] std::unique_ptr<Index> make(std::string_view name, std::vector<Key> keys,
                                            const index_options& opts, net::network& net) const {
    const std::string& path = opts.snapshot_path();
    const bool restoring = !path.empty() && file_exists(path);
    std::unique_ptr<Index> idx;
    if (restoring) {
      if (opts.route_cache() != nullptr) net.attach_hop_cache(opts.route_cache());
      idx = restore(path, persist::restore_mode::map, net);
    } else {
      const auto make_fn = find(name).make;
      while (net.host_count() < opts.initial_hosts()) net.add_host();
      // Cache opt-in (index_options::route_cache): attached before the build
      // so serving absorbs as soon as the cache has learned; the build
      // itself is structural and never absorbs.
      if (opts.route_cache() != nullptr) net.attach_hop_cache(opts.route_cache());
      // Honor only as much replication as the deployment can hold: a k-th
      // replica needs k+1 distinct records (tower placements grow hosts to
      // the record count, so max() of the two sizes is the deployment size).
      index_options build_opts = opts;
      const std::size_t deploy = std::max(net.host_count(), keys.size());
      if (build_opts.replication() > 0) {
        build_opts.replication(std::min(build_opts.replication(), deploy - 1));
      }
      const net::structural_section build_guard(net);
      idx = make_fn(std::move(keys), build_opts, net);
    }
    // Deadline opt-in (DESIGN.md §11), wired after the build or restore:
    // set_op_deadline is a quiescent structural setter, and construction
    // must never race a deadline.
    if (opts.deadline_ns() > 0) {
      net.set_op_deadline(opts.deadline_ns());
      if constexpr (requires { idx->set_range_deadline(std::uint64_t{}); }) {
        idx->set_range_deadline(opts.deadline_ns());
      }
    }
    if (!restoring && !path.empty() && idx->supports(capability::snapshot)) save(*idx, path);
    return idx;
  }

  static void save(Index& idx, const std::string& path) {
    idx.compact();  // resident bytes == payload bytes (DESIGN.md §13)
    persist::writer w(path);
    w.add_string("meta.backend", idx.backend());
    w.add_u64("meta.index_kind", kind_traits<Index>::tag);
    w.add_u64("meta.n", idx.size());
    idx.save_snapshot(w);
    w.finish();
  }

  // Native restore when the backend registered a restorer; otherwise replay
  // (persist::replay_log): rebuild through the public factory with the saved
  // seed and pre-build host count, then re-issue the op log from its
  // recorded origins. Replay goes through the public insert/erase, so the
  // fresh adapter records the ops again and is itself re-snapshottable.
  [[nodiscard]] std::unique_ptr<Index> restore(const std::string& path,
                                               persist::restore_mode mode,
                                               net::network& net) const {
    persist::reader r(path, mode);
    if (r.u64("meta.index_kind") != kind_traits<Index>::tag) {
      throw persist::error(std::string("snapshot: not a ") + kind_traits<Index>::noun +
                           " index snapshot: " + path);
    }
    const std::string name = r.str("meta.backend");
    const auto e = lookup(name);
    if (!e) throw persist::error("snapshot: '" + path + "' names unknown backend " + name);
    const net::structural_section restore_guard(net);
    if (e->restore) return e->restore(r, net);
    auto log = persist::replay_log<Key>::load(r);
    auto idx = make(name, std::move(log.build_keys),
                    index_options{}.seed(log.seed).initial_hosts(log.pre_hosts), net);
    for (std::size_t i = 0; i < log.ops.size(); ++i) {
      const auto& row = log.ops[i];
      if (row.origin >= net.host_count()) {
        throw persist::error("snapshot: replay origin " + std::to_string(row.origin) +
                             " is not a host of '" + path + "'");
      }
      const net::host_id origin{static_cast<std::uint32_t>(row.origin)};
      (void)(row.op == persist::replay_op::insert ? idx->insert(log.op_keys[i], origin)
                                                  : idx->erase(log.op_keys[i], origin));
    }
    return idx;
  }

 private:
  lifecycle() { add_builtins(table_); }

  // A stat is all build-or-restore needs; the reader re-opens and validates.
  static bool file_exists(const std::string& path) {
    if (std::FILE* f = std::fopen(path.c_str(), "rb")) {
      std::fclose(f);
      return true;
    }
    return false;
  }

  mutable std::mutex mu_;
  backend_table<Index, Key> table_;
};

template class lifecycle<distributed_index, std::uint64_t>;
template class lifecycle<spatial_index, spatial_point>;
template class lifecycle<string_index, std::string>;

namespace {
using index_registry = lifecycle<distributed_index, std::uint64_t>;
using spatial_registry = lifecycle<spatial_index, spatial_point>;
using string_registry = lifecycle<string_index, std::string>;
}  // namespace

// --- 1-D (registry.h) ---------------------------------------------------------

void register_backend(std::string name, backend_factory make) {
  index_registry::get().add(std::move(name), {std::move(make)});
}
bool backend_known(std::string_view name) { return index_registry::get().lookup(name).has_value(); }
std::vector<std::string> registered_backends() { return index_registry::get().names(); }
bool backend_restorable(std::string_view name) {
  const auto e = index_registry::get().lookup(name);
  return e && e->restore;
}
std::unique_ptr<distributed_index> make_index(std::string_view backend,
                                              std::vector<std::uint64_t> keys,
                                              const index_options& opts, net::network& net) {
  return index_registry::get().make(backend, std::move(keys), opts, net);
}
void save_index_snapshot(distributed_index& idx, const std::string& path) {
  index_registry::save(idx, path);
}
std::unique_ptr<distributed_index> restore_index(const std::string& path,
                                                 persist::restore_mode mode, net::network& net) {
  return index_registry::get().restore(path, mode, net);
}

// --- spatial (spatial_registry.h) ---------------------------------------------

void register_spatial_backend(std::string name, int dims, spatial_factory make) {
  spatial_registry::get().add(std::move(name), {std::move(make), {}, dims});
}
bool spatial_backend_known(std::string_view name) {
  return spatial_registry::get().lookup(name).has_value();
}
int spatial_backend_dims(std::string_view name) { return spatial_registry::get().find(name).dims; }
std::vector<std::string> registered_spatial_backends() { return spatial_registry::get().names(); }
std::unique_ptr<spatial_index> make_spatial_index(std::string_view backend,
                                                  std::vector<spatial_point> pts,
                                                  const index_options& opts, net::network& net) {
  return spatial_registry::get().make(backend, std::move(pts), opts, net);
}
void save_spatial_snapshot(spatial_index& idx, const std::string& path) {
  spatial_registry::save(idx, path);
}
std::unique_ptr<spatial_index> restore_spatial_index(const std::string& path,
                                                     persist::restore_mode mode,
                                                     net::network& net) {
  return spatial_registry::get().restore(path, mode, net);
}

// --- strings (string_registry.h) ----------------------------------------------

void register_string_backend(std::string name, string_factory make) {
  string_registry::get().add(std::move(name), {std::move(make)});
}
bool string_backend_known(std::string_view name) {
  return string_registry::get().lookup(name).has_value();
}
std::vector<std::string> registered_string_backends() { return string_registry::get().names(); }
std::unique_ptr<string_index> make_string_index(std::string_view backend,
                                                std::vector<std::string> keys,
                                                const index_options& opts, net::network& net) {
  return string_registry::get().make(backend, std::move(keys), opts, net);
}
void save_string_snapshot(string_index& idx, const std::string& path) {
  string_registry::save(idx, path);
}
std::unique_ptr<string_index> restore_string_index(const std::string& path,
                                                   persist::restore_mode mode,
                                                   net::network& net) {
  return string_registry::get().restore(path, mode, net);
}

}  // namespace skipweb::api
