#pragma once

#include <functional>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "api/distributed_index.h"
#include "api/options.h"
#include "persist/snapshot.h"

namespace skipweb::net {
class network;
}

namespace skipweb::api {

// String-keyed backend registry: benches, workloads and tests select the
// concrete structure at runtime by name, so adding a scenario is one loop
// over `registered_backends()` instead of one hand-wired block per class.
//
// Built-in names (registered on first use): "skipweb1d", "bucket_skipweb",
// "skip_graph", "non_skipgraph", "bucket_skipgraph", "det_skipnet",
// "family_tree", "chord". Downstream code may register more.

using backend_factory = std::function<std::unique_ptr<distributed_index>(
    std::vector<std::uint64_t> keys, const index_options& opts, net::network& net)>;

// Registers (or replaces) a backend under `name`. Registering a builtin
// name overrides it, regardless of registration order; the new entry has no
// native restorer, so its snapshots (if any) restore by replay.
void register_backend(std::string name, backend_factory make);

[[nodiscard]] bool backend_known(std::string_view name);

// All registered names, sorted.
[[nodiscard]] std::vector<std::string> registered_backends();

// The uniform build entry point: grows `net` to opts.initial_hosts(), then
// builds the named backend over `keys`. Throws std::out_of_range for an
// unknown name.
//
// Instant restart (DESIGN.md §13): with opts.snapshot_path() set and a
// readable snapshot at that path, the index is restored from it (mmap mode)
// instead of built and `keys` is ignored; with the path set but no file
// there, the index is built, compacted, and saved to the path. Restore
// follows the same route-cache / deadline wiring as a build.
[[nodiscard]] std::unique_ptr<distributed_index> make_index(std::string_view backend,
                                                            std::vector<std::uint64_t> keys,
                                                            const index_options& opts,
                                                            net::network& net);

// --- persistence (DESIGN.md §13) --------------------------------------------

// True when `name` registered a native restorer (arena snapshots).
[[nodiscard]] bool backend_restorable(std::string_view name);

// Compact `idx` (so resident bytes match the payload) and write a complete
// single-file snapshot: identification sections ("meta.backend",
// "meta.index_kind" = 0) plus everything the backend's save_snapshot emits.
// Throws unsupported_operation for backends without capability::snapshot and
// persist::error on I/O failure; no partial file survives a throw.
void save_index_snapshot(distributed_index& idx, const std::string& path);

// Rebuild an index from a snapshot file onto `net` — a FRESH network, which
// the restore grows to the saved host count, replaying the saved per-host
// memory ledger exactly. restore_mode::map borrows the arenas from a
// read-only file mapping (cold start in milliseconds; pages fault in on
// demand and copy on first write); restore_mode::load reads and verifies
// every payload checksum up front. Backends without a native restorer
// restore by replay (persist/replay_log.h). Throws persist::error on any
// corruption, a wrong-kind file, or a backend name nothing registered.
[[nodiscard]] std::unique_ptr<distributed_index> restore_index(
    const std::string& path, persist::restore_mode mode, net::network& net);

}  // namespace skipweb::api
