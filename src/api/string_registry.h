#pragma once

#include <functional>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "api/options.h"
#include "api/string_index.h"
#include "persist/snapshot.h"

namespace skipweb::net {
class network;
}

namespace skipweb::api {

// String-keyed registry for the text backends, served by the same lifecycle
// as the 1-D and spatial registries (registry.cpp): benches, workloads and
// tests select a string index at runtime by name, and a new backend earns
// the whole shared oracle conformance suite (tests/test_string_conformance.cpp)
// by registering itself.
//
// Built-in names (registered on first use): "string_skiptrie" (the promoted
// skip-trie text core, byte-alphabet prefix descent) and "string_sorted"
// (the distributed sorted-array binary-search baseline). Downstream code may
// register more.

using string_factory = std::function<std::unique_ptr<string_index>(
    std::vector<std::string> keys, const index_options& opts, net::network& net)>;

// Registers (or replaces) a backend under `name`.
void register_string_backend(std::string name, string_factory make);

[[nodiscard]] bool string_backend_known(std::string_view name);

// All registered names, sorted.
[[nodiscard]] std::vector<std::string> registered_string_backends();

// The uniform build entry point: grows `net` to opts.initial_hosts(), then
// builds the named backend over `keys` (distinct, non-empty set). Throws
// std::out_of_range for an unknown name. Composes with the whole serving
// stack exactly as the sibling registries: route_cache attach, replication
// clamp, deadline wiring after the build guard, and snapshot_path
// build-or-restore (DESIGN.md §13).
[[nodiscard]] std::unique_ptr<string_index> make_string_index(std::string_view backend,
                                                              std::vector<std::string> keys,
                                                              const index_options& opts,
                                                              net::network& net);

// --- persistence (DESIGN.md §13/§14) ----------------------------------------
//
// String snapshots are replay records (persist/replay_log.h): the trie
// core's inner structures are not arena-backed and the sorted baseline's
// strings are heap cells, so persistence is the build keys, seed, pre-build
// host count and the structural op log with origins. Restore rebuilds
// through the ordinary factory and replays, which reproduces answers,
// receipts AND the deployment ledger exactly.

// Compact `idx` and write a complete single-file snapshot (identification
// sections "meta.backend" / "meta.n" / "meta.index_kind" = 2 plus the
// backend's own). Throws unsupported_operation without capability::snapshot;
// no partial file survives a throw.
void save_string_snapshot(string_index& idx, const std::string& path);

// Rebuild a string index from a snapshot onto `net` (a FRESH network).
// Throws persist::error on corruption or a backend name nothing registered.
[[nodiscard]] std::unique_ptr<string_index> restore_string_index(const std::string& path,
                                                                 persist::restore_mode mode,
                                                                 net::network& net);

}  // namespace skipweb::api
