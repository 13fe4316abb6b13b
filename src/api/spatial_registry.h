#pragma once

#include <functional>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "api/options.h"
#include "api/spatial_index.h"
#include "persist/snapshot.h"

namespace skipweb::net {
class network;
}

namespace skipweb::api {

// String-keyed registry for the multi-dimensional backends, served by the
// same lifecycle as the 1-D registry (registry.cpp): benches, workloads and
// tests select a spatial structure at runtime by name, and a new backend
// earns the whole oracle conformance suite by registering itself.
//
// Built-in names (registered on first use): "skip_quadtree2",
// "skip_quadtree3", "skip_trie" (Morton-coded), "skip_trapmap". Downstream
// code may register more.

using spatial_factory = std::function<std::unique_ptr<spatial_index>(
    std::vector<spatial_point> pts, const index_options& opts, net::network& net)>;

// Registers (or replaces) a backend under `name` with its dimensionality,
// declared here so workload generators can produce points of the right
// dimensionality before any instance exists.
void register_spatial_backend(std::string name, int dims, spatial_factory make);

[[nodiscard]] bool spatial_backend_known(std::string_view name);

// Declared dimensionality of a registered backend; throws std::out_of_range
// for an unknown name.
[[nodiscard]] int spatial_backend_dims(std::string_view name);

// All registered names, sorted.
[[nodiscard]] std::vector<std::string> registered_spatial_backends();

// The uniform build entry point: grows `net` to opts.initial_hosts(), then
// builds the named backend over `pts`. Throws std::out_of_range for an
// unknown name.
//
// Instant restart (DESIGN.md §13): with opts.snapshot_path() set, a snapshot
// at the path restores instead of building (pts ignored); otherwise the
// fresh build is compacted and saved there — as in the 1-D make_index.
[[nodiscard]] std::unique_ptr<spatial_index> make_spatial_index(std::string_view backend,
                                                                std::vector<spatial_point> pts,
                                                                const index_options& opts,
                                                                net::network& net);

// --- persistence (DESIGN.md §13) --------------------------------------------
//
// skip_quadtree2/3 persist natively (arena sections, restored by their
// registered restorer); skip_trie and skip_trapmap persist by replay
// (persist/replay_log.h) — the build points plus the structural op log,
// re-issued through the ordinary factory on restore.

// Compact `idx` and write a complete single-file snapshot (identification
// sections "meta.backend" / "meta.n" / "meta.index_kind" = 1 plus the
// backend's own). Throws unsupported_operation without capability::snapshot;
// no partial file survives a throw.
void save_spatial_snapshot(spatial_index& idx, const std::string& path);

// Rebuild a spatial index from a snapshot onto `net` (a FRESH network).
// Native snapshots restore through the backend's restorer (mmap mode borrows
// the arenas zero-copy); replay snapshots rebuild + replay. Throws
// persist::error on corruption or a backend name nothing registered.
[[nodiscard]] std::unique_ptr<spatial_index> restore_spatial_index(
    const std::string& path, persist::restore_mode mode, net::network& net);

}  // namespace skipweb::api
