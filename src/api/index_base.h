#pragma once

#include <cstdint>
#include <stdexcept>
#include <string>
#include <string_view>

#include "api/memory_footprint.h"
#include "api/op_stats.h"
#include "net/types.h"

namespace skipweb::persist {
class writer;
}

namespace skipweb::api {

// What a backend can do: one bit per concept, shared by the three index
// kinds. `range` is the kind's window query (1-D range, spatial
// orthogonal_range, string lex_range); the `native_*` bits mark a backend
// whose own layout answers the query (the skip-webs walk their base list,
// the quadtree its cubes, the trie its subtree), where without them a
// generic reduction or an honestly priced sweep answers it.
enum class capability : std::uint32_t {
  nearest = 1u << 0,
  contains = 1u << 1,
  locate = 1u << 2,
  insert = 1u << 3,
  erase = 1u << 4,
  range = 1u << 5,
  native_range = 1u << 6,
  approx_nn = 1u << 7,
  native_nn = 1u << 8,
  prefix = 1u << 9,
  native_prefix = 1u << 10,
  top_k = 1u << 11,
  intersect = 1u << 12,
  // Built with index_options::replication(k) > 0: queries route around up to
  // k dead hosts, and repair_step() restores the structure after crashes
  // (DESIGN.md §10).
  fault_tolerant = 1u << 13,
  // Persistence (DESIGN.md §13): save_snapshot() serializes the structure —
  // natively (arena sections) or as a deterministic replay record — and the
  // kind's restore rebuilds a byte-identical twin.
  snapshot = 1u << 14,
};

[[nodiscard]] constexpr capability operator|(capability a, capability b) {
  return static_cast<capability>(static_cast<std::uint32_t>(a) | static_cast<std::uint32_t>(b));
}
[[nodiscard]] constexpr bool has(capability set, capability c) {
  return (static_cast<std::uint32_t>(set) & static_cast<std::uint32_t>(c)) ==
         static_cast<std::uint32_t>(c);
}

// Thrown when an operation outside a backend's capability set is invoked
// (e.g. ordered queries on chord, whose hashing destroys key locality).
class unsupported_operation : public std::logic_error {
 public:
  unsupported_operation(std::string_view backend, std::string_view op)
      : std::logic_error(std::string(backend) + " does not support " + std::string(op)) {}
};

/// \brief The surface every index kind shares — 1-D keys
/// (distributed_index), points (spatial_index) and strings (string_index):
/// identity, capabilities, the repair plane and the persistence plane. Each
/// kind adds only its queries and updates; the lifecycle (registry.cpp) and
/// fault::repair_to_quiescence drive any kind through this base.
class index_base {
 public:
  virtual ~index_base() = default;
  index_base(const index_base&) = delete;
  index_base& operator=(const index_base&) = delete;

  /// \brief Registry name of the backend ("skipweb1d", "skip_quadtree2",
  /// "string_sorted", ...). \note Query plane; O(1).
  [[nodiscard]] virtual std::string_view backend() const = 0;
  /// \brief Number of items currently stored. Structural plane (read it
  /// between query phases, not while updates run); O(1).
  [[nodiscard]] virtual std::size_t size() const = 0;
  /// \brief What this backend supports natively (see api::capability);
  /// operations outside the set throw unsupported_operation. O(1).
  [[nodiscard]] virtual capability capabilities() const = 0;
  /// \brief Convenience: `has(capabilities(), c)`.
  [[nodiscard]] bool supports(capability c) const { return has(capabilities(), c); }

  /// \brief One self-repair step (capability::fault_tolerant only): detect
  /// one crash-damaged record — a stored item whose owner host is dead, or
  /// an under-replicated node record — and restore the structure around it
  /// (unsplice + re-link, or re-home replicas), charging every detection
  /// probe and relink hop to the returned receipt.
  /// \return records repaired this step (0 = structure clean; the
  ///         fault::repair_to_quiescence driver loops until then).
  /// \note Structural plane: single writer, never concurrent with queries —
  ///       fault::repair_daemon brokers that exclusion for background use.
  virtual op_result<std::size_t> repair_step(net::host_id origin) {
    (void)origin;
    throw unsupported_operation(backend(), "repair_step");
  }

  /// \brief The replication factor the build actually honored — the
  /// index_options::replication(k) request after the lifecycle's clamp
  /// against host and record counts (0 for backends without fault support).
  /// \note Structural plane; O(1).
  [[nodiscard]] virtual std::size_t replication() const { return 0; }

  /// \brief Measured resident bytes of this instance, split arena / links /
  /// directory (api::memory_footprint) — the real-byte complement of the
  /// simulated net::network memory ledger, reported per backend by the
  /// benches as bytes/key (DESIGN.md §12). All-zero when the backend does
  /// not implement the surface (`memory_footprint::empty()`).
  /// \note Structural plane (walks container capacities); O(#containers).
  [[nodiscard]] virtual memory_footprint footprint() const { return {}; }

  /// \brief Serialize the whole structure into the open snapshot `w`
  /// (capability::snapshot only; DESIGN.md §13). Drive through the kind's
  /// save entry point (api::save_index_snapshot, ...), which frames the
  /// file and writes the backend-identification sections.
  /// \note Structural plane: quiescent instance, never concurrent with
  ///       queries or updates.
  virtual void save_snapshot(persist::writer& w) const {
    (void)w;
    throw unsupported_operation(backend(), "save_snapshot");
  }

  /// \brief Release growth headroom: shrink every internal container to its
  /// size, so footprint().slack_bytes drops to ~0 and resident bytes match
  /// what save_snapshot writes. Safe no-op on backends without the surface.
  /// \note Structural plane; the next insert re-grows normally.
  virtual void compact() {}

 protected:
  index_base() = default;
};

}  // namespace skipweb::api
