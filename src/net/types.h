#pragma once

#include <compare>
#include <cstdint>
#include <limits>

namespace skipweb::net {

// Identifier of a host (a simulated peer). Strongly typed so host ids cannot
// be confused with node slots or item indices.
struct host_id {
  std::uint32_t value = std::numeric_limits<std::uint32_t>::max();

  [[nodiscard]] bool valid() const { return value != std::numeric_limits<std::uint32_t>::max(); }
  friend auto operator<=>(const host_id&, const host_id&) = default;
};

inline constexpr host_id invalid_host{};

}  // namespace skipweb::net
