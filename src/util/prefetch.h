#pragma once

#include <cstddef>

namespace skipweb::util {

// Bytes per cache line on the targets the arenas are laid out for.
inline constexpr std::size_t cache_line = 64;

// Portable read-prefetch hint. The hot routing loops chase three unrelated
// arrays per hop (link record, owner table, visit ledger); issuing the next
// iteration's loads early lets the misses resolve in parallel instead of
// serially. No-op on compilers without the builtin.
inline void prefetch(const void* p) {
#if defined(__GNUC__) || defined(__clang__)
  __builtin_prefetch(p);
#else
  (void)p;
#endif
}

}  // namespace skipweb::util
