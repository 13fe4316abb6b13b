#pragma once

#include <cstdint>
#include <random>

#include "util/sw_assert.h"

namespace skipweb::util {

// The splitmix64 finalizer: a bijective avalanche of one 64-bit word. Every
// hash in the library (placements, loss and latency draws, string weights,
// rng seeds) is its own pre-mix followed by this.
[[nodiscard]] constexpr std::uint64_t mix64(std::uint64_t z) {
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
  return z ^ (z >> 31);
}

// Deterministic, explicitly seeded random source. Every randomized structure
// in the library takes an rng (or a seed) as an argument, so that every test,
// bench and example reproduces bit-for-bit.
class rng {
 public:
  explicit rng(std::uint64_t seed) : engine_(seed) {}

  // One fair coin flip (the paper's per-item level bits).
  bool bit() { return (engine_() & 1u) != 0; }

  std::uint64_t next_u64() { return engine_(); }

  // Uniform integer in [lo, hi], inclusive.
  std::uint64_t uniform_u64(std::uint64_t lo, std::uint64_t hi) {
    SW_EXPECTS(lo <= hi);
    return std::uniform_int_distribution<std::uint64_t>(lo, hi)(engine_);
  }

  // Uniform index in [0, bound).
  std::size_t index(std::size_t bound) {
    SW_EXPECTS(bound > 0);
    return static_cast<std::size_t>(uniform_u64(0, bound - 1));
  }

  double uniform_real(double lo = 0.0, double hi = 1.0) {
    SW_EXPECTS(lo < hi);
    return std::uniform_real_distribution<double>(lo, hi)(engine_);
  }

  // Derive an independent child stream; used to give each host / structure
  // level its own reproducible randomness. NOTE: consumes parent state, so
  // the child depends on how much the parent was used before the split —
  // fine for nested build randomness, wrong for per-worker streams (use
  // stream() below).
  rng split(std::uint64_t tag) {
    // The finalizer mixes the tag so nearby tags yield unrelated seeds.
    return rng(mix64(engine_() + tag + 0x9e3779b97f4a7c15ull));
  }

  // Splittable per-worker stream: the `which`th independent stream of a
  // common seed, derived *statelessly* — a pure function of (seed, which),
  // consuming nothing. Thread-pooled drivers give worker w stream(seed, w)
  // so the randomness each worker sees is identical for any thread count,
  // any call order, and any interleaving (the seed-determinism contract of
  // the multi-threaded benches; see workloads.h).
  [[nodiscard]] static rng stream(std::uint64_t seed, std::uint64_t which) {
    return rng(mix64(seed + (which + 1) * 0x9e3779b97f4a7c15ull));
  }

  std::mt19937_64& engine() { return engine_; }
  [[nodiscard]] const std::mt19937_64& engine() const { return engine_; }

 private:
  std::mt19937_64 engine_;
};

}  // namespace skipweb::util
