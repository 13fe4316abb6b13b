#pragma once

#include <array>
#include <bit>
#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>
#include <type_traits>
#include <utility>

#include "persist/pod_array.h"
#include "persist/snapshot.h"
#include "util/sw_assert.h"

namespace skipweb::persist {

namespace detail {

// A flat_table slot: {key, value}, and the bytes that would pad it to the
// key's alignment as a zeroed member of their own. A slot then has no
// padding, so every byte save() writes (and checksums) is a function of the
// table's entries; member-wise copies leave none of them uninitialized. The
// size and offsets are the plain {key, value} struct's.
template <typename V, std::size_t Tail = (8 - sizeof(V) % 8) % 8>
struct table_slot {
  std::uint64_t key = ~std::uint64_t{0};
  V value{};
  std::array<std::byte, Tail> tail{};
};

template <typename V>
struct table_slot<V, 0> {
  std::uint64_t key = ~std::uint64_t{0};
  V value{};
};

}  // namespace detail

// Open-addressed hash table from u64 keys to trivially copyable values, its
// slots one persist::pod_array — the snapshot-able directory type of
// core/quad_levels.h (prefix → tree) and core/skip_quadtree.h (re-homed
// record → window base).
//
// Layout: a power-of-two array of {key, value} slots, Fibonacci-hashed,
// linear probing, backward-shift erase (no tombstones), grown by doubling
// before an insert would pass 3/4 load. An empty slot holds `empty_key`,
// which is never a key. A table drops its slots with its last entry, so
// empty() is one size check.
//
// save() writes the slot array as it is, and the reader constructor borrows
// it zero-copy: a restore reads none of the table's rows. The first
// mutating call copies the slots (copy-on-first-write, as for every arena)
// and counts the live ones; no count is ever read from a file. A restored
// table is untrusted: the constructor rejects a length that is not a power
// of two (or 0), and every probe stops after capacity() slots, so a table
// the file filled completely still answers a miss and takes an insert.
//
// Iteration is slot order, a function of the insert/erase history alone —
// the same before a save and after the restore.
//
// Pointers into the table stay valid until the next insert (which may grow
// it) or erase (which may shift entries back), and in a borrowed table until
// the first mutating call (which copies it).
//
// Concurrency: the const surface is pure reads, so any number of threads
// may look up concurrently; mutation is single-writer.
template <typename V>
class flat_table {
  static_assert(std::is_trivially_copyable_v<V>);

 public:
  static constexpr std::uint64_t empty_key = ~std::uint64_t{0};

  using slot = detail::table_slot<V>;
  static_assert(alignof(V) <= alignof(std::uint64_t));
  static_assert(std::has_unique_object_representations_v<slot>,
                "a slot with padding would save undetermined bytes");
  using value_type = slot;  // api::vector_bytes sizes the table by its slots

  flat_table() = default;
  // Move-only: a copy of a borrowed table would not know its live count.
  flat_table(const flat_table&) = delete;
  flat_table& operator=(const flat_table&) = delete;
  flat_table(flat_table&&) noexcept = default;
  flat_table& operator=(flat_table&&) noexcept = default;

  // Borrow section `name`, written by save(). Throws persist::error when its
  // length is not a power of two.
  flat_table(const reader& r, std::string_view name) : slots_(r.pods<slot>(name)) {
    if (!slots_.empty() && !std::has_single_bit(slots_.size())) {
      throw error("snapshot: table \"" + std::string(name) + "\" length is not a power of two");
    }
  }

  void save(writer& w, std::string_view name) const { w.add_pods(name, slots_); }

  // True when the table has no slots. For every table built here or saved
  // by save() that means no entries; a file may still hold slots that are
  // all empty, and then every lookup misses.
  [[nodiscard]] bool empty() const { return slots_.empty(); }
  [[nodiscard]] std::size_t capacity() const { return slots_.size(); }
  [[nodiscard]] bool borrowed() const { return slots_.borrowed(); }
  // Live entries. A borrowed table counts its slots.
  [[nodiscard]] std::size_t size() const { return slots_.borrowed() ? count_live() : live_; }

  [[nodiscard]] const V* find(std::uint64_t key) const {
    SW_EXPECTS(key != empty_key);
    const std::size_t i = probe(key);
    return holds(i, key) ? &slots_[i].value : nullptr;
  }
  // Mutable lookup: a hit copies a borrowed table first.
  [[nodiscard]] V* find(std::uint64_t key) {
    SW_EXPECTS(key != empty_key);
    const std::size_t i = probe(key);
    if (!holds(i, key)) return nullptr;
    own();
    return &slots_[i].value;
  }

  // The value under `key`, value-initialized first when absent. Second
  // member: freshly inserted?
  std::pair<V*, bool> try_emplace(std::uint64_t key) {
    SW_EXPECTS(key != empty_key);
    own();
    std::size_t i = probe(key);
    if (holds(i, key)) return {&slots_[i].value, false};
    if ((live_ + 1) * 4 > slots_.size() * 3) {
      std::size_t cap = slots_.empty() ? min_capacity : slots_.size() * 2;
      while ((live_ + 1) * 4 > cap * 3) cap *= 2;
      rehash(cap);
      i = probe(key);
    }
    SW_ASSERT(i != npos && slots_[i].key == empty_key);
    slots_[i].key = key;
    slots_[i].value = V{};
    ++live_;
    return {&slots_[i].value, true};
  }

  // Removes `key`; false when it was absent.
  bool erase(std::uint64_t key) {
    SW_EXPECTS(key != empty_key);
    std::size_t hole = probe(key);
    if (!holds(hole, key)) return false;
    own();
    // Backward shift: walk the rest of the cluster and move back into the
    // hole every entry whose probe path crosses it (its home does not lie
    // cyclically in (hole, j]).
    const std::size_t n = slots_.size();
    for (std::size_t j = hole, step = 1; step < n; ++step) {
      j = (j + 1) & (n - 1);
      const std::uint64_t k = slots_[j].key;
      if (k == empty_key) break;
      if (((j - home(k, n)) & (n - 1)) >= ((j - hole) & (n - 1))) {
        slots_[hole] = slots_[j];
        hole = j;
      }
    }
    slots_[hole] = slot{};
    if (--live_ == 0) slots_ = pod_array<slot>{};
    return true;
  }

  // Calls f(key, value) on every entry in slot order until f returns false.
  // Returns false when f stopped the visit.
  template <typename F>
  bool visit(F&& f) const {
    for (const slot& s : slots_) {
      if (s.key != empty_key && !f(s.key, s.value)) return false;
    }
    return true;
  }

  // The slot where the probe for `key` starts in a table of `n` slots (a
  // power of two): the top log2(n) bits of key * 2^64/phi (Fibonacci
  // hashing). Two shifts, so n = 1 shifts by 63, not 64.
  [[nodiscard]] static std::size_t home(std::uint64_t key, std::size_t n) {
    const std::uint64_t h = key * 0x9e3779b97f4a7c15ull;
    return static_cast<std::size_t>((h >> 1) >> (63 - std::countr_zero(n)));
  }

  static constexpr std::size_t min_capacity = 8;  // slots of a table's first allocation

 private:
  static constexpr std::size_t npos = ~std::size_t{0};

  // The slot holding `key`, else the first empty slot on its probe path,
  // else npos when neither turns up within capacity() slots.
  [[nodiscard]] std::size_t probe(std::uint64_t key) const {
    const std::size_t n = slots_.size();
    if (n == 0) return npos;
    std::size_t i = home(key, n);
    for (std::size_t step = 0; step < n; ++step, i = (i + 1) & (n - 1)) {
      const std::uint64_t k = slots_[i].key;
      if (k == key || k == empty_key) return i;
    }
    return npos;
  }

  // Read through const slots, so a miss never copies a borrowed table.
  [[nodiscard]] bool holds(std::size_t i, std::uint64_t key) const {
    return i != npos && slots_[i].key == key;
  }

  [[nodiscard]] std::size_t count_live() const {
    std::size_t live = 0;
    for (const slot& s : slots_) live += s.key != empty_key ? 1 : 0;
    return live;
  }

  // Copy-on-first-write: take private slots and count the live ones.
  void own() {
    if (!slots_.borrowed()) return;
    slots_.shrink_to_fit();  // drops the borrow, keeping every slot in place
    live_ = count_live();
  }

  // Re-insert every entry, in slot order, into `cap` fresh slots. A key a
  // file repeats is kept once.
  void rehash(std::size_t cap) {
    const pod_array<slot> old = std::move(slots_);
    slots_.assign(cap, slot{});
    live_ = 0;
    for (const slot& s : old) {
      if (s.key == empty_key) continue;
      const std::size_t i = probe(s.key);
      SW_ASSERT(i != npos);
      if (slots_[i].key == empty_key) ++live_;
      slots_[i] = s;
    }
  }

  pod_array<slot> slots_;
  std::size_t live_ = 0;  // occupied slots; counted when a borrowed table goes private
};

}  // namespace skipweb::persist
