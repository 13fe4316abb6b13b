#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <memory>
#include <new>
#include <type_traits>
#include <utility>

#include "util/anon_map.h"
#include "util/sw_assert.h"

namespace skipweb::persist {

// Owned-or-borrowed flat array of trivially copyable records — the storage
// type of the snapshot-able arenas (core/level_lists.h, core/quad_levels.h).
//
// In OWNED mode this is a drop-in for the std::vector idioms those arenas
// use, with two properties of its own:
//   - a value-less resize() leaves new records UNINITIALIZED (the bulk build
//     writes every slot itself; the skipped sentinel fill is over half the
//     1M-item build's wall clock, DESIGN.md §12);
//   - an array of at least one huge page (2 MiB) lives in its own mapping,
//     2 MiB-aligned and advised MADV_HUGEPAGE (util/anon_map.h), so a
//     capacity change copies nothing: growth moves the pages with mremap
//     and shrink_to_fit() unmaps the tail in place. Smaller arrays, and
//     every array where mremap does not exist, allocate and copy. Capacity
//     counts records either way, and the mapping is that many bytes to the
//     next small page (its last partial huge page stays on small pages), so
//     capacity never touched is address space, not resident pages. Since a
//     mapped growth copies nothing, it adds an eighth where a copied one
//     doubles.
//
// In BORROWED mode the array is a read-only span over a snapshot mapping
// (persist::reader), sharing ownership of the mapping blob. Every MUTATING
// entry point (non-const operator[]/data()/begin(), resize, assign,
// push_back, ...) first materializes an owned copy — copy-on-first-write —
// so a restored structure serves reads zero-copy straight off the page
// cache and silently goes private the moment a structural edit touches it.
// Const reads never branch on the mode beyond what the compiler hoists:
// data_/size_ are plain fields either way.
//
// Not thread-safe for mutation (single-writer structural plane, like the
// arenas it backs); concurrent const reads are safe.
template <typename T>
class pod_array {
  static_assert(std::is_trivially_copyable_v<T>);

 public:
  using value_type = T;
  using iterator = T*;
  using const_iterator = const T*;

  pod_array() = default;
  pod_array(std::size_t n, const T& fill) { assign(n, fill); }

  pod_array(const pod_array& o) { copy_from(o); }
  pod_array& operator=(const pod_array& o) {
    if (this != &o) {
      release();
      copy_from(o);
    }
    return *this;
  }
  pod_array(pod_array&& o) noexcept { steal(o); }
  pod_array& operator=(pod_array&& o) noexcept {
    if (this != &o) {
      release();
      steal(o);
    }
    return *this;
  }
  ~pod_array() { release(); }

  // A read-only view over `n` records at `p`, keeping `blob` alive. `p` must
  // stay valid as long as `blob` does (it points into a snapshot mapping).
  static pod_array borrow(std::shared_ptr<const void> blob, const T* p, std::size_t n) {
    pod_array a;
    a.data_ = const_cast<T*>(p);  // never written while borrow_ is set
    a.size_ = n;
    a.cap_ = n;
    a.borrow_ = std::move(blob);
    return a;
  }

  [[nodiscard]] std::size_t size() const { return size_; }
  [[nodiscard]] bool empty() const { return size_ == 0; }
  [[nodiscard]] std::size_t capacity() const { return cap_; }
  [[nodiscard]] bool borrowed() const { return borrow_ != nullptr; }

  [[nodiscard]] const T& operator[](std::size_t i) const { return data_[i]; }
  [[nodiscard]] const T* data() const { return data_; }
  [[nodiscard]] const_iterator begin() const { return data_; }
  [[nodiscard]] const_iterator end() const { return data_ + size_; }
  [[nodiscard]] const T& back() const { return data_[size_ - 1]; }

  [[nodiscard]] T& operator[](std::size_t i) {
    ensure_owned();
    return data_[i];
  }
  [[nodiscard]] T* data() {
    ensure_owned();
    return data_;
  }
  [[nodiscard]] iterator begin() {
    ensure_owned();
    return data_;
  }
  [[nodiscard]] iterator end() {
    ensure_owned();
    return data_ + size_;
  }
  [[nodiscard]] T& back() {
    ensure_owned();
    return data_[size_ - 1];
  }

  // Value-less grow: new records are UNINITIALIZED (see class comment).
  void resize(std::size_t n) {
    ensure_owned();
    if (n > cap_) grow_to(n);
    size_ = n;
  }
  void resize(std::size_t n, const T& fill) {
    ensure_owned();
    const std::size_t old = size_;
    resize(n);
    for (std::size_t i = old; i < n; ++i) data_[i] = fill;
  }
  void assign(std::size_t n, const T& fill) {
    ensure_owned();
    if (n > cap_) grow_to(n);
    size_ = n;
    for (std::size_t i = 0; i < n; ++i) data_[i] = fill;
  }
  void reserve(std::size_t n) {
    ensure_owned();
    if (n > cap_) grow_to(n);
  }
  void clear() {
    ensure_owned();
    size_ = 0;
  }

  void push_back(const T& v) {
    ensure_owned();
    if (size_ == cap_) grow_to(size_ + 1);
    data_[size_++] = v;
  }
  template <typename... Args>
  T& emplace_back(Args&&... args) {
    push_back(T(std::forward<Args>(args)...));
    return data_[size_ - 1];
  }
  void pop_back() {
    ensure_owned();
    SW_ASSERT(size_ > 0);
    --size_;
  }

  // Drop capacity slack (and any borrow) so the allocation equals size() —
  // run before snapshotting so on-disk bytes match the footprint. A mapped
  // array shrinks in place.
  void shrink_to_fit() {
    if (!borrow_ && cap_ == size_) return;
    reallocate(size_);
  }

 private:
  // Whether an owned array of `records` lives in a mapping (class comment).
  static bool mapped(std::size_t records) {
    return util::remap_without_copy && records * sizeof(T) >= util::huge_page;
  }

  void ensure_owned() {
    if (borrow_) reallocate(size_);
  }

  // Move the records to owned storage of exactly `n` records, keeping
  // min(size_, n) of them. An owned mapped array that stays mapped is
  // remapped; every other change allocates, copies and releases. release()
  // zeroes size_/cap_, so both fields are set AFTER it.
  void reallocate(std::size_t n) {
    const std::size_t keep = std::min(size_, n);
    T* p = nullptr;
    if (!borrow_ && mapped(cap_) && mapped(n)) {
      p = static_cast<T*>(util::remap_anon(data_, cap_ * sizeof(T), n * sizeof(T), true));
    } else {
      if (n > 0) p = allocate(n);
      if (keep > 0) std::memcpy(p, data_, keep * sizeof(T));
      release();
    }
    data_ = p;
    cap_ = n;
    size_ = keep;
  }

  // Geometric growth to at least `n` records. A mapped array grows by an
  // eighth (at least 256 KiB, as it holds at least a huge page): its move
  // copies nothing, so the smaller factor costs no copying, and the first
  // insert into an exactly-sized arena does not double it. Smaller arrays
  // double.
  void grow_to(std::size_t n) {
    const std::size_t want = mapped(cap_) ? cap_ + cap_ / 8 : cap_ < 4 ? 4 : cap_ * 2;
    reallocate(std::max(want, n));
  }

  static T* allocate(std::size_t n) {
    if (mapped(n)) return static_cast<T*>(util::map_anon(n * sizeof(T), true));
    return static_cast<T*>(::operator new(n * sizeof(T), std::align_val_t{64}));
  }

  void release() {
    if (borrow_) {
      borrow_.reset();  // drops the mapping reference; data_ was never ours
    } else if (mapped(cap_)) {
      util::unmap_anon(data_, cap_ * sizeof(T));
    } else if (data_ != nullptr) {
      ::operator delete(static_cast<void*>(data_), std::align_val_t{64});
    }
    data_ = nullptr;
    size_ = 0;
    cap_ = 0;
  }

  void copy_from(const pod_array& o) {
    size_ = o.size_;
    cap_ = o.size_;
    data_ = size_ > 0 ? allocate(size_) : nullptr;
    if (size_ > 0) std::memcpy(data_, o.data_, size_ * sizeof(T));
  }

  void steal(pod_array& o) noexcept {
    data_ = std::exchange(o.data_, nullptr);
    size_ = std::exchange(o.size_, 0);
    cap_ = std::exchange(o.cap_, 0);
    borrow_ = std::move(o.borrow_);
    o.borrow_.reset();
  }

  T* data_ = nullptr;
  std::size_t size_ = 0;
  std::size_t cap_ = 0;
  std::shared_ptr<const void> borrow_;  // non-null => read-only snapshot view
};

}  // namespace skipweb::persist
