#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <new>

#if defined(__unix__) || defined(__APPLE__)
#include <sys/mman.h>
#include <unistd.h>
#define SKIPWEB_HAVE_ANON_MMAP 1
#endif

namespace skipweb::util {

// Anonymous memory: the one mapping primitive behind the arenas' big arrays
// (persist::pod_array) and the visit ledger's shards (net::network). A
// mapping reads as zero and costs no resident page until a write lands on
// one; the kernel zero-fills each page on first touch. Where `mremap`
// exists (Linux, `remap_without_copy`), a resize copies nothing: a shrink
// gives the tail back in place and a growth moves the pages to a larger
// range. Elsewhere a resize maps, copies and unmaps, and a platform without
// `mmap` gets `calloc`'d blocks.
//
// Lengths are rounded up to whole pages; pass the same byte count to every
// call on one mapping.

inline constexpr std::size_t huge_page = std::size_t{2} << 20;

#if defined(__linux__)
inline constexpr bool remap_without_copy = true;
#else
inline constexpr bool remap_without_copy = false;
#endif

namespace detail {

inline std::size_t round_len(std::size_t bytes) {
#if defined(SKIPWEB_HAVE_ANON_MMAP)
  static const auto page = static_cast<std::size_t>(::sysconf(_SC_PAGESIZE));
  return (bytes + page - 1) / page * page;
#else
  return bytes;
#endif
}

}  // namespace detail

// `bytes` (> 0) of zero pages. With `huge`, the range starts on a huge-page
// boundary and is advised MADV_HUGEPAGE: the kernel can then back every
// whole 2 MiB of it with one huge page, and a remap_anon growth keeps them
// (huge pages survive a move only between aligned ranges). The length is
// rounded to small pages only: a last partial huge page stays on small
// pages, so no page past the caller's last byte is ever made resident.
inline void* map_anon(std::size_t bytes, bool huge) {
  bytes = detail::round_len(bytes);
#if defined(SKIPWEB_HAVE_ANON_MMAP)
  const std::size_t pad = huge ? huge_page : 0;
  void* p = ::mmap(nullptr, bytes + pad, PROT_READ | PROT_WRITE, MAP_PRIVATE | MAP_ANONYMOUS, -1, 0);
  if (p == MAP_FAILED) throw std::bad_alloc();
  if (!huge) return p;
  // Trim the padding on both sides of the aligned range.
  const auto addr = reinterpret_cast<std::uintptr_t>(p);
  const std::uintptr_t lo = (addr + huge_page - 1) & ~(huge_page - 1);
  if (lo > addr) ::munmap(p, lo - addr);
  if (addr + pad > lo) ::munmap(reinterpret_cast<void*>(lo + bytes), addr + pad - lo);
#if defined(MADV_HUGEPAGE)
  ::madvise(reinterpret_cast<void*>(lo), bytes, MADV_HUGEPAGE);
#endif
  return reinterpret_cast<void*>(lo);
#else
  (void)huge;
  void* p = std::calloc(bytes, 1);
  if (p == nullptr) throw std::bad_alloc();
  return p;
#endif
}

inline void unmap_anon(void* p, std::size_t bytes) {
  if (p == nullptr) return;
#if defined(SKIPWEB_HAVE_ANON_MMAP)
  ::munmap(p, detail::round_len(bytes));
#else
  (void)bytes;
  std::free(p);
#endif
}

// Resize a map_anon mapping of `old_bytes` to `new_bytes` (> 0), keeping
// the first min(old, new) bytes; new bytes read as zero. Returns the
// mapping's address, which a growth may change. `huge` must match the
// map_anon call: a huge growth lands on a fresh aligned range.
inline void* remap_anon(void* p, std::size_t old_bytes, std::size_t new_bytes, bool huge) {
  old_bytes = detail::round_len(old_bytes);
  new_bytes = detail::round_len(new_bytes);
  if (new_bytes == old_bytes) return p;
#if defined(__linux__)
  if (new_bytes < old_bytes) {
    ::munmap(static_cast<char*>(p) + new_bytes, old_bytes - new_bytes);
    return p;
  }
  void* q = nullptr;
  if (huge) {
    void* dst = map_anon(new_bytes, true);
    q = ::mremap(p, old_bytes, new_bytes, MREMAP_MAYMOVE | MREMAP_FIXED, dst);
    if (q == MAP_FAILED) unmap_anon(dst, new_bytes);
  } else {
    q = ::mremap(p, old_bytes, new_bytes, MREMAP_MAYMOVE);
  }
  if (q == MAP_FAILED) throw std::bad_alloc();
  return q;
#else
  void* q = map_anon(new_bytes, huge);
  std::memcpy(q, p, std::min(old_bytes, new_bytes));
  unmap_anon(p, old_bytes);
  return q;
#endif
}

}  // namespace skipweb::util
