#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "api/distributed_index.h"
#include "api/options.h"
#include "api/spatial_index.h"
#include "api/string_index.h"

namespace skipweb::net {
class network;
}
namespace skipweb::persist {
class reader;
}

namespace skipweb::api {

// The registry entry of one backend, shared by the three index kinds whose
// single lifecycle (build, build-or-restore, save, restore) lives in
// registry.cpp (DESIGN.md §4).
template <typename Index, typename Key>
struct backend_entry {
  using factory =
      std::function<std::unique_ptr<Index>(std::vector<Key>, const index_options&, net::network&)>;
  using restorer = std::function<std::unique_ptr<Index>(persist::reader&, net::network&)>;

  backend_entry() = default;
  backend_entry(factory m, restorer r = {}, int d = 0)
      : make(std::move(m)), restore(std::move(r)), dims(d) {}

  factory make;
  // Native restore from an open snapshot. Empty: the backend persists by
  // replay (persist::replay_log) and restores through `make`.
  restorer restore;
  int dims = 0;  // spatial point dimensionality; 0 for the other kinds
};

template <typename Index, typename Key>
using backend_table = std::map<std::string, backend_entry<Index, Key>, std::less<>>;

// The builtin entries of each kind, defined beside their adapters
// (backends.cpp, spatial_backends.cpp, string_backends.cpp) and loaded on
// first registry use by an explicit call — never by global constructors,
// which a static library link could strip.
void add_builtins(backend_table<distributed_index, std::uint64_t>& t);
void add_builtins(backend_table<spatial_index, spatial_point>& t);
void add_builtins(backend_table<string_index, std::string>& t);

}  // namespace skipweb::api
