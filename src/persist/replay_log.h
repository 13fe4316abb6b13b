#pragma once

#include <cstdint>
#include <limits>
#include <string>
#include <string_view>
#include <type_traits>
#include <vector>

#include "net/types.h"
#include "persist/snapshot.h"

namespace skipweb::persist {

// Seed + op-log persistence (DESIGN.md §13) for backends whose structures
// are not arena-shaped (skip_trie, skip_trapmap, the string backends): the
// deterministic record of how the index came to be. Restore rebuilds through
// the public factory with the saved seed and pre-build host count, then
// re-issues the op log from its recorded origins — reproducing structure,
// answers, receipts AND the deployment ledger, because it is the same
// computation. A replay adapter holds one as its FIRST member, so
// `pre_hosts` reads the host count before the build grows the deployment.
//
// Sections (names below): the seed, the pre-build host count, the build key
// column, the op log ({op, origin} rows) and the op key column (one key per
// row). Trivially-copyable keys are one POD section; strings are a string
// table — `name.blob` holds the concatenated bytes and `name.offs` the u64
// END offset of each string.

enum class replay_op : std::uint64_t { insert = 0, erase = 1 };

template <typename Key>
struct replay_log {
  struct row {
    replay_op op = replay_op::insert;
    std::uint64_t origin = 0;
  };
  static_assert(sizeof(row) == 16);

  static constexpr const char* seed_section = "replay.seed";
  static constexpr const char* pre_hosts_section = "replay.pre_hosts";
  static constexpr const char* build_keys_section = "replay.build_keys";
  static constexpr const char* ops_section = "replay.oplog";
  static constexpr const char* op_keys_section = "replay.oplog_keys";

  std::uint64_t seed = 0;
  std::uint64_t pre_hosts = 0;
  std::vector<Key> build_keys;
  std::vector<row> ops;
  std::vector<Key> op_keys;

  // Call after the structure accepted the op, so failed ops leave no row.
  void record(replay_op op, net::host_id origin, const Key& key) {
    ops.push_back({op, origin.value});
    op_keys.push_back(key);
  }

  void save(writer& w) const {
    w.add_u64(seed_section, seed);
    w.add_u64(pre_hosts_section, pre_hosts);
    add_keys(w, build_keys_section, build_keys);
    w.add_vector(ops_section, ops);
    add_keys(w, op_keys_section, op_keys);
  }

  // Reads a saved log; throws persist::error on a missing section, a
  // pre-build host count beyond the u32 host ids (the restore grows the
  // network to it, so this is checked first; native files obey the same rule
  // in restore_network), an op code other than insert/erase, or a key column
  // whose length differs from the op rows. Origins are checked by the caller
  // as it re-issues each row (the valid range is the host count at that
  // moment).
  [[nodiscard]] static replay_log load(const reader& r) {
    const std::uint64_t pre_hosts = r.u64(pre_hosts_section);
    if (pre_hosts > std::numeric_limits<std::uint32_t>::max()) {
      throw error("snapshot: replay host count " + std::to_string(pre_hosts) +
                  " does not fit a host id");
    }
    replay_log log{r.u64(seed_section), pre_hosts, read_keys(r, build_keys_section),
                   r.vec<row>(ops_section), read_keys(r, op_keys_section)};
    if (log.ops.size() != log.op_keys.size()) {
      throw error("snapshot: replay op log and key column lengths differ");
    }
    for (const auto& o : log.ops) {
      if (o.op != replay_op::insert && o.op != replay_op::erase) {
        throw error("snapshot: unknown replay op code " +
                    std::to_string(static_cast<std::uint64_t>(o.op)));
      }
    }
    return log;
  }

  void compact() {
    build_keys.shrink_to_fit();
    ops.shrink_to_fit();
    op_keys.shrink_to_fit();
  }

 private:
  static void add_keys(writer& w, std::string_view name, const std::vector<Key>& v) {
    if constexpr (std::is_trivially_copyable_v<Key>) {
      w.add_vector(name, v);
    } else {
      std::vector<char> blob;
      std::vector<std::uint64_t> offs;
      offs.reserve(v.size());
      for (const auto& s : v) {
        blob.insert(blob.end(), s.begin(), s.end());
        offs.push_back(blob.size());
      }
      w.add_vector(std::string(name) + ".blob", blob);
      w.add_vector(std::string(name) + ".offs", offs);
    }
  }

  [[nodiscard]] static std::vector<Key> read_keys(const reader& r, std::string_view name) {
    if constexpr (std::is_trivially_copyable_v<Key>) {
      return r.vec<Key>(name);
    } else {
      std::size_t bytes = 0, n = 0;
      const char* blob = r.array<char>(std::string(name) + ".blob", bytes);
      const auto* offs = r.array<std::uint64_t>(std::string(name) + ".offs", n);
      std::vector<Key> out;
      out.reserve(n);
      std::uint64_t prev = 0;
      for (std::size_t i = 0; i < n; ++i) {
        if (offs[i] < prev || offs[i] > bytes) {
          throw error("snapshot: malformed string table " + std::string(name));
        }
        out.emplace_back(blob + prev, blob + offs[i]);
        prev = offs[i];
      }
      return out;
    }
  }
};

}  // namespace skipweb::persist
