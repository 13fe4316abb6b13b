// The built-in string backends: thin adapters from string_index's uniform
// surface onto the promoted skip-trie text core and the distributed
// sorted-array baseline. Registered by add_builtins() (called on the
// registry's first use, never from global constructors). Both share one
// posting_index for multi-term intersection — the posting plane is
// layout-independent, so the differential suite pins the primary structures
// against each other while the intersection contract stays identical by
// construction.

#include <memory>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

#include "api/lifecycle.h"
#include "api/string_index.h"
#include "core/posting_index.h"
#include "core/skip_trie.h"
#include "core/string_sorted.h"
#include "net/cursor.h"
#include "net/network.h"
#include "persist/replay_log.h"
#include "util/sw_assert.h"

namespace skipweb::api {

namespace {

constexpr capability string_base_caps = capability::contains | capability::insert |
                                        capability::erase | capability::prefix |
                                        capability::range | capability::top_k |
                                        capability::intersect | capability::snapshot;

// One adapter over both text cores — the promoted skip-trie and the sorted
// baseline share the posting plane, the replay record and the whole update
// path; only the prefix surfaces differ. The trie descends to the prefix
// locus (native_prefix) and pays the output-sensitive enumeration for a
// count (one hop per subtree node); the sorted baseline answers the same
// count from two binary searches — the cost-shape contrast the differential
// suite pins.
template <typename Core>
class text_adapter final : public string_index {
  static constexpr bool trie = std::is_same_v<Core, core::skip_trie>;

 public:
  text_adapter(std::vector<std::string> keys, const index_options& opts, net::network& net)
      : replay_{opts.seed(), net.host_count(), std::move(keys), {}, {}},
        net_(&net),
        impl_(replay_.build_keys, opts.seed(), net),
        postings_(net.host_count(), opts.seed() ^ 0x706f7374u) {
    for (const auto& k : replay_.build_keys) postings_.add(k);
  }

  [[nodiscard]] std::string_view backend() const override {
    return trie ? "string_skiptrie" : "string_sorted";
  }
  [[nodiscard]] std::size_t size() const override { return impl_.size(); }
  [[nodiscard]] capability capabilities() const override {
    return trie ? string_base_caps | capability::native_prefix : string_base_caps;
  }

  [[nodiscard]] op_result<bool> contains(const std::string& q,
                                         net::host_id origin) const override {
    return impl_.contains(q, origin);
  }

  op_stats insert(const std::string& s, net::host_id origin) override {
    const auto stats = impl_.insert(s, origin);
    postings_.add(s);
    replay_.record(persist::replay_op::insert, origin, s);
    return stats;
  }
  op_stats erase(const std::string& s, net::host_id origin) override {
    const auto stats = impl_.erase(s, origin);
    postings_.remove(s);
    replay_.record(persist::replay_op::erase, origin, s);
    return stats;
  }

  [[nodiscard]] op_result<std::vector<std::string>> prefix_match(
      const std::string& prefix, net::host_id origin, std::size_t limit) const override {
    if constexpr (trie) {
      return impl_.with_prefix(prefix, origin, limit);
    } else {
      return impl_.prefix_match(prefix, origin, limit);
    }
  }

  [[nodiscard]] op_result<std::uint64_t> prefix_count(const std::string& prefix,
                                                      net::host_id origin) const override {
    if constexpr (trie) {
      const auto res = impl_.with_prefix(prefix, origin);
      return {res.value.size(), res.stats};
    } else {
      return impl_.prefix_count(prefix, origin);
    }
  }

  [[nodiscard]] op_result<std::vector<std::string>> lex_range(
      const std::string& lo, const std::string& hi, net::host_id origin,
      std::size_t limit) const override {
    return impl_.range(lo, hi, origin, limit);
  }

  [[nodiscard]] op_result<std::vector<std::string>> intersect(
      const std::vector<std::string>& terms, net::host_id origin,
      std::size_t limit) const override {
    net::cursor cur(*net_, origin);
    op_result<std::vector<std::string>> out;
    out.value = postings_.intersect(terms, cur, limit);
    out.stats = op_stats::of(cur);
    return out;
  }

  [[nodiscard]] memory_footprint footprint() const override {
    auto f = impl_.footprint();
    f += postings_.footprint();
    return f;
  }

  void save_snapshot(persist::writer& w) const override { replay_.save(w); }
  void compact() override {
    if constexpr (!trie) impl_.compact();
    replay_.compact();
    postings_.compact();
  }

 private:
  // Replay-snapshot record: first (see replay_log.h), and impl_ borrows its
  // build keys at construction. Rows are recorded after the core op
  // succeeds, so failed ops leave no row.
  persist::replay_log<std::string> replay_;
  net::network* net_;
  Core impl_;
  core::posting_index postings_;
};

}  // namespace

// Both persist by replay: no native restorer.
void add_builtins(backend_table<string_index, std::string>& t) {
  t["string_skiptrie"] = {
      [](std::vector<std::string> keys, const index_options& opts, net::network& net) {
        return std::make_unique<text_adapter<core::skip_trie>>(std::move(keys), opts, net);
      }};
  t["string_sorted"] = {
      [](std::vector<std::string> keys, const index_options& opts, net::network& net) {
        return std::make_unique<text_adapter<core::string_sorted>>(std::move(keys), opts, net);
      }};
}

}  // namespace skipweb::api
