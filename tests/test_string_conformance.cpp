// Conformance suite for the unified string_index API: the same contains /
// prefix / range / top-k / intersection assertions (against brute-force
// string oracles) run over every backend the string registry knows, selected
// by name. A new backend earns coverage by registering itself — no new test
// code. Built on the shared tape/oracle scaffolding of tests/oracle_common.h.

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "api/string_registry.h"
#include "net/network.h"
#include "oracle_common.h"
#include "serve/executor.h"
#include "util/rng.h"
#include "workloads/workloads.h"

namespace {

using namespace skipweb;
using namespace skipweb::testing_support;
using net::network;
using util::rng;
namespace wl = skipweb::workloads;

// --- brute-force oracles -----------------------------------------------------

bool starts_with(const std::string& s, const std::string& prefix) {
  return s.size() >= prefix.size() && s.compare(0, prefix.size(), prefix) == 0;
}

std::vector<std::string> oracle_prefix(const std::set<std::string>& keys,
                                       const std::string& prefix, std::size_t limit = 0) {
  std::vector<std::string> out;
  for (const auto& k : keys) {
    if (limit != 0 && out.size() >= limit) break;
    if (starts_with(k, prefix)) out.push_back(k);
  }
  return out;
}

std::vector<std::string> oracle_range(const std::set<std::string>& keys, const std::string& lo,
                                      const std::string& hi, std::size_t limit = 0) {
  std::vector<std::string> out;
  for (auto it = keys.lower_bound(lo); it != keys.end() && *it <= hi; ++it) {
    if (limit != 0 && out.size() >= limit) break;
    out.push_back(*it);
  }
  return out;
}

std::vector<std::string> oracle_top_k(const std::set<std::string>& keys,
                                      const std::string& prefix, std::size_t k) {
  auto matches = oracle_prefix(keys, prefix);
  std::sort(matches.begin(), matches.end(), [](const std::string& a, const std::string& b) {
    const auto wa = api::string_weight(a), wb = api::string_weight(b);
    return wa != wb ? wa > wb : a < b;
  });
  if (matches.size() > k) matches.resize(k);
  return matches;
}

std::vector<std::string> oracle_intersect(const std::set<std::string>& keys,
                                          const std::vector<std::string>& terms) {
  std::vector<std::string> out;
  for (const auto& k : keys) {
    const auto toks = api::string_tokens(k);
    bool all = true;
    for (const auto& t : terms) {
      all = all && std::find(toks.begin(), toks.end(), t) != toks.end();
    }
    if (all) out.push_back(k);
  }
  return out;
}

class StringConformance : public ::testing::TestWithParam<std::string> {
 protected:
  [[nodiscard]] static api::index_options options() {
    return api::index_options{}.seed(73).initial_hosts(8);
  }
  [[nodiscard]] static std::unique_ptr<api::string_index> build(
      const std::vector<std::string>& keys, network& net) {
    return api::make_string_index(GetParam(), keys, options(), net);
  }
};

TEST_P(StringConformance, RegistryBuildsTheNamedBackend) {
  rng r(7001);
  const auto keys = wl::dictionary_words(150, r);
  network net(1);
  const auto idx = build(keys, net);
  ASSERT_NE(idx, nullptr);
  EXPECT_EQ(idx->backend(), GetParam());
  EXPECT_EQ(idx->size(), keys.size());
  EXPECT_GE(net.host_count(), 8u);  // initial_hosts honoured
  for (const auto c : {api::capability::contains, api::capability::insert, api::capability::erase,
                       api::capability::prefix, api::capability::range, api::capability::top_k,
                       api::capability::intersect}) {
    EXPECT_TRUE(idx->supports(c));
  }
}

TEST_P(StringConformance, ContainsMatchesOracle) {
  rng r(7002);
  const auto keys = wl::url_paths(220, r);
  network net(1);
  const auto idx = build(keys, net);
  const std::set<std::string> oracle(keys.begin(), keys.end());
  std::uint32_t origin = 0;
  for (std::size_t i = 0; i < 80; ++i) {
    EXPECT_TRUE(idx->contains(keys[i], h(origin)).value) << keys[i];
    origin = static_cast<std::uint32_t>((origin + 1) % net.host_count());
  }
  // Probes derived from stored keys (mutated tail) mostly miss.
  for (std::size_t i = 0; i < 80; ++i) {
    const std::string q = keys[i] + "~";
    EXPECT_EQ(idx->contains(q, h(0)).value, oracle.count(q) > 0) << q;
  }
}

TEST_P(StringConformance, PrefixMatchAndCountMatchOracle) {
  rng r(7003);
  const auto keys = wl::url_paths(250, r);
  network net(1);
  const auto idx = build(keys, net);
  const std::set<std::string> oracle(keys.begin(), keys.end());
  const auto prefixes = wl::prefix_stream(keys, 40, 7003);
  for (const auto& p : prefixes) {
    const auto want = oracle_prefix(oracle, p);
    const auto got = idx->prefix_match(p, h(1));
    EXPECT_EQ(got.value, want) << "prefix \"" << p << "\"";
    EXPECT_EQ(idx->prefix_count(p, h(1)).value, want.size()) << "prefix \"" << p << "\"";
    EXPECT_GT(got.stats.host_visits, 0u);
  }
  // The empty prefix matches everything; limits keep the smallest matches.
  EXPECT_EQ(idx->prefix_match("", h(0)).value, oracle_prefix(oracle, ""));
  EXPECT_EQ(idx->prefix_count("", h(0)).value, oracle.size());
  EXPECT_EQ(idx->prefix_match("/", h(0), 9).value, oracle_prefix(oracle, "/", 9));
  // A prefix beyond every key matches nothing.
  EXPECT_TRUE(idx->prefix_match("~~~", h(0)).value.empty());
}

TEST_P(StringConformance, LexRangeMatchesOracle) {
  rng r(7004);
  const auto keys = wl::dictionary_words(240, r);
  network net(1);
  const auto idx = build(keys, net);
  const std::set<std::string> oracle(keys.begin(), keys.end());
  std::vector<std::string> sorted(oracle.begin(), oracle.end());
  for (int trial = 0; trial < 25; ++trial) {
    const std::size_t i = r.index(sorted.size());
    const std::size_t j = i + r.index(std::min<std::size_t>(sorted.size() - i, 40));
    const auto got = idx->lex_range(sorted[i], sorted[j], h(static_cast<std::uint32_t>(trial % 8)));
    EXPECT_EQ(got.value, oracle_range(oracle, sorted[i], sorted[j])) << "trial " << trial;
  }
  // Limits, empty windows, and the shared lo <= hi contract.
  EXPECT_EQ(idx->lex_range(sorted.front(), sorted.back(), h(0), 7).value,
            oracle_range(oracle, sorted.front(), sorted.back(), 7));
  EXPECT_TRUE(idx->lex_range(sorted.back() + "0", sorted.back() + "z", h(0)).value.empty());
  EXPECT_THROW((void)idx->lex_range("zz", "aa", h(0)), util::contract_error);
}

TEST_P(StringConformance, TopKMatchesOracle) {
  rng r(7005);
  const auto keys = wl::dictionary_words(200, r);
  network net(1);
  const auto idx = build(keys, net);
  const std::set<std::string> oracle(keys.begin(), keys.end());
  const auto prefixes = wl::prefix_stream(keys, 30, 7005);
  for (const auto& p : prefixes) {
    for (const std::size_t k : {1u, 5u, 100u}) {
      EXPECT_EQ(idx->top_k(p, k, h(2)).value, oracle_top_k(oracle, p, k))
          << "prefix \"" << p << "\" k=" << k;
    }
  }
  EXPECT_EQ(idx->top_k("", 10, h(0)).value, oracle_top_k(oracle, "", 10));
  EXPECT_THROW((void)idx->top_k("a", 0, h(0)), util::contract_error);
}

TEST_P(StringConformance, IntersectMatchesOracle) {
  rng r(7006);
  const auto keys = wl::log_lines(260, r);
  network net(1);
  const auto idx = build(keys, net);
  const std::set<std::string> oracle(keys.begin(), keys.end());
  for (int trial = 0; trial < 25; ++trial) {
    // Terms from a stored key's own tokens: non-empty answers guaranteed.
    auto terms = api::string_tokens(keys[r.index(keys.size())]);
    terms.resize(std::min<std::size_t>(terms.size(), 2 + r.index(2)));
    const auto want = oracle_intersect(oracle, terms);
    const auto got = idx->intersect(terms, h(static_cast<std::uint32_t>(trial % 8)));
    EXPECT_EQ(got.value, want) << "trial " << trial;
    EXPECT_FALSE(got.value.empty()) << "trial " << trial;
    EXPECT_GT(got.stats.messages, 0u);
    // A limit keeps a subset (posting order, not key order): still all hits.
    const auto capped = idx->intersect(terms, h(0), 2);
    EXPECT_LE(capped.value.size(), 2u);
    for (const auto& k : capped.value) {
      EXPECT_TRUE(std::find(want.begin(), want.end(), k) != want.end()) << k;
    }
  }
  // An unknown term empties every conjunction; no terms is a contract error.
  EXPECT_TRUE(idx->intersect({"info", "nosuchtoken"}, h(0)).value.empty());
  EXPECT_THROW((void)idx->intersect({}, h(0)), util::contract_error);
}

TEST_P(StringConformance, BatchMatchesSerialResultsAndReceipts) {
  rng r(7007);
  const auto keys = wl::dictionary_words(200, r);
  network net(1);
  const auto idx = build(keys, net);
  auto qs = wl::string_query_stream(keys, 60, 7007);
  for (std::size_t i = 0; i < 20; ++i) qs[i * 3] += "x";  // mix in misses

  std::vector<api::op_result<bool>> serial;
  serial.reserve(qs.size());
  for (const auto& q : qs) serial.push_back(idx->contains(q, h(2)));
  const auto batch = idx->contains_batch(qs, h(2));
  expect_batch_matches_serial(batch, serial,
                              [](std::size_t i, const api::op_result<bool>& b,
                                 const api::op_result<bool>& s) {
                                EXPECT_EQ(b.value, s.value) << i;
                                EXPECT_EQ(b.stats, s.stats) << i;
                              });
}

TEST_P(StringConformance, StatsReceiptsReconcileWithTheLedger) {
  rng r(7008);
  const auto keys = wl::url_paths(200, r);
  network net(1);
  const auto idx = build(keys, net);
  const auto qs = wl::string_query_stream(keys, 30, 7008);
  const auto prefixes = wl::prefix_stream(keys, 10, 7008);
  expect_receipts_reconcile(net, [&] {
    std::uint64_t messages = 0;
    for (const auto& q : qs) messages += idx->contains(q, h(0)).stats.messages;
    for (const auto& p : prefixes) messages += idx->prefix_match(p, h(0)).stats.messages;
    for (const auto& p : prefixes) messages += idx->top_k(p, 4, h(1)).stats.messages;
    messages += idx->intersect(api::string_tokens(keys[0]), h(0)).stats.messages;
    return messages;
  });
}

TEST_P(StringConformance, MixedTapeVsOracle) {
  // Seeded mixed insert/erase/query tape vs a std::set oracle, with the edge
  // keys the string plane owes coverage: the EMPTY key, deep shared-prefix
  // families (a key that is a strict prefix of another), and a ~512-char
  // maximal key. After every structural op the whole prefix family is
  // re-checked, so a trie that corrupts a spine mid-erase diverges
  // immediately — and the failure prints seed + minimal reproducing tape.
  rng r(7009);
  auto pool = wl::shared_prefix_strings(140, r);
  pool.emplace_back();                     // the empty key
  pool.push_back(pool[0].substr(0, 3));    // a strict prefix of a stored key
  pool.push_back(std::string(512, 'k'));   // maximal-length key
  pool.push_back(std::string(512, 'k') + "l");
  std::sort(pool.begin(), pool.end());
  pool.erase(std::unique(pool.begin(), pool.end()), pool.end());
  std::shuffle(pool.begin(), pool.end(), r.engine());

  const std::size_t initial = pool.size() / 2;
  const std::vector<std::string> start(pool.begin(),
                                       pool.begin() + static_cast<std::ptrdiff_t>(initial));
  network net(1);
  const auto idx = build(start, net);
  std::set<std::string> oracle(start.begin(), start.end());

  const auto tape = make_tape<std::string>(7009, pool, initial, 300, net.host_count());
  replay_tape(
      tape,
      [&](std::size_t, const tape_row<std::string>& row) {
        switch (row.op) {
          case tape_op::insert: {
            if (!oracle.insert(row.key).second) return true;
            (void)idx->insert(row.key, h(row.origin));
            break;
          }
          case tape_op::erase:
            if (oracle.erase(row.key) == 0) return true;
            (void)idx->erase(row.key, h(row.origin));
            break;
          default: {
            if (idx->contains(row.key, h(row.origin)).value != (oracle.count(row.key) > 0)) {
              return false;
            }
            break;
          }
        }
        if (idx->size() != oracle.size()) return false;
        // The key's own 1-char prefix family stays consistent through every
        // structural change.
        const std::string p = row.key.substr(0, 1);
        return idx->prefix_match(p, h(0)).value == oracle_prefix(oracle, p);
      },
      [](const std::string& k) {
        return "\"" + (k.size() > 40 ? k.substr(0, 37) + "..." : k) + "\"";
      });
  EXPECT_EQ(idx->size(), oracle.size());
  EXPECT_EQ(idx->prefix_match("", h(0)).value,
            std::vector<std::string>(oracle.begin(), oracle.end()));
}

TEST_P(StringConformance, ExecutorContainsMatchesSerial) {
  // The multi-threaded serving driver returns the serial loop's answers,
  // per-op receipts and totals at every thread count and batch width, and
  // the traffic ledger reconciles (also the TSan job's string-plane target:
  // concurrent const queries on one instance must stay race-free).
  rng r(7010);
  const auto keys = wl::dictionary_words(300, r);
  network net(1);
  const auto idx = build(keys, net);
  // 241 queries: no batch width below but 1 divides the stream.
  auto qs = wl::string_query_stream(keys, 241, 7010);
  for (std::size_t i = 0; i < qs.size(); i += 4) qs[i] += "q";  // misses too

  net.reset_traffic();
  std::vector<api::op_result<bool>> want;
  api::op_stats want_total;
  for (const auto& q : qs) {
    want.push_back(idx->contains(q, h(1)));
    want_total += want.back().stats;
  }
  const std::uint64_t want_messages = net.total_messages();
  for (const std::size_t threads : {1u, 2u, 3u, 4u, 8u}) {
    serve::executor ex(threads);
    for (const std::size_t batch : {1u, 7u, 24u}) {
      net.reset_traffic();
      const auto out = ex.run_contains(*idx, qs, h(1), batch);
      ASSERT_EQ(out.results.size(), qs.size()) << threads << " batch " << batch;
      for (std::size_t i = 0; i < qs.size(); ++i) {
        EXPECT_EQ(out.results[i].value, want[i].value)
            << "threads " << threads << " batch " << batch << " q " << i;
        EXPECT_EQ(out.results[i].stats, want[i].stats)
            << "threads " << threads << " batch " << batch << " q " << i;
      }
      EXPECT_EQ(out.total, want_total) << threads << " batch " << batch;
      EXPECT_EQ(net.total_messages(), want_messages) << threads << " batch " << batch;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(AllStringBackends, StringConformance,
                         ::testing::ValuesIn(api::registered_string_backends()),
                         [](const ::testing::TestParamInfo<std::string>& info) {
                           return info.param;
                         });

TEST(StringRegistry, KnowsItsBuiltins) {
  for (const char* name : {"string_skiptrie", "string_sorted"}) {
    EXPECT_TRUE(api::string_backend_known(name)) << name;
  }
  EXPECT_FALSE(api::string_backend_known("suffix_array"));
  EXPECT_GE(api::registered_string_backends().size(), 2u);
}

TEST(StringRegistry, UnknownBackendThrows) {
  rng r(7100);
  const auto keys = wl::dictionary_words(16, r);
  network net(1);
  EXPECT_THROW(
      (void)api::make_string_index("no_such_backend", keys, api::index_options{}, net),
      std::out_of_range);
}

TEST(StringRegistry, CustomBackendsCanRegister) {
  api::register_string_backend(
      "string_skiptrie_alias",
      [](std::vector<std::string> keys, const api::index_options& opts, net::network& net) {
        return api::make_string_index("string_skiptrie", std::move(keys), opts, net);
      });
  EXPECT_TRUE(api::string_backend_known("string_skiptrie_alias"));
  rng r(7101);
  const auto keys = wl::dictionary_words(64, r);
  network net(16);
  const auto idx = api::make_string_index("string_skiptrie_alias", keys, api::index_options{}, net);
  EXPECT_EQ(idx->size(), 64u);
  EXPECT_TRUE(idx->contains(keys[0], h(1)).value);
}

}  // namespace
