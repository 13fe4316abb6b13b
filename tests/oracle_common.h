// Shared oracle-differential scaffolding for the conformance suites
// (test_api_conformance.cpp, test_spatial_conformance.cpp,
// test_string_conformance.cpp): seeded replayable operation tapes driven
// against brute-force oracles, plus the receipt-reconciliation and
// batch==serial helpers every plane repeats, and the 1-D nearest check
// against a std::set that the structure suites share. A failing tape prints
// its seed and the minimal reproducing prefix, so "seed 8004, rows 0..17"
// is a complete bug report.

#pragma once

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <functional>
#include <initializer_list>
#include <iterator>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "net/network.h"
#include "net/types.h"
#include "util/rng.h"

namespace skipweb::testing_support {

inline net::host_id h(std::uint32_t v) { return net::host_id{v}; }

// --- 1-D nearest against a key set --------------------------------------------

// One nearest answer for q: it has a predecessor and a successor exactly
// when `oracle` holds keys below and above q, and they are the oracle's.
template <typename Result>
void expect_matches_oracle(const Result& r, const std::set<std::uint64_t>& oracle,
                           std::uint64_t q) {
  const auto it = oracle.upper_bound(q);
  const bool has_pred = it != oracle.begin();
  ASSERT_EQ(r.has_pred, has_pred) << "q=" << q;
  if (has_pred) {
    EXPECT_EQ(r.pred, *std::prev(it)) << "q=" << q;
  }
  const bool has_succ = it != oracle.end();
  ASSERT_EQ(r.has_succ, has_succ) << "q=" << q;
  if (has_succ) {
    EXPECT_EQ(r.succ, *it) << "q=" << q;
  }
}

// Every probe's nearest answer from `s`, asked from an origin rotating over
// hosts [0, hosts), against `oracle`.
template <typename Structure>
void check_oracle(const Structure& s, const std::set<std::uint64_t>& oracle,
                  const std::vector<std::uint64_t>& probes, std::size_t hosts) {
  std::uint32_t origin = 0;
  for (const auto q : probes) {
    expect_matches_oracle(s.nearest(q, h(origin)), oracle, q);
    origin = static_cast<std::uint32_t>((origin + 1) % hosts);
  }
}

// nearest_batch against nearest() over `probes`, answers and receipts
// alike, cut into calls of each width in `widths` (0 = the whole probe set
// in one call). Each call asks from the next origin of [0, hosts), and the
// serial answers from the same one.
template <typename Structure>
void expect_nearest_batch_matches_serial(const Structure& s,
                                         const std::vector<std::uint64_t>& probes,
                                         std::initializer_list<std::size_t> widths,
                                         std::size_t hosts) {
  std::uint32_t origin = 0;
  for (const std::size_t width : widths) {
    const std::size_t w = width == 0 ? probes.size() : width;
    for (std::size_t base = 0; base < probes.size(); base += w) {
      const auto first = probes.begin() + static_cast<std::ptrdiff_t>(base);
      const std::vector<std::uint64_t> qs(
          first, first + static_cast<std::ptrdiff_t>(std::min(w, probes.size() - base)));
      const auto o = h(origin);
      origin = static_cast<std::uint32_t>((origin + 1) % hosts);
      const auto batch = s.nearest_batch(qs, o);
      ASSERT_EQ(batch.size(), qs.size());
      for (std::size_t i = 0; i < qs.size(); ++i) {
        const auto serial = s.nearest(qs[i], o);
        ASSERT_EQ(batch[i].has_pred, serial.has_pred) << "width " << w << " q=" << qs[i];
        ASSERT_EQ(batch[i].has_succ, serial.has_succ) << "width " << w << " q=" << qs[i];
        ASSERT_EQ(batch[i].pred, serial.pred) << "width " << w << " q=" << qs[i];
        ASSERT_EQ(batch[i].succ, serial.succ) << "width " << w << " q=" << qs[i];
        ASSERT_EQ(batch[i].stats, serial.stats) << "width " << w << " q=" << qs[i];
      }
    }
  }
}

// --- seeded op tapes ---------------------------------------------------------

enum class tape_op : std::uint8_t { insert, erase, query };

inline const char* tape_op_name(tape_op op) {
  switch (op) {
    case tape_op::insert: return "insert";
    case tape_op::erase: return "erase";
    default: return "query";
  }
}

template <typename Key>
struct tape_row {
  tape_op op = tape_op::query;
  Key key{};
  std::uint32_t origin = 0;
};

template <typename Key>
struct op_tape {
  std::uint64_t seed = 0;
  std::vector<tape_row<Key>> rows;
};

// A seeded mixed insert/erase/query tape over `pool` (distinct keys): the
// first `initial` pool keys start present (the caller builds the index over
// exactly those), then `ops` rows roll 1/4 insert (a currently-absent pool
// key; demoted to a query when none is left), 1/4 erase (a present key,
// never below 2 so structures with a non-empty contract stay legal), 2/4
// query (any pool key — present and absent probes mixed). Origins cycle
// seeded over [0, hosts). Pure function of its arguments: the tape IS the
// reproduction recipe.
template <typename Key>
op_tape<Key> make_tape(std::uint64_t seed, const std::vector<Key>& pool, std::size_t initial,
                       std::size_t ops, std::size_t hosts) {
  EXPECT_GE(pool.size(), initial);
  EXPECT_GE(initial, 2u);
  util::rng r(seed);
  std::vector<bool> present(pool.size(), false);
  std::vector<std::size_t> present_list, absent_list;
  for (std::size_t i = 0; i < pool.size(); ++i) {
    (i < initial ? present_list : absent_list).push_back(i);
    present[i] = i < initial;
  }
  op_tape<Key> tape;
  tape.seed = seed;
  tape.rows.reserve(ops);
  for (std::size_t i = 0; i < ops; ++i) {
    tape_row<Key> row;
    row.origin = static_cast<std::uint32_t>(r.index(hosts));
    const std::size_t roll = r.index(4);
    if (roll == 0 && !absent_list.empty()) {
      const std::size_t j = r.index(absent_list.size());
      const std::size_t k = absent_list[j];
      absent_list[j] = absent_list.back();
      absent_list.pop_back();
      present_list.push_back(k);
      present[k] = true;
      row.op = tape_op::insert;
      row.key = pool[k];
    } else if (roll == 1 && present_list.size() > 2) {
      const std::size_t j = r.index(present_list.size());
      const std::size_t k = present_list[j];
      present_list[j] = present_list.back();
      present_list.pop_back();
      absent_list.push_back(k);
      present[k] = false;
      row.op = tape_op::erase;
      row.key = pool[k];
    } else {
      row.op = tape_op::query;
      row.key = pool[r.index(pool.size())];
    }
    tape.rows.push_back(std::move(row));
  }
  return tape;
}

// Drive a tape: `apply(i, row)` performs row i against both the index under
// test and its oracle, returning false on divergence. The first divergence
// stops the replay and reports the seed plus the minimal reproducing prefix
// (every row up to and including the failing one), rendered via `show(key)`.
template <typename Key, typename Apply, typename Show>
void replay_tape(const op_tape<Key>& tape, Apply&& apply, Show&& show) {
  for (std::size_t i = 0; i < tape.rows.size(); ++i) {
    if (apply(i, tape.rows[i])) continue;
    std::ostringstream os;
    os << "tape diverged at row " << i << " (seed " << tape.seed
       << "); minimal reproducing prefix:\n";
    for (std::size_t j = 0; j <= i; ++j) {
      os << "  [" << j << "] " << tape_op_name(tape.rows[j].op) << " "
         << show(tape.rows[j].key) << " @origin " << tape.rows[j].origin << "\n";
    }
    ADD_FAILURE() << os.str();
    return;
  }
}

// --- receipts ----------------------------------------------------------------

// The per-op receipts reconcile with the network's global traffic ledger:
// `run()` resets nothing itself, issues its ops, and returns the sum of
// their stats.messages; the ledger must agree exactly (and the sum must be
// non-trivial — a backend that forgets to meter would pass a bare EQ).
template <typename Run>
void expect_receipts_reconcile(net::network& net, Run&& run) {
  net.reset_traffic();
  const std::uint64_t messages = run();
  EXPECT_GT(messages, 0u);
  EXPECT_EQ(messages, net.total_messages());
}

// Batch == serial: same size, and every position agrees under `cmp(i, b, s)`
// (which should EXPECT_* on answers AND receipts — the batch routers'
// receipt-equality contract).
template <typename B, typename S, typename Cmp>
void expect_batch_matches_serial(const std::vector<B>& batch, const std::vector<S>& serial,
                                 Cmp&& cmp) {
  ASSERT_EQ(batch.size(), serial.size());
  for (std::size_t i = 0; i < batch.size(); ++i) cmp(i, batch[i], serial[i]);
}

}  // namespace skipweb::testing_support
