#pragma once

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "api/memory_footprint.h"
#include "api/op_stats.h"
#include "net/network.h"
#include "serve/executor.h"
#include "util/stats.h"

namespace skipweb::bench {

// Plain fixed-width table printing: every bench regenerates its table or
// figure as rows on stdout.

inline void print_rule(std::size_t width = 100) {
  for (std::size_t i = 0; i < width; ++i) std::fputc('-', stdout);
  std::fputc('\n', stdout);
}

inline void print_header(const char* title) {
  std::printf("\n");
  print_rule();
  std::printf("%s\n", title);
  print_rule();
}

inline void print_row(const std::vector<std::string>& cells, int width = 14) {
  for (const auto& c : cells) std::printf("%-*s", width, c.c_str());
  std::printf("\n");
}

inline std::string fmt(double v, int precision = 2) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.*f", precision, v);
  return buf;
}

inline std::string fmt_u(std::uint64_t v) { return std::to_string(v); }

// Comma-separated CLI list ("a,b,c" -> {"a","b","c"}; empty items dropped).
// Shared by every sweep bench's flag parser.
inline std::vector<std::string> split_list(const char* s) {
  std::vector<std::string> out;
  std::string cur;
  for (const char* p = s; *p != '\0'; ++p) {
    if (*p == ',') {
      if (!cur.empty()) out.push_back(cur);
      cur.clear();
    } else {
      cur += *p;
    }
  }
  if (!cur.empty()) out.push_back(cur);
  return out;
}

// Growth-shape verdict: correlation of the measured series against a model
// curve, printed so the reader can see "tracks log n" at a glance.
// Correlation needs at least two samples (and nonzero variance); anything
// less is reported as such instead of printing NaN garbage.
inline std::string shape_verdict(const std::vector<double>& xs, const std::vector<double>& ys) {
  if (xs.size() != ys.size() || xs.size() < 2) return "n/a (<2 samples)";
  const double corr = util::correlation(xs, ys);
  if (!std::isfinite(corr)) return "n/a (degenerate)";
  if (corr > 0.97) return "matches (r=" + fmt(corr) + ")";
  if (corr > 0.85) return "tracks  (r=" + fmt(corr) + ")";
  return "differs (r=" + fmt(corr) + ")";
}

// --- machine-readable output -------------------------------------------------
//
// Streaming JSON writer for the perf-trajectory files: every bench can dump
// its rows as BENCH_<name>.json (see write_bench_json below) so successive
// runs can be diffed mechanically instead of by eyeballing tables. The
// writer is append-only with automatic comma placement; the caller is
// responsible for balanced begin/end calls.
class json_writer {
 public:
  json_writer& begin_object() {
    comma();
    out_ += '{';
    comma_ = false;
    return *this;
  }
  json_writer& end_object() {
    out_ += '}';
    comma_ = true;
    return *this;
  }
  json_writer& begin_array() {
    comma();
    out_ += '[';
    comma_ = false;
    return *this;
  }
  json_writer& end_array() {
    out_ += ']';
    comma_ = true;
    return *this;
  }
  json_writer& key(std::string_view k) {
    comma();
    quoted(k);
    out_ += ':';
    comma_ = false;
    return *this;
  }
  json_writer& value(std::string_view v) {
    comma();
    quoted(v);
    comma_ = true;
    return *this;
  }
  json_writer& value(const char* v) { return value(std::string_view(v)); }
  json_writer& value(bool v) {
    comma();
    out_ += v ? "true" : "false";
    comma_ = true;
    return *this;
  }
  json_writer& value(double v) {
    comma();
    if (std::isfinite(v)) {
      char buf[64];
      std::snprintf(buf, sizeof(buf), "%.10g", v);
      out_ += buf;
    } else {
      out_ += "null";  // JSON has no NaN/inf
    }
    comma_ = true;
    return *this;
  }
  json_writer& value(std::uint64_t v) {
    comma();
    out_ += std::to_string(v);
    comma_ = true;
    return *this;
  }
  json_writer& value(std::int64_t v) {
    comma();
    out_ += std::to_string(v);
    comma_ = true;
    return *this;
  }
  json_writer& value(int v) { return value(static_cast<std::int64_t>(v)); }

  template <typename V>
  json_writer& field(std::string_view k, V v) {
    key(k);
    return value(v);
  }

  [[nodiscard]] const std::string& str() const { return out_; }

 private:
  void comma() {
    if (comma_) out_ += ',';
  }
  void quoted(std::string_view s) {
    out_ += '"';
    for (const char c : s) {
      switch (c) {
        case '"': out_ += "\\\""; break;
        case '\\': out_ += "\\\\"; break;
        case '\n': out_ += "\\n"; break;
        case '\t': out_ += "\\t"; break;
        case '\r': out_ += "\\r"; break;
        default:
          if (static_cast<unsigned char>(c) < 0x20) {
            char buf[8];
            std::snprintf(buf, sizeof(buf), "\\u%04x", c);
            out_ += buf;
          } else {
            out_ += c;
          }
      }
    }
    out_ += '"';
  }

  std::string out_;
  bool comma_ = false;
};

// --- concurrency schema fields ----------------------------------------------
//
// Every bench JSON records the machine's hardware_concurrency at the top
// level (so scaling numbers are read against the cores they had), and every
// timed sample that ran through serve::executor records its thread count and
// per-thread ops/s. Thread-scaling cells record the cores again, since a
// section can be re-recorded on its own. CI validates these fields are
// present.

inline void json_hardware_fields(json_writer& jw) {
  jw.field("hardware_concurrency",
           static_cast<std::uint64_t>(std::thread::hardware_concurrency()));
}

inline void json_thread_fields(json_writer& jw, std::size_t threads, double ops_per_sec) {
  jw.field("threads", static_cast<std::uint64_t>(threads));
  jw.field("per_thread_ops_per_sec",
           threads > 0 ? ops_per_sec / static_cast<double>(threads) : 0.0);
}

// --- memory accounting schema fields -----------------------------------------
//
// Every build sample records its index's resident footprint (the measured
// side of the paper's space argument — the simulated net ledger counts
// messages, this counts bytes). Shared by bench_throughput and bench_spatial
// so CI can validate one schema for both.

inline void json_footprint_fields(json_writer& jw, const skipweb::api::memory_footprint& fp,
                                  std::size_t n) {
  jw.field("arena_bytes", fp.arena_bytes);
  jw.field("link_bytes", fp.link_bytes);
  jw.field("directory_bytes", fp.directory_bytes);
  jw.field("total_bytes", fp.total_bytes());
  jw.field("bytes_per_key", fp.bytes_per_key(n));
}

// --- executor thread-scaling cells -------------------------------------------
//
// Shared by bench_throughput and bench_spatial so the two sweeps' timing
// loop and JSON schema cannot drift apart (CI validates one schema for
// both). A cell builds once, then repeats full passes over a pregenerated
// query stream through the serving executor until the op cap or the time
// budget is hit.

struct scale_result {
  double build_seconds = 0;
  double seconds = 0;
  std::uint64_t ops = 0;
  skipweb::api::op_stats totals;

  [[nodiscard]] double ops_per_sec() const {
    return seconds > 0 ? static_cast<double>(ops) / seconds : 0.0;
  }
  [[nodiscard]] double per_op(std::uint64_t c) const {
    return ops > 0 ? static_cast<double>(c) / static_cast<double>(ops) : 0.0;
  }
};

// `serve_once()` runs one full pass over the stream and returns
// (ops served, summed op_stats); this loop owns the timing and the caps.
template <typename ServeOnce>
inline void run_scale_loop(scale_result& res, std::uint64_t max_ops, double time_budget,
                           ServeOnce&& serve_once) {
  using clock = std::chrono::steady_clock;
  const auto t0 = clock::now();
  while (res.ops < max_ops) {
    const auto [ops, totals] = serve_once();
    res.ops += ops;
    res.totals += totals;
    res.seconds = std::chrono::duration<double>(clock::now() - t0).count();
    if (res.seconds >= time_budget) break;
  }
  res.seconds = std::chrono::duration<double>(clock::now() - t0).count();
}

// The thread-scaling protocol both sweeps share, as perfbench serves its
// streams: a kScaleProbes stream cut into kScaleFrontends contiguous chunks
// (serve::executor::slice), chunk k issued from host k. A sample serves the
// chunks in order from chunk 0 until one pass (or `max_ops`, if larger) is
// done or the time budget is spent; the cell reports the median of
// kScaleSamples samples by ops/sec. `serve_chunk(chunk, origin)` serves one
// chunk through the caller's executor and returns its summed op_stats. The
// chunks, their partition and each chunk's results and receipts are pure
// functions of the stream — thread count changes only the wall clock, and
// how many chunks a timed-out sample reached.
inline constexpr std::size_t kScaleProbes = std::size_t{1} << 16;
inline constexpr std::size_t kScaleFrontends = 16;
inline constexpr std::size_t kScaleSamples = 5;

template <typename Query, typename ServeChunk>
scale_result run_scale_samples(const std::vector<Query>& stream, const skipweb::net::network& net,
                               double build_seconds, std::uint64_t max_ops, double time_budget,
                               ServeChunk&& serve_chunk) {
  std::vector<std::vector<Query>> chunks(kScaleFrontends);
  for (std::size_t k = 0; k < kScaleFrontends; ++k) {
    const auto [lo, hi] = skipweb::serve::executor::slice(stream.size(), k, kScaleFrontends);
    chunks[k].assign(stream.begin() + static_cast<std::ptrdiff_t>(lo),
                     stream.begin() + static_cast<std::ptrdiff_t>(hi));
  }
  std::vector<scale_result> samples(kScaleSamples);
  for (auto& res : samples) {
    res.build_seconds = build_seconds;
    std::size_t next = 0;
    run_scale_loop(res, std::max<std::uint64_t>(max_ops, stream.size()), time_budget, [&] {
      const std::size_t k = next++ % kScaleFrontends;
      const auto origin = skipweb::net::host_id{static_cast<std::uint32_t>(k % net.host_count())};
      const skipweb::api::op_stats total = serve_chunk(chunks[k], origin);
      return std::pair{static_cast<std::uint64_t>(chunks[k].size()), total};
    });
  }
  std::sort(samples.begin(), samples.end(), [](const scale_result& a, const scale_result& b) {
    return a.ops_per_sec() < b.ops_per_sec();
  });
  return samples[kScaleSamples / 2];
}

// The thread_scaling entry fields every sweep emits (the caller first writes
// its identifying fields: backend, mix, n, dims...).
inline void json_scale_fields(json_writer& jw, const scale_result& res, std::size_t threads,
                              double speedup_vs_first) {
  jw.field("ops", res.ops);
  jw.field("seconds", res.seconds);
  jw.field("ops_per_sec", res.ops_per_sec());
  json_thread_fields(jw, threads, res.ops_per_sec());
  json_hardware_fields(jw);
  jw.field("speedup_vs_first", speedup_vs_first);
  jw.field("build_seconds", res.build_seconds);
  jw.field("messages_per_op", res.per_op(res.totals.messages));
  jw.field("host_visits_per_op", res.per_op(res.totals.host_visits));
  jw.field("comparisons_per_op", res.per_op(res.totals.comparisons));
}

// Writes `json` to BENCH_<name>.json in the working directory and announces
// the path on stdout. Returns false (with a note on stderr) on I/O failure
// so benches can keep printing their tables regardless.
inline bool write_bench_json(const std::string& name, const std::string& json) {
  const std::string path = "BENCH_" + name + ".json";
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "could not write %s\n", path.c_str());
    return false;
  }
  std::fwrite(json.data(), 1, json.size(), f);
  std::fputc('\n', f);
  std::fclose(f);
  std::printf("\nwrote %s\n", path.c_str());
  return true;
}

}  // namespace skipweb::bench
