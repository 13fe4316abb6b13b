#include "common.h"

#include <fcntl.h>
#include <sys/mman.h>
#include <sys/stat.h>
#include <unistd.h>

#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <sstream>

#include "net/network.h"
#include "persist/snapshot.h"
#include "serve/executor.h"
#include "util/rng.h"

namespace perfbench {

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t m = v.size() / 2;
  return v.size() % 2 == 1 ? v[m] : 0.5 * (v[m - 1] + v[m]);
}

double quantile_us(std::vector<std::int64_t> ns, double q) {
  if (ns.empty()) return 0.0;
  std::sort(ns.begin(), ns.end());
  auto rank = static_cast<std::size_t>(q * static_cast<double>(ns.size()));
  if (rank >= ns.size()) rank = ns.size() - 1;
  return static_cast<double>(ns[rank]) * 1e-3;
}

void result::check(bool ok, const char* what) {
  ++attempted_;
  if (ok) return;
  if (failed_ < 8) std::fprintf(stderr, "oracle mismatch: %s\n", what);
  ++failed_;
}

std::string result::to_json() const {
  std::ostringstream o;
  o.precision(17);
  o << "{\"correct\": " << (failed_ == 0 ? "true" : "false") << ", \"attempted\": " << attempted_
    << ", \"failed\": " << failed_ << ", \"context\": {";
  bool first = true;
  for (const auto& [k, v] : context_) {
    o << (first ? "" : ", ") << '"' << k << "\": " << v;
    first = false;
  }
  o << "}, \"metrics\": {";
  first = true;
  for (const auto& [k, v] : metrics_) {
    o << (first ? "" : ", ") << '"' << k << "\": {\"value\": " << v.first << ", \"unit\": \""
      << v.second << "\"}";
    first = false;
  }
  o << "}}";
  return o.str();
}

tracer& tracer::get() {
  static tracer t;
  return t;
}

namespace {
thread_local int current_span = -1;
}

int tracer::begin(const char* name, std::int64_t op, int parent) {
  if (parent == -2) parent = current_span;
  std::scoped_lock lock(mu_);
  const int id = static_cast<int>(spans_.size());
  spans_.push_back(record{name, parent, op, now_ns(), 0, {}});
  current_span = id;
  return id;
}

void tracer::end(int id) {
  const std::int64_t t = now_ns();
  std::scoped_lock lock(mu_);
  auto& r = spans_[static_cast<std::size_t>(id)];
  r.t1 = t;
  current_span = r.parent;
}

void tracer::attr(int id, const char* key, double value) {
  std::scoped_lock lock(mu_);
  spans_[static_cast<std::size_t>(id)].attrs.emplace_back(key, value);
}

bool tracer::write(const std::string& path) const {
  std::scoped_lock lock(mu_);
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const auto& r = spans_[i];
    std::fprintf(f, "%zu\t%d\t%s\t%lld\t%lld\t%lld\t", i, r.parent, r.name,
                 static_cast<long long>(r.op), static_cast<long long>(r.t0),
                 static_cast<long long>(r.t1));
    for (std::size_t a = 0; a < r.attrs.size(); ++a) {
      std::fprintf(f, "%s%s=%.17g", a == 0 ? "" : ",", r.attrs[a].first, r.attrs[a].second);
    }
    std::fputc('\n', f);
  }
  return std::fclose(f) == 0;
}

std::uint64_t anon_huge_bytes() {
  std::ifstream in("/proc/self/smaps_rollup");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("AnonHugePages:", 0) == 0) {
      std::istringstream ls(line.substr(14));
      std::uint64_t kb = 0;
      ls >> kb;
      return kb * 1024;
    }
  }
  return 0;
}

void record_anon_huge(result& out, std::uint64_t before) {
  const auto now = anon_huge_bytes();
  out.context("anon_huge_delta_bytes",
              std::to_string(static_cast<long long>(now) - static_cast<long long>(before)));
  span sp("core.anon_huge");
  sp.attr("bytes", static_cast<double>(now));
}

void congestion_span(const skipweb::net::network& netw, std::uint64_t ops) {
  if (!tracer::get().on()) return;
  span sp("net.congestion_profile");
  const auto p = netw.congestion_profile();
  sp.attr("ops", static_cast<double>(ops));
  sp.attr("max_visits", static_cast<double>(p.max_visits));
  sp.attr("p99_visits", static_cast<double>(p.p99_visits));
}

void snapshot_samples::finish(result& out, std::size_t n) {
  out.metric("save_s", median(save_s), "s");
  out.metric("restart_ms", median(restart_ms), "ms");
  if (tracer::get().on()) {
    span sp("persist.snapshot_file");
    sp.attr("bytes", static_cast<double>(std::filesystem::file_size(path)));
    sp.attr("n", static_cast<double>(n));
    (void)checksum_gbps(path);
  }
  std::filesystem::remove(path);
}

double checksum_gbps(const std::string& path) {
  const int fd = ::open(path.c_str(), O_RDONLY);
  if (fd < 0) return 0.0;
  struct stat st {};
  if (::fstat(fd, &st) != 0 || st.st_size <= 0) {
    ::close(fd);
    return 0.0;
  }
  const auto bytes = static_cast<std::size_t>(st.st_size);
  void* p = ::mmap(nullptr, bytes, PROT_READ, MAP_PRIVATE, fd, 0);
  ::close(fd);
  if (p == MAP_FAILED) return 0.0;
  volatile std::uint64_t sink = skipweb::persist::checksum64(p, bytes);  // fault the pages in
  std::vector<double> secs;
  for (int rep = 0; rep < 3; ++rep) {
    span sp("persist.checksum64", rep);
    sp.attr("bytes", static_cast<double>(bytes));
    const auto t0 = now_ns();
    sink = sink + skipweb::persist::checksum64(p, bytes);
    secs.push_back(seconds_since(t0));
  }
  ::munmap(p, bytes);
  const double s = median(secs);
  return s > 0 ? static_cast<double>(bytes) / s * 1e-9 : 0.0;
}

void commit_cost(std::size_t hosts, std::size_t hops) {
  namespace net = skipweb::net;
  constexpr std::size_t ops = std::size_t{1} << 18;
  net::network netw(hosts);
  // A pool of distinct receipts, so commits do not hit one cache line set.
  std::vector<net::traffic_receipt> pool(256);
  auto r = skipweb::util::rng::stream(hosts, 7);
  for (auto& rc : pool) {
    for (std::size_t h = 0; h < std::max<std::size_t>(hops, 1); ++h) {
      rc.record(net::host_id{static_cast<std::uint32_t>(r.index(hosts))});
    }
  }
  {
    span sp("net.commit", 1);
    sp.attr("ops", static_cast<double>(ops)).attr("threads", 1);
    sp.attr("hops", static_cast<double>(hops));
    for (std::size_t i = 0; i < ops; ++i) netw.commit(pool[i & 255]);
  }
  skipweb::serve::executor ex(2);
  {
    span sp("net.commit", 2);
    sp.attr("ops", static_cast<double>(ops)).attr("threads", 2);
    sp.attr("hops", static_cast<double>(hops));
    ex.for_slices(ops, [&](std::size_t, std::size_t lo, std::size_t hi) {
      for (std::size_t i = lo; i < hi; ++i) netw.commit(pool[i & 255]);
    });
  }
}

std::size_t receipt_sum::median_messages() const {
  if (messages.empty()) return 0;
  std::vector<std::uint64_t> m = messages;
  std::nth_element(m.begin(), m.begin() + static_cast<std::ptrdiff_t>(m.size() / 2), m.end());
  return m[m.size() / 2];
}

void receipt_attrs(span& sp, const skipweb::api::op_stats& s, std::uint64_t ops) {
  sp.attr("ops", static_cast<double>(ops))
      .attr("messages", static_cast<double>(s.messages))
      .attr("visits", static_cast<double>(s.host_visits))
      .attr("comparisons", static_cast<double>(s.comparisons));
}

}  // namespace perfbench
