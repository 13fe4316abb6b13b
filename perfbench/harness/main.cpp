// Benchmark harness: runs one workload for one seed and prints its
// end-to-end metrics, checked against an oracle, as one JSON line. Usually
// driven by ../run.py, which builds it and shapes the output; see
// ../README.md for the workloads and metrics.
//
//   perfbench_harness --workload lookup_1m --seed 3 --seconds 10
//                     [--trace 0|1 --spans out.tsv] [--snapshot-dir dir]
//                     [--scale k] [--inject-wrong-answer]

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <thread>

#include "common.h"
#include "util/sw_assert.h"

namespace perfbench {
void run_lookup(const args& a, result& out);
void run_churn(const args& a, result& out);
void run_spatial(const args& a, result& out);
}  // namespace perfbench

namespace {

[[noreturn]] void usage(const char* msg) {
  std::fprintf(stderr,
               "%s\nusage: perfbench_harness --workload lookup_1m|churn_zipf_16k|spatial_2d_128k "
               "--seed N --seconds S [--trace 0|1 --spans PATH] [--snapshot-dir DIR] "
               "[--scale K] [--inject-wrong-answer]\n",
               msg);
  std::exit(2);
}

perfbench::args parse(int argc, char** argv) {
  perfbench::args a;
  for (int i = 1; i < argc; ++i) {
    const std::string k = argv[i];
    auto next = [&]() -> std::string {
      if (i + 1 >= argc) usage(("missing value for " + k).c_str());
      return argv[++i];
    };
    if (k == "--workload") {
      a.workload = next();
    } else if (k == "--seed") {
      a.seed = std::stoull(next());
    } else if (k == "--seconds") {
      a.seconds = std::stod(next());
    } else if (k == "--trace") {
      a.trace = next() == "1";
    } else if (k == "--spans") {
      a.spans_path = next();
    } else if (k == "--snapshot-dir") {
      a.snapshot_dir = next();
    } else if (k == "--scale") {
      a.scale = std::stoi(next());
    } else if (k == "--inject-wrong-answer") {
      a.inject_wrong_answer = true;
    } else {
      usage(("unknown argument " + k).c_str());
    }
  }
  if (a.seconds <= 0) usage("--seconds must be positive");
  if (a.scale < 0 || a.scale > 12) usage("--scale must be in [0, 12]");
  if (a.trace && a.spans_path.empty()) usage("--trace 1 needs --spans");
  return a;
}

}  // namespace

int main(int argc, char** argv) {
#if SW_CONTRACTS
  std::fprintf(stderr, "refusing to report: built with SW_CONTRACTS=1\n");
  return 3;
#endif
  const auto a = parse(argc, argv);
  if (a.trace) perfbench::tracer::get().enable();

  perfbench::result out;
  out.context("seed", std::to_string(a.seed));
  out.context("hardware_concurrency", std::to_string(std::thread::hardware_concurrency()));
#ifdef NDEBUG
  out.context("ndebug", "true");
#else
  out.context("ndebug", "false");
#endif
  out.context("sw_contracts", std::to_string(SW_CONTRACTS));
  out.context("scale", std::to_string(a.scale));

  try {
    if (a.workload == "lookup_1m") {
      perfbench::run_lookup(a, out);
    } else if (a.workload == "churn_zipf_16k") {
      perfbench::run_churn(a, out);
    } else if (a.workload == "spatial_2d_128k") {
      perfbench::run_spatial(a, out);
    } else {
      usage(("unknown workload " + a.workload).c_str());
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "harness error: %s\n", e.what());
    return 1;
  }
  if (a.trace && !perfbench::tracer::get().write(a.spans_path)) {
    std::fprintf(stderr, "could not write spans to %s\n", a.spans_path.c_str());
    return 1;
  }
  std::printf("%s\n", out.to_json().c_str());
  return out.failed() == 0 ? 0 : 4;
}
