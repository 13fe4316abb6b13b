// Files a test writes into gtest's temp dir (snapshots, saved tables). Each
// path is named after the running test, so tests that run in parallel
// processes never share a file, and its file is removed when that test
// ends, passed or failed, so a suite run leaves nothing behind.

#pragma once

#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <string>
#include <system_error>
#include <vector>

namespace skipweb::testing_support {

// Removes, as each test ends, every path the test asked for.
class remove_at_test_end : public ::testing::EmptyTestEventListener {
 public:
  void OnTestEnd(const ::testing::TestInfo&) override {
    for (const auto& p : paths) {
      std::error_code ec;
      std::filesystem::remove(p, ec);
    }
    paths.clear();
  }

  std::vector<std::filesystem::path> paths;
};

// "<temp dir>/skipweb_<Suite>.<Test>_<name>.snap", removed on the way in so
// build-or-restore tests start from a clean slate, and again when the test
// ends.
inline std::string snap_path(const std::string& name) {
  // gtest owns the listener once appended, and calls it for every test that
  // ends after this first call.
  static auto* const cleaner = [] {
    auto* l = new remove_at_test_end;
    ::testing::UnitTest::GetInstance()->listeners().Append(l);
    return l;
  }();
  const auto* info = ::testing::UnitTest::GetInstance()->current_test_info();
  std::string test = std::string(info->test_suite_name()) + "." + info->name();
  std::replace(test.begin(), test.end(), '/', '_');
  const auto p =
      std::filesystem::path(::testing::TempDir()) / ("skipweb_" + test + "_" + name + ".snap");
  std::error_code ec;
  std::filesystem::remove(p, ec);
  cleaner->paths.push_back(p);
  return p.string();
}

// The whole file at `path` (empty when it cannot be read).
inline std::vector<char> file_bytes(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return {std::istreambuf_iterator<char>(in), std::istreambuf_iterator<char>()};
}

}  // namespace skipweb::testing_support
