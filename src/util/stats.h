#pragma once

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <limits>
#include <vector>

#include "util/sw_assert.h"

namespace skipweb::util {

// Streaming accumulator (Welford) for the message/memory/congestion counters
// reported by tests and benches.
class accumulator {
 public:
  void add(double x) {
    ++count_;
    const double delta = x - mean_;
    mean_ += delta / static_cast<double>(count_);
    m2_ += delta * (x - mean_);
    min_ = std::min(min_, x);
    max_ = std::max(max_, x);
    sum_ += x;
  }

  [[nodiscard]] std::uint64_t count() const { return count_; }
  [[nodiscard]] double mean() const { return count_ ? mean_ : 0.0; }
  [[nodiscard]] double sum() const { return sum_; }
  [[nodiscard]] double min() const { return count_ ? min_ : 0.0; }
  [[nodiscard]] double max() const { return count_ ? max_ : 0.0; }
  [[nodiscard]] double variance() const {
    return count_ > 1 ? m2_ / static_cast<double>(count_ - 1) : 0.0;
  }
  [[nodiscard]] double stddev() const { return std::sqrt(variance()); }

 private:
  std::uint64_t count_ = 0;
  double mean_ = 0.0;
  double m2_ = 0.0;
  double sum_ = 0.0;
  double min_ = std::numeric_limits<double>::infinity();
  double max_ = -std::numeric_limits<double>::infinity();
};

// Pearson correlation; ~1.0 indicates the cost curve matches the model curve.
inline double correlation(const std::vector<double>& xs, const std::vector<double>& ys) {
  SW_EXPECTS(xs.size() == ys.size() && xs.size() >= 2);
  accumulator ax, ay;
  for (double x : xs) ax.add(x);
  for (double y : ys) ay.add(y);
  double cov = 0;
  for (std::size_t i = 0; i < xs.size(); ++i) cov += (xs[i] - ax.mean()) * (ys[i] - ay.mean());
  cov /= static_cast<double>(xs.size() - 1);
  const double denom = ax.stddev() * ay.stddev();
  if (denom < 1e-12) return 0.0;
  return cov / denom;
}

// The 1-D skip-web / NoN model curve log n / log log n (base 2).
inline double log_over_loglog(double n) {
  const double l = std::log2(n);
  return l / std::max(1.0, std::log2(l));
}

}  // namespace skipweb::util
