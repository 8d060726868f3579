#include "common/stats.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>

#include "common/contracts.hpp"

namespace graybox {

void Accumulator::add(double x) {
  if (samples_.empty()) {
    min_ = max_ = x;
  } else {
    if (x < min_) min_ = x;
    if (x > max_) max_ = x;
  }
  samples_.push_back(x);
  sum_ += x;
  const double n = static_cast<double>(samples_.size());
  const double delta = x - mean_;
  mean_ += delta / n;
  m2_ += delta * (x - mean_);
}

double Accumulator::mean() const { return empty() ? 0.0 : mean_; }

double Accumulator::stddev() const {
  if (count() < 2) return 0.0;
  return std::sqrt(m2_ / static_cast<double>(count() - 1));
}

double Accumulator::min() const { return empty() ? 0.0 : min_; }

double Accumulator::max() const { return empty() ? 0.0 : max_; }

double Accumulator::percentile(double q) const {
  GBX_EXPECTS(q >= 0.0 && q <= 100.0);
  if (samples_.empty()) return 0.0;
  std::vector<double> sorted = samples_;
  std::sort(sorted.begin(), sorted.end());
  // Nearest-rank: smallest sample such that at least q% of samples are <= it.
  const double rank = q / 100.0 * static_cast<double>(sorted.size());
  std::size_t idx = static_cast<std::size_t>(std::ceil(rank));
  if (idx > 0) --idx;
  if (idx >= sorted.size()) idx = sorted.size() - 1;
  return sorted[idx];
}

std::string mean_pm_stddev(const Accumulator& acc, int precision) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.*f ± %.*f", precision, acc.mean(),
                precision, acc.stddev());
  return buf;
}

}  // namespace graybox
