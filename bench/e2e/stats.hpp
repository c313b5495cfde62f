#pragma once

#include <algorithm>
#include <cstddef>
#include <vector>

namespace raidsim_bench {

/// Median and quartiles of a sample. The quartiles follow Python's
/// statistics.quantiles(values, n=4) (the default "exclusive" method), so
/// the spreads this binary prints are the ones compare.py and an outside
/// harness compute from the same values.
struct Summary {
  double median = 0.0;
  double q1 = 0.0;
  double q3 = 0.0;
  std::size_t n = 0;
};

inline double median_of_sorted(const std::vector<double>& v) {
  const std::size_t n = v.size();
  if (n == 0) return 0.0;
  return n % 2 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2.0;
}

inline Summary summarize(std::vector<double> values) {
  Summary s;
  s.n = values.size();
  if (values.empty()) return s;
  std::sort(values.begin(), values.end());
  s.median = median_of_sorted(values);
  if (values.size() == 1) {
    s.q1 = s.q3 = values[0];
    return s;
  }
  // Exclusive method: the i-th cut point sits at position i*(n+1)/4
  // (1-based), interpolated between its neighbours -- written exactly as
  // CPython does it, so the results agree to the last bit.
  const auto count = static_cast<long>(values.size());
  auto cut = [&](long i) {
    const long j = std::clamp(i * (count + 1) / 4, 1L, count - 1);
    const long delta = i * (count + 1) - j * 4;
    const double lo = values[static_cast<std::size_t>(j - 1)];
    const double hi = values[static_cast<std::size_t>(j)];
    return (lo * static_cast<double>(4 - delta) +
            hi * static_cast<double>(delta)) / 4.0;
  };
  s.q1 = cut(1);
  s.q3 = cut(3);
  return s;
}

}  // namespace raidsim_bench
