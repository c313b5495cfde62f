// Checks the quartile helper against values computed by hand with
// Python's statistics.quantiles(values, n=4) and statistics.median.
#include <cmath>
#include <cstdio>
#include <vector>

#include "stats.hpp"

namespace {

int failures = 0;

void expect(const char* label, std::vector<double> values, double q1,
            double median, double q3) {
  const raidsim_bench::Summary s = raidsim_bench::summarize(std::move(values));
  auto near = [](double a, double b) { return std::fabs(a - b) <= 1e-12; };
  if (!near(s.q1, q1) || !near(s.median, median) || !near(s.q3, q3)) {
    std::fprintf(stderr, "%s: got q1=%.15g median=%.15g q3=%.15g, "
                 "want %.15g %.15g %.15g\n",
                 label, s.q1, s.median, s.q3, q1, median, q3);
    ++failures;
  }
}

}  // namespace

int main() {
  // quantiles([1,2,3,4,5,6,7,8,9,10], n=4) == [2.75, 5.5, 8.25]
  expect("ten", {10, 1, 9, 2, 8, 3, 7, 4, 6, 5}, 2.75, 5.5, 8.25);
  // quantiles([1,2,3,4], n=4) == [1.25, 2.5, 3.75]
  expect("four", {4, 3, 2, 1}, 1.25, 2.5, 3.75);
  // quantiles([1,2,3,4,5], n=4) == [1.5, 3.0, 4.5]
  expect("five", {5, 1, 4, 2, 3}, 1.5, 3.0, 4.5);
  // Two points clamp to the ends and extrapolate:
  // quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
  expect("two", {2, 1}, 0.75, 1.5, 2.25);
  // quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
  expect("three", {3, 1, 2}, 1.0, 2.0, 3.0);
  // Uneven gaps: quantiles([1, 2, 4, 8, 16, 32, 64], n=4) == [2, 8, 32]
  expect("powers", {64, 1, 32, 2, 16, 4, 8}, 2.0, 8.0, 32.0);
  // One sample has no spread.
  expect("one", {7.5}, 7.5, 7.5, 7.5);
  if (failures == 0) std::puts("quartiles: all fixtures match");
  return failures == 0 ? 0 : 1;
}
