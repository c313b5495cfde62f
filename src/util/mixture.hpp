#pragma once

#include <vector>

#include "util/rng.hpp"

namespace raidsim {

/// Weighted mixture of log-normal components, used to model LRU
/// stack-distance distributions in the synthetic trace generator.
/// Exposes both sampling and an analytic CDF so calibration targets
/// (paper hit-ratio curves) can be asserted in tests.
class LognormalMixture {
 public:
  struct Component {
    double weight;  // relative weight, need not be normalised
    double median;  // exp(mu)
    double sigma;   // log-space standard deviation
  };

  explicit LognormalMixture(std::vector<Component> components);

  double sample(Rng& rng) const;

  /// P(X <= x).
  double cdf(double x) const;

  const std::vector<Component>& components() const { return components_; }

 private:
  std::vector<Component> components_;
  std::vector<double> cum_weight_;  // normalised cumulative weights
  std::vector<double> log_median_;  // log(median) per component (mu)
};

}  // namespace raidsim
