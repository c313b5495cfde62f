#include "util/mixture.hpp"

#include <cmath>
#include <stdexcept>

namespace raidsim {

namespace {
double normal_cdf(double z) { return 0.5 * std::erfc(-z / std::sqrt(2.0)); }
}  // namespace

LognormalMixture::LognormalMixture(std::vector<Component> components)
    : components_(std::move(components)) {
  if (components_.empty())
    throw std::invalid_argument("LognormalMixture: no components");
  double total = 0.0;
  for (const auto& c : components_) {
    if (c.weight < 0.0 || c.median <= 0.0 || c.sigma <= 0.0)
      throw std::invalid_argument("LognormalMixture: bad component");
    total += c.weight;
  }
  if (total <= 0.0) throw std::invalid_argument("LognormalMixture: zero weight");
  double cum = 0.0;
  cum_weight_.reserve(components_.size());
  log_median_.reserve(components_.size());
  for (const auto& c : components_) {
    cum += c.weight / total;
    cum_weight_.push_back(cum);
    log_median_.push_back(std::log(c.median));
  }
  cum_weight_.back() = 1.0;
}

double LognormalMixture::sample(Rng& rng) const {
  const double u = rng.uniform();
  std::size_t i = 0;
  while (i + 1 < cum_weight_.size() && u >= cum_weight_[i]) ++i;
  return rng.lognormal(log_median_[i], components_[i].sigma);
}

double LognormalMixture::cdf(double x) const {
  if (x <= 0.0) return 0.0;
  double cdf = 0.0;
  double prev = 0.0;
  for (std::size_t i = 0; i < components_.size(); ++i) {
    const double w = cum_weight_[i] - prev;
    prev = cum_weight_[i];
    cdf += w * normal_cdf((std::log(x) - log_median_[i]) /
                          components_[i].sigma);
  }
  return cdf;
}

}  // namespace raidsim
