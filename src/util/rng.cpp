#include "util/rng.hpp"

#include <cassert>
#include <cmath>
#include <numbers>
#include <stdexcept>

namespace raidsim {

namespace {

std::uint64_t splitmix64(std::uint64_t& x) {
  x += 0x9e3779b97f4a7c15ULL;
  std::uint64_t z = x;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

std::uint64_t rotl(std::uint64_t x, int k) { return (x << k) | (x >> (64 - k)); }

}  // namespace

Rng::Rng(std::uint64_t seed) {
  std::uint64_t sm = seed;
  for (auto& s : s_) s = splitmix64(sm);
}

std::uint64_t Rng::next_u64() {
  const std::uint64_t result = rotl(s_[1] * 5, 7) * 9;
  const std::uint64_t t = s_[1] << 17;
  s_[2] ^= s_[0];
  s_[3] ^= s_[1];
  s_[1] ^= s_[2];
  s_[0] ^= s_[3];
  s_[2] ^= t;
  s_[3] = rotl(s_[3], 45);
  return result;
}

double Rng::uniform() {
  // 53 random bits into [0, 1).
  return static_cast<double>(next_u64() >> 11) * 0x1.0p-53;
}

double Rng::uniform(double lo, double hi) { return lo + (hi - lo) * uniform(); }

std::uint64_t Rng::uniform_u64(std::uint64_t n) {
  assert(n > 0);
  // Lemire's nearly-divisionless bounded generation.
  std::uint64_t x = next_u64();
  __uint128_t m = static_cast<__uint128_t>(x) * n;
  auto lo = static_cast<std::uint64_t>(m);
  if (lo < n) {
    const std::uint64_t threshold = -n % n;
    while (lo < threshold) {
      x = next_u64();
      m = static_cast<__uint128_t>(x) * n;
      lo = static_cast<std::uint64_t>(m);
    }
  }
  return static_cast<std::uint64_t>(m >> 64);
}

std::int64_t Rng::uniform_i64(std::int64_t lo, std::int64_t hi) {
  assert(lo <= hi);
  const auto span = static_cast<std::uint64_t>(hi - lo) + 1;
  return lo + static_cast<std::int64_t>(uniform_u64(span));
}

bool Rng::bernoulli(double p) { return uniform() < p; }

double Rng::exponential(double mean) {
  double u;
  do {
    u = uniform();
  } while (u <= 0.0);
  return -mean * std::log(u);
}

double Rng::normal(double mean, double stddev) {
  double u1;
  do {
    u1 = uniform();
  } while (u1 <= 0.0);
  const double u2 = uniform();
  const double r = std::sqrt(-2.0 * std::log(u1));
  return mean + stddev * r * std::cos(2.0 * std::numbers::pi * u2);
}

double Rng::lognormal(double mu, double sigma) { return std::exp(normal(mu, sigma)); }

std::uint64_t Rng::geometric(double p) {
  assert(p > 0.0 && p <= 1.0);
  if (p >= 1.0) return 1;
  double u;
  do {
    u = uniform();
  } while (u <= 0.0);
  const double k = std::ceil(std::log(u) / std::log1p(-p));
  return k < 1.0 ? 1 : static_cast<std::uint64_t>(k);
}

Rng Rng::split() { return Rng(next_u64()); }

ZipfSampler::ZipfSampler(std::uint64_t n, double theta) : n_(n), theta_(theta) {
  if (n == 0) throw std::invalid_argument("ZipfSampler: n must be > 0");
  if (theta < 0.0 || theta >= 1.0)
    throw std::invalid_argument("ZipfSampler: theta must be in [0, 1)");
  auto zeta = [theta](std::uint64_t count) {
    double sum = 0.0;
    for (std::uint64_t i = 1; i <= count; ++i) sum += 1.0 / std::pow(static_cast<double>(i), theta);
    return sum;
  };
  zeta_n_ = zeta(n);
  zeta_theta_ = zeta(2);
  alpha_ = 1.0 / (1.0 - theta);
  half_pow_theta_ = std::pow(0.5, theta);
  eta_ = (1.0 - std::pow(2.0 / static_cast<double>(n), 1.0 - theta)) /
         (1.0 - zeta_theta_ / zeta_n_);
}

std::uint64_t ZipfSampler::sample(Rng& rng) const {
  // Classic Jim Gray "quick and dirty" Zipf sampler.
  const double u = rng.uniform();
  const double uz = u * zeta_n_;
  if (uz < 1.0) return 0;
  if (uz < 1.0 + half_pow_theta_) return 1;
  const auto rank = static_cast<std::uint64_t>(
      static_cast<double>(n_) * std::pow(eta_ * u - eta_ + 1.0, alpha_));
  return rank >= n_ ? n_ - 1 : rank;
}

double ZipfSampler::probability(std::uint64_t k) const {
  return 1.0 / (std::pow(static_cast<double>(k + 1), theta_) * zeta_n_);
}

AliasSampler::AliasSampler(const std::vector<double>& weights) {
  const std::size_t n = weights.size();
  if (n == 0) throw std::invalid_argument("AliasSampler: empty weights");
  double total = 0.0;
  for (double w : weights) {
    if (w < 0.0) throw std::invalid_argument("AliasSampler: negative weight");
    total += w;
  }
  if (total <= 0.0) throw std::invalid_argument("AliasSampler: zero total weight");

  norm_.resize(n);
  prob_.resize(n);
  alias_.assign(n, 0);
  std::vector<double> scaled(n);
  for (std::size_t i = 0; i < n; ++i) {
    norm_[i] = weights[i] / total;
    scaled[i] = norm_[i] * static_cast<double>(n);
  }

  std::vector<std::uint32_t> small, large;
  small.reserve(n);
  large.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    (scaled[i] < 1.0 ? small : large).push_back(static_cast<std::uint32_t>(i));
  }
  while (!small.empty() && !large.empty()) {
    const std::uint32_t s = small.back();
    small.pop_back();
    const std::uint32_t l = large.back();
    prob_[s] = scaled[s];
    alias_[s] = l;
    scaled[l] = scaled[l] + scaled[s] - 1.0;
    if (scaled[l] < 1.0) {
      large.pop_back();
      small.push_back(l);
    }
  }
  for (std::uint32_t i : large) prob_[i] = 1.0;
  for (std::uint32_t i : small) prob_[i] = 1.0;
}

std::size_t AliasSampler::sample(Rng& rng) const {
  const std::size_t i = static_cast<std::size_t>(rng.uniform_u64(prob_.size()));
  return rng.uniform() < prob_[i] ? i : alias_[i];
}

double AliasSampler::probability(std::size_t i) const { return norm_.at(i); }

}  // namespace raidsim
