#pragma once

#include <cstdint>
#include <vector>

namespace raidsim {

/// Deterministic pseudo-random number generator (xoshiro256** core,
/// splitmix64 seeding). All stochastic behaviour in raidsim flows through
/// this class so that simulations are exactly reproducible from a seed.
class Rng {
 public:
  explicit Rng(std::uint64_t seed = 0x9e3779b97f4a7c15ULL);

  /// Next raw 64-bit value.
  std::uint64_t next_u64();

  /// Uniform double in [0, 1).
  double uniform();

  /// Uniform double in [lo, hi).
  double uniform(double lo, double hi);

  /// Uniform integer in [0, n). n must be > 0.
  std::uint64_t uniform_u64(std::uint64_t n);

  /// Uniform integer in [lo, hi] inclusive.
  std::int64_t uniform_i64(std::int64_t lo, std::int64_t hi);

  /// Bernoulli trial with success probability p.
  bool bernoulli(double p);

  /// Exponentially distributed value with the given mean.
  double exponential(double mean);

  /// Normally distributed value (Box-Muller).
  double normal(double mean, double stddev);

  /// Log-normally distributed value: exp(N(mu, sigma)).
  double lognormal(double mu, double sigma);

  /// Geometric number of trials >= 1 with success probability p.
  std::uint64_t geometric(double p);

  /// Spawn an independent stream (useful for giving each sub-component
  /// its own generator while keeping global determinism).
  Rng split();

 private:
  std::uint64_t s_[4];
};

/// Zipf(theta) sampler over {0, ..., n-1} using Gray's bounded-Pareto style
/// inversion approximation (exact for theta == 0, standard approximation
/// otherwise). Rank 0 is the most popular item.
class ZipfSampler {
 public:
  ZipfSampler(std::uint64_t n, double theta);

  std::uint64_t sample(Rng& rng) const;

  std::uint64_t size() const { return n_; }
  double theta() const { return theta_; }

  /// Exact probability of rank k (computed from the harmonic
  /// normalisation, O(1) after construction).
  double probability(std::uint64_t k) const;

 private:
  std::uint64_t n_;
  double theta_;
  double alpha_;  // 1 / (1 - theta)
  double zeta_n_;
  double eta_;
  double zeta_theta_;  // zeta(2, theta) in the classic formulation
  double half_pow_theta_;  // 0.5^theta: the rank-1 threshold of sample()
};

/// Sampler for an arbitrary discrete distribution given unnormalised
/// weights, using Walker's alias method: O(n) setup, O(1) sampling.
class AliasSampler {
 public:
  explicit AliasSampler(const std::vector<double>& weights);

  std::size_t sample(Rng& rng) const;

  std::size_t size() const { return prob_.size(); }
  double probability(std::size_t i) const;

 private:
  std::vector<double> prob_;
  std::vector<std::uint32_t> alias_;
  std::vector<double> norm_;  // normalised input weights
};

}  // namespace raidsim
