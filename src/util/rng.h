// Deterministic random number generation for simulators and workload generators.
//
// Every stochastic component in this codebase draws from an explicitly seeded Rng so
// that experiments are reproducible bit-for-bit. Child generators derived with
// Rng::Fork() are statistically independent streams, which lets a parent component
// hand isolated randomness to each sub-component without coupling their draw order.

#ifndef SRC_UTIL_RNG_H_
#define SRC_UTIL_RNG_H_

#include <cstdint>
#include <random>

namespace jockey {

// A seeded pseudo-random generator with convenience samplers.
//
// Wraps std::mt19937_64. Copyable (copies continue the same stream independently);
// prefer Fork() when independence is wanted.
class Rng {
 public:
  explicit Rng(uint64_t seed) : engine_(Mix(seed)) {}

  // Returns a new generator seeded from this one; the two streams are independent.
  //
  // NOTE: forked streams are *order-dependent* — the k-th Fork() of a parent differs
  // from the (k+1)-th. Components that fan work across threads must instead derive
  // per-task generators with CounterSeed(), which depends only on the task's logical
  // coordinates and therefore yields the same stream for any execution order.
  Rng Fork() { return Rng(engine_()); }

  // A counter-based seed for task (a, b) under `base`: order-independent, so serial
  // and parallel executions that agree on task coordinates draw identical streams.
  // Mixes each word through splitmix64 so nearby coordinates decorrelate.
  static uint64_t CounterSeed(uint64_t base, uint64_t a, uint64_t b) {
    return Mix(Mix(Mix(base) ^ (a + 0x9e3779b97f4a7c15ULL)) ^ (b + 0x7f4a7c159e3779b9ULL));
  }

  // Uniform double in [0, 1).
  double Uniform() { return unit_(engine_); }

  // Uniform double in [lo, hi).
  double Uniform(double lo, double hi) { return lo + (hi - lo) * Uniform(); }

  // Uniform integer in [lo, hi] (inclusive). Requires lo <= hi.
  int64_t UniformInt(int64_t lo, int64_t hi) {
    return std::uniform_int_distribution<int64_t>(lo, hi)(engine_);
  }

  // True with probability p (clamped to [0, 1]).
  bool Bernoulli(double p) {
    if (p <= 0.0) {
      return false;
    }
    if (p >= 1.0) {
      return true;
    }
    return Uniform() < p;
  }

  // Normal with the given mean and standard deviation (>= 0; 0 returns the mean).
  // Scales a standard draw with the same arithmetic libstdc++'s
  // normal_distribution(mean, stddev) applies, so the stream is unchanged, without
  // that constructor's stddev > 0 precondition.
  double Normal(double mean, double stddev) {
    return std::normal_distribution<double>()(engine_) * stddev + mean;
  }

  // Log-normal parameterized by the underlying normal's mu and sigma.
  double LogNormal(double mu, double sigma) {
    return std::lognormal_distribution<double>(mu, sigma)(engine_);
  }

  // Exponential with the given mean (not rate). Requires mean > 0.
  double Exponential(double mean) {
    return std::exponential_distribution<double>(1.0 / mean)(engine_);
  }

  // Pareto with scale x_m > 0 and shape alpha > 0. Heavy-tailed; used for outliers.
  double Pareto(double x_m, double alpha) {
    double u = 1.0 - Uniform();  // in (0, 1]
    return x_m * std::pow(u, -1.0 / alpha);
  }

  std::mt19937_64& engine() { return engine_; }

 private:
  // Splitmix64 finalizer: decorrelates nearby seeds (0, 1, 2, ...).
  static uint64_t Mix(uint64_t x) {
    x += 0x9e3779b97f4a7c15ULL;
    x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
    x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
    return x ^ (x >> 31);
  }

  std::mt19937_64 engine_;
  std::uniform_real_distribution<double> unit_{0.0, 1.0};
};

}  // namespace jockey

#endif  // SRC_UTIL_RNG_H_
