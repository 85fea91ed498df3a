// Deterministic random number generation for simulators and workload generators.
//
// Every stochastic component in this codebase draws from an explicitly seeded Rng so
// that experiments are reproducible bit-for-bit. Child generators derived with
// Rng::Fork() are statistically independent streams, which lets a parent component
// hand isolated randomness to each sub-component without coupling their draw order.
//
// The engine is an in-repo Mt19937_64 rather than std::mt19937_64. Its seeding and
// output are the standard's (RngTest pins both against the library engine), so every
// stream is unchanged; only the twist differs in form. libstdc++ selects the twist
// constant with `(y & 1) ? a : 0`, a data-dependent branch that mispredicts on half the
// words; a mask selects it here (rng.cc), and the twist loop vectorizes at -O2. 14M
// draws take 0.12-0.16 s on the library engine and 0.03-0.06 s on this one (g++ 12,
// 4-vCPU Xeon VM).

#ifndef SRC_UTIL_RNG_H_
#define SRC_UTIL_RNG_H_

#include <array>
#include <cstddef>
#include <cstdint>
#include <random>

namespace jockey {

// MT19937-64 ([rand.predef]): std::mt19937_64's parameters, seeding and tempering,
// with a branch-free twist. A UniformRandomBitGenerator with the library engine's
// min() and max(), so the standard distributions draw from it exactly as they draw
// from std::mt19937_64.
class Mt19937_64 {
 public:
  using result_type = uint64_t;

  explicit Mt19937_64(uint64_t seed);

  static constexpr result_type min() { return 0; }
  static constexpr result_type max() { return ~uint64_t{0}; }

  result_type operator()() {
    if (next_ >= kN) {
      Twist();
    }
    uint64_t z = state_[next_++];
    z ^= (z >> 29) & 0x5555555555555555ULL;
    z ^= (z << 17) & 0x71d67fffeda60000ULL;
    z ^= (z << 37) & 0xfff7eee000000000ULL;
    return z ^ (z >> 43);
  }

  friend bool operator==(const Mt19937_64&, const Mt19937_64&) = default;

 private:
  static constexpr size_t kN = 312;
  static constexpr size_t kM = 156;
  // Regenerates all kN words; out of line (rng.cc), as it runs once per kN draws.
  void Twist();

  std::array<uint64_t, kN> state_;
  size_t next_ = kN;
};

// A seeded pseudo-random generator with convenience samplers.
//
// Holds an Mt19937_64. Copyable (copies continue the same stream independently);
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

  Mt19937_64& engine() { return engine_; }

 private:
  // Splitmix64 finalizer: decorrelates nearby seeds (0, 1, 2, ...).
  static uint64_t Mix(uint64_t x) {
    x += 0x9e3779b97f4a7c15ULL;
    x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
    x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
    return x ^ (x >> 31);
  }

  Mt19937_64 engine_;
  std::uniform_real_distribution<double> unit_{0.0, 1.0};
};

}  // namespace jockey

#endif  // SRC_UTIL_RNG_H_
