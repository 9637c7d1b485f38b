/**
 * @file
 * Deterministic pseudo-random number generation and distributions.
 *
 * A small xoshiro256++ generator is used instead of std::mt19937 for speed
 * and reproducibility across standard libraries; distribution sampling is
 * implemented here (not via <random> distributions) so results are
 * bit-identical on every platform for a fixed seed.
 */
#ifndef HERACLES_SIM_RANDOM_H
#define HERACLES_SIM_RANDOM_H

#include <cmath>
#include <cstdint>

namespace heracles::sim {

/**
 * xoshiro256++ pseudo-random generator (Blackman & Vigna).
 *
 * Seeded via SplitMix64 so that any 64-bit seed (including 0) produces a
 * well-mixed state.
 */
class Rng
{
  public:
    explicit Rng(uint64_t seed = 0x9E3779B97F4A7C15ull) { Seed(seed); }

    /** Re-seeds the generator. */
    void Seed(uint64_t seed);

    /** Next raw 64-bit value. */
    uint64_t Next64();

    /** Uniform double in [0, 1). */
    double Uniform01();

    /** Uniform double in [lo, hi). */
    double Uniform(double lo, double hi) {
        return lo + (hi - lo) * Uniform01();
    }

    /** Uniform integer in [0, n). @pre n > 0. */
    uint64_t UniformInt(uint64_t n) { return Next64() % n; }

    /** Exponential with mean @p mean (> 0). Never returns exactly 0. */
    double Exponential(double mean);

    /**
     * Log-normal with given mean and sigma of the *underlying normal scaled
     * so the distribution mean equals @p mean*. This is the canonical heavy-
     * tailed service-time distribution used by the LC workload models.
     */
    double LogNormalWithMean(double mean, double sigma);

    /** Standard normal via Box-Muller (cached second value). */
    double Normal(double mean, double stddev);

    /** Bernoulli trial with probability @p p. */
    bool Bernoulli(double p) { return Uniform01() < p; }

  private:
    uint64_t s_[4];
    double cached_normal_ = 0.0;
    bool has_cached_normal_ = false;
};

}  // namespace heracles::sim

#endif  // HERACLES_SIM_RANDOM_H
