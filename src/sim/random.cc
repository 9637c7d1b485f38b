#include "sim/random.h"

#include "sim/log.h"

namespace heracles::sim {
namespace {

inline uint64_t
SplitMix64(uint64_t& x)
{
    x += 0x9E3779B97F4A7C15ull;
    uint64_t z = x;
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
    z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
    return z ^ (z >> 31);
}

inline uint64_t
Rotl(uint64_t x, int k)
{
    return (x << k) | (x >> (64 - k));
}

}  // namespace

void
Rng::Seed(uint64_t seed)
{
    uint64_t sm = seed;
    for (auto& s : s_) s = SplitMix64(sm);
    has_cached_normal_ = false;
}

uint64_t
Rng::Next64()
{
    const uint64_t result = Rotl(s_[0] + s_[3], 23) + s_[0];
    const uint64_t t = s_[1] << 17;
    s_[2] ^= s_[0];
    s_[3] ^= s_[1];
    s_[1] ^= s_[2];
    s_[0] ^= s_[3];
    s_[2] ^= t;
    s_[3] = Rotl(s_[3], 45);
    return result;
}

double
Rng::Uniform01()
{
    // 53 high bits -> double in [0, 1).
    return static_cast<double>(Next64() >> 11) * 0x1.0p-53;
}

double
Rng::Exponential(double mean)
{
    HERACLES_CHECK_MSG(mean > 0, "exponential mean must be > 0: " << mean);
    double u = Uniform01();
    if (u <= 0.0) u = 0x1.0p-53;
    return -mean * std::log(u);
}

double
Rng::Normal(double mean, double stddev)
{
    if (has_cached_normal_) {
        has_cached_normal_ = false;
        return mean + stddev * cached_normal_;
    }
    double u1 = Uniform01();
    if (u1 <= 0.0) u1 = 0x1.0p-53;
    const double u2 = Uniform01();
    const double r = std::sqrt(-2.0 * std::log(u1));
    const double theta = 2.0 * M_PI * u2;
    cached_normal_ = r * std::sin(theta);
    has_cached_normal_ = true;
    return mean + stddev * r * std::cos(theta);
}

double
Rng::LogNormalWithMean(double mean, double sigma)
{
    HERACLES_CHECK_MSG(mean > 0, "lognormal mean must be > 0: " << mean);
    // If X = exp(N(mu, sigma)), E[X] = exp(mu + sigma^2/2). Choose mu so
    // that E[X] == mean.
    const double mu = std::log(mean) - 0.5 * sigma * sigma;
    return std::exp(Normal(mu, sigma));
}

}  // namespace heracles::sim
