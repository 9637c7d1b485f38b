#include "sim/trace.h"

#include <algorithm>
#include <cmath>

#include "sim/log.h"

namespace heracles::sim {

StepTrace::StepTrace(std::vector<Step> steps) : steps_(std::move(steps))
{
    HERACLES_CHECK_MSG(!steps_.empty(), "StepTrace needs at least one step");
    HERACLES_CHECK_MSG(steps_.front().start == 0,
                       "first step must start at t=0");
    for (size_t i = 1; i < steps_.size(); ++i) {
        HERACLES_CHECK_MSG(steps_[i].start > steps_[i - 1].start,
                           "steps must be strictly increasing in time");
    }
}

double
StepTrace::LoadAt(SimTime t) const
{
    // Last step whose start <= t.
    auto it = std::upper_bound(
        steps_.begin(), steps_.end(), t,
        [](SimTime v, const Step& s) { return v < s.start; });
    return std::prev(it)->load;
}

DiurnalTrace::DiurnalTrace(Duration length, double low, double high,
                           double jitter, uint64_t seed)
    : length_(length), low_(low), high_(high), jitter_(jitter)
{
    HERACLES_CHECK(length > 0);
    HERACLES_CHECK(low >= 0.0 && high <= 1.0 && low < high);
    Rng rng(seed);
    const size_t minutes =
        static_cast<size_t>(ToSeconds(length) / 60.0) + 2;
    noise_.reserve(minutes);
    double n = 0.0;
    for (size_t i = 0; i < minutes; ++i) {
        // A clipped random walk gives smoothly-varying jitter rather than
        // white noise.
        n = std::clamp(n + rng.Uniform(-jitter_, jitter_), -jitter_, jitter_);
        noise_.push_back(n);
    }
}

double
DiurnalTrace::LoadAt(SimTime t) const
{
    const double x =
        std::clamp(ToSeconds(t) / ToSeconds(length_), 0.0, 1.0);
    // Cosine valley: starts at `high`, dips to `low` mid-trace, recovers.
    const double base =
        low_ + (high_ - low_) * (0.5 + 0.5 * std::cos(2.0 * M_PI * x));
    const size_t minute =
        std::min(noise_.size() - 1,
                 static_cast<size_t>(ToSeconds(t) / 60.0));
    return std::clamp(base + noise_[minute], 0.0, 1.0);
}

FlashCrowdTrace::FlashCrowdTrace(Duration length, double base, double peak,
                                 Duration onset, Duration ramp,
                                 Duration hold, Duration decay,
                                 double jitter, uint64_t seed)
    : length_(length),
      base_(base),
      peak_(peak),
      jitter_(jitter),
      onset_(onset),
      ramp_(ramp),
      hold_(hold),
      decay_(decay)
{
    HERACLES_CHECK(length > 0 && onset >= 0 && ramp > 0 && decay > 0);
    HERACLES_CHECK(base >= 0.0 && peak <= 1.0 && base < peak);
    Rng rng(seed);
    const size_t seconds = static_cast<size_t>(ToSeconds(length)) + 2;
    noise_.reserve(seconds);
    double n = 0.0;
    for (size_t i = 0; i < seconds; ++i) {
        n = std::clamp(n + rng.Uniform(-jitter_, jitter_), -jitter_,
                       jitter_);
        noise_.push_back(n);
    }
}

double
FlashCrowdTrace::LoadAt(SimTime t) const
{
    double level;
    if (t < onset_) {
        level = base_;
    } else if (t < onset_ + ramp_) {
        const double frac = static_cast<double>(t - onset_) /
                            static_cast<double>(ramp_);
        level = base_ + (peak_ - base_) * frac;
    } else if (t < onset_ + ramp_ + hold_) {
        level = peak_;
    } else {
        const double since =
            ToSeconds(t - onset_ - ramp_ - hold_);
        const double tau = ToSeconds(decay_) / 3.0;
        level = base_ + (peak_ - base_) * std::exp(-since / tau);
    }
    const size_t second = std::min(
        noise_.size() - 1,
        static_cast<size_t>(std::max<double>(ToSeconds(t), 0.0)));
    return std::clamp(level + noise_[second], 0.0, 1.0);
}

}  // namespace heracles::sim
