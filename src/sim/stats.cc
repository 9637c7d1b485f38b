#include "sim/stats.h"

#include <algorithm>
#include <cmath>
#include <limits>

#include "sim/log.h"

namespace heracles::sim {

Duration
LatencyHistogram::BucketUpperEdge(int idx)
{
    const double edge =
        std::exp2(static_cast<double>(idx + 1) / kBucketsPerOctave);
    // The top buckets' edges pass 2^63, which no Duration can hold.
    if (edge >= 0x1p63) return std::numeric_limits<Duration>::max();
    return static_cast<Duration>(edge);
}

Duration
LatencyHistogram::Percentile(double p) const
{
    if (count_ == 0) return 0;
    p = std::clamp(p, 0.0, 1.0);
    // Rank of the requested quantile, 1-based, rounded up.
    const uint64_t rank = std::max<uint64_t>(
        1, static_cast<uint64_t>(std::ceil(p * static_cast<double>(count_))));
    uint64_t seen = 0;
    for (int i = lo_; i <= hi_; ++i) {
        seen += buckets_[i];
        if (seen >= rank) {
            // Never report above the true max (tightens the top bucket).
            return std::min(BucketUpperEdge(i), max_);
        }
    }
    return max_;
}

double
LatencyHistogram::MeanNs() const
{
    return count_ == 0 ? 0.0 : sum_ns_ / static_cast<double>(count_);
}

void
LatencyHistogram::Reset()
{
    if (lo_ <= hi_) {
        std::fill(buckets_.begin() + lo_, buckets_.begin() + hi_ + 1, 0);
    }
    lo_ = 0;
    hi_ = -1;
    count_ = 0;
    sum_ns_ = 0.0;
    max_ = 0;
}

void
LatencyHistogram::Merge(const LatencyHistogram& other)
{
    if (other.lo_ <= other.hi_) {
        for (int i = other.lo_; i <= other.hi_; ++i) {
            buckets_[i] += other.buckets_[i];
        }
        if (lo_ > hi_) {
            lo_ = other.lo_;
            hi_ = other.hi_;
        } else {
            lo_ = std::min(lo_, other.lo_);
            hi_ = std::max(hi_, other.hi_);
        }
    }
    count_ += other.count_;
    sum_ns_ += other.sum_ns_;
    max_ = std::max(max_, other.max_);
}

WindowedTailTracker::WindowedTailTracker(Duration window, double percentile)
    : window_(window), percentile_(percentile), window_end_(window)
{
    HERACLES_CHECK(window > 0);
    HERACLES_CHECK(percentile > 0.0 && percentile < 1.0);
}

void
WindowedTailTracker::CloseWindow()
{
    if (!current_.empty()) {
        last_window_tail_ = current_.Percentile(percentile_);
        last_window_count_ = current_.count();
        worst_window_tail_ = std::max(worst_window_tail_, last_window_tail_);
        ++windows_completed_;
        current_.Reset();
    }
}

void
TimeWeightedMean::Set(SimTime now, double value)
{
    if (!started_) {
        started_ = true;
        start_ = now;
    } else if (now > last_change_) {
        weighted_sum_ +=
            value_ * static_cast<double>(now - last_change_);
    }
    last_change_ = now;
    value_ = value;
    max_ = std::max(max_, value);
}

double
TimeWeightedMean::Mean(SimTime now) const
{
    if (!started_ || now <= start_) return 0.0;
    double sum = weighted_sum_;
    if (now > last_change_) {
        sum += value_ * static_cast<double>(now - last_change_);
    }
    return sum / static_cast<double>(now - start_);
}

double
TimeSeries::MeanValue() const
{
    if (v.empty()) return 0.0;
    double s = 0.0;
    for (double x : v) s += x;
    return s / static_cast<double>(v.size());
}

double
TimeSeries::MinValue() const
{
    if (v.empty()) return 0.0;
    return *std::min_element(v.begin(), v.end());
}

double
TimeSeries::MaxValue() const
{
    if (v.empty()) return 0.0;
    return *std::max_element(v.begin(), v.end());
}

}  // namespace heracles::sim
