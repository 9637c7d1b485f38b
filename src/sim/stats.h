/**
 * @file
 * Statistics: latency histograms, windowed tail tracking, utilization
 * averaging and time series for figure generation.
 */
#ifndef HERACLES_SIM_STATS_H
#define HERACLES_SIM_STATS_H

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <limits>
#include <string>
#include <vector>

#include "sim/time.h"

namespace heracles::sim {

/**
 * Log-bucketed latency histogram (HDR-histogram style).
 *
 * Values are bucketed with a fixed relative precision (32 buckets per
 * octave, ~2.2% error) over a huge dynamic range, so one histogram type
 * covers memkeyval (~100us SLO) and websearch (~10ms SLO). Percentile
 * queries return the upper edge of the bucket containing the requested
 * rank.
 *
 * The bucket of a sample is a pure function of its value (BucketOf), so
 * a caller feeding one sample into several histograms computes it once
 * and records it with RecordBucket. The histogram tracks its occupied
 * bucket range, so the streaming-tail hot path (WindowedTailTracker
 * closes a window every few simulated seconds: one Percentile + one
 * Reset each) touches only the few dozen buckets a workload actually
 * populates instead of the whole 2048-bucket backing array.
 */
class LatencyHistogram
{
  public:
    /** Buckets per power of two: ~2.2% relative precision. */
    static constexpr int kBucketsPerOctave = 32;
    /** 64 octaves (1ns .. ~584 years) is more than enough range. */
    static constexpr int kBuckets = 64 * kBucketsPerOctave;

    LatencyHistogram() : buckets_(kBuckets, 0) {}

    /** Bucket index of a sample of @p v nanoseconds (clamped to >= 1). */
    static int
    BucketOf(Duration v)
    {
        if (v < 1) v = 1;
        const int idx = static_cast<int>(std::log2(static_cast<double>(v)) *
                                         kBucketsPerOctave);
        return std::min(idx, kBuckets - 1);
    }

    /** Records one latency sample (@p v in nanoseconds, clamped to >= 1). */
    void Record(Duration v) { RecordN(v, 1); }

    /** Records @p n identical samples (used by batched request models). */
    void RecordN(Duration v, uint64_t n) { RecordBucket(BucketOf(v), v, n); }

    /** Records @p n samples of @p v into @p idx, which must equal
     *  BucketOf(v). */
    void
    RecordBucket(int idx, Duration v, uint64_t n)
    {
        if (n == 0) return;
        buckets_[idx] += n;
        if (idx < lo_ || lo_ > hi_) lo_ = idx;
        if (idx > hi_) hi_ = idx;
        count_ += n;
        max_ = std::max(max_, v);
    }

    /** Returns the p-quantile (p in [0,1]); 0 if the histogram is empty. */
    Duration Percentile(double p) const;

    /** Largest recorded sample; 0 if empty. */
    Duration MaxNs() const { return max_; }

    uint64_t count() const { return count_; }
    bool empty() const { return count_ == 0; }

    /** Removes all samples. */
    void Reset();

  private:
    static Duration BucketUpperEdge(int idx);

    std::vector<uint64_t> buckets_;
    /** Occupied range [lo_, hi_]; lo_ > hi_ when empty. Percentile scans
     *  and Reset fills touch only this range. */
    int lo_ = 0;
    int hi_ = -1;
    uint64_t count_ = 0;
    Duration max_ = 0;
};

/**
 * Tracks tail latency over fixed windows of simulated time.
 *
 * The paper reports the worst 60-second-window tail observed during an
 * experiment, and the Heracles controller polls the tail of the most
 * recently completed window. This class supports both: it rotates a
 * histogram every @p window and remembers per-window percentiles. It
 * keeps no all-time histogram; a caller that wants percentiles over a
 * whole run records into its own LatencyHistogram.
 */
class WindowedTailTracker
{
  public:
    WindowedTailTracker(Duration window, double percentile);

    /** Records a sample taken at simulated time @p now. */
    void
    Record(SimTime now, Duration latency)
    {
        RecordBucket(now, LatencyHistogram::BucketOf(latency), latency, 1);
    }

    /** Records @p n samples of @p latency, whose precomputed bucket is
     *  @p bucket == LatencyHistogram::BucketOf(latency). */
    void
    RecordBucket(SimTime now, int bucket, Duration latency, uint64_t n)
    {
        MaybeRoll(now);
        current_.RecordBucket(bucket, latency, n);
    }

    /**
     * Finishes the current window if @p now passed its end. Call before
     * reading; records also roll windows automatically.
     */
    void
    MaybeRoll(SimTime now)
    {
        while (now >= window_end_) {
            CloseWindow();
            window_end_ += window_;
        }
    }

    /** Tail of the last *completed* window; 0 if none completed yet. */
    Duration LastWindowTail() const { return last_window_tail_; }

    /** Worst per-window tail across the whole run; 0 if none completed. */
    Duration WorstWindowTail() const { return worst_window_tail_; }

    /** Tail of the in-progress (partial) window; 0 if empty. */
    Duration CurrentWindowTail() const {
        return current_.Percentile(percentile_);
    }

    /** Max of the worst completed window and the current partial window. */
    Duration WorstObservedTail() const {
        return std::max(worst_window_tail_, CurrentWindowTail());
    }

  private:
    void CloseWindow();

    Duration window_;
    double percentile_;
    SimTime window_end_;
    LatencyHistogram current_;
    Duration last_window_tail_ = 0;
    Duration worst_window_tail_ = 0;
};

/**
 * Time-weighted mean of a piecewise-constant signal (e.g. CPU power,
 * DRAM bandwidth). Set() records a new level at a timestamp; the mean
 * weights each level by how long it was held.
 */
class TimeWeightedMean
{
  public:
    /** Records that the signal changed to @p value at time @p now. */
    void Set(SimTime now, double value);

    /** Mean up to @p now; 0 if nothing recorded. */
    double Mean(SimTime now) const;

    /** Current level. */
    double Current() const { return value_; }

  private:
    double value_ = 0.0;
    double weighted_sum_ = 0.0;
    SimTime last_change_ = 0;
    SimTime start_ = 0;
    bool started_ = false;
};

/** A (time, value) series sampled during a run, for plotting figures. */
struct TimeSeries {
    std::vector<SimTime> t;
    std::vector<double> v;

    void
    Add(SimTime now, double value)
    {
        t.push_back(now);
        v.push_back(value);
    }
    size_t size() const { return t.size(); }
    double MeanValue() const;
    double MinValue() const;
    double MaxValue() const;
};

}  // namespace heracles::sim

#endif  // HERACLES_SIM_STATS_H
