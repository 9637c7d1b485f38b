/**
 * @file
 * Unit tests for the simulation core: event queue, RNG, statistics,
 * load traces and the once-cache.
 */
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cmath>
#include <thread>
#include <vector>

#include "sim/event_queue.h"
#include "sim/once_cache.h"
#include "sim/random.h"
#include "sim/stats.h"
#include "sim/trace.h"

namespace heracles::sim {
namespace {

// --------------------------------------------------------------------------
// EventQueue

TEST(EventQueue, StartsAtTimeZero)
{
    EventQueue q;
    EXPECT_EQ(q.Now(), 0);
    EXPECT_EQ(q.pending(), 0u);
    EXPECT_EQ(q.executed(), 0u);
}

TEST(EventQueue, ExecutesInTimeOrder)
{
    EventQueue q;
    std::vector<int> order;
    q.ScheduleAt(30, [&] { order.push_back(3); });
    q.ScheduleAt(10, [&] { order.push_back(1); });
    q.ScheduleAt(20, [&] { order.push_back(2); });
    q.RunUntil(100);
    EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
}

TEST(EventQueue, EqualTimestampsFireInInsertionOrder)
{
    EventQueue q;
    std::vector<int> order;
    for (int i = 0; i < 16; ++i) {
        q.ScheduleAt(5, [&order, i] { order.push_back(i); });
    }
    q.RunUntil(5);
    for (int i = 0; i < 16; ++i) EXPECT_EQ(order[i], i);
}

TEST(EventQueue, ClockAdvancesToEventTime)
{
    EventQueue q;
    SimTime seen = -1;
    q.ScheduleAt(42, [&] { seen = q.Now(); });
    q.RunUntil(100);
    EXPECT_EQ(seen, 42);
    EXPECT_EQ(q.Now(), 100);  // clock parks at the horizon
}

TEST(EventQueue, RunUntilDoesNotExecuteLaterEvents)
{
    EventQueue q;
    bool fired = false;
    q.ScheduleAt(200, [&] { fired = true; });
    q.RunUntil(100);
    EXPECT_FALSE(fired);
    EXPECT_EQ(q.pending(), 1u);
    q.RunUntil(200);
    EXPECT_TRUE(fired);
}

TEST(EventQueue, ScheduleAfterUsesCurrentTime)
{
    EventQueue q;
    SimTime fired_at = 0;
    q.ScheduleAt(50, [&] {
        q.ScheduleAfter(25, [&] { fired_at = q.Now(); });
    });
    q.RunUntil(1000);
    EXPECT_EQ(fired_at, 75);
}

TEST(EventQueue, EventsScheduledDuringExecutionRun)
{
    EventQueue q;
    int depth = 0;
    std::function<void()> recurse = [&] {
        if (++depth < 5) q.ScheduleAfter(1, recurse);
    };
    q.ScheduleAt(0, recurse);
    q.RunUntil(100);
    EXPECT_EQ(depth, 5);
}

TEST(EventQueue, PeriodicEventRepeats)
{
    EventQueue q;
    int count = 0;
    q.SchedulePeriodic(10, 10, [&] { ++count; });
    q.RunUntil(100);
    EXPECT_EQ(count, 10);
}

TEST(EventQueue, PeriodicEventWithPhase)
{
    EventQueue q;
    std::vector<SimTime> fires;
    q.SchedulePeriodic(10, 5, [&] { fires.push_back(q.Now()); });
    q.RunUntil(35);
    EXPECT_EQ(fires, (std::vector<SimTime>{5, 15, 25, 35}));
}

TEST(EventQueue, CancelPreventsExecution)
{
    EventQueue q;
    bool fired = false;
    auto id = q.ScheduleAt(10, [&] { fired = true; });
    q.Cancel(id);
    q.RunUntil(100);
    EXPECT_FALSE(fired);
}

TEST(EventQueue, CancelStopsPeriodic)
{
    EventQueue q;
    int count = 0;
    auto id = q.SchedulePeriodic(10, 10, [&] { ++count; });
    q.RunUntil(35);
    EXPECT_EQ(count, 3);
    q.Cancel(id);
    q.RunUntil(100);
    EXPECT_EQ(count, 3);
}

TEST(EventQueue, CancelFromInsideCallback)
{
    EventQueue q;
    int count = 0;
    EventQueue::EventId id = 0;
    id = q.SchedulePeriodic(10, 10, [&] {
        if (++count == 2) q.Cancel(id);
    });
    q.RunUntil(200);
    EXPECT_EQ(count, 2);
}

TEST(EventQueue, CancelAfterOneShotFiredLeavesNoBookkeeping)
{
    // Regression: cancelling already-fired one-shot events used to grow
    // the cancellation list without bound (linear scans on every fire).
    EventQueue q;
    std::vector<EventQueue::EventId> ids;
    for (int i = 0; i < 1000; ++i) {
        ids.push_back(q.ScheduleAt(i, [] {}));
    }
    q.RunUntil(1000);
    for (auto id : ids) q.Cancel(id);  // all already fired: no-ops
    EXPECT_EQ(q.cancelled_backlog(), 0u);
    EXPECT_EQ(q.pending(), 0u);
}

TEST(EventQueue, CancelledBacklogDrainsWhenEventsPop)
{
    EventQueue q;
    auto a = q.ScheduleAt(10, [] {});
    auto b = q.ScheduleAt(20, [] {});
    q.Cancel(a);
    q.Cancel(b);
    q.Cancel(b);  // double-cancel is a no-op
    EXPECT_EQ(q.cancelled_backlog(), 2u);
    q.RunUntil(100);
    EXPECT_EQ(q.cancelled_backlog(), 0u);
    EXPECT_EQ(q.executed(), 0u);
}

TEST(EventQueue, CancelledPeriodicLeavesNoBookkeeping)
{
    EventQueue q;
    int count = 0;
    auto id = q.SchedulePeriodic(10, 10, [&] { ++count; });
    q.RunUntil(35);
    q.Cancel(id);
    q.Cancel(id);  // no-op
    q.RunUntil(200);
    EXPECT_EQ(count, 3);
    EXPECT_EQ(q.cancelled_backlog(), 0u);
    EXPECT_EQ(q.pending(), 0u);
}

TEST(EventQueue, OneShotSelfCancelLeavesNoBookkeeping)
{
    EventQueue q;
    EventQueue::EventId id = 0;
    id = q.ScheduleAt(10, [&] { q.Cancel(id); });  // fires, then no-op
    q.RunUntil(100);
    EXPECT_EQ(q.executed(), 1u);
    EXPECT_EQ(q.cancelled_backlog(), 0u);
    EXPECT_EQ(q.pending(), 0u);
}

TEST(EventQueue, SelfCancelledPeriodicLeavesNoBookkeeping)
{
    EventQueue q;
    int count = 0;
    EventQueue::EventId id = 0;
    id = q.SchedulePeriodic(10, 10, [&] {
        if (++count == 2) q.Cancel(id);
    });
    q.RunUntil(200);
    EXPECT_EQ(count, 2);
    EXPECT_EQ(q.cancelled_backlog(), 0u);
    EXPECT_EQ(q.pending(), 0u);
}

TEST(EventQueue, ExecutedCountsEvents)
{
    EventQueue q;
    for (int i = 0; i < 7; ++i) q.ScheduleAt(i, [] {});
    q.RunUntil(10);
    EXPECT_EQ(q.executed(), 7u);
}

TEST(EventQueueDeath, SchedulingInThePastAborts)
{
    EventQueue q;
    q.ScheduleAt(50, [] {});
    q.RunUntil(50);
    EXPECT_DEATH(q.ScheduleAt(10, [] {}), "past");
}

// --------------------------------------------------------------------------
// Duration helpers

TEST(Time, ConversionRoundTrips)
{
    EXPECT_EQ(Seconds(1), 1000000000);
    EXPECT_EQ(Millis(1), 1000000);
    EXPECT_EQ(Micros(1), 1000);
    EXPECT_DOUBLE_EQ(ToSeconds(Seconds(2.5)), 2.5);
    EXPECT_DOUBLE_EQ(ToMillis(Millis(12.5)), 12.5);
    EXPECT_DOUBLE_EQ(ToMicros(Micros(800)), 800.0);
    EXPECT_DOUBLE_EQ(ToHours(Hours(12)), 12.0);
}

TEST(Time, FormatDurationPicksUnits)
{
    EXPECT_EQ(FormatDuration(Nanos(500)), "500ns");
    EXPECT_EQ(FormatDuration(Micros(1.5)), "1.5us");
    EXPECT_EQ(FormatDuration(Millis(12.5)), "12.5ms");
    EXPECT_EQ(FormatDuration(Seconds(3)), "3.00s");
}

// --------------------------------------------------------------------------
// Rng

TEST(Rng, DeterministicForSeed)
{
    Rng a(123), b(123);
    for (int i = 0; i < 100; ++i) EXPECT_EQ(a.Next64(), b.Next64());
}

TEST(Rng, DifferentSeedsDiffer)
{
    Rng a(1), b(2);
    int equal = 0;
    for (int i = 0; i < 100; ++i) {
        if (a.Next64() == b.Next64()) ++equal;
    }
    EXPECT_LT(equal, 3);
}

TEST(Rng, Uniform01InRange)
{
    Rng r(7);
    for (int i = 0; i < 10000; ++i) {
        const double u = r.Uniform01();
        EXPECT_GE(u, 0.0);
        EXPECT_LT(u, 1.0);
    }
}

TEST(Rng, UniformMeanIsCentered)
{
    Rng r(7);
    double sum = 0;
    const int n = 100000;
    for (int i = 0; i < n; ++i) sum += r.Uniform(10.0, 20.0);
    EXPECT_NEAR(sum / n, 15.0, 0.05);
}

TEST(Rng, ExponentialMeanMatches)
{
    Rng r(11);
    double sum = 0;
    const int n = 200000;
    for (int i = 0; i < n; ++i) sum += r.Exponential(4.0);
    EXPECT_NEAR(sum / n, 4.0, 0.05);
}

TEST(Rng, ExponentialIsPositive)
{
    Rng r(11);
    for (int i = 0; i < 10000; ++i) EXPECT_GT(r.Exponential(1.0), 0.0);
}

TEST(Rng, LogNormalMeanMatches)
{
    Rng r(13);
    double sum = 0;
    const int n = 200000;
    for (int i = 0; i < n; ++i) sum += r.LogNormalWithMean(5.0, 0.4);
    EXPECT_NEAR(sum / n, 5.0, 0.1);
}

TEST(Rng, NormalMoments)
{
    Rng r(17);
    double sum = 0, sq = 0;
    const int n = 200000;
    for (int i = 0; i < n; ++i) {
        const double x = r.Normal(10.0, 3.0);
        sum += x;
        sq += x * x;
    }
    const double mean = sum / n;
    const double var = sq / n - mean * mean;
    EXPECT_NEAR(mean, 10.0, 0.05);
    EXPECT_NEAR(std::sqrt(var), 3.0, 0.05);
}

TEST(Rng, BernoulliFrequency)
{
    Rng r(19);
    int hits = 0;
    const int n = 100000;
    for (int i = 0; i < n; ++i) hits += r.Bernoulli(0.3);
    EXPECT_NEAR(static_cast<double>(hits) / n, 0.3, 0.01);
}

// --------------------------------------------------------------------------
// LatencyHistogram

TEST(Histogram, EmptyReportsZero)
{
    LatencyHistogram h;
    EXPECT_TRUE(h.empty());
    EXPECT_EQ(h.Percentile(0.99), 0);
    EXPECT_EQ(h.MeanNs(), 0.0);
    EXPECT_EQ(h.MaxNs(), 0);
}

TEST(Histogram, SingleValue)
{
    LatencyHistogram h;
    h.Record(Millis(5));
    EXPECT_EQ(h.count(), 1u);
    // Percentile returns within bucket precision (~2.2%).
    EXPECT_NEAR(static_cast<double>(h.Percentile(0.5)),
                static_cast<double>(Millis(5)), 0.025 * Millis(5));
    EXPECT_EQ(h.MaxNs(), Millis(5));
}

TEST(Histogram, PercentileWithinRelativeError)
{
    LatencyHistogram h;
    // 1..1000 us uniformly.
    for (int i = 1; i <= 1000; ++i) h.Record(Micros(i));
    const double p50 = static_cast<double>(h.Percentile(0.50));
    const double p99 = static_cast<double>(h.Percentile(0.99));
    EXPECT_NEAR(p50, static_cast<double>(Micros(500)), 0.03 * Micros(500));
    EXPECT_NEAR(p99, static_cast<double>(Micros(990)), 0.03 * Micros(990));
}

TEST(Histogram, PercentileMonotoneInP)
{
    LatencyHistogram h;
    Rng r(3);
    for (int i = 0; i < 50000; ++i) {
        h.Record(static_cast<Duration>(r.Exponential(1e6)));
    }
    Duration prev = 0;
    for (double p : {0.1, 0.5, 0.9, 0.95, 0.99, 0.999}) {
        const Duration v = h.Percentile(p);
        EXPECT_GE(v, prev) << "p=" << p;
        prev = v;
    }
}

TEST(Histogram, PercentileNeverExceedsMax)
{
    LatencyHistogram h;
    Rng r(5);
    for (int i = 0; i < 10000; ++i) {
        h.Record(static_cast<Duration>(r.Exponential(5e5)));
    }
    EXPECT_LE(h.Percentile(0.9999), h.MaxNs());
}

TEST(Histogram, RecordNWeightsSamples)
{
    LatencyHistogram a, b;
    a.RecordN(Micros(100), 10);
    for (int i = 0; i < 10; ++i) b.Record(Micros(100));
    EXPECT_EQ(a.count(), b.count());
    EXPECT_EQ(a.Percentile(0.5), b.Percentile(0.5));
}

TEST(Histogram, MeanMatchesArithmetic)
{
    LatencyHistogram h;
    h.Record(1000);
    h.Record(3000);
    EXPECT_DOUBLE_EQ(h.MeanNs(), 2000.0);
}

TEST(Histogram, MergeCombines)
{
    LatencyHistogram a, b;
    for (int i = 0; i < 100; ++i) a.Record(Micros(10));
    for (int i = 0; i < 100; ++i) b.Record(Micros(1000));
    a.Merge(b);
    EXPECT_EQ(a.count(), 200u);
    EXPECT_GT(a.Percentile(0.99), Micros(500));
    EXPECT_LT(a.Percentile(0.25), Micros(20));
}

TEST(Histogram, ResetClears)
{
    LatencyHistogram h;
    h.Record(Micros(50));
    h.Reset();
    EXPECT_TRUE(h.empty());
    EXPECT_EQ(h.Percentile(0.99), 0);
}

TEST(Histogram, HugeValuesClampToRange)
{
    LatencyHistogram h;
    h.Record(std::numeric_limits<Duration>::max() / 2);
    EXPECT_EQ(h.count(), 1u);
    EXPECT_GT(h.Percentile(0.5), 0);
}

TEST(Histogram, ResetThenRecordReportsOnlyNewSamples)
{
    // The occupied-range bookkeeping must fully forget the old range:
    // a post-Reset histogram answers from the new samples alone, even
    // when they land in completely different buckets.
    LatencyHistogram h;
    for (int i = 0; i < 100; ++i) h.Record(Millis(50));  // high buckets
    h.Reset();
    for (int i = 0; i < 100; ++i) h.Record(Micros(10));  // low buckets
    EXPECT_EQ(h.count(), 100u);
    EXPECT_LT(h.Percentile(0.99), Micros(12));
    EXPECT_EQ(h.MaxNs(), Micros(10));
}

TEST(Histogram, MergeIntoEmptyAdoptsRange)
{
    LatencyHistogram a, b;
    for (int i = 0; i < 50; ++i) b.Record(Micros(200));
    a.Merge(b);
    EXPECT_EQ(a.count(), 50u);
    EXPECT_EQ(a.Percentile(0.5), b.Percentile(0.5));
    a.Merge(LatencyHistogram());  // merging an empty histogram: no-op
    EXPECT_EQ(a.count(), 50u);
    EXPECT_EQ(a.Percentile(0.5), b.Percentile(0.5));
}

TEST(Histogram, MergeDisjointRangesSpansBoth)
{
    LatencyHistogram low, high;
    for (int i = 0; i < 90; ++i) low.Record(Micros(5));
    for (int i = 0; i < 10; ++i) high.Record(Millis(80));
    low.Merge(high);
    EXPECT_EQ(low.count(), 100u);
    EXPECT_LT(low.Percentile(0.5), Micros(7));    // from the low range
    EXPECT_GT(low.Percentile(0.95), Millis(70));  // from the high range
    EXPECT_EQ(low.MaxNs(), Millis(80));
}

TEST(Histogram, PrecomputedBucketMatchesRecordN)
{
    // Every bucket boundary that fits in a Duration, one off either side,
    // and the extremes: recording through BucketOf + RecordBucket must
    // answer exactly as RecordN, sample by sample and in aggregate.
    std::vector<Duration> values = {0, 1, 2, Duration{1} << 62,
                                    std::numeric_limits<Duration>::max()};
    for (int k = 0;; ++k) {
        const double edge = std::exp2(k / 32.0);
        if (edge + 1 >= 0x1p63) break;
        const auto v = static_cast<Duration>(edge);
        values.insert(values.end(), {v - 1, v, v + 1});
    }
    const double ps[] = {0.0, 0.01, 0.5, 0.9, 0.99, 0.999, 1.0};
    LatencyHistogram all_n, all_b;
    uint64_t n = 0;
    for (const Duration v : values) {
        n = n % 3 + 1;
        LatencyHistogram one_n, one_b;
        one_n.RecordN(v, n);
        one_b.RecordBucket(LatencyHistogram::BucketOf(v), v, n);
        all_n.RecordN(v, n);
        all_b.RecordBucket(LatencyHistogram::BucketOf(v), v, n);
        for (const double p : ps) {
            ASSERT_EQ(one_b.Percentile(p), one_n.Percentile(p))
                << "v=" << v << " p=" << p;
        }
        ASSERT_EQ(one_b.MeanNs(), one_n.MeanNs()) << "v=" << v;
        ASSERT_EQ(one_b.MaxNs(), one_n.MaxNs()) << "v=" << v;
    }
    for (const double p : ps) {
        EXPECT_EQ(all_b.Percentile(p), all_n.Percentile(p)) << "p=" << p;
    }
    EXPECT_EQ(all_b.MeanNs(), all_n.MeanNs());
    EXPECT_EQ(all_b.MaxNs(), all_n.MaxNs());
    EXPECT_EQ(all_b.count(), all_n.count());
}

TEST(Histogram, TopBucketEdgeSaturates)
{
    // INT64_MAX lands in bucket 2016, whose upper edge is 2^63.03: the
    // edge saturates at INT64_MAX instead of overflowing the cast.
    constexpr Duration kMax = std::numeric_limits<Duration>::max();
    EXPECT_EQ(LatencyHistogram::BucketOf(kMax), 2016);
    LatencyHistogram h;
    h.Record(kMax);
    h.Record(Duration{1} << 62);
    // 2^62 sits at the bottom of bucket 1984: its edge, below the max.
    EXPECT_EQ(h.Percentile(0.5), static_cast<Duration>(std::exp2(1985 / 32.0)));
    EXPECT_EQ(h.Percentile(1.0), kMax);
    EXPECT_EQ(h.MaxNs(), kMax);
}

// --------------------------------------------------------------------------
// WindowedTailTracker

TEST(WindowedTail, NoWindowCompletedInitially)
{
    WindowedTailTracker t(Seconds(15), 0.99);
    EXPECT_EQ(t.LastWindowTail(), 0);
    EXPECT_EQ(t.WorstWindowTail(), 0);
    EXPECT_EQ(t.WindowsCompleted(), 0u);
}

TEST(WindowedTail, WindowClosesOnRoll)
{
    WindowedTailTracker t(Seconds(10), 0.99);
    t.Record(Seconds(1), Millis(5));
    t.Record(Seconds(2), Millis(7));
    t.MaybeRoll(Seconds(10));
    EXPECT_EQ(t.WindowsCompleted(), 1u);
    EXPECT_GT(t.LastWindowTail(), Millis(6));
    EXPECT_EQ(t.LastWindowCount(), 2u);
}

TEST(WindowedTail, WorstTracksAcrossWindows)
{
    WindowedTailTracker t(Seconds(10), 0.99);
    t.Record(Seconds(1), Millis(5));
    t.Record(Seconds(11), Millis(50));  // rolls window 1, lands in 2
    t.Record(Seconds(21), Millis(2));   // rolls window 2
    t.MaybeRoll(Seconds(30));
    EXPECT_GE(t.WorstWindowTail(), Millis(49));
    // Last window tail reflects the most recent completed window.
    EXPECT_LE(t.LastWindowTail(), Millis(3));
}

TEST(WindowedTail, EmptyWindowsDoNotCount)
{
    WindowedTailTracker t(Seconds(10), 0.99);
    t.Record(Seconds(1), Millis(5));
    t.MaybeRoll(Seconds(100));  // many empty windows pass
    EXPECT_EQ(t.WindowsCompleted(), 1u);
}

TEST(WindowedTail, CurrentWindowTailIsPartial)
{
    WindowedTailTracker t(Seconds(10), 0.99);
    t.Record(Seconds(1), Millis(30));
    EXPECT_GT(t.CurrentWindowTail(), Millis(25));
    EXPECT_GE(t.WorstObservedTail(), t.CurrentWindowTail());
}

TEST(WindowedTail, PercentileHonoured)
{
    WindowedTailTracker t(Seconds(10), 0.50);
    for (int i = 1; i <= 100; ++i) {
        t.Record(Seconds(1), Micros(i * 10));
    }
    t.MaybeRoll(Seconds(10));
    // Median of 10..1000us is ~500us.
    EXPECT_NEAR(static_cast<double>(t.LastWindowTail()),
                static_cast<double>(Micros(500)), 0.05 * Micros(500));
}

// --------------------------------------------------------------------------
// TimeWeightedMean

TEST(TimeWeightedMean, ConstantSignal)
{
    TimeWeightedMean m;
    m.Set(0, 10.0);
    EXPECT_DOUBLE_EQ(m.Mean(Seconds(5)), 10.0);
}

TEST(TimeWeightedMean, WeightsByHoldTime)
{
    TimeWeightedMean m;
    m.Set(0, 0.0);
    m.Set(Seconds(9), 100.0);  // held 0 for 9s, 100 for 1s
    EXPECT_NEAR(m.Mean(Seconds(10)), 10.0, 1e-9);
}

TEST(TimeWeightedMean, TracksMaxAndCurrent)
{
    TimeWeightedMean m;
    m.Set(0, 5.0);
    m.Set(1, 50.0);
    m.Set(2, 20.0);
    EXPECT_DOUBLE_EQ(m.Max(), 50.0);
    EXPECT_DOUBLE_EQ(m.Current(), 20.0);
}

TEST(TimeWeightedMean, EmptyIsZero)
{
    TimeWeightedMean m;
    EXPECT_DOUBLE_EQ(m.Mean(Seconds(1)), 0.0);
}

// --------------------------------------------------------------------------
// TimeSeries

TEST(TimeSeries, Aggregates)
{
    TimeSeries s;
    s.Add(0, 1.0);
    s.Add(1, 5.0);
    s.Add(2, 3.0);
    EXPECT_DOUBLE_EQ(s.MeanValue(), 3.0);
    EXPECT_DOUBLE_EQ(s.MinValue(), 1.0);
    EXPECT_DOUBLE_EQ(s.MaxValue(), 5.0);
    EXPECT_EQ(s.size(), 3u);
}

// --------------------------------------------------------------------------
// Traces

TEST(Trace, ConstantHoldsValue)
{
    ConstantTrace t(0.42);
    EXPECT_DOUBLE_EQ(t.LoadAt(0), 0.42);
    EXPECT_DOUBLE_EQ(t.LoadAt(Hours(5)), 0.42);
}

TEST(Trace, StepSwitchesAtBoundaries)
{
    StepTrace t({{0, 0.1}, {Seconds(10), 0.5}, {Seconds(20), 0.9}});
    EXPECT_DOUBLE_EQ(t.LoadAt(0), 0.1);
    EXPECT_DOUBLE_EQ(t.LoadAt(Seconds(9)), 0.1);
    EXPECT_DOUBLE_EQ(t.LoadAt(Seconds(10)), 0.5);
    EXPECT_DOUBLE_EQ(t.LoadAt(Seconds(25)), 0.9);
}

TEST(TraceDeath, StepRequiresTimeZeroStart)
{
    EXPECT_DEATH(StepTrace({{Seconds(1), 0.5}}), "t=0");
}

TEST(Trace, DiurnalStaysInRange)
{
    DiurnalTrace t(Hours(12), 0.2, 0.9);
    for (int m = 0; m <= 720; m += 5) {
        const double l = t.LoadAt(Minutes(m));
        EXPECT_GE(l, 0.0);
        EXPECT_LE(l, 1.0);
    }
}

TEST(Trace, DiurnalDipsMidTrace)
{
    DiurnalTrace t(Hours(12), 0.2, 0.9, /*jitter=*/0.0);
    EXPECT_NEAR(t.LoadAt(0), 0.9, 0.01);
    EXPECT_NEAR(t.LoadAt(Hours(6)), 0.2, 0.01);
    EXPECT_NEAR(t.LoadAt(Hours(12)), 0.9, 0.01);
}

TEST(Trace, DiurnalDeterministicForSeed)
{
    DiurnalTrace a(Hours(1), 0.2, 0.9, 0.05, 7);
    DiurnalTrace b(Hours(1), 0.2, 0.9, 0.05, 7);
    for (int m = 0; m <= 60; ++m) {
        EXPECT_DOUBLE_EQ(a.LoadAt(Minutes(m)), b.LoadAt(Minutes(m)));
    }
}

// --------------------------------------------------------------------------
// OnceCache

TEST(OnceCache, ConcurrentColdCallersShareOneComputation)
{
    OnceCache<int, int> cache;
    std::atomic<int> computations{0};
    std::atomic<bool> go{false};
    std::vector<int> got(8, 0);
    std::vector<std::thread> threads;
    for (size_t t = 0; t < got.size(); ++t) {
        threads.emplace_back([&, t] {
            while (!go.load()) std::this_thread::yield();
            got[t] = cache.Get(7, [&] {
                ++computations;
                // Hold the computation open so the other callers
                // arrive while the key is still cold.
                std::this_thread::sleep_for(std::chrono::milliseconds(20));
                return 42;
            });
        });
    }
    go = true;
    for (std::thread& th : threads) th.join();

    EXPECT_EQ(computations.load(), 1);
    for (int v : got) EXPECT_EQ(v, 42);
    EXPECT_EQ(cache.Get(7, [] { return -1; }), 42);  // now warm
}

TEST(OnceCache, DistinctColdKeysComputeInParallel)
{
    // Each key's computation waits for the other's to start. A lock
    // held across a computation serializes them, and the first one
    // gives up after the deadline and reports false.
    OnceCache<int, bool> cache;
    std::atomic<bool> started[2] = {false, false};
    const auto deadline =
        std::chrono::steady_clock::now() + std::chrono::seconds(5);
    bool saw_other[2] = {false, false};
    std::vector<std::thread> threads;
    for (int k = 0; k < 2; ++k) {
        threads.emplace_back([&, k] {
            saw_other[k] = cache.Get(k, [&] {
                started[k] = true;
                while (!started[1 - k].load()) {
                    if (std::chrono::steady_clock::now() > deadline) {
                        return false;
                    }
                    std::this_thread::yield();
                }
                return true;
            });
        });
    }
    for (std::thread& th : threads) th.join();

    EXPECT_TRUE(saw_other[0]);
    EXPECT_TRUE(saw_other[1]);
}

}  // namespace
}  // namespace heracles::sim
