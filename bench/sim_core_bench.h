/**
 * @file
 * Simulation-core microbenchmarks behind the "event_queue" and "stats"
 * members of tools/bench_record's BENCH_sim_core.json.
 *
 * Two benches:
 *  - Event-queue churn: a fixed window of outstanding one-shot timers
 *    (each firing schedules its successor, mimicking LcApp's
 *    completion cycle with a 32-byte capture), a periodic tick, and a
 *    cancel stream, on the production EventQueue.
 *  - Stats streaming: LcApp's per-request stats path (one bucket
 *    lookup feeding three WindowedTailTrackers and an overall
 *    LatencyHistogram) plus percentile queries.
 *
 * Binaries that want allocs/event must define the global allocation
 * counter with HERACLES_BENCH_DEFINE_ALLOC_COUNTER in exactly one
 * translation unit; the benches read it through bench::AllocCount().
 */
#ifndef HERACLES_BENCH_SIM_CORE_BENCH_H
#define HERACLES_BENCH_SIM_CORE_BENCH_H

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <cstdlib>
#include <new>
#include <vector>

#include "bench_common.h"
#include "sim/event_queue.h"
#include "sim/random.h"
#include "sim/stats.h"

namespace heracles::bench {

/** Global new/delete call count; defined by the counter macro below. */
extern std::atomic<uint64_t> g_alloc_count;

inline uint64_t
AllocCount()
{
    return g_alloc_count.load(std::memory_order_relaxed);
}

/**
 * Defines counting replacements for the global allocation functions.
 * Place once in the binary's main .cc. Counts every operator new, which
 * is exactly the "allocs/event" the baseline record tracks.
 */
#define HERACLES_BENCH_DEFINE_ALLOC_COUNTER()                              \
    namespace heracles::bench {                                            \
    std::atomic<uint64_t> g_alloc_count{0};                                \
    }                                                                      \
    void* operator new(std::size_t size)                                   \
    {                                                                      \
        heracles::bench::g_alloc_count.fetch_add(                          \
            1, std::memory_order_relaxed);                                 \
        if (void* p = std::malloc(size ? size : 1)) return p;              \
        throw std::bad_alloc();                                            \
    }                                                                      \
    void operator delete(void* p) noexcept { std::free(p); }               \
    void operator delete(void* p, std::size_t) noexcept { std::free(p); }

/** One microbench measurement. */
struct BenchResult {
    uint64_t events = 0;       ///< Fired events (or recorded samples).
    double wall_s = 0.0;       ///< Wall-clock seconds.
    double allocs_per_event = 0.0;
};

/** The 24-byte payload LcApp completion closures carry. */
struct RequestMirror {
    sim::SimTime arrival = 0;
    uint64_t tag = 0;
    bool tracked = false;
};

/**
 * Self-perpetuating timer driver: each fire counts, schedules its
 * successor with a fresh pseudo-random delay, and plants a decoy event
 * that is immediately cancelled (the timeout-guard pattern). Completion
 * closures capture exactly (driver pointer, RequestMirror) — 32 bytes,
 * the shape of LcApp's per-request closures: past std::function's
 * 16-byte buffer, inside InlineFn's 48-byte slot storage, so the queue
 * allocates nothing per event.
 */
struct ChurnDriver {
    sim::EventQueue q;
    sim::Rng rng{42};
    uint64_t fired = 0;

    void
    Arm(sim::Duration delay)
    {
        const RequestMirror req{q.Now(), fired, false};
        q.ScheduleAfter(delay, [this, req] { Fire(req); });
    }

    void
    Fire(const RequestMirror& req)
    {
        (void)req;
        ++fired;
        const auto next =
            static_cast<sim::Duration>(1 + rng.UniformInt(1000));
        Arm(next);
        const auto decoy = q.ScheduleAfter(next + 10000, [] {});
        q.Cancel(decoy);
    }
};

/**
 * Event-queue churn: seeds @p window outstanding ChurnDriver timers and
 * one periodic tick — the mix a server simulation generates — and
 * returns after ~@p total_events fires with their wall time.
 */
inline BenchResult
RunEventQueueChurn(uint64_t total_events, int window = 2048)
{
    ChurnDriver d;

    const uint64_t allocs0 = AllocCount();
    const double wall = WallSeconds([&] {
        for (int i = 0; i < window; ++i) {
            d.Arm(static_cast<sim::Duration>(1 + d.rng.UniformInt(1000)));
        }
        d.q.SchedulePeriodic(500, 0, [] {});
        // ~4 fires per simulated ns at the default window; small chunks
        // keep the overshoot past total_events negligible.
        while (d.fired < total_events) {
            d.q.RunFor(50000);
        }
    });
    const uint64_t allocs = AllocCount() - allocs0;

    BenchResult r;
    r.events = d.fired;
    r.wall_s = wall;
    r.allocs_per_event =
        static_cast<double>(allocs) / static_cast<double>(d.fired);
    return r;
}

/**
 * Streaming-tail driver: records @p total_samples latencies drawn from
 * the exponential ballpark of a websearch service time the way
 * LcApp::OnCompletion does — one BucketOf per sample feeding the
 * report (60 s), controller (15 s) and fast (2 s) window trackers and
 * the overall histogram — advancing simulated time so windows keep
 * closing, with a p95 and a partial-window tail read every 16384
 * samples.
 */
inline BenchResult
RunStatsStreaming(uint64_t total_samples)
{
    sim::WindowedTailTracker report(sim::Seconds(60), 0.99);
    sim::WindowedTailTracker ctl(sim::Seconds(15), 0.99);
    sim::WindowedTailTracker fast(sim::Seconds(2), 0.99);
    sim::LatencyHistogram overall;
    sim::Rng rng(7);
    sim::SimTime now = 0;
    sim::Duration sink = 0;

    const uint64_t allocs0 = AllocCount();
    const double wall = WallSeconds([&] {
        for (uint64_t i = 0; i < total_samples; ++i) {
            now += sim::Micros(100);  // ~10k samples per 1 s of sim time
            const auto lat =
                static_cast<sim::Duration>(1 + rng.Exponential(4e6));
            const int bucket = sim::LatencyHistogram::BucketOf(lat);
            overall.RecordBucket(bucket, lat, 1);
            report.RecordBucket(now, bucket, lat, 1);
            ctl.RecordBucket(now, bucket, lat, 1);
            fast.RecordBucket(now, bucket, lat, 1);
            if ((i & 0x3FFF) == 0) {
                sink += overall.Percentile(0.95);
                sink += fast.CurrentWindowTail();
            }
        }
    });
    const uint64_t allocs = AllocCount() - allocs0;
    if (sink == -1) std::abort();  // keep the reads alive

    BenchResult r;
    r.events = total_samples;
    r.wall_s = wall;
    r.allocs_per_event =
        static_cast<double>(allocs) / static_cast<double>(total_samples);
    return r;
}

}  // namespace heracles::bench

#endif  // HERACLES_BENCH_SIM_CORE_BENCH_H
