/**
 * @file
 * Deterministic thread pool for fanning out independent simulations.
 *
 * Every simulation in this library is single-threaded and self-contained
 * (its own EventQueue, machine, workloads, RNG streams), which makes load
 * sweeps, characterization grids and per-leaf profiling embarrassingly
 * parallel. The pool is deliberately work-stealing-free: tasks are
 * dispatched FIFO from one queue and each task writes only its own
 * result slot, so a parallel run produces output bit-identical to the
 * serial path regardless of thread count or scheduling.
 */
#ifndef HERACLES_RUNNER_POOL_H
#define HERACLES_RUNNER_POOL_H

#include <condition_variable>
#include <deque>
#include <functional>
#include <mutex>
#include <optional>
#include <string_view>
#include <thread>
#include <utility>
#include <vector>

namespace heracles::runner {

/** Hardware concurrency with a floor of one. */
int HardwareJobs();

/**
 * A worker count: one or more decimal digits (no sign, no whitespace,
 * no exponent) with a value in 1..INT_MAX. Anything else ("4x", " 4",
 * "+4", "0", "-2", "", an overflow) is nullopt.
 */
std::optional<int> ParseJobCount(std::string_view v);

/**
 * Worker count when the caller gives no --jobs flag: the HERACLES_JOBS
 * environment variable when set, else HardwareJobs(). A value that
 * ParseJobCount rejects prints an error naming the variable and exits
 * 2, so a typo never silently becomes some other thread count. The
 * single home of that policy for benches and tools.
 */
int DefaultJobs();

/**
 * Fixed-size FIFO thread pool. Tasks must be independent: they may not
 * touch shared mutable state (simulations in this library never do).
 */
class Pool
{
  public:
    /** Spawns @p threads workers (clamped to at least one). */
    explicit Pool(int threads);

    /** Waits for submitted work, then joins the workers. */
    ~Pool();

    Pool(const Pool&) = delete;
    Pool& operator=(const Pool&) = delete;

    /** Enqueues one task. */
    void Submit(std::function<void()> fn);

    /** Blocks until every submitted task has completed. */
    void Wait();

    /** Number of worker threads (fixed at construction). */
    int threads() const { return static_cast<int>(workers_.size()); }

  private:
    void WorkerLoop();

    std::vector<std::thread> workers_;
    std::mutex mu_;
    std::condition_variable work_cv_;  ///< Signals workers: task or stop.
    std::condition_variable done_cv_;  ///< Signals Wait(): all drained.
    std::deque<std::function<void()>> tasks_;
    int in_flight_ = 0;  ///< Queued + currently-executing tasks.
    bool stop_ = false;
};

/**
 * Runs fn(0) .. fn(n-1) over @p pool, for callers that fan out
 * repeatedly (the epoch engine steps its leaves every barrier interval;
 * a thread spawn per epoch would dominate short intervals). Submits
 * min(threads, n) tasks; each claims the next unclaimed index from one
 * shared counter until none is left, so the work balances itself and
 * the per-call overhead is per thread, not per index. With a null pool,
 * a single-thread pool or n <= 1 the calls run inline in index order —
 * the serial reference path. Tasks must be independent, so which
 * thread runs which index can never change results. Blocks until every
 * index has run; the caller must not submit other work to @p pool
 * concurrently.
 */
void ParallelFor(Pool* pool, size_t n, const std::function<void(size_t)>& fn);

/**
 * ParallelFor over a Pool of min(jobs, n) threads spawned for this call;
 * with @p jobs <= 1 (or a single item) the calls run inline on the
 * calling thread in index order.
 */
void ParallelFor(int jobs, size_t n, const std::function<void(size_t)>& fn);

/**
 * ParallelFor that collects fn(i) into a vector indexed by i. Results
 * are merged in submission (index) order, so the output is identical for
 * every jobs value.
 */
template <typename Fn>
auto
ParallelMap(int jobs, size_t n, Fn&& fn)
{
    std::vector<decltype(fn(size_t{0}))> out(n);
    ParallelFor(jobs, n, [&](size_t i) { out[i] = fn(i); });
    return out;
}

}  // namespace heracles::runner

#endif  // HERACLES_RUNNER_POOL_H
