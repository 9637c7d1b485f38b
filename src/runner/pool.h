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
#include <thread>
#include <utility>
#include <vector>

namespace heracles::runner {

/** Hardware concurrency with a floor of one. */
int HardwareJobs();

/**
 * Worker count when the caller gives no --jobs flag: the HERACLES_JOBS
 * environment variable when set to a positive integer, else
 * HardwareJobs(). The single home of that policy for benches and tools.
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
 * Runs fn(0) .. fn(n-1). With @p jobs <= 1 (or a single item) the calls
 * run inline on the calling thread in index order — the serial reference
 * path; otherwise they fan out over a Pool of min(jobs, n) threads.
 */
void ParallelFor(int jobs, size_t n, const std::function<void(size_t)>& fn);

/**
 * ParallelFor over an existing pool and an explicit submission order,
 * for callers that fan out repeatedly (the epoch engine dispatches its
 * leaves every barrier interval — a thread spawn per epoch would
 * dominate short intervals). Runs fn(i) for every i in @p order,
 * submitting (or, with a null/single-thread pool, running inline) in
 * that sequence. The epoch engine submits its largest leaf batches
 * first so the pool's FIFO dispatch starts the long poles before the
 * stragglers — pure scheduling: tasks must be independent, so the order
 * can never change results. Blocks until every entry has run; the
 * caller must not submit other work to @p pool concurrently.
 */
void ParallelFor(Pool* pool, const std::vector<size_t>& order,
                 const std::function<void(size_t)>& fn);

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
