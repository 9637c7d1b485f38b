#include "runner/pool.h"

#include <algorithm>
#include <cstdlib>

namespace heracles::runner {

int
HardwareJobs()
{
    const unsigned hw = std::thread::hardware_concurrency();
    return hw > 0 ? static_cast<int>(hw) : 1;
}

int
DefaultJobs()
{
    if (const char* v = std::getenv("HERACLES_JOBS")) {
        const int n = std::atoi(v);
        if (n > 0) return n;
    }
    return HardwareJobs();
}

Pool::Pool(int threads)
{
    const int n = std::max(1, threads);
    workers_.reserve(n);
    for (int i = 0; i < n; ++i) {
        workers_.emplace_back([this] { WorkerLoop(); });
    }
}

Pool::~Pool()
{
    Wait();
    {
        std::lock_guard<std::mutex> lock(mu_);
        stop_ = true;
    }
    work_cv_.notify_all();
    for (auto& w : workers_) w.join();
}

void
Pool::Submit(std::function<void()> fn)
{
    {
        std::lock_guard<std::mutex> lock(mu_);
        tasks_.push_back(std::move(fn));
        ++in_flight_;
    }
    work_cv_.notify_one();
}

void
Pool::Wait()
{
    std::unique_lock<std::mutex> lock(mu_);
    done_cv_.wait(lock, [this] { return in_flight_ == 0; });
}

void
Pool::WorkerLoop()
{
    for (;;) {
        std::function<void()> task;
        {
            std::unique_lock<std::mutex> lock(mu_);
            work_cv_.wait(lock,
                          [this] { return stop_ || !tasks_.empty(); });
            if (tasks_.empty()) return;  // stop_ and drained
            task = std::move(tasks_.front());
            tasks_.pop_front();
        }
        task();
        {
            std::lock_guard<std::mutex> lock(mu_);
            if (--in_flight_ == 0) done_cv_.notify_all();
        }
    }
}

void
ParallelFor(int jobs, size_t n, const std::function<void(size_t)>& fn)
{
    if (jobs <= 1 || n <= 1) {
        for (size_t i = 0; i < n; ++i) fn(i);
        return;
    }
    Pool pool(std::min<size_t>(static_cast<size_t>(jobs), n));
    for (size_t i = 0; i < n; ++i) {
        pool.Submit([&fn, i] { fn(i); });
    }
    pool.Wait();
}

void
ParallelFor(Pool* pool, const std::vector<size_t>& order,
            const std::function<void(size_t)>& fn)
{
    if (pool == nullptr || pool->threads() <= 1 || order.size() <= 1) {
        for (size_t i : order) fn(i);
        return;
    }
    for (size_t i : order) {
        pool->Submit([&fn, i] { fn(i); });
    }
    pool->Wait();
}

}  // namespace heracles::runner
