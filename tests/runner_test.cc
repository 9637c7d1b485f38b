/**
 * @file
 * Tests for the runner subsystem: pool semantics, ParallelFor/Map
 * ordering, and the core guarantee that a parallel fan-out of
 * simulations is bit-identical to the serial path.
 */
#include <gtest/gtest.h>

#include <atomic>
#include <climits>
#include <cstdlib>
#include <numeric>
#include <optional>
#include <string>
#include <vector>

#include "exp/experiment.h"
#include "runner/pool.h"

namespace heracles::runner {
namespace {

// --------------------------------------------------------------------------
// Pool

TEST(Pool, RunsEverySubmittedTask)
{
    Pool pool(4);
    std::atomic<int> count{0};
    for (int i = 0; i < 100; ++i) {
        pool.Submit([&count] { ++count; });
    }
    pool.Wait();
    EXPECT_EQ(count.load(), 100);
}

TEST(Pool, WaitIsReusable)
{
    Pool pool(2);
    std::atomic<int> count{0};
    pool.Submit([&count] { ++count; });
    pool.Wait();
    EXPECT_EQ(count.load(), 1);
    pool.Submit([&count] { ++count; });
    pool.Submit([&count] { ++count; });
    pool.Wait();
    EXPECT_EQ(count.load(), 3);
}

TEST(Pool, WaitOnEmptyPoolReturns)
{
    Pool pool(3);
    pool.Wait();  // nothing submitted; must not hang
    EXPECT_EQ(pool.threads(), 3);
}

TEST(Pool, ClampsThreadCountToOne)
{
    Pool pool(0);
    EXPECT_EQ(pool.threads(), 1);
    std::atomic<int> count{0};
    pool.Submit([&count] { ++count; });
    pool.Wait();
    EXPECT_EQ(count.load(), 1);
}

TEST(Pool, DestructorDrainsPendingWork)
{
    std::atomic<int> count{0};
    {
        Pool pool(2);
        for (int i = 0; i < 50; ++i) pool.Submit([&count] { ++count; });
    }
    EXPECT_EQ(count.load(), 50);
}

// --------------------------------------------------------------------------
// ParallelFor / ParallelMap

TEST(ParallelFor, SerialPathPreservesIndexOrder)
{
    std::vector<size_t> seen;
    ParallelFor(1, 10, [&seen](size_t i) { seen.push_back(i); });
    std::vector<size_t> want(10);
    std::iota(want.begin(), want.end(), 0);
    EXPECT_EQ(seen, want);
}

TEST(ParallelFor, CoversEveryIndexExactlyOnce)
{
    std::vector<std::atomic<int>> hits(64);
    ParallelFor(4, hits.size(), [&hits](size_t i) { ++hits[i]; });
    for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ParallelMap, ResultsIndexedRegardlessOfJobs)
{
    const auto square = [](size_t i) { return i * i; };
    const auto serial = ParallelMap(1, 32, square);
    const auto parallel = ParallelMap(4, 32, square);
    EXPECT_EQ(serial, parallel);
    EXPECT_EQ(serial[7], 49u);
}

TEST(HardwareJobs, AtLeastOne)
{
    EXPECT_GE(HardwareJobs(), 1);
}

// The HERACLES_JOBS contract. These tests parse and read the variable
// only; they construct no Pool, so they start no threads.
TEST(ParseJobCount, AcceptsOnlyPositiveDecimalIntegers)
{
    const struct {
        const char* in;
        std::optional<int> want;
    } cases[] = {
        {"3", 3},
        {"1", 1},
        {"2147483647", INT_MAX},
        {"4x", std::nullopt},
        {" 4", std::nullopt},
        {"4 ", std::nullopt},
        {"+4", std::nullopt},
        {"0", std::nullopt},
        {"-2", std::nullopt},
        {"", std::nullopt},
        {"abc", std::nullopt},
        {"2147483648", std::nullopt},
        {"999999999999", std::nullopt},
    };
    for (const auto& c : cases) {
        EXPECT_EQ(ParseJobCount(c.in), c.want) << "'" << c.in << "'";
    }
}

/** Sets (or, with nullptr, unsets) HERACLES_JOBS for one scope. */
class ScopedJobsEnv
{
  public:
    explicit ScopedJobsEnv(const char* v)
    {
        if (const char* old = std::getenv("HERACLES_JOBS")) saved_ = old;
        if (v != nullptr) {
            setenv("HERACLES_JOBS", v, 1);
        } else {
            unsetenv("HERACLES_JOBS");
        }
    }
    ~ScopedJobsEnv()
    {
        if (saved_.has_value()) {
            setenv("HERACLES_JOBS", saved_->c_str(), 1);
        } else {
            unsetenv("HERACLES_JOBS");
        }
    }

  private:
    std::optional<std::string> saved_;
};

TEST(DefaultJobs, ReadsTheEnvironmentStrictly)
{
    {
        const ScopedJobsEnv env(nullptr);
        EXPECT_EQ(DefaultJobs(), HardwareJobs());
    }
    {
        const ScopedJobsEnv env("3");
        EXPECT_EQ(DefaultJobs(), 3);
    }
    // Each case exits, so it runs in a freshly executed child rather
    // than a fork of a process other tests may have made threaded.
    ::testing::GTEST_FLAG(death_test_style) = "threadsafe";
    for (const char* bad : {"4x", "0", "-2", ""}) {
        const ScopedJobsEnv env(bad);
        EXPECT_EXIT(DefaultJobs(), ::testing::ExitedWithCode(2),
                    "HERACLES_JOBS wants a positive integer")
            << "'" << bad << "'";
    }
}

// --------------------------------------------------------------------------
// Fan-out determinism: the acceptance criterion. Simulations fanned out by
// ParallelMap (jobs=4) must produce results identical to the serial path
// for fixed seeds.

void
ExpectIdentical(const exp::LoadPointResult& a,
                const exp::LoadPointResult& b)
{
    EXPECT_DOUBLE_EQ(a.load, b.load);
    EXPECT_EQ(a.worst_tail, b.worst_tail);
    EXPECT_DOUBLE_EQ(a.tail_frac_slo, b.tail_frac_slo);
    EXPECT_EQ(a.slo_violated, b.slo_violated);
    EXPECT_DOUBLE_EQ(a.lc_throughput, b.lc_throughput);
    EXPECT_DOUBLE_EQ(a.be_throughput, b.be_throughput);
    EXPECT_DOUBLE_EQ(a.emu, b.emu);
    EXPECT_EQ(a.be_cores, b.be_cores);
    EXPECT_EQ(a.be_ways, b.be_ways);
    EXPECT_DOUBLE_EQ(a.be_freq_cap_ghz, b.be_freq_cap_ghz);
    EXPECT_DOUBLE_EQ(a.slack, b.slack);
    EXPECT_EQ(a.be_disables, b.be_disables);
}

TEST(FanOutDeterminism, ParallelRunsIdenticalToSerial)
{
    exp::ExperimentConfig heracles;
    heracles.lc = workloads::Websearch();
    heracles.be = workloads::Brain();
    heracles.policy = exp::PolicyKind::kHeracles;
    heracles.warmup = sim::Seconds(30);
    heracles.measure = sim::Seconds(30);
    heracles.seed = 7;
    exp::ExperimentConfig baseline = heracles;
    baseline.be.reset();
    baseline.policy = exp::PolicyKind::kNoColocation;
    const std::vector<exp::ExperimentConfig> configs = {heracles, baseline};
    const std::vector<double> loads = {0.2, 0.4, 0.6, 0.8};

    // Configs x loads flattened into one index, as the figure programs
    // fan out their grids.
    const size_t cols = loads.size();
    const auto run = [&](int jobs) {
        return ParallelMap(jobs, configs.size() * cols, [&](size_t i) {
            return exp::Experiment(configs[i / cols]).RunAt(loads[i % cols]);
        });
    };
    const auto serial = run(/*jobs=*/1);
    const auto parallel = run(/*jobs=*/4);

    ASSERT_EQ(serial.size(), configs.size() * cols);
    ASSERT_EQ(parallel.size(), serial.size());
    for (size_t i = 0; i < serial.size(); ++i) {
        EXPECT_DOUBLE_EQ(serial[i].load, loads[i % cols]);
        ExpectIdentical(serial[i], parallel[i]);
    }
}

}  // namespace
}  // namespace heracles::runner
