/**
 * @file
 * The epoch engine's two contracts, asserted directly:
 *
 *  1. Thread-count invariance: every cluster scenario in the catalog
 *     (clean weather and chaos alike) produces a bit-identical metrics
 *     record with the leaf fan-out serial (cluster_jobs=1) and parallel
 *     (cluster_jobs=4). The golden harness separately pins *what* those
 *     records contain; this suite pins that parallelism cannot change
 *     them.
 *
 *  2. The barrier clock: every instant where cross-leaf state may move
 *     (SLO window closes, scheduler ticks, leaf crash/recover and
 *     slack-freeze boundaries, end of run) is a barrier, the schedule
 *     is sorted and duplicate-free, and it depends only on the
 *     configuration — never on thread count or event timing.
 */
#include <gtest/gtest.h>

#include "chaos/fault_plan.h"
#include "cluster/epoch.h"
#include "scenarios/registry.h"
#include "scenarios/runner.h"

namespace heracles {
namespace {

using cluster::BarrierClock;

/** Every cluster scenario in the catalog, by name — one test case
 *  each, so a divergence names its scenario and a slow run doesn't
 *  hide behind one monolithic test. */
std::vector<std::string>
ClusterScenarioNames()
{
    std::vector<std::string> names;
    for (const scenarios::ScenarioSpec& s : scenarios::AllScenarios()) {
        if (s.topology == scenarios::Topology::kCluster) {
            names.push_back(s.name);
        }
    }
    return names;
}

class JobsInvariance : public ::testing::TestWithParam<std::string>
{
};

TEST_P(JobsInvariance, SerialAndParallelRunsAreBitIdentical)
{
    const scenarios::ScenarioSpec& spec =
        scenarios::MustFindScenario(GetParam());

    scenarios::RunOptions serial = scenarios::RunOptions::Golden();
    serial.cluster_jobs = 1;
    scenarios::RunOptions parallel = scenarios::RunOptions::Golden();
    parallel.cluster_jobs = 4;

    const scenarios::ScenarioMetrics a =
        scenarios::RunScenario(spec, serial);
    const scenarios::ScenarioMetrics b =
        scenarios::RunScenario(spec, parallel);
    EXPECT_TRUE(a.ExactlyEquals(b))
        << spec.name << ": cluster_jobs=4 diverged from cluster_jobs=1\n"
        << "jobs=1:\n"
        << scenarios::MetricsToJson(a) << "jobs=4:\n"
        << scenarios::MetricsToJson(b);
}

INSTANTIATE_TEST_SUITE_P(
    Catalog, JobsInvariance,
    ::testing::ValuesIn(ClusterScenarioNames()),
    [](const ::testing::TestParamInfo<std::string>& info) {
        return info.param;
    });

TEST(BatchingInvariance, BatchedParallelMatchesSerial)
{
    // Leaf batching switches on at 64 leaves: 68 leaves step in nine
    // batches of up to 8, the last holding four. A serial run steps the
    // leaves one by one; the parallel run submits the batches largest
    // first. Any leakage of the batch mapping or the batch submission
    // order into simulation state shows up here.
    const scenarios::ScenarioSpec& spec =
        scenarios::MustFindScenario("cluster_scale_rack_sharded");

    scenarios::RunOptions serial = scenarios::RunOptions::Golden();
    serial.cluster_leaves = 68;
    serial.cluster_jobs = 1;
    scenarios::RunOptions batched = serial;
    batched.cluster_jobs = 4;

    const scenarios::ScenarioMetrics a =
        scenarios::RunScenario(spec, serial);
    const scenarios::ScenarioMetrics b =
        scenarios::RunScenario(spec, batched);
    EXPECT_TRUE(a.ExactlyEquals(b))
        << spec.name << ": batched jobs=4 diverged from serial jobs=1\n"
        << "serial:\n"
        << scenarios::MetricsToJson(a) << "batched:\n"
        << scenarios::MetricsToJson(b);
}

TEST(LeafBatching, AutoPolicyBatchesOnlyLargeClusters)
{
    // The mapping is configuration-only: a function of the leaf count.
    EXPECT_EQ(cluster::LeafBatching::Resolve(3).batch_size, 1u);
    EXPECT_EQ(cluster::LeafBatching::Resolve(63).batch_size, 1u);
    EXPECT_EQ(cluster::LeafBatching::Resolve(64).batch_size, 8u);
    EXPECT_EQ(cluster::LeafBatching::Resolve(1024).batch_size, 8u);
    EXPECT_EQ(cluster::LeafBatching::Resolve(0).batches(), 0u);
}

TEST(LeafBatching, MappingPinsContiguousBatches)
{
    // 10 leaves in batches of 4: [0..3], [4..7], [8..9]. This exact
    // mapping is what makes a batched run reproducible — pin it.
    const cluster::LeafBatching b{10, 4};
    EXPECT_EQ(b.batches(), 3u);
    EXPECT_EQ(b.BatchOf(0), 0u);
    EXPECT_EQ(b.BatchOf(3), 0u);
    EXPECT_EQ(b.BatchOf(4), 1u);
    EXPECT_EQ(b.BatchOf(7), 1u);
    EXPECT_EQ(b.BatchOf(9), 2u);
    EXPECT_EQ(b.BatchBegin(1), 4u);
    EXPECT_EQ(b.BatchEnd(1), 8u);
    EXPECT_EQ(b.BatchEnd(2), 10u);  // final batch is short
    for (size_t leaf = 0; leaf < 10; ++leaf) {
        const size_t batch = b.BatchOf(leaf);
        EXPECT_GE(leaf, b.BatchBegin(batch));
        EXPECT_LT(leaf, b.BatchEnd(batch));
    }
}

TEST(BarrierClock, ContainsEveryWindowAndSchedulerTick)
{
    const sim::Duration duration = sim::Seconds(200);
    const sim::Duration window = sim::Seconds(30);
    const sim::Duration period = sim::Seconds(45);
    const BarrierClock clock =
        BarrierClock::Build(duration, window, period, {});

    for (sim::SimTime t = window; t <= duration; t += window) {
        EXPECT_TRUE(clock.IsBarrier(t)) << "missing window close at " << t;
    }
    for (sim::SimTime t = period; t <= duration; t += period) {
        EXPECT_TRUE(clock.IsBarrier(t))
            << "missing scheduler tick at " << t;
    }
    // The run's final instant is always a barrier, even when (as here,
    // 200s) it is a multiple of neither period.
    EXPECT_EQ(clock.barriers.back(), duration);
    EXPECT_TRUE(clock.IsBarrier(duration));
    EXPECT_FALSE(clock.IsBarrier(0));
    EXPECT_FALSE(clock.IsBarrier(sim::Seconds(29)));
}

TEST(BarrierClock, IsSortedAndUnique)
{
    // window and scheduler share multiples (60, 120, ...) — each must
    // appear exactly once, in order.
    const BarrierClock clock = BarrierClock::Build(
        sim::Seconds(180), sim::Seconds(30), sim::Seconds(60), {});
    for (size_t i = 1; i < clock.barriers.size(); ++i) {
        EXPECT_LT(clock.barriers[i - 1], clock.barriers[i]);
    }
}

TEST(BarrierClock, FaultBoundariesLandOnExactBarriers)
{
    // The scenario-layer guarantee behind chaos_cluster_*: a leaf crash
    // or slack-freeze window resolved from plan fractions begins and
    // ends exactly at a barrier, so liveness and frozen exports change
    // only between epochs — never inside one — and the parallel run
    // cannot order a crash against in-flight leaf events differently
    // than the serial run.
    const sim::Duration duration = sim::Minutes(8);
    chaos::FaultPlan plan;
    plan.faults = {chaos::LeafCrash(1, 0.55, 0.85),
                   chaos::SlackFreeze(0, 0.25, 0.75)};
    std::vector<chaos::TimedFault> resolved;
    for (const chaos::FaultSpec& f : plan.faults) {
        resolved.push_back(chaos::ResolveWindow(f, duration));
    }

    const BarrierClock clock = BarrierClock::Build(
        duration, sim::Seconds(30), sim::Seconds(30), resolved);
    for (const chaos::TimedFault& f : resolved) {
        EXPECT_TRUE(clock.IsBarrier(f.begin))
            << "fault begin " << f.begin << " is not a barrier";
        EXPECT_TRUE(clock.IsBarrier(f.end))
            << "fault end " << f.end << " is not a barrier";
    }
}

TEST(BarrierClock, IgnoresFaultBoundariesOutsideTheRun)
{
    std::vector<chaos::TimedFault> faults(1);
    faults[0].kind = chaos::FaultKind::kLeafCrash;
    faults[0].leaf = 0;
    faults[0].begin = 0;                  // applied before the first epoch
    faults[0].end = sim::Seconds(999);    // beyond the run: never recovers
    const BarrierClock clock = BarrierClock::Build(
        sim::Seconds(90), sim::Seconds(30), 0, faults);
    EXPECT_FALSE(clock.IsBarrier(0));
    EXPECT_FALSE(clock.IsBarrier(sim::Seconds(999)));
    EXPECT_EQ(clock.barriers.back(), sim::Seconds(90));
}

}  // namespace
}  // namespace heracles
