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
 *
 *  3. The target-run memo has no hidden input: a memoized target run
 *     equals a fresh one for every cluster scenario, every key field
 *     splits the key, and every field outside it leaves the run as is.
 */
#include <gtest/gtest.h>

#include <functional>
#include <string>
#include <utility>
#include <vector>

#include "chaos/fault_plan.h"
#include "cluster/cluster.h"
#include "cluster/epoch.h"
#include "runner/pool.h"
#include "scenarios/registry.h"
#include "scenarios/runner.h"
#include "workloads/antagonists.h"

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

TEST(LargeClusterInvariance, ParallelMatchesSerial)
{
    // 68 leaves on four threads: every worker claims leaves one at a
    // time from a shared counter, so which thread steps which leaf, and
    // in what order, changes from barrier to barrier. A serial run steps
    // the leaves in index order. Any leakage of the claim order into
    // simulation state shows up here.
    const scenarios::ScenarioSpec& spec =
        scenarios::MustFindScenario("cluster_scale_rack_sharded");

    scenarios::RunOptions serial = scenarios::RunOptions::Golden();
    serial.cluster_leaves = 68;
    serial.cluster_jobs = 1;
    scenarios::RunOptions parallel = serial;
    parallel.cluster_jobs = 4;

    const scenarios::ScenarioMetrics a =
        scenarios::RunScenario(spec, serial);
    const scenarios::ScenarioMetrics b =
        scenarios::RunScenario(spec, parallel);
    EXPECT_TRUE(a.ExactlyEquals(b))
        << spec.name << ": jobs=4 diverged from serial jobs=1\n"
        << "serial:\n"
        << scenarios::MetricsToJson(a) << "parallel:\n"
        << scenarios::MetricsToJson(b);
}

/** Two replicas of one shard, so every query touches exactly one leaf:
 *  while leaf 0 is down, every query routed to it is lost. */
cluster::ClusterResult
RunLostQueryCluster(int jobs)
{
    cluster::ClusterConfig cfg;
    cfg.leaves = 2;
    cfg.shards = 1;
    cfg.duration = sim::Minutes(4);
    cfg.target_run = sim::Minutes(1);
    cfg.run_warmup = sim::Seconds(30);
    cfg.faults.faults = {chaos::LeafCrash(0, 0.3, 0.6)};
    cfg.jobs = jobs;
    return cluster::ClusterExperiment(std::move(cfg)).Run();
}

TEST(PendingTable, LostQueriesAreDeterministic)
{
    // Each epoch the root's pending-query table takes one slot per
    // query, lost ones included, and reclaims its closed prefix at every
    // barrier. Four minutes span a dozen barriers, so the table is
    // reclaimed many times over, across the crash window that loses
    // every query routed to leaf 0.
    const cluster::ClusterResult a = RunLostQueryCluster(1);
    const cluster::ClusterResult b = RunLostQueryCluster(4);
    EXPECT_EQ(a.latency_frac.t, b.latency_frac.t);
    EXPECT_EQ(a.latency_frac.v, b.latency_frac.v);
    EXPECT_EQ(a.emu.t, b.emu.t);
    EXPECT_EQ(a.emu.v, b.emu.v);
    EXPECT_EQ(a.load.v, b.load.v);
    EXPECT_EQ(a.target, b.target);
    EXPECT_EQ(a.leaf_target, b.leaf_target);
    EXPECT_TRUE(static_cast<const exp::ActivityCounters&>(a) == b);
    EXPECT_EQ(a.epochs, b.epochs);
    EXPECT_EQ(a.leaf_events, b.leaf_events);

    // Pinned from the hash-map implementation the table replaced, then
    // re-pinned when the controller's LC utilization became a busy-time
    // counter delta (one window moved).
    const std::vector<double> latency_frac = {
        0.95245555915037161, 0.94722957787612538, 0.9029013298304962,
        0.91149703304328289, 0.94757996615858731, 0.95149293247547084,
        0.95417114215987309};
    const std::vector<double> emu = {
        0.34410762757319813, 0.11931906693839787, 0.086627461874383832,
        0.17323932765104333, 0.31206800986817967, 0.43721056401289249,
        0.50200562895026879};
    EXPECT_EQ(a.latency_frac.v, latency_frac);
    EXPECT_EQ(a.emu.v, emu);
    EXPECT_EQ(a.target, 4292505);
    EXPECT_EQ(a.leaf_target, 7692387);
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

cluster::ClusterConfig
GoldenClusterConfig(const std::string& name)
{
    return scenarios::ClusterConfigFor(scenarios::MustFindScenario(name),
                                       scenarios::RunOptions::Golden());
}

cluster::TargetKey
KeyOf(const cluster::ClusterConfig& cfg)
{
    return cluster::ClusterExperiment(cfg).MakeTargetKey();
}

/** A named edit of a cluster configuration. */
using Mutation =
    std::pair<std::string, std::function<void(cluster::ClusterConfig&)>>;

TEST(TargetMemo, MemoizedRunEqualsFreshRunForEveryClusterScenario)
{
    const std::vector<std::string> names = ClusterScenarioNames();
    std::vector<cluster::ClusterConfig> cfgs;
    for (const std::string& name : names) {
        cfgs.push_back(GoldenClusterConfig(name));
    }
    // Four scenarios at a time: catalog pairs that share a key race on
    // one memo entry, and the fresh runs simulate concurrently.
    const std::vector<const cluster::TargetRun*> memo =
        runner::ParallelMap(4, cfgs.size(), [&](size_t i) {
            return &cluster::ClusterExperiment(cfgs[i]).MemoizedTargetRun();
        });
    const std::vector<cluster::TargetRun> fresh =
        runner::ParallelMap(4, cfgs.size(), [&](size_t i) {
            return cluster::ClusterExperiment(cfgs[i]).MeasureTargetRun();
        });
    for (size_t i = 0; i < cfgs.size(); ++i) {
        EXPECT_FALSE(fresh[i].empty) << names[i];
        EXPECT_TRUE(*memo[i] == fresh[i])
            << names[i] << ": the memoized target run differs from a "
            << "fresh one, so its key misses an input";
        for (size_t j = 0; j < i; ++j) {
            // One key, one entry: a repeat of a key is a hit.
            EXPECT_EQ(KeyOf(cfgs[i]) == KeyOf(cfgs[j]), memo[i] == memo[j])
                << names[j] << " vs " << names[i];
        }
    }
}

TEST(TargetMemo, EveryKeyFieldSplitsTheKey)
{
    const cluster::ClusterConfig hetero =
        GoldenClusterConfig("cluster_hetero_static");
    const cluster::ClusterConfig uniform =
        GoldenClusterConfig("cluster_websearch_heracles");
    ASSERT_FALSE(hetero.leaf_specs.empty());
    ASSERT_TRUE(uniform.leaf_specs.empty());
    const std::vector<Mutation> mutations = {
        {"seed", [](auto& c) { c.seed += 1; }},
        {"lc", [](auto& c) { c.lc.peak_qps *= 1.01; }},
        {"shards", [](auto& c) { c.shards = 2; }},
        {"rack_size", [](auto& c) { c.rack_size = 2; }},
        {"target_run", [](auto& c) { c.target_run += sim::Seconds(30); }},
        {"run_warmup", [](auto& c) { c.run_warmup += sim::Seconds(1); }},
        {"jobs", [](auto& c) { c.jobs += 1; }},
        {"leaf lc", [](auto& c) { c.leaf_specs[1].lc.mean_service += 1; }},
        {"leaf machine",
         [](auto& c) { c.leaf_specs[0].machine.cores_per_socket -= 1; }},
        {"leaf count", [](auto& c) { c.leaf_specs.pop_back(); }},
    };
    for (const auto& [name, mutate] : mutations) {
        cluster::ClusterConfig cfg = hetero;
        mutate(cfg);
        EXPECT_FALSE(KeyOf(cfg) == KeyOf(hetero)) << name;
    }
    // A uniform cluster's leaves come from its leaf count, machine and
    // root LC.
    const std::vector<Mutation> synthesized = {
        {"leaves", [](auto& c) { c.leaves += 1; }},
        {"machine", [](auto& c) { c.machine.llc_ways -= 1; }},
        {"lc", [](auto& c) { c.lc.mean_service += 1; }},
    };
    for (const auto& [name, mutate] : synthesized) {
        cluster::ClusterConfig cfg = uniform;
        mutate(cfg);
        EXPECT_FALSE(KeyOf(cfg) == KeyOf(uniform)) << name;
    }
}

TEST(TargetMemo, FieldsOutsideTheKeyHitAndMatchAFreshRun)
{
    const cluster::ClusterConfig base =
        GoldenClusterConfig("cluster_hetero_static");
    ASSERT_TRUE(base.leaf_specs[0].be.has_value());
    const std::vector<Mutation> mutations = {
        {"scheduler",
         [](auto& c) {
             c.scheduler.policy = cluster::SchedulerPolicy::kPredictive;
         }},
        {"be_jobs", [](auto& c) { c.be_jobs = {workloads::Brain()}; }},
        {"faults",
         [](auto& c) { c.faults.faults = {chaos::LeafCrash(0, 0.2, 0.4)}; }},
        {"central_controller",
         [](auto& c) { c.central_controller = !c.central_controller; }},
        {"flash_crowd", [](auto& c) { c.flash_crowd = !c.flash_crowd; }},
        {"duration", [](auto& c) { c.duration *= 2; }},
        {"load_low", [](auto& c) { c.load_low += 0.05; }},
        {"load_high", [](auto& c) { c.load_high -= 0.05; }},
        {"per_leaf_targets",
         [](auto& c) { c.per_leaf_targets = !c.per_leaf_targets; }},
        {"heracles", [](auto& c) { c.heracles.top_period *= 2; }},
        {"colocate", [](auto& c) { c.colocate = !c.colocate; }},
        {"leaf be", [](auto& c) { c.leaf_specs[0].be.reset(); }},
        {"leaf tail_scale", [](auto& c) { c.leaf_specs[0].tail_scale = 1.5; }},
        {"leaf machine seed",
         [](auto& c) { c.leaf_specs[0].machine.seed = 99; }},
    };
    std::vector<cluster::ClusterConfig> cfgs;
    for (const auto& m : mutations) {
        cfgs.push_back(base);
        m.second(cfgs.back());
    }
    const cluster::TargetRun& memo =
        cluster::ClusterExperiment(base).MemoizedTargetRun();
    const std::vector<cluster::TargetRun> fresh =
        runner::ParallelMap(4, cfgs.size(), [&](size_t i) {
            return cluster::ClusterExperiment(cfgs[i]).MeasureTargetRun();
        });
    for (size_t i = 0; i < cfgs.size(); ++i) {
        const std::string& name = mutations[i].first;
        EXPECT_TRUE(KeyOf(cfgs[i]) == KeyOf(base)) << name;
        EXPECT_EQ(&cluster::ClusterExperiment(cfgs[i]).MemoizedTargetRun(),
                  &memo)
            << name;
        EXPECT_TRUE(fresh[i] == memo)
            << name << " changes the target run but is not in its key";
    }
}

TEST(TargetMemo, FreshRunIsJobsInvariant)
{
    cluster::ClusterConfig serial =
        GoldenClusterConfig("cluster_hetero_greedy_diurnal");
    serial.jobs = 1;
    cluster::ClusterConfig parallel = serial;
    parallel.jobs = 4;
    const cluster::TargetRun a =
        cluster::ClusterExperiment(serial).MeasureTargetRun();
    const cluster::TargetRun b =
        cluster::ClusterExperiment(parallel).MeasureTargetRun();
    EXPECT_EQ(a.leaf_tails.size(), 4u);
    EXPECT_TRUE(a == b) << "cluster jobs=4 changed the target run";
}

}  // namespace
}  // namespace heracles
