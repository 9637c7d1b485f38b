/**
 * @file
 * Tests for the composable cluster layer: the pure scheduler decision
 * engine, the root topology's replica groups, and the end-to-end guarantees the
 * cluster must keep — static-split runs exactly equal to their
 * checked-in goldens, placement determinism
 * under a fixed seed, and the greedy scheduler's EMU win over the
 * static split on the heterogeneous diurnal scenario.
 */
#include <gtest/gtest.h>

#include <algorithm>
#include <fstream>
#include <map>
#include <set>
#include <sstream>

#include "cluster/scheduler.h"
#include "cluster/topology.h"
#include "scenarios/registry.h"
#include "scenarios/runner.h"

namespace heracles {
namespace {

using cluster::ClusterScheduler;
using cluster::SchedulerConfig;
using cluster::SchedulerPolicy;

using LeafState = ClusterScheduler::LeafState;
using Move = ClusterScheduler::Move;

LeafState
Idle(double slack)
{
    LeafState s;
    s.slack = slack;
    s.has_signal = true;
    return s;
}

LeafState
Hosting(double slack, bool be_enabled)
{
    LeafState s = Idle(slack);
    s.hosts_job = true;
    s.be_enabled = be_enabled;
    return s;
}

// --------------------------------------------------------------------------
// ClusterScheduler: pure decision engine

TEST(Scheduler, GreedyPlacesOnMostSlackFirst)
{
    SchedulerConfig cfg;
    cfg.policy = SchedulerPolicy::kGreedySlack;
    ClusterScheduler sched(cfg, /*jobs=*/2, /*leaves=*/4);

    const auto moves = sched.Tick(
        {Idle(0.2), Idle(0.5), Idle(0.9), Idle(0.4)});
    ASSERT_EQ(moves.size(), 2u);
    EXPECT_EQ(moves[0].job, 0);
    EXPECT_EQ(moves[0].from, -1);
    EXPECT_EQ(moves[0].to, 2);  // most slack
    EXPECT_EQ(moves[1].job, 1);
    EXPECT_EQ(moves[1].to, 1);  // next-most among free leaves
    EXPECT_EQ(sched.stats().placements, 2u);
    EXPECT_EQ(sched.stats().migrations, 0u);
    EXPECT_EQ(sched.QueuedJobs(), 0);
}

TEST(Scheduler, GreedyHoldsJobsBelowPlacementFloor)
{
    SchedulerConfig cfg;
    cfg.policy = SchedulerPolicy::kGreedySlack;
    ClusterScheduler sched(cfg, 2, 3);

    EXPECT_TRUE(sched.Tick({Idle(0.05), Idle(0.08), Idle(0.02)}).empty());
    EXPECT_EQ(sched.QueuedJobs(), 2);

    // Slack recovers on one leaf: exactly one job leaves the queue.
    const auto moves = sched.Tick({Idle(0.05), Idle(0.4), Idle(0.02)});
    ASSERT_EQ(moves.size(), 1u);
    EXPECT_EQ(moves[0].to, 1);
    EXPECT_EQ(sched.QueuedJobs(), 1);
}

TEST(Scheduler, GreedySkipsCooldownLeaves)
{
    SchedulerConfig cfg;
    cfg.policy = SchedulerPolicy::kGreedySlack;
    ClusterScheduler sched(cfg, 1, 2);

    LeafState cooling = Idle(0.9);
    cooling.in_cooldown = true;
    const auto moves = sched.Tick({cooling, Idle(0.3)});
    ASSERT_EQ(moves.size(), 1u);
    EXPECT_EQ(moves[0].to, 1);
}

TEST(Scheduler, GreedyMigratesAwayFromStarvedLeafAfterResidency)
{
    SchedulerConfig cfg;
    cfg.policy = SchedulerPolicy::kGreedySlack;
    cfg.min_resident_ticks = 2;
    ClusterScheduler sched(cfg, 1, 3);

    ASSERT_EQ(sched.Tick({Idle(0.8), Idle(0.3), Idle(0.2)}).size(), 1u);
    ASSERT_EQ(sched.LeafOf(0), 0);

    // The hosting leaf stops running BE (load safeguard): no move on
    // the first starved tick (residency), migration on the second.
    EXPECT_TRUE(
        sched.Tick({Hosting(0.8, false), Idle(0.3), Idle(0.2)}).empty());
    const auto moves =
        sched.Tick({Hosting(0.8, false), Idle(0.3), Idle(0.2)});
    ASSERT_EQ(moves.size(), 1u);
    EXPECT_EQ(moves[0].from, 0);
    EXPECT_EQ(moves[0].to, 1);
    EXPECT_EQ(sched.stats().migrations, 1u);
    EXPECT_EQ(sched.LeafOf(0), 1);
}

TEST(Scheduler, GreedySlackMigrationNeedsHysteresisGain)
{
    SchedulerConfig cfg;
    cfg.policy = SchedulerPolicy::kGreedySlack;
    cfg.min_resident_ticks = 1;
    ClusterScheduler sched(cfg, 1, 2);

    ASSERT_EQ(sched.Tick({Idle(0.5), Idle(0.4)}).size(), 1u);

    // Source slack collapsed below the migrate floor, but BE still
    // runs and the destination is not better by migrate_min_gain.
    EXPECT_TRUE(sched.Tick({Hosting(0.04, true), Idle(0.1)}).empty());
    // A clearly better destination: the job moves.
    const auto moves = sched.Tick({Hosting(0.04, true), Idle(0.5)});
    ASSERT_EQ(moves.size(), 1u);
    EXPECT_EQ(moves[0].from, 0);
    EXPECT_EQ(moves[0].to, 1);
}

TEST(Scheduler, RoundRobinIgnoresSlackAndRotates)
{
    SchedulerConfig cfg;
    cfg.policy = SchedulerPolicy::kRoundRobin;
    cfg.min_resident_ticks = 1;
    ClusterScheduler sched(cfg, 2, 4);

    // Placement ignores slack: jobs land on leaves 0 and 1 even though
    // leaf 3 has far more slack.
    const auto moves =
        sched.Tick({Idle(0.02), Idle(0.05), Idle(0.1), Idle(0.9)});
    ASSERT_EQ(moves.size(), 2u);
    EXPECT_EQ(moves[0].to, 0);
    EXPECT_EQ(moves[1].to, 1);

    // A starved job moves to the next leaf in rotation, not the best.
    const auto mig = sched.Tick({Hosting(0.02, false),
                                 Hosting(0.05, true), Idle(0.1),
                                 Idle(0.9)});
    ASSERT_EQ(mig.size(), 1u);
    EXPECT_EQ(mig[0].from, 0);
    EXPECT_EQ(mig[0].to, 2);
    EXPECT_EQ(sched.stats().placements, 2u);
    EXPECT_EQ(sched.stats().migrations, 1u);
}

TEST(Scheduler, CounterAccountingMatchesMoves)
{
    SchedulerConfig cfg;
    cfg.policy = SchedulerPolicy::kGreedySlack;
    cfg.min_resident_ticks = 1;
    ClusterScheduler sched(cfg, 2, 3);

    uint64_t placements = 0, migrations = 0;
    std::vector<std::vector<LeafState>> rounds = {
        {Idle(0.5), Idle(0.3), Idle(0.02)},
        {Hosting(0.5, false), Hosting(0.3, true), Idle(0.4)},
        {Idle(0.5), Hosting(0.3, true), Hosting(0.4, false)},
        {Hosting(0.6, true), Hosting(0.3, true), Idle(0.4)},
    };
    for (auto& r : rounds) {
        // Keep hosts_job consistent with the engine's own assignment.
        for (size_t i = 0; i < r.size(); ++i) {
            bool hosts = false;
            for (int j = 0; j < 2; ++j) {
                hosts |= sched.LeafOf(j) == static_cast<int>(i);
            }
            r[i].hosts_job = hosts;
        }
        for (const Move& m : sched.Tick(r)) {
            if (m.from < 0) {
                ++placements;
            } else {
                ++migrations;
            }
        }
    }
    EXPECT_EQ(sched.stats().placements, placements);
    EXPECT_EQ(sched.stats().migrations, migrations);
    EXPECT_EQ(sched.stats().ticks, rounds.size());
}

TEST(Scheduler, NeverPlacesOntoCrashedLeaf)
{
    // Both dynamic policies must treat a crashed leaf as unplaceable no
    // matter how attractive its (stale) slack looks.
    for (SchedulerPolicy policy :
         {SchedulerPolicy::kGreedySlack, SchedulerPolicy::kRoundRobin}) {
        SchedulerConfig cfg;
        cfg.policy = policy;
        ClusterScheduler sched(cfg, /*jobs=*/2, /*leaves=*/3);
        LeafState dead = Idle(0.95);
        dead.crashed = true;
        const auto moves =
            sched.Tick({dead, Idle(0.4), Idle(0.3)});
        ASSERT_EQ(moves.size(), 2u) << cluster::SchedulerPolicyName(policy);
        for (const Move& m : moves) {
            EXPECT_NE(m.to, 0) << cluster::SchedulerPolicyName(policy);
        }
    }
}

TEST(Scheduler, AllLeavesCrashedKeepsJobsQueued)
{
    SchedulerConfig cfg;
    cfg.policy = SchedulerPolicy::kGreedySlack;
    ClusterScheduler sched(cfg, /*jobs=*/1, /*leaves=*/2);
    LeafState dead = Idle(0.9);
    dead.crashed = true;
    EXPECT_TRUE(sched.Tick({dead, dead}).empty());
    EXPECT_EQ(sched.QueuedJobs(), 1);
}

TEST(Scheduler, ReleasedJobIsReplacedOnALiveLeaf)
{
    SchedulerConfig cfg;
    cfg.policy = SchedulerPolicy::kGreedySlack;
    ClusterScheduler sched(cfg, /*jobs=*/1, /*leaves=*/3);
    ASSERT_EQ(sched.Tick({Idle(0.9), Idle(0.4), Idle(0.3)}).size(), 1u);
    ASSERT_EQ(sched.LeafOf(0), 0);

    // The hosting leaf crashes: the cluster layer evicts the job and
    // hands it back without a Move.
    sched.ReleaseJob(0);
    EXPECT_EQ(sched.LeafOf(0), -1);
    EXPECT_EQ(sched.QueuedJobs(), 1);

    LeafState dead = Idle(0.9);
    dead.crashed = true;
    const auto moves = sched.Tick({dead, Idle(0.4), Idle(0.3)});
    ASSERT_EQ(moves.size(), 1u);
    EXPECT_EQ(moves[0].from, -1) << "a re-placement, not a migration";
    EXPECT_EQ(moves[0].to, 1) << "best *live* leaf";
    EXPECT_EQ(sched.stats().placements, 2u);
    EXPECT_EQ(sched.stats().migrations, 0u);
}

// --------------------------------------------------------------------------
// Predictive policy: fingerprint table ranks, live slack only vetoes

TEST(Scheduler, PredictivePlacesByPredictionNotSlack)
{
    SchedulerConfig cfg;
    cfg.policy = SchedulerPolicy::kPredictive;
    ClusterScheduler sched(cfg, /*jobs=*/1, /*leaves=*/3);
    // Leaf 0 has the most slack but the worst prediction; leaf 2 is the
    // fingerprint favorite.
    sched.SetPredictions({{2.0, 1.8, 1.5}});
    const auto moves = sched.Tick({Idle(0.9), Idle(0.5), Idle(0.4)});
    ASSERT_EQ(moves.size(), 1u);
    EXPECT_EQ(moves[0].to, 2);
}

TEST(Scheduler, PredictiveSlackVetoExcludesPredictedBest)
{
    SchedulerConfig cfg;
    cfg.policy = SchedulerPolicy::kPredictive;
    ClusterScheduler sched(cfg, 1, 3);
    sched.SetPredictions({{2.0, 1.8, 1.5}});
    // The predicted-best leaf sits below the placement floor: reaction
    // vetoes, prediction falls back to its next choice.
    const auto moves = sched.Tick({Idle(0.9), Idle(0.5), Idle(0.02)});
    ASSERT_EQ(moves.size(), 1u);
    EXPECT_EQ(moves[0].to, 1);
}

TEST(Scheduler, PredictiveToleranceCapHoldsJobQueued)
{
    SchedulerConfig cfg;
    cfg.policy = SchedulerPolicy::kPredictive;  // tolerance 1.6
    ClusterScheduler sched(cfg, 1, 3);
    sched.SetPredictions({{1.0, 2.0, 5.0}});
    // The only sane machine (leaf 0, the cap reference) is down; both
    // live leaves are predicted past 1.6x the pod best, so the job
    // holds queued rather than feed a leaf that will starve it.
    LeafState dead = Idle(0.9);
    dead.crashed = true;
    EXPECT_TRUE(sched.Tick({dead, Idle(0.8), Idle(0.7)}).empty());
    EXPECT_EQ(sched.QueuedJobs(), 1);

    // The sane leaf comes back: the held job lands exactly there.
    const auto moves = sched.Tick({Idle(0.9), Idle(0.8), Idle(0.7)});
    ASSERT_EQ(moves.size(), 1u);
    EXPECT_EQ(moves[0].to, 0);
}

TEST(Scheduler, PredictiveRegretOrdersPlacements)
{
    SchedulerConfig cfg;
    cfg.policy = SchedulerPolicy::kPredictive;
    ClusterScheduler sched(cfg, /*jobs=*/2, /*leaves=*/3);
    // Job 0 barely cares where it lands; job 1 loses big unless it gets
    // leaf 0. Index order would hand leaf 0 to the indifferent job;
    // regret order places the choosy job first.
    sched.SetPredictions({{1.0, 1.05, 1.1}, {1.0, 3.0, 3.2}});
    const auto moves = sched.Tick({Idle(0.5), Idle(0.5), Idle(0.5)});
    ASSERT_EQ(moves.size(), 2u);
    EXPECT_EQ(moves[0].job, 1);
    EXPECT_EQ(moves[0].to, 0);
    EXPECT_EQ(moves[1].job, 0);
    EXPECT_EQ(moves[1].to, 1);
}

TEST(Scheduler, PredictiveStarvedMoveNeedsPredictedBetter)
{
    SchedulerConfig cfg;
    cfg.policy = SchedulerPolicy::kPredictive;
    cfg.min_resident_ticks = 1;
    ClusterScheduler sched(cfg, 1, 2);
    sched.SetPredictions({{2.0, 2.04}});
    ASSERT_EQ(sched.Tick({Idle(0.5), Idle(0.5)}).size(), 1u);
    ASSERT_EQ(sched.LeafOf(0), 0);

    // Starved on the fingerprint-best leaf: the only destination is
    // predicted worse, so the job holds its ground instead of
    // panic-hopping (the controller will re-enable it; a worse host
    // never stops being worse).
    EXPECT_TRUE(sched.Tick({Hosting(0.5, false), Idle(0.9)}).empty());
    EXPECT_EQ(sched.LeafOf(0), 0);
}

TEST(Scheduler, PredictiveEvictionWaivesMarginNotDirection)
{
    SchedulerConfig cfg;
    cfg.policy = SchedulerPolicy::kPredictive;  // predict_min_gain 0.05
    cfg.min_resident_ticks = 1;
    ClusterScheduler sched(cfg, 1, 2);
    // Best leaf taken at placement time: the job settles for leaf 1.
    sched.SetPredictions({{1.98, 2.0}});
    ASSERT_EQ(sched.Tick({Hosting(0.5, true), Idle(0.5)}).size(), 1u);
    ASSERT_EQ(sched.LeafOf(0), 1);

    // Tight slack with BE still running: gain 0.02 is under the 0.05
    // margin, so the hysteresis holds the job.
    EXPECT_TRUE(sched.Tick({Idle(0.9), Hosting(0.04, true)}).empty());

    // Outright starvation waives the margin: the same 0.02 gain now
    // moves the job to the predicted-better leaf.
    const auto moves = sched.Tick({Idle(0.9), Hosting(0.5, false)});
    ASSERT_EQ(moves.size(), 1u);
    EXPECT_EQ(moves[0].from, 1);
    EXPECT_EQ(moves[0].to, 0);
}

TEST(Scheduler, AllLeavesDownEveryPolicyHoldsQueue)
{
    // A pod with every leaf crashed (or cooling down) must not spin,
    // move, or fake-place under any dynamic policy; jobs stay queued
    // until a leaf actually recovers.
    for (SchedulerPolicy policy :
         {SchedulerPolicy::kGreedySlack, SchedulerPolicy::kRoundRobin,
          SchedulerPolicy::kPredictive}) {
        SchedulerConfig cfg;
        cfg.policy = policy;
        ClusterScheduler sched(cfg, /*jobs=*/1, /*leaves=*/2);
        if (policy == SchedulerPolicy::kPredictive) {
            sched.SetPredictions({{1.0, 1.0}});
        }
        LeafState dead = Idle(0.9);
        dead.crashed = true;
        LeafState cooling = Idle(0.9);
        cooling.in_cooldown = true;

        EXPECT_TRUE(sched.Tick({dead, dead}).empty())
            << cluster::SchedulerPolicyName(policy);
        EXPECT_TRUE(sched.Tick({dead, cooling}).empty())
            << cluster::SchedulerPolicyName(policy);
        EXPECT_EQ(sched.QueuedJobs(), 1)
            << cluster::SchedulerPolicyName(policy);

        // First recovered leaf hosts the queued job — and round-robin's
        // cursor must not have advanced while everything was down.
        const auto moves = sched.Tick({Idle(0.9), dead});
        ASSERT_EQ(moves.size(), 1u)
            << cluster::SchedulerPolicyName(policy);
        EXPECT_EQ(moves[0].to, 0) << cluster::SchedulerPolicyName(policy);
        EXPECT_EQ(sched.QueuedJobs(), 0)
            << cluster::SchedulerPolicyName(policy);
    }
}

TEST(Scheduler, PredictiveReleaseThenReplaceHonorsCap)
{
    SchedulerConfig cfg;
    cfg.policy = SchedulerPolicy::kPredictive;
    ClusterScheduler sched(cfg, 1, 2);
    sched.SetPredictions({{1.0, 1.5}});
    ASSERT_EQ(sched.Tick({Idle(0.5), Idle(0.5)}).size(), 1u);
    ASSERT_EQ(sched.LeafOf(0), 0);

    // The hosting leaf crashes; the cluster layer hands the job back.
    sched.ReleaseJob(0);
    EXPECT_EQ(sched.LeafOf(0), -1);
    EXPECT_EQ(sched.QueuedJobs(), 1);

    // Re-placement lands on the surviving leaf: predicted 1.5 is within
    // the 1.6x tolerance of the (dead) pod-best machine.
    LeafState dead = Idle(0.9);
    dead.crashed = true;
    const auto moves = sched.Tick({dead, Idle(0.5)});
    ASSERT_EQ(moves.size(), 1u);
    EXPECT_EQ(moves[0].from, -1);
    EXPECT_EQ(moves[0].to, 1);
}

TEST(SchedulerDeath, LeafOfAndReleaseJobRejectBadIndices)
{
    SchedulerConfig cfg;
    cfg.policy = SchedulerPolicy::kGreedySlack;
    ClusterScheduler sched(cfg, /*jobs=*/2, /*leaves=*/3);
    EXPECT_DEATH(sched.LeafOf(-1), "bad job index");
    EXPECT_DEATH(sched.LeafOf(2), "bad job index");
    EXPECT_DEATH(sched.ReleaseJob(-1), "bad job index");
    EXPECT_DEATH(sched.ReleaseJob(2), "bad job index");
}

TEST(SchedulerDeath, PredictiveRequiresMatchingTable)
{
    SchedulerConfig cfg;
    cfg.policy = SchedulerPolicy::kPredictive;
    ClusterScheduler sched(cfg, 1, 2);
    EXPECT_DEATH(sched.Tick({Idle(0.5), Idle(0.5)}), "SetPredictions");
    EXPECT_DEATH(sched.SetPredictions({{1.0, 2.0}, {1.0, 2.0}}),
                 "prediction table");
    sched.SetPredictions({{1.0}});
    EXPECT_DEATH(sched.Tick({Idle(0.5), Idle(0.5)}),
                 "prediction table covers");
}

TEST(SchedulerDeath, StaticSplitNeverTicks)
{
    SchedulerConfig cfg;  // kStaticSplit
    ClusterScheduler sched(cfg, 1, 2);
    EXPECT_DEATH(sched.Tick({Idle(0.5), Idle(0.5)}), "static-split");
}

TEST(SchedulerDeath, RejectsMoreJobsThanLeaves)
{
    SchedulerConfig cfg;
    cfg.policy = SchedulerPolicy::kGreedySlack;
    EXPECT_DEATH(ClusterScheduler(cfg, 3, 2), "more BE jobs");
}

// --------------------------------------------------------------------------
// Topologies

TEST(Topology, FullFanoutTouchesEveryLeaf)
{
    const cluster::Topology topo(/*leaves=*/5, /*shards=*/0,
                                 /*rack_size=*/0, /*seed=*/3);
    std::vector<int> touched;
    topo.TouchedLeaves(17, &touched);
    EXPECT_EQ(touched, (std::vector<int>{0, 1, 2, 3, 4}));
    EXPECT_EQ(topo.HopLevels(), 1);
    EXPECT_STREQ(topo.Name(), "full-fanout");
}

TEST(Topology, ShardedTouchesOneReplicaPerShard)
{
    const cluster::Topology topo(/*leaves=*/6, /*shards=*/3,
                                 /*rack_size=*/0, /*seed=*/7);
    std::vector<int> touched;
    for (uint64_t tag = 1; tag <= 200; ++tag) {
        topo.TouchedLeaves(tag, &touched);
        ASSERT_EQ(touched.size(), 3u);
        for (int s = 0; s < 3; ++s) {
            // The s-th entry serves shard s: leaf index ≡ s (mod 3).
            EXPECT_EQ(touched[s] % 3, s);
            EXPECT_LT(touched[s], 6);
        }
    }
    EXPECT_EQ(topo.HopLevels(), 1);
    EXPECT_STREQ(topo.Name(), "sharded");
}

TEST(Topology, ShardedIsDeterministicAndUsesAllReplicas)
{
    const cluster::Topology a(8, 2, 0, 42), b(8, 2, 0, 42);
    std::set<int> seen;
    std::vector<int> ta, tb;
    for (uint64_t tag = 1; tag <= 500; ++tag) {
        a.TouchedLeaves(tag, &ta);
        b.TouchedLeaves(tag, &tb);
        EXPECT_EQ(ta, tb);
        seen.insert(ta.begin(), ta.end());
    }
    EXPECT_EQ(seen.size(), 8u) << "some replica never selected";
}

TEST(Topology, ShardsEqualLeavesDegeneratesToFullFanout)
{
    const cluster::Topology topo(4, 4, 0, 9);
    std::vector<int> touched;
    topo.TouchedLeaves(123, &touched);
    EXPECT_EQ(touched, (std::vector<int>{0, 1, 2, 3}));
}

/** Every shape the constructor accepts over 1..40 leaves: each query
 *  touches exactly one leaf of each group, in group order, the groups
 *  partition the leaves by the shape rule, and 500 tags reach every
 *  member. */
TEST(Topology, GroupsPartitionTheLeavesAndEveryMemberIsReached)
{
    std::vector<int> touched;
    for (int leaves = 1; leaves <= 40; ++leaves) {
        std::vector<std::pair<int, int>> shapes = {{0, 0}};
        for (int k = 1; k <= leaves; ++k) shapes.push_back({k, 0});
        // Racks past the leaf count clamp to one rack.
        for (int k = 1; k <= leaves + 2; ++k) shapes.push_back({0, k});
        for (const auto& [shards, rack_size] : shapes) {
            const int rack = std::min(rack_size, leaves);
            const auto group_of = [&](int l) {
                return rack_size > 0 ? l / rack
                       : shards > 0  ? l % shards
                                     : l;
            };
            const int expected_groups =
                rack_size > 0 ? (leaves + rack - 1) / rack
                : shards > 0  ? shards
                              : leaves;
            const cluster::Topology topo(leaves, shards, rack_size, 11);
            EXPECT_EQ(topo.HopLevels(), rack_size > 0 ? 2 : 1);
            std::vector<std::set<int>> reached(
                static_cast<size_t>(expected_groups));
            for (uint64_t tag = 1; tag <= 500; ++tag) {
                topo.TouchedLeaves(tag, &touched);
                ASSERT_EQ(touched.size(),
                          static_cast<size_t>(expected_groups))
                    << leaves << " leaves, shards " << shards
                    << ", racks of " << rack_size;
                for (int g = 0; g < expected_groups; ++g) {
                    const int l = touched[static_cast<size_t>(g)];
                    ASSERT_TRUE(l >= 0 && l < leaves);
                    ASSERT_EQ(group_of(l), g)
                        << leaves << " leaves, shards " << shards
                        << ", racks of " << rack_size << ": leaf " << l;
                    reached[static_cast<size_t>(g)].insert(l);
                }
            }
            size_t total = 0;
            for (const std::set<int>& members : reached) {
                total += members.size();
            }
            EXPECT_EQ(total, static_cast<size_t>(leaves))
                << leaves << " leaves, shards " << shards << ", racks of "
                << rack_size << ": some member never reached";
        }
    }
}

/** Literal routes of the sharded and hierarchical shapes, pinned from
 *  the per-shape classes the replica-group table replaced: the table
 *  must keep every route bit-identical. */
TEST(Topology, RoutesMatchPinnedLiterals)
{
    const cluster::Topology sharded(/*leaves=*/8, /*shards=*/3,
                                    /*rack_size=*/0, /*seed=*/42);
    const cluster::Topology racks(/*leaves=*/10, /*shards=*/0,
                                  /*rack_size=*/4, /*seed=*/42);
    const std::vector<std::vector<int>> sharded_routes = {
        {6, 4, 2}, {0, 7, 5}, {6, 1, 2}, {3, 7, 2},
        {0, 1, 5}, {6, 4, 5}, {0, 1, 5}, {0, 7, 5},
    };
    const std::vector<std::vector<int>> rack_routes = {
        {3, 4, 8}, {3, 5, 9}, {1, 4, 8}, {1, 5, 8},
        {0, 5, 9}, {2, 6, 9}, {3, 6, 9}, {3, 6, 9},
    };
    std::vector<int> touched;
    for (uint64_t tag = 1; tag <= 8; ++tag) {
        sharded.TouchedLeaves(tag, &touched);
        EXPECT_EQ(touched, sharded_routes[tag - 1]) << "sharded tag " << tag;
        racks.TouchedLeaves(tag, &touched);
        EXPECT_EQ(touched, rack_routes[tag - 1]) << "racks tag " << tag;
    }
    EXPECT_STREQ(racks.Name(), "hierarchical");
}

TEST(TopologyDeath, RejectsMoreShardsThanLeaves)
{
    EXPECT_DEATH(cluster::Topology(4, 5, 0, 1), "5 shards over 4 leaves");
}

TEST(TopologyDeath, RejectsShardsAndRacksTogether)
{
    EXPECT_DEATH(cluster::Topology(6, 2, 3, 1),
                 "got 2 shards and racks of 3");
}

// --------------------------------------------------------------------------
// End-to-end guarantees (golden-scale scenario runs, cached)

const scenarios::ScenarioMetrics&
GoldenRun(const std::string& name)
{
    static std::map<std::string, scenarios::ScenarioMetrics>* cache =
        new std::map<std::string, scenarios::ScenarioMetrics>();
    auto it = cache->find(name);
    if (it == cache->end()) {
        it = cache
                 ->emplace(name,
                           scenarios::RunScenario(
                               scenarios::MustFindScenario(name),
                               scenarios::RunOptions::Golden()))
                 .first;
    }
    return it->second;
}

/**
 * A static-split, full-fan-out cluster reproduces its checked-in
 * cluster_websearch_* goldens bit for bit. The golden harness compares
 * within tolerance; this compares *exactly*, so any change to a metric of
 * these runs, however small, must come with regenerated goldens.
 */
TEST(ClusterRefactor, StaticSplitByteIdenticalToPreRefactorGoldens)
{
    for (const char* name :
         {"cluster_websearch_heracles", "cluster_websearch_baseline",
          "cluster_websearch_central"}) {
        std::ifstream in(std::string(HERACLES_GOLDEN_DIR) + "/" + name +
                         ".json");
        ASSERT_TRUE(in.good()) << name;
        std::stringstream buf;
        buf << in.rdbuf();
        scenarios::ScenarioMetrics golden;
        ASSERT_TRUE(scenarios::MetricsFromJson(buf.str(), &golden))
            << name;
        EXPECT_TRUE(GoldenRun(name).ExactlyEquals(golden))
            << name << " diverged from its golden";
    }
}

TEST(ClusterRefactor, GreedyPlacementDeterministicUnderFixedSeed)
{
    const scenarios::ScenarioSpec& spec =
        scenarios::MustFindScenario("cluster_hetero_greedy_diurnal");
    const scenarios::ScenarioMetrics a =
        scenarios::RunScenario(spec, scenarios::RunOptions::Golden());
    const scenarios::ScenarioMetrics& b =
        GoldenRun("cluster_hetero_greedy_diurnal");
    EXPECT_TRUE(a.ExactlyEquals(b))
        << "scheduler placements not reproducible from the seed";
    EXPECT_GE(a.be_placements, 2.0) << "both queued jobs should place";
}

TEST(ClusterRefactor, UniformClusterDerivesOneLeafTarget)
{
    // The paper's uniform cluster defends one tail target on every
    // leaf: the per-leaf vector must be constant and equal to the
    // reported mean.
    cluster::ClusterExperiment e(scenarios::ClusterConfigFor(
        scenarios::MustFindScenario("cluster_websearch_heracles"),
        scenarios::RunOptions::Golden()));
    const std::vector<sim::Duration>& targets = e.LeafTargets();
    ASSERT_EQ(targets.size(), 3u);
    for (sim::Duration t : targets) {
        EXPECT_GT(t, 0);
        EXPECT_EQ(t, e.LeafTarget());
    }
}

TEST(ClusterRefactor, GreedyBeatsStaticSplitOnHeteroDiurnal)
{
    const scenarios::ScenarioMetrics& greedy =
        GoldenRun("cluster_hetero_greedy_diurnal");
    const scenarios::ScenarioMetrics& pinned =
        GoldenRun("cluster_hetero_static");
    EXPECT_EQ(greedy.slo_attained, 1.0) << "greedy violated the root SLO";
    EXPECT_GT(greedy.emu, pinned.emu)
        << "slack-aware placement should strictly beat the static split";
}

TEST(ClusterRefactor, PredictiveBeatsGreedyUnderChaosPairs)
{
    // The predictive tier's reason to exist: in the twinned chaos
    // scenarios (identical cluster, identical fault plan, only the
    // policy differs) greedy chases a slack export frozen at its happy
    // pre-crowd snapshot while the fingerprint table never trusted that
    // leaf. Predictive must win mean EMU in both pairs without giving
    // back any root-SLO attainment.
    for (const char* pair : {"blind", "crash"}) {
        const scenarios::ScenarioMetrics& greedy = GoldenRun(
            std::string("chaos_hetero_") + pair + "_greedy");
        const scenarios::ScenarioMetrics& pred =
            GoldenRun(std::string("chaos_hetero_") + pair + "_pred");
        EXPECT_GT(pred.emu, greedy.emu)
            << pair << ": prediction should beat the frozen export";
        EXPECT_GE(pred.slo_attained, greedy.slo_attained)
            << pair << ": the EMU win must not cost SLO attainment";
    }
}

TEST(ClusterRefactor, PredictiveMonitorActsExactlyLikeGreedy)
{
    // predict_only is CPI2-style shadow mode: identical acted decisions
    // to greedy-slack (same EMU, placements, migrations), plus the
    // would-have counters recording where prediction disagreed.
    const scenarios::ScenarioMetrics& greedy =
        GoldenRun("cluster_hetero_greedy_diurnal");
    const scenarios::ScenarioMetrics& monitor =
        GoldenRun("cluster_hetero_pred_monitor");
    EXPECT_EQ(monitor.emu, greedy.emu);
    EXPECT_EQ(monitor.be_placements, greedy.be_placements);
    EXPECT_EQ(monitor.be_migrations, greedy.be_migrations);
    EXPECT_GE(monitor.be_would_placements +
                  monitor.be_would_migrations,
              1.0)
        << "shadow mode should record at least one disagreement here";
    EXPECT_EQ(greedy.be_would_placements, 0.0)
        << "acting policies never count would-haves";
}

}  // namespace
}  // namespace heracles
