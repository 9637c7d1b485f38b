/**
 * @file
 * Chaos-layer tests: the fault-plan vocabulary and parser, the
 * ChaosPlatform decorator's fault semantics (drop/freeze/noise,
 * pass-through transparency), its safety judge — both that an honest
 * controller survives degraded runs with zero violations, and that the
 * judge *can* fail: a deliberately broken controller configuration must
 * trip an invariant — and how the two compose inside one call.
 */
#include <gtest/gtest.h>

#include "chaos/chaos_platform.h"
#include "chaos/fault_plan.h"
#include "fake_platform.h"
#include "heracles/controller.h"
#include "scenarios/registry.h"
#include "scenarios/runner.h"

namespace heracles::chaos {
namespace {

using heracles::testing::FakePlatform;

// --------------------------------------------------------------------------
// FaultPlan vocabulary and parser

TEST(FaultPlan, ParsesEveryClauseKind)
{
    FaultPlan plan;
    std::string error;
    ASSERT_TRUE(ParseFaultPlan(
        "drop:cores@0.3-0.6,noise:tail*0.2@0.1-0.9,freeze:power@0-1,"
        "burst*2.5@0.4-0.5,crash:leaf2@0.3-0.7,slackfreeze:leaf0@0.2-0.4",
        &plan, &error))
        << error;
    ASSERT_EQ(plan.faults.size(), 6u);
    EXPECT_EQ(plan.faults[0].kind, FaultKind::kActuatorDrop);
    EXPECT_EQ(plan.faults[0].actuator, Actuator::kCores);
    EXPECT_DOUBLE_EQ(plan.faults[0].begin, 0.3);
    EXPECT_DOUBLE_EQ(plan.faults[0].end, 0.6);
    EXPECT_EQ(plan.faults[1].kind, FaultKind::kNoise);
    EXPECT_EQ(plan.faults[1].monitor, Monitor::kTail);
    EXPECT_DOUBLE_EQ(plan.faults[1].magnitude, 0.2);
    EXPECT_EQ(plan.faults[2].kind, FaultKind::kFreeze);
    EXPECT_EQ(plan.faults[2].monitor, Monitor::kPower);
    EXPECT_EQ(plan.faults[3].kind, FaultKind::kBurst);
    EXPECT_DOUBLE_EQ(plan.faults[3].magnitude, 2.5);
    EXPECT_EQ(plan.faults[4].kind, FaultKind::kLeafCrash);
    EXPECT_EQ(plan.faults[4].leaf, 2);
    EXPECT_EQ(plan.faults[5].kind, FaultKind::kSlackFreeze);
    EXPECT_EQ(plan.faults[5].leaf, 0);
}

TEST(FaultPlan, RejectsMalformedClauses)
{
    const char* bad[] = {
        "",                        // empty plan
        "drop:cores",              // no window
        "jitter:tail@0.1-0.5",     // unknown kind
        "drop:dram@0.1-0.5",       // dram is a monitor, not an actuator
        "freeze:cores@0.1-0.5",    // cores is an actuator, not a monitor
        "noise:tail@0.1-0.5",      // noise without *SIGMA
        "burst@0.1-0.5",           // burst without *SCALE
        "crash:tail@0.1-0.5",      // crash without leafN
        "drop:cores@0.6-0.3",      // inverted window
        "drop:cores@0.1-1.5",      // window beyond the run
        "drop:cores@0.1-0.5,",     // trailing empty clause
        "crash:leaf@0.1-0.5",      // leaf with no index
        "crash:leaf1.9@0.1-0.5",   // fractional leaf index
        "crash:leaf1e1@0.1-0.5",   // exponent-form leaf index
        "drop:cores@nan-0.6",      // NaN window bound
        "noise:tail*nan@0.1-0.5",  // NaN noise sigma
        "burst*inf@0.1-0.5",       // infinite burst scale
        "drop:cores@ 0.1-0.5",     // leading whitespace
    };
    for (const char* spec : bad) {
        FaultPlan plan;
        std::string error;
        EXPECT_FALSE(ParseFaultPlan(spec, &plan, &error)) << spec;
        EXPECT_FALSE(error.empty()) << spec;
    }
}

TEST(FaultPlan, ResolvesFractionsAndLeafScope)
{
    FaultPlan plan;
    plan.faults = {
        ActuatorDrop(Actuator::kWays, 0.25, 0.75),       // every leaf
        Freeze(Monitor::kTail, 0.1, 0.2, /*leaf=*/1),    // leaf 1 only
        LeafCrash(0, 0.3, 0.6),                          // cluster layer
        Burst(2.0, 0.5, 0.5),                            // zero length
    };
    const sim::Duration total = sim::Seconds(100);

    const ResolvedFaultPlan single =
        ResolvedFaultPlan::For(plan, total, /*leaf=*/-1);
    ASSERT_EQ(single.faults.size(), 1u);  // unscoped drop only
    EXPECT_EQ(single.faults[0].begin, sim::Seconds(25));
    EXPECT_EQ(single.faults[0].end, sim::Seconds(75));
    EXPECT_FALSE(single.HasBurst());  // zero-length window dropped

    const ResolvedFaultPlan leaf1 =
        ResolvedFaultPlan::For(plan, total, /*leaf=*/1);
    ASSERT_EQ(leaf1.faults.size(), 2u);  // drop + its own freeze
    const ResolvedFaultPlan leaf2 =
        ResolvedFaultPlan::For(plan, total, /*leaf=*/2);
    EXPECT_EQ(leaf2.faults.size(), 1u);
}

// --------------------------------------------------------------------------
// ChaosPlatform: fault semantics

/** A 100 s run with the given plan over a fresh FakePlatform, judged
 *  with the default controller configuration (15 s top-level period,
 *  90% TDP threshold). */
struct ChaosRig {
    explicit ChaosRig(std::vector<FaultSpec> faults = {})
    {
        FaultPlan plan;
        plan.faults = std::move(faults);
        chaos = std::make_unique<ChaosPlatform>(
            plat, ResolvedFaultPlan::For(plan, sim::Seconds(100)),
            ctl::HeraclesConfig{});
    }

    FakePlatform plat;
    std::unique_ptr<ChaosPlatform> chaos;
};

TEST(ChaosPlatform, EmptyPlanIsTransparent)
{
    ChaosRig rig;
    rig.plat.tail = sim::Millis(7);
    EXPECT_EQ(rig.chaos->LcTailLatency(), sim::Millis(7));
    rig.chaos->SetBeCores(5);
    EXPECT_EQ(rig.plat.be_cores, 5);
    rig.chaos->SetBeWays(4);
    EXPECT_EQ(rig.plat.be_ways, 4);
    EXPECT_EQ(rig.chaos->faulted_ops(), 0u);
}

TEST(ChaosPlatform, DropWindowSwallowsActuations)
{
    ChaosRig rig({ActuatorDrop(Actuator::kCores, 0.25, 0.75)});
    rig.chaos->SetBeCores(3);  // before the window: applied
    EXPECT_EQ(rig.plat.be_cores, 3);

    rig.plat.queue().RunFor(sim::Seconds(50));  // inside the window
    rig.chaos->SetBeCores(9);
    EXPECT_EQ(rig.plat.be_cores, 3) << "dropped call reached the plant";
    EXPECT_EQ(rig.chaos->CommandedBeCores(), 9);
    EXPECT_EQ(rig.chaos->BeCores(), 3) << "reads must show applied state";
    EXPECT_EQ(rig.chaos->faulted_ops(), 1u);
    // Other actuators are unaffected.
    rig.chaos->SetBeWays(6);
    EXPECT_EQ(rig.plat.be_ways, 6);

    rig.plat.queue().RunFor(sim::Seconds(30));  // past the window
    rig.chaos->SetBeCores(7);
    EXPECT_EQ(rig.plat.be_cores, 7);
}

TEST(ChaosPlatform, FreezeHoldsFirstInWindowValue)
{
    ChaosRig rig({Freeze(Monitor::kTail, 0.25, 0.75)});
    rig.plat.tail = sim::Millis(6);
    EXPECT_EQ(rig.chaos->LcTailLatency(), sim::Millis(6));

    rig.plat.queue().RunFor(sim::Seconds(30));
    EXPECT_EQ(rig.chaos->LcTailLatency(), sim::Millis(6));  // captured
    rig.plat.tail = sim::Millis(14);
    EXPECT_EQ(rig.chaos->LcTailLatency(), sim::Millis(6))
        << "frozen read must not track the plant";
    // The fast-tail channel is independent and stays live.
    rig.plat.fast_tail = sim::Millis(14);
    EXPECT_EQ(rig.chaos->LcFastTailLatency(), sim::Millis(14));

    rig.plat.queue().RunFor(sim::Seconds(60));
    EXPECT_EQ(rig.chaos->LcTailLatency(), sim::Millis(14));  // thawed
}

TEST(ChaosPlatform, NoiseIsSeededAndDeterministic)
{
    auto run = [](uint64_t seed) {
        FakePlatform plat;
        FaultPlan plan;
        plan.faults = {Noise(Monitor::kDram, 0.2, 0.0, 1.0)};
        plan.seed = seed;
        ChaosPlatform chaos(plat,
                            ResolvedFaultPlan::For(plan, sim::Seconds(100)),
                            ctl::HeraclesConfig{});
        std::vector<double> reads;
        for (int i = 0; i < 8; ++i) {
            reads.push_back(chaos.MeasuredDramGbps());
        }
        return reads;
    };
    const auto a = run(1), b = run(1), c = run(2);
    EXPECT_EQ(a, b) << "same seed must reproduce the noise stream";
    EXPECT_NE(a, c) << "different seeds must differ";
    double spread = 0.0;
    for (double v : a) spread += std::abs(v - 20.0);
    EXPECT_GT(spread, 0.0) << "noise must actually perturb the reading";
}

// --------------------------------------------------------------------------
// ChaosPlatform: the judge, driven by hand over an empty plan

TEST(Invariants, CleanDriveRecordsNothing)
{
    ChaosRig rig;
    rig.chaos->LcTailLatency();   // healthy: 6 ms of a 12 ms SLO
    rig.chaos->SetBeCores(1);     // admit
    rig.chaos->SetBeWays(2);
    rig.chaos->LcFastTailLatency();
    rig.chaos->SetBeCores(2);     // grow with healthy fresh signals
    rig.chaos->SocketPowerW(0);   // 80 W of 145 W TDP
    rig.chaos->SetBeFreqCapGhz(2.0);
    rig.chaos->SetBeNetCeilGbps(4.0);
    rig.chaos->SetBeCores(0);     // clean disable
    EXPECT_EQ(rig.chaos->count(), 0u);
}

TEST(Invariants, GrowUnderFreshDangerTrips)
{
    ChaosRig rig;
    rig.chaos->SetBeCores(1);
    rig.plat.tail = sim::Millis(13);  // over the 12 ms SLO
    rig.chaos->LcTailLatency();
    rig.chaos->SetBeCores(2);
    ASSERT_EQ(rig.chaos->count(), 1u);
    EXPECT_EQ(rig.chaos->violations()[0].invariant,
              "no-grow-under-danger");
}

TEST(Invariants, StaleDangerDoesNotBlockGrowth)
{
    ChaosRig rig;
    rig.chaos->SetBeCores(1);
    rig.plat.fast_tail = sim::Millis(13);
    rig.chaos->LcFastTailLatency();  // danger observed...
    rig.chaos->SetBeCores(0);        // ...BE disabled (deadline met)
    rig.plat.fast_tail = sim::Millis(6);
    // One full control interval later the old reading is stale; the
    // controller re-admitting BE from scratch is legitimate.
    rig.plat.queue().RunFor(sim::Seconds(15));
    rig.chaos->SetBeCores(1);
    EXPECT_EQ(rig.chaos->count(), 0u);
}

TEST(Invariants, MissedDisableDeadlineTrips)
{
    ChaosRig rig;
    rig.chaos->SetBeCores(4);
    rig.plat.tail = sim::Millis(20);
    rig.chaos->LcTailLatency();  // arms the deadline
    rig.plat.queue().RunFor(sim::Seconds(31));
    rig.chaos->LcTailLatency();  // lapsed with 4 cores still commanded
    ASSERT_GE(rig.chaos->count(), 1u);
    EXPECT_EQ(rig.chaos->violations()[0].invariant, "safeguard-disable");
}

TEST(Invariants, TimelyDisableMeetsDeadline)
{
    ChaosRig rig;
    rig.chaos->SetBeCores(4);
    rig.plat.tail = sim::Millis(20);
    rig.chaos->LcTailLatency();
    rig.chaos->SetBeCores(0);  // within the same control interval
    rig.plat.queue().RunFor(sim::Seconds(31));
    rig.chaos->LcTailLatency();
    EXPECT_EQ(rig.chaos->count(), 0u);
}

TEST(Invariants, CapRaiseWithoutPowerHeadroomTrips)
{
    ChaosRig rig;
    rig.chaos->SetBeCores(4);
    rig.chaos->SetBeFreqCapGhz(2.0);
    rig.plat.socket_power[0] = 140.0;  // 96.6% of the 145 W TDP
    rig.chaos->SocketPowerW(0);
    rig.chaos->SetBeFreqCapGhz(2.2);
    ASSERT_EQ(rig.chaos->count(), 1u);
    EXPECT_EQ(rig.chaos->violations()[0].invariant,
              "power-cap-respected");

    // Lowering under the same pressure is the *correct* reaction.
    rig.chaos->SetBeFreqCapGhz(1.8);
    EXPECT_EQ(rig.chaos->count(), 1u);
}

TEST(Invariants, BoundsViolationsTrip)
{
    ChaosRig rig;
    rig.chaos->SetBeCores(36);  // of 36 total: LC left with nothing
    rig.chaos->SetBeWays(20);   // of 20 total
    rig.chaos->SetBeFreqCapGhz(0.3);   // below the 1.2 GHz floor
    rig.chaos->SetBeNetCeilGbps(99.0);  // above the 10 Gb/s link
    EXPECT_EQ(rig.chaos->count(), 4u);
}

// --------------------------------------------------------------------------
// ChaosPlatform: faults and judge composed in one call

TEST(ChaosComposition, DroppedGrowIsStillJudgedAsCommanded)
{
    // Inside a drop:cores window the plant never hears the grow, but the
    // command still counts: growing under a fresh over-SLO tail is the
    // controller's fault whether or not the cgroup write stuck.
    ChaosRig rig({ActuatorDrop(Actuator::kCores, 0.25, 0.75)});
    rig.chaos->SetBeCores(1);  // before the window: applied
    rig.plat.queue().RunFor(sim::Seconds(50));
    rig.plat.tail = sim::Millis(13);  // over the 12 ms SLO
    rig.chaos->LcTailLatency();
    rig.chaos->SetBeCores(2);
    EXPECT_EQ(rig.plat.be_cores, 1) << "dropped call reached the plant";
    EXPECT_EQ(rig.chaos->CommandedBeCores(), 2);
    EXPECT_EQ(rig.chaos->faulted_ops(), 1u);
    ASSERT_EQ(rig.chaos->count(), 1u);
    EXPECT_EQ(rig.chaos->violations()[0].invariant, "no-grow-under-danger");
}

TEST(ChaosComposition, JudgeSeesTheFrozenValueNotThePlant)
{
    // A healthy tail captured at the window's start is all the
    // controller can see; growing on it is legitimate even though the
    // live plant value has crossed the SLO.
    ChaosRig healthy({Freeze(Monitor::kTail, 0.25, 0.75)});
    healthy.chaos->SetBeCores(1);
    healthy.plat.queue().RunFor(sim::Seconds(30));
    EXPECT_EQ(healthy.chaos->LcTailLatency(), sim::Millis(6));  // captured
    healthy.plat.tail = sim::Millis(13);
    EXPECT_EQ(healthy.chaos->LcTailLatency(), sim::Millis(6));  // frozen
    healthy.chaos->SetBeCores(2);
    EXPECT_EQ(healthy.chaos->faulted_ops(), 2u);
    EXPECT_EQ(healthy.chaos->count(), 0u);

    // Conversely, an over-SLO value captured in the window keeps the
    // controller on notice after the plant heals out of its sight.
    ChaosRig stale({Freeze(Monitor::kTail, 0.25, 0.75)});
    stale.chaos->SetBeCores(1);
    stale.plat.queue().RunFor(sim::Seconds(30));
    stale.plat.tail = sim::Millis(13);
    stale.chaos->LcTailLatency();  // captures the over-SLO value
    stale.plat.tail = sim::Millis(6);
    EXPECT_EQ(stale.chaos->LcTailLatency(), sim::Millis(13));
    stale.chaos->SetBeCores(2);
    ASSERT_EQ(stale.chaos->count(), 1u);
    EXPECT_EQ(stale.chaos->violations()[0].invariant,
              "no-grow-under-danger");
}

// --------------------------------------------------------------------------
// ChaosPlatform over the real controller

/** Runs a real HeraclesController against the scripted platform through
 *  an empty-plan ChaosPlatform for @p run of simulated time. */
uint64_t
DriveController(FakePlatform& plat, const ctl::HeraclesConfig& cfg,
                sim::Duration run)
{
    ChaosPlatform chaos(plat, ResolvedFaultPlan{}, cfg);
    ctl::HeraclesController controller(chaos, cfg, ctl::LcBwModel{});
    controller.Start();
    plat.queue().RunFor(run);
    controller.Stop();
    return chaos.count();
}

TEST(Invariants, HonestControllerSurvivesImminentViolation)
{
    // Fresh fast-tail over the SLO: the honest controller shrinks and
    // never grows, so the harness stays quiet.
    FakePlatform plat;
    plat.fast_tail = sim::Millis(13);
    EXPECT_EQ(DriveController(plat, ctl::HeraclesConfig{},
                              sim::Seconds(60)),
              0u);
}

TEST(Invariants, BrokenGrowthMarginTripsTheHarness)
{
    // The acceptance-criterion test: a controller config whose fast-
    // slack growth gate is broken (negative margin, shrink disabled)
    // happily grows BE cores while its own fresh tail estimate exceeds
    // the SLO — the harness must catch it.
    FakePlatform plat;
    plat.fast_tail = sim::Millis(13);
    ctl::HeraclesConfig broken;
    broken.fast_growth_margin = -10.0;
    broken.fast_shrink = false;
    EXPECT_GT(DriveController(plat, broken, sim::Seconds(60)), 0u);
}

// --------------------------------------------------------------------------
// End-to-end: scenarios

TEST(ChaosScenarios, InactivePlanIsByteIdentical)
{
    // A plan whose only window has zero length never activates; the
    // run must be bit-identical to the cataloged clean scenario.
    const scenarios::ScenarioSpec* clean =
        scenarios::FindScenario("websearch_brain_heracles");
    ASSERT_NE(clean, nullptr);
    scenarios::ScenarioSpec chaotic = *clean;
    chaotic.faults.faults = {
        ActuatorDrop(Actuator::kCores, 0.5, 0.5),
    };
    const scenarios::RunOptions opts = scenarios::RunOptions::Golden();
    const auto a = scenarios::RunScenario(*clean, opts);
    const auto b = scenarios::RunScenario(chaotic, opts);
    EXPECT_TRUE(a.ExactlyEquals(b));
}

TEST(ChaosScenarios, StuckActuatorsDegradeButStaySafe)
{
    const auto m = scenarios::RunScenario(
        scenarios::MustFindScenario("chaos_cores_stuck"),
        scenarios::RunOptions::Golden());
    EXPECT_GT(m.faulted_ops, 0.0) << "the plan must actually fire";
    EXPECT_EQ(m.invariant_violations, 0.0);
}

TEST(ChaosScenarios, OverlappingBurstsComposeMultiplicatively)
{
    // Two overlapping burst windows must behave exactly like the three
    // explicit windows of their pointwise product — one window's end
    // must never wipe another still in flight.
    const scenarios::ScenarioSpec* base =
        scenarios::FindScenario("websearch_brain_heracles");
    ASSERT_NE(base, nullptr);
    scenarios::ScenarioSpec overlapping = *base;
    overlapping.faults.faults = {
        Burst(2.0, 0.2, 0.6),
        Burst(3.0, 0.4, 0.8),
    };
    scenarios::ScenarioSpec explicit_product = *base;
    explicit_product.faults.faults = {
        Burst(2.0, 0.2, 0.4),
        Burst(6.0, 0.4, 0.6),
        Burst(3.0, 0.6, 0.8),
    };
    const scenarios::RunOptions opts = scenarios::RunOptions::Golden();
    const auto a = scenarios::RunScenario(overlapping, opts);
    const auto b = scenarios::RunScenario(explicit_product, opts);
    EXPECT_TRUE(a.ExactlyEquals(b));
}

TEST(ChaosScenarios, BurstIsClampedWithoutViolations)
{
    const auto m = scenarios::RunScenario(
        scenarios::MustFindScenario("chaos_be_burst"),
        scenarios::RunOptions::Golden());
    EXPECT_EQ(m.invariant_violations, 0.0);
}

}  // namespace
}  // namespace heracles::chaos
