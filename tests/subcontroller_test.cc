/**
 * @file
 * State-machine edge tests for the Heracles subcontrollers against the
 * scriptable FakePlatform: growth/cutback transitions, entering and
 * leaving cooldown, and the exact threshold/saturation boundaries the
 * algorithms pivot on. Complements heracles_test.cc, which covers the
 * mainline paths; here every case sits *on* an edge.
 */
#include <gtest/gtest.h>

#include "fake_platform.h"
#include "heracles/bw_model.h"
#include "heracles/controller.h"
#include "heracles/core_mem.h"
#include "heracles/net_ctl.h"
#include "heracles/power_ctl.h"

namespace heracles::ctl {
namespace {

using heracles::testing::FakePlatform;

HeraclesConfig
NoFastSlack()
{
    HeraclesConfig c;
    c.use_fast_slack = false;
    c.fast_shrink = false;
    return c;
}

// --------------------------------------------------------------------------
// Core & memory subcontroller (Algorithm 2)

TEST(CoreMemEdges, TickIsNoOpWhileBeDisabled)
{
    FakePlatform p;
    p.be_cores = 0;
    CoreMemController ctl(p, HeraclesConfig{}, LcBwModel{});
    ctl.Tick(/*can_grow=*/true, /*slack=*/0.5);
    EXPECT_EQ(p.set_cores_calls, 0);
    EXPECT_EQ(p.set_ways_calls, 0);
}

TEST(CoreMemEdges, OnBeDisabledResetsToGrowLlc)
{
    FakePlatform p;
    p.be_cores = 5;
    p.be_ways = 16;  // LLC phase exhausted -> flips to GROW_CORES
    p.dram_gbps = 30.0;
    CoreMemController ctl(p, NoFastSlack(), LcBwModel{});
    ctl.Tick(true, 0.3);
    ASSERT_EQ(ctl.state(), CoreMemController::State::kGrowCores);
    ctl.OnBeDisabled();
    EXPECT_EQ(ctl.state(), CoreMemController::State::kGrowLlc);
}

TEST(CoreMemEdges, DramExactlyAtLimitDoesNotCutCores)
{
    FakePlatform p;
    p.be_cores = 10;
    p.dram_gbps = 90.0;  // exactly DRAM_LIMIT (0.90 * 100)
    CoreMemController ctl(p, NoFastSlack(), LcBwModel{});
    ctl.Tick(true, 0.3);
    EXPECT_EQ(p.be_cores, 10);  // saturation requires > limit
}

TEST(CoreMemEdges, GrowthStopsAtCoreCeiling)
{
    FakePlatform p;
    p.be_cores = 34;  // one below the ceiling (LC keeps one core)
    p.be_ways = 16;
    p.dram_gbps = 10.0;
    p.lc_cpu_util = 0.01;
    CoreMemController ctl(p, NoFastSlack(), LcBwModel{});
    ctl.Tick(true, 0.5);  // leaves GROW_LLC (ways at cap)
    ctl.Tick(true, 0.5);  // last permitted grow: 34 -> 35
    EXPECT_EQ(p.be_cores, 35);
    ctl.Tick(true, 0.5);  // at TotalPhysCores - 1: pinned
    ctl.Tick(true, 0.5);
    EXPECT_EQ(p.be_cores, 35);
}

TEST(CoreMemEdges, SlackExactlyAtGrowthThresholdBlocksGrowth)
{
    // slack must exceed slack_disallow_growth strictly for a core grow.
    FakePlatform p;
    p.be_cores = 5;
    p.be_ways = 16;
    p.dram_gbps = 30.0;
    CoreMemController ctl(p, NoFastSlack(), LcBwModel{});
    ctl.Tick(true, 0.3);  // -> GROW_CORES
    const int before = p.be_cores;
    ctl.Tick(true, /*slack=*/0.10);
    EXPECT_EQ(p.be_cores, before);
    ctl.Tick(true, /*slack=*/0.101);
    EXPECT_EQ(p.be_cores, before + 1);
}

TEST(CoreMemEdges, UtilizationGuardCutsTwoCores)
{
    FakePlatform p;
    p.be_cores = 10;
    p.dram_gbps = 30.0;
    p.lc_cpu_util = 0.86;  // above lc_util_shrink_limit = 0.85
    CoreMemController ctl(p, NoFastSlack(), LcBwModel{});
    ctl.Tick(true, 0.5);
    EXPECT_EQ(p.be_cores, 8);
}

TEST(CoreMemEdges, PredictedUtilizationGatesCoreGrowth)
{
    // Growing BE concentrates LC load on one fewer core; the controller
    // gates on the post-removal utilization, not the current one.
    FakePlatform p;
    p.be_ways = 16;
    p.dram_gbps = 30.0;
    p.lc_cpu_util = 0.55;

    // 8 LC cores left: util_after = 0.55 * 8/7 = 0.628 > 0.62 -> no grow.
    p.be_cores = 28;
    CoreMemController tight(p, NoFastSlack(), LcBwModel{});
    tight.Tick(true, 0.5);  // -> GROW_CORES
    tight.Tick(true, 0.5);
    EXPECT_EQ(p.be_cores, 28);

    // 10 LC cores left: util_after = 0.55 * 10/9 = 0.611 < 0.62 -> grow.
    p.be_cores = 26;
    CoreMemController roomy(p, NoFastSlack(), LcBwModel{});
    roomy.Tick(true, 0.5);
    roomy.Tick(true, 0.5);
    EXPECT_EQ(p.be_cores, 27);
}

TEST(CoreMemEdges, FastShrinkKeepsLastCore)
{
    FakePlatform p;
    p.be_cores = 1;
    p.fast_tail = sim::Millis(15);  // hard violation of the 12 ms SLO
    CoreMemController ctl(p, HeraclesConfig{}, LcBwModel{});
    ctl.Tick(true, 0.3);
    // The top level owns full disables; the fast path never goes below 1.
    EXPECT_EQ(p.be_cores, 1);
}

TEST(CoreMemEdges, BenefitBelowEpsilonAtOneCoreEndsCacheGrowth)
{
    // Pins Algorithm 2's one-way exit from GROW_LLC: every way grow
    // lowers total DRAM bandwidth (so it is kept, not rolled back) but
    // raises the BE rate by only 0.1%, below the 1% benefit epsilon.
    // Judged at one BE core, that single test ends cache growth for
    // good: GROW_CORES returns to GROW_LLC only when DRAM nears the
    // limit, which these healthy ticks never do.
    FakePlatform p;
    p.on_set_ways = [&p](int ways) {
        p.dram_gbps = 40.0 - ways;
        p.be_rate = 10.0 * (1.0 + 0.001 * ways);
    };
    CoreMemController ctl(p, NoFastSlack(), LcBwModel{});
    ctl.OnBeEnabled();  // 1 core, 2 of 20 ways
    ASSERT_EQ(p.be_cores, 1);
    ASSERT_EQ(p.be_ways, 2);
    ASSERT_EQ(p.set_ways_calls, 1);

    ctl.Tick(true, 0.5);  // the one grow: kept, benefit +0.1%
    EXPECT_EQ(p.be_ways, 3);
    EXPECT_EQ(p.set_ways_calls, 2);
    EXPECT_EQ(ctl.state(), CoreMemController::State::kGrowCores);

    for (int i = 0; i < 50; ++i) {
        ctl.Tick(true, 0.5);
        ASSERT_LT(p.dram_gbps, 0.90 * p.facts().dram_peak_gbps);
    }
    EXPECT_GT(p.be_cores, 10) << "BE cores must keep growing";
    EXPECT_EQ(p.set_ways_calls, 2) << "cache growth must not resume";
    EXPECT_EQ(p.be_ways, 3);
    EXPECT_EQ(ctl.state(), CoreMemController::State::kGrowCores);
}

// --------------------------------------------------------------------------
// Power subcontroller (Algorithm 3)

TEST(PowerEdges, HysteresisBandHoldsCap)
{
    // Power between raise (0.80) and lower (0.90) thresholds: no action,
    // whatever the LC frequency reads.
    for (double lc_freq : {2.0, 2.6}) {
        FakePlatform p;
        p.be_cores = 10;
        p.be_freq_cap = 2.0;
        p.socket_power[0] = p.socket_power[1] = 123.0;  // 0.85 of TDP
        p.lc_freq = lc_freq;
        PowerController ctl(p);
        ctl.Tick();
        EXPECT_DOUBLE_EQ(p.be_freq_cap, 2.0) << "lc_freq " << lc_freq;
        EXPECT_EQ(p.set_cap_calls, 0);
    }
}

TEST(PowerEdges, LowersByConfiguredStepsPerTick)
{
    FakePlatform p;
    p.be_cores = 10;
    p.be_freq_cap = 0.0;        // uncapped = 3.6 effective
    p.socket_power[0] = 140.0;  // hot
    p.lc_freq = 2.0;            // below guaranteed
    PowerController ctl(p);
    ctl.Tick();
    EXPECT_NEAR(p.be_freq_cap, 3.6 - 2 * 0.1, 1e-9);
}

TEST(PowerEdges, NoRaiseWhileLcBelowGuaranteed)
{
    // Cool package but the LC cores still read slow (e.g. active-idle):
    // both raise conditions must hold, so the cap stays.
    FakePlatform p;
    p.be_cores = 10;
    p.be_freq_cap = 2.0;
    p.socket_power[0] = p.socket_power[1] = 100.0;
    p.lc_freq = 2.0;
    PowerController ctl(p);
    ctl.Tick();
    EXPECT_DOUBLE_EQ(p.be_freq_cap, 2.0);
}

TEST(PowerEdges, LoweringClampsAtDvfsFloor)
{
    FakePlatform p;
    p.be_cores = 10;
    p.be_freq_cap = 1.25;  // one step above the 1.2 floor
    p.socket_power[0] = 140.0;
    p.lc_freq = 2.0;
    PowerController ctl(p);
    ctl.Tick();
    EXPECT_DOUBLE_EQ(p.be_freq_cap, 1.2);
}

TEST(PowerEdges, RaiseLandingExactlyOnMaxUncaps)
{
    // A raise whose step lands on MaxGhz must release the cap entirely
    // (0 = uncapped) instead of pinning a cap equal to the ceiling.
    FakePlatform p;
    p.be_cores = 10;
    p.be_freq_cap = 3.4;  // + 2 * 0.1 steps == 3.6 == max
    p.socket_power[0] = p.socket_power[1] = 110.0;  // 0.76: headroom
    PowerController ctl(p);
    ctl.Tick();
    EXPECT_DOUBLE_EQ(p.be_freq_cap, 0.0);
}

TEST(PowerEdges, CapReleaseWithoutBeCoresIsIdempotent)
{
    // BE disabled with a stale cap: released exactly once, then the
    // tick is a no-op — no actuation churn while there is nothing to
    // throttle.
    FakePlatform p;
    p.be_cores = 0;
    p.be_freq_cap = 2.0;
    PowerController ctl(p);
    ctl.Tick();
    EXPECT_DOUBLE_EQ(p.be_freq_cap, 0.0);
    EXPECT_EQ(p.set_cap_calls, 1);
    ctl.Tick();
    EXPECT_EQ(p.set_cap_calls, 1);
}

TEST(PowerEdges, RecoveryWaitsOutTheHysteresisBand)
{
    // Lower under pressure, hold while power sits inside the
    // [raise, lower] band even though the LC cores recovered, and climb
    // back only once power clears the raise threshold.
    FakePlatform p;
    p.be_cores = 10;
    p.be_freq_cap = 3.0;
    p.socket_power[0] = 140.0;  // 0.97: over the 0.90 lower threshold
    p.lc_freq = 2.0;            // below guaranteed
    PowerController ctl(p);
    ctl.Tick();
    EXPECT_NEAR(p.be_freq_cap, 2.8, 1e-9);

    p.lc_freq = 2.5;            // recovered...
    p.socket_power[0] = 123.0;  // ...but 0.85 is still inside the band
    ctl.Tick();
    EXPECT_NEAR(p.be_freq_cap, 2.8, 1e-9) << "must hold inside the band";

    p.socket_power[0] = 110.0;  // 0.76: clears the 0.80 raise threshold
    ctl.Tick();
    EXPECT_NEAR(p.be_freq_cap, 3.0, 1e-9);
}

// --------------------------------------------------------------------------
// Network subcontroller (Algorithm 4)

TEST(NetEdges, ZeroBeTrafficStillReservesLinkHeadroom)
{
    // An idle LC service (zero egress) does not hand BE the whole NIC:
    // the link-fraction headroom term survives, ceil = 10 - 0.05 * 10.
    FakePlatform p;
    p.lc_tx = 0.0;
    NetworkController net(p);
    net.Tick();
    EXPECT_NEAR(p.be_net_ceil, 9.5, 1e-9);
}

TEST(NetEdges, SaturatedLinkClampsCeilToZero)
{
    FakePlatform p;
    p.lc_tx = 10.0;  // LC already consumes the whole 10 Gb/s link
    NetworkController net(p);
    net.Tick();
    EXPECT_DOUBLE_EQ(p.be_net_ceil, 0.0);
}

TEST(NetEdges, HeadroomSwitchesFromLinkToLcTerm)
{
    // At lc_tx = 5.0 both headroom terms equal 0.5; above that the LC
    // term dominates: ceil = 10 - 6 - 0.6 = 3.4, not 10 - 6 - 0.5.
    FakePlatform p;
    p.lc_tx = 5.0;
    NetworkController net(p);
    net.Tick();
    EXPECT_NEAR(p.be_net_ceil, 4.5, 1e-9);
    p.lc_tx = 6.0;
    net.Tick();
    EXPECT_NEAR(p.be_net_ceil, 3.4, 1e-9);
}

// --------------------------------------------------------------------------
// Top-level controller (Algorithm 1): threshold and cooldown edges

struct TopRig {
    explicit TopRig(HeraclesConfig cfg = {})
        : controller(plat, cfg, LcBwModel{})
    {
        controller.Start();
    }
    FakePlatform plat;
    HeraclesController controller;
};

TEST(TopLevelEdges, LoadExactlyAtDisableThresholdKeepsBe)
{
    TopRig rig;
    rig.plat.queue().RunFor(sim::Seconds(16));
    ASSERT_TRUE(rig.controller.BeEnabled());
    rig.plat.load = 0.85;  // load > 0.85 is required to disable
    rig.plat.queue().RunFor(sim::Seconds(15));
    EXPECT_TRUE(rig.controller.BeEnabled());
    EXPECT_EQ(rig.controller.stats().be_disables_load, 0u);
}

TEST(TopLevelEdges, SlackExactlyAtDisallowThresholdAllowsGrowth)
{
    TopRig rig;
    rig.plat.queue().RunFor(sim::Seconds(16));
    // slack = (12 - 10.8) / 12 = 0.10 exactly: growth stays allowed
    // (disallow requires slack < 0.10 strictly).
    rig.plat.tail = sim::Millis(10.8);
    rig.plat.queue().RunFor(sim::Seconds(15));
    EXPECT_TRUE(rig.controller.BeEnabled());
    EXPECT_TRUE(rig.controller.CanGrowBe());
}

TEST(TopLevelEdges, ZeroSlackDisablesAndStartsCooldown)
{
    TopRig rig;
    rig.plat.queue().RunFor(sim::Seconds(16));
    ASSERT_TRUE(rig.controller.BeEnabled());
    // Exactly at the SLO: slack = 0, not negative -> stays enabled...
    rig.plat.tail = sim::Millis(12);
    rig.plat.queue().RunFor(sim::Seconds(15));
    EXPECT_TRUE(rig.controller.BeEnabled());
    EXPECT_FALSE(rig.controller.InCooldown());
    // ...one hair over: emergency disable plus cooldown.
    rig.plat.tail = sim::Millis(12.1);
    rig.plat.queue().RunFor(sim::Seconds(15));
    EXPECT_FALSE(rig.controller.BeEnabled());
    EXPECT_TRUE(rig.controller.InCooldown());
    EXPECT_EQ(rig.plat.be_cores, 0);
    EXPECT_EQ(rig.plat.be_ways, 0);
    EXPECT_DOUBLE_EQ(rig.plat.be_freq_cap, 0.0);
}

TEST(TopLevelEdges, CooldownExpiryReenablesOnNextPoll)
{
    TopRig rig;
    rig.plat.queue().RunFor(sim::Seconds(16));
    rig.plat.tail = sim::Millis(13);
    rig.plat.queue().RunFor(sim::Seconds(15));  // disable + 5 min cooldown
    ASSERT_TRUE(rig.controller.InCooldown());
    rig.plat.tail = sim::Millis(6);

    // Last poll inside the cooldown window must not re-enable; the first
    // poll at/after expiry must.
    rig.plat.queue().RunFor(sim::Minutes(5) - sim::Seconds(5));
    EXPECT_FALSE(rig.controller.BeEnabled());
    rig.plat.queue().RunFor(sim::Seconds(20));
    EXPECT_TRUE(rig.controller.BeEnabled());
    EXPECT_FALSE(rig.controller.InCooldown());
    EXPECT_EQ(rig.controller.stats().be_enables, 2u);
}

TEST(TopLevelEdges, LoadDisableDoesNotEnterCooldown)
{
    TopRig rig;
    rig.plat.queue().RunFor(sim::Seconds(16));
    ASSERT_TRUE(rig.controller.BeEnabled());
    rig.plat.load = 0.90;
    rig.plat.queue().RunFor(sim::Seconds(15));
    EXPECT_FALSE(rig.controller.BeEnabled());
    // A load disable is a safeguard, not an emergency: no cooldown, so
    // the next poll below the enable threshold re-colocates immediately.
    EXPECT_FALSE(rig.controller.InCooldown());
    rig.plat.load = 0.40;
    rig.plat.queue().RunFor(sim::Seconds(15));
    EXPECT_TRUE(rig.controller.BeEnabled());
}

TEST(TopLevelEdges, CriticalSlackShrinkSkippedAtTwoCores)
{
    // Freeze the core/mem loop so the allocation stays where the test
    // puts it between top-level polls.
    HeraclesConfig cfg;
    cfg.enable_core_mem = false;
    TopRig rig(cfg);
    rig.plat.queue().RunFor(sim::Seconds(16));
    ASSERT_TRUE(rig.controller.BeEnabled());
    rig.plat.be_cores = 2;
    rig.plat.tail = sim::Millis(11.5);  // slack ~4%: critical band
    rig.plat.queue().RunFor(sim::Seconds(15));
    // Already at the two-core floor: no further strip, no stat bump.
    EXPECT_EQ(rig.plat.be_cores, 2);
    EXPECT_EQ(rig.controller.stats().core_shrinks, 0u);
    EXPECT_FALSE(rig.controller.CanGrowBe());
}

}  // namespace
}  // namespace heracles::ctl
