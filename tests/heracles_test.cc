/**
 * @file
 * Tests for the Heracles controller: the offline bandwidth model, each
 * subcontroller against a scripted FakePlatform, the top-level state
 * machine, and closed-loop integration with the simulated server.
 */
#include <gtest/gtest.h>

#include "fake_platform.h"
#include "heracles/bw_model.h"
#include "heracles/controller.h"
#include "hw/machine.h"
#include "platform/sim_platform.h"
#include "workloads/antagonists.h"
#include "workloads/lc_configs.h"

namespace heracles::ctl {
namespace {

using heracles::testing::FakePlatform;

hw::MachineConfig
Cfg()
{
    return hw::MachineConfig{};
}

// --------------------------------------------------------------------------
// LcBwModel

TEST(BwModel, EmptyPredictsZero)
{
    LcBwModel m;
    EXPECT_TRUE(m.empty());
    EXPECT_DOUBLE_EQ(m.Evaluate(0.5, 10), 0.0);
}

TEST(BwModel, ProfileMatchesAnalyticCurve)
{
    const auto p = workloads::Websearch();
    const LcBwModel m = LcBwModel::Profile(p, Cfg());
    EXPECT_FALSE(m.empty());
    for (double load : {0.1, 0.4, 0.8, 1.0}) {
        // Full-cache column: the model should match the warm curve.
        const double expect = workloads::LcApp::AnalyticDramGbps(
            p, Cfg(), load,
            p.cache.instr_mb + workloads::LcApp::DataFootprintMb(p, load));
        EXPECT_NEAR(m.Evaluate(load, 20), expect, 1.5) << load;
    }
}

TEST(BwModel, MonotoneInLoad)
{
    const LcBwModel m = LcBwModel::Profile(workloads::Websearch(), Cfg());
    double prev = -1.0;
    for (double load = 0.0; load <= 1.0; load += 0.05) {
        const double v = m.Evaluate(load, 16);
        EXPECT_GE(v, prev - 1e-9);
        prev = v;
    }
}

TEST(BwModel, FewerWaysMoreBandwidth)
{
    const LcBwModel m = LcBwModel::Profile(workloads::Websearch(), Cfg());
    EXPECT_GT(m.Evaluate(0.8, 2), m.Evaluate(0.8, 20));
}

TEST(BwModel, ClampsOutOfRangeInputs)
{
    const LcBwModel m = LcBwModel::Profile(workloads::Websearch(), Cfg());
    EXPECT_DOUBLE_EQ(m.Evaluate(-0.5, 10), m.Evaluate(0.0, 10));
    EXPECT_DOUBLE_EQ(m.Evaluate(2.0, 10), m.Evaluate(1.0, 10));
    EXPECT_DOUBLE_EQ(m.Evaluate(0.5, 100), m.Evaluate(0.5, 20));
}

TEST(BwModel, ZeroLoadPredictsNearZero)
{
    // An idle service streams (almost) nothing; the zero-load column
    // must be finite, non-negative and far below the loaded curve for
    // every profiled LC workload.
    for (const auto& p : workloads::AllLcWorkloads()) {
        const LcBwModel m = LcBwModel::Profile(p, Cfg());
        const double idle = m.Evaluate(0.0, 16);
        EXPECT_GE(idle, 0.0) << p.name;
        EXPECT_LT(idle, 0.25 * m.Evaluate(1.0, 16)) << p.name;
    }
}

TEST(BwModel, SaturatesNearTheWorkloadPeakFraction)
{
    // At full load with a warm cache the prediction lands near the
    // characterized peak_dram_frac of the machine's streaming peak
    // (Section 3.1), and never above the machine's physical peak.
    for (const auto& p : workloads::AllLcWorkloads()) {
        const LcBwModel m = LcBwModel::Profile(p, Cfg());
        const double peak = Cfg().TotalDramGbps();
        const double full = m.Evaluate(1.0, 20);
        EXPECT_LE(full, peak) << p.name;
        EXPECT_NEAR(full, p.peak_dram_frac * peak,
                    0.25 * p.peak_dram_frac * peak)
            << p.name;
    }
}

// --------------------------------------------------------------------------
// Network subcontroller (Algorithm 4)

TEST(NetCtl, AppliesPaperFormula)
{
    FakePlatform p;
    p.lc_tx = 4.0;
    NetworkController net(p);
    net.Tick();
    // 10 - 4 - max(0.5, 0.4) = 5.5
    EXPECT_NEAR(p.be_net_ceil, 5.5, 1e-9);
}

TEST(NetCtl, LinkFractionHeadroomDominatesAtLowLcBw)
{
    FakePlatform p;
    p.lc_tx = 1.0;
    NetworkController net(p);
    net.Tick();
    // 10 - 1 - max(0.5, 0.1) = 8.5
    EXPECT_NEAR(p.be_net_ceil, 8.5, 1e-9);
}

TEST(NetCtl, NeverNegative)
{
    FakePlatform p;
    p.lc_tx = 9.9;
    NetworkController net(p);
    net.Tick();
    EXPECT_GE(p.be_net_ceil, 0.0);
}

// --------------------------------------------------------------------------
// Power subcontroller (Algorithm 3)

TEST(PowerCtl, LowersBeFrequencyWhenHotAndSlow)
{
    FakePlatform p;
    p.be_cores = 10;
    p.socket_power[0] = 140.0;  // > 0.9 * 145
    p.lc_freq = 2.0;            // below guaranteed 2.5
    PowerController ctl(p);
    ctl.Tick();
    EXPECT_GT(p.set_cap_calls, 0);
    EXPECT_LT(p.be_freq_cap, 3.6);
    EXPECT_GE(p.be_freq_cap, 1.2);
}

TEST(PowerCtl, RepeatedTicksReachFloor)
{
    FakePlatform p;
    p.be_cores = 10;
    p.socket_power[0] = 140.0;
    p.lc_freq = 2.0;
    PowerController ctl(p);
    for (int i = 0; i < 30; ++i) ctl.Tick();
    EXPECT_NEAR(p.be_freq_cap, 1.2, 1e-9);
}

TEST(PowerCtl, RaisesBeFrequencyWithHeadroom)
{
    FakePlatform p;
    p.be_cores = 10;
    p.be_freq_cap = 1.2;
    p.socket_power[0] = p.socket_power[1] = 100.0;
    p.lc_freq = 2.6;  // above guaranteed
    PowerController ctl(p);
    ctl.Tick();
    EXPECT_GT(p.be_freq_cap, 1.2);
}

TEST(PowerCtl, FullyUncapsAtMax)
{
    FakePlatform p;
    p.be_cores = 10;
    p.be_freq_cap = 3.5;
    p.socket_power[0] = p.socket_power[1] = 100.0;
    p.lc_freq = 2.6;
    PowerController ctl(p);
    ctl.Tick();
    EXPECT_DOUBLE_EQ(p.be_freq_cap, 0.0);  // uncapped
}

TEST(PowerCtl, NoActionWhenConditionsConflict)
{
    // Hot but LC already at guaranteed frequency: leave caps alone
    // (avoids confusion from active-idle frequency readings).
    FakePlatform p;
    p.be_cores = 10;
    p.be_freq_cap = 2.0;
    p.socket_power[0] = 140.0;
    p.lc_freq = 2.6;
    PowerController ctl(p);
    ctl.Tick();
    EXPECT_DOUBLE_EQ(p.be_freq_cap, 2.0);
}

TEST(PowerCtl, WorstSocketDrives)
{
    FakePlatform p;
    p.be_cores = 10;
    p.socket_power[0] = 80.0;
    p.socket_power[1] = 141.0;  // only socket 1 is hot
    p.lc_freq = 2.0;
    PowerController ctl(p);
    ctl.Tick();
    EXPECT_GT(p.set_cap_calls, 0);
}

TEST(PowerCtl, ReleasesCapWhenBeDisabled)
{
    FakePlatform p;
    p.be_cores = 0;
    p.be_freq_cap = 1.5;
    PowerController ctl(p);
    ctl.Tick();
    EXPECT_DOUBLE_EQ(p.be_freq_cap, 0.0);
}

// --------------------------------------------------------------------------
// Core & memory subcontroller (Algorithm 2)

HeraclesConfig
NoFastSlack()
{
    HeraclesConfig c;
    c.use_fast_slack = false;
    c.fast_shrink = false;
    return c;
}

TEST(CoreMem, StartsWithInitialAllocation)
{
    FakePlatform p;
    CoreMemController ctl(p, HeraclesConfig{}, LcBwModel{});
    ctl.OnBeEnabled();
    EXPECT_EQ(p.be_cores, 1);
    EXPECT_EQ(p.be_ways, 2);  // 10% of 20 ways
    EXPECT_EQ(ctl.state(), CoreMemController::State::kGrowLlc);
}

TEST(CoreMem, DramSaturationRemovesCores)
{
    FakePlatform p;
    p.be_cores = 10;
    p.dram_gbps = 95.0;  // above the 90 GB/s limit
    CoreMemController ctl(p, NoFastSlack(), LcBwModel{});
    ctl.Tick(/*can_grow=*/true, /*slack=*/0.3);
    EXPECT_LT(p.be_cores, 10);
}

TEST(CoreMem, SaturationRemovalScalesWithOverage)
{
    FakePlatform p;
    p.be_cores = 20;
    p.dram_gbps = 110.0;  // 20 GB/s over the limit
    // BeBw = 110 - 0 (empty model) => per-core 5.5 => remove ceil(20/5.5)=4
    CoreMemController ctl(p, NoFastSlack(), LcBwModel{});
    ctl.Tick(true, 0.3);
    EXPECT_EQ(p.be_cores, 16);
}

TEST(CoreMem, GrowCoresWithSlack)
{
    FakePlatform p;
    p.be_cores = 5;
    p.be_ways = 16;  // LLC phase exhausted
    p.dram_gbps = 30.0;
    CoreMemController ctl(p, NoFastSlack(), LcBwModel{});
    ctl.OnBeEnabled();
    p.be_cores = 5;
    p.be_ways = 16;
    // First tick leaves GROW_LLC (ways at cap).
    ctl.Tick(true, 0.3);
    EXPECT_EQ(ctl.state(), CoreMemController::State::kGrowCores);
    const int before = p.be_cores;
    ctl.Tick(true, 0.3);
    EXPECT_EQ(p.be_cores, before + 1);
}

TEST(CoreMem, NoGrowthWithoutPermission)
{
    FakePlatform p;
    p.be_cores = 5;
    p.dram_gbps = 30.0;
    CoreMemController ctl(p, NoFastSlack(), LcBwModel{});
    const int cores = p.be_cores, ways = p.be_ways;
    ctl.Tick(/*can_grow=*/false, 0.3);
    EXPECT_EQ(p.be_cores, cores);
    EXPECT_EQ(p.be_ways, ways);
}

TEST(CoreMem, NoGrowthWithThinSlack)
{
    FakePlatform p;
    p.be_cores = 5;
    p.be_ways = 16;
    p.dram_gbps = 30.0;
    CoreMemController ctl(p, NoFastSlack(), LcBwModel{});
    ctl.Tick(true, 0.3);  // move to GROW_CORES
    const int before = p.be_cores;
    ctl.Tick(true, /*slack=*/0.07);  // below the 10% growth threshold
    EXPECT_EQ(p.be_cores, before);
}

TEST(CoreMem, LlcGrowKeptWhenBandwidthDrops)
{
    FakePlatform p;
    p.be_cores = 4;
    p.dram_gbps = 40.0;
    // Growing the BE partition reduces measured bandwidth (more hits)
    // and speeds the BE task up.
    p.on_set_ways = [&p](int ways) {
        p.dram_gbps = 40.0 - ways;
        p.be_rate = 10.0 + ways;
    };
    CoreMemController ctl(p, NoFastSlack(), LcBwModel{});
    ctl.OnBeEnabled();
    p.be_cores = 4;
    const int ways = p.be_ways;
    ctl.Tick(true, 0.3);
    EXPECT_EQ(p.be_ways, ways + 1);
    EXPECT_EQ(ctl.state(), CoreMemController::State::kGrowLlc);
}

TEST(CoreMem, LlcGrowRolledBackWhenBandwidthRises)
{
    FakePlatform p;
    p.be_cores = 4;
    p.dram_gbps = 40.0;
    p.on_set_ways = [&p](int ways) { p.dram_gbps = 40.0 + ways; };
    CoreMemController ctl(p, NoFastSlack(), LcBwModel{});
    ctl.OnBeEnabled();
    p.be_cores = 4;
    const int ways = p.be_ways;
    ctl.Tick(true, 0.3);
    EXPECT_EQ(p.be_ways, ways);  // rolled back
    EXPECT_EQ(ctl.state(), CoreMemController::State::kGrowCores);
}

TEST(CoreMem, LlcPhaseEndsWithoutBeBenefit)
{
    FakePlatform p;
    p.be_cores = 4;
    p.dram_gbps = 40.0;
    p.be_rate = 10.0;  // never improves
    p.on_set_ways = [&p](int ways) { p.dram_gbps = 40.0 - ways; };
    CoreMemController ctl(p, NoFastSlack(), LcBwModel{});
    ctl.OnBeEnabled();
    p.be_cores = 4;
    ctl.Tick(true, 0.3);
    EXPECT_EQ(ctl.state(), CoreMemController::State::kGrowCores);
}

TEST(CoreMem, ReturnsToLlcPhaseWhenNextCoreWouldSaturate)
{
    FakePlatform p;
    p.be_cores = 10;
    p.be_ways = 16;
    p.dram_gbps = 88.0;  // close to the 90 limit; per-core ~8.8
    CoreMemController ctl(p, NoFastSlack(), LcBwModel{});
    ctl.Tick(true, 0.3);  // leaves GROW_LLC (ways capped)
    ctl.Tick(true, 0.3);  // GROW_CORES: needed = 88 + 8.8 > 90
    EXPECT_EQ(ctl.state(), CoreMemController::State::kGrowLlc);
}

TEST(CoreMem, FastSlackBlocksGrowth)
{
    FakePlatform p;
    p.be_cores = 5;
    p.be_ways = 16;
    p.dram_gbps = 30.0;
    p.fast_tail = sim::Millis(11);  // fast slack = 8% < 20% margin
    HeraclesConfig cfg;  // fast slack enabled by default
    CoreMemController ctl(p, cfg, LcBwModel{});
    ctl.Tick(true, 0.3);
    const int before = p.be_cores;
    ctl.Tick(true, 0.3);
    EXPECT_EQ(p.be_cores, before);
}

TEST(CoreMem, FastShrinkOnImminentViolation)
{
    FakePlatform p;
    p.be_cores = 10;
    p.dram_gbps = 30.0;
    p.fast_tail = sim::Millis(11.8);  // slack ~5.6%... just above shrink
    HeraclesConfig cfg;
    CoreMemController ctl(p, cfg, LcBwModel{});
    p.fast_tail = sim::Millis(11.5);  // slack 4.2% < 5%
    ctl.Tick(true, 0.3);
    EXPECT_EQ(p.be_cores, 9);
}

TEST(CoreMem, FastShrinkHardOnActualViolation)
{
    FakePlatform p;
    p.be_cores = 10;
    p.fast_tail = sim::Millis(15);  // over the 12 ms SLO
    CoreMemController ctl(p, HeraclesConfig{}, LcBwModel{});
    ctl.Tick(true, 0.3);
    EXPECT_EQ(p.be_cores, 6);  // removes 4
}

TEST(CoreMem, UsesModelToEstimateBeBandwidth)
{
    FakePlatform p;
    p.be_cores = 4;
    p.dram_gbps = 50.0;
    p.load = 1.0;
    const LcBwModel model =
        LcBwModel::Profile(workloads::Websearch(), Cfg());
    CoreMemController ctl(p, NoFastSlack(), model);
    // LC model at full load, warm cache: ~40. BE = 50 - 40 = ~10.
    EXPECT_NEAR(ctl.BeBwGbps(), 10.0, 2.5);
}

// --------------------------------------------------------------------------
// Top-level controller (Algorithm 1)

struct TopRig {
    explicit TopRig(HeraclesConfig cfg = {})
        : controller(plat, cfg, LcBwModel{})
    {
        controller.Start();
    }
    FakePlatform plat;
    HeraclesController controller;
};

TEST(TopLevel, EnablesBeUnderLowLoadAndHealthySlack)
{
    TopRig rig;
    rig.plat.queue().RunFor(sim::Seconds(16));
    EXPECT_TRUE(rig.controller.BeEnabled());
    EXPECT_TRUE(rig.controller.CanGrowBe());
    EXPECT_GE(rig.plat.be_cores, 1);
}

TEST(TopLevel, DoesNothingBeforeFirstLatencyWindow)
{
    TopRig rig;
    rig.plat.tail = 0;  // no window completed yet
    rig.plat.queue().RunFor(sim::Seconds(31));
    EXPECT_FALSE(rig.controller.BeEnabled());
}

TEST(TopLevel, DisablesBeOnSloViolationAndEntersCooldown)
{
    TopRig rig;
    rig.plat.queue().RunFor(sim::Seconds(16));
    ASSERT_TRUE(rig.controller.BeEnabled());
    rig.plat.tail = sim::Millis(13);  // above 12 ms SLO
    rig.plat.queue().RunFor(sim::Seconds(15));
    EXPECT_FALSE(rig.controller.BeEnabled());
    EXPECT_TRUE(rig.controller.InCooldown());
    EXPECT_EQ(rig.plat.be_cores, 0);
    EXPECT_EQ(rig.controller.stats().be_disables_slack, 1u);
}

TEST(TopLevel, CooldownBlocksReenable)
{
    TopRig rig;
    rig.plat.queue().RunFor(sim::Seconds(16));
    rig.plat.tail = sim::Millis(13);
    rig.plat.queue().RunFor(sim::Seconds(15));
    rig.plat.tail = sim::Millis(6);  // healthy again
    rig.plat.queue().RunFor(sim::Minutes(2));  // still inside 5 min
    EXPECT_FALSE(rig.controller.BeEnabled());
    rig.plat.queue().RunFor(sim::Minutes(4));  // past the cooldown
    EXPECT_TRUE(rig.controller.BeEnabled());
}

TEST(TopLevel, HighLoadDisablesWithHysteresis)
{
    TopRig rig;
    rig.plat.queue().RunFor(sim::Seconds(16));
    ASSERT_TRUE(rig.controller.BeEnabled());
    rig.plat.load = 0.87;
    rig.plat.queue().RunFor(sim::Seconds(15));
    EXPECT_FALSE(rig.controller.BeEnabled());
    EXPECT_EQ(rig.controller.stats().be_disables_load, 1u);
    // Load in the hysteresis band [0.80, 0.85]: stays disabled.
    rig.plat.load = 0.82;
    rig.plat.queue().RunFor(sim::Seconds(15));
    EXPECT_FALSE(rig.controller.BeEnabled());
    // Below 0.80: re-enabled (no cooldown for load disables).
    rig.plat.load = 0.78;
    rig.plat.queue().RunFor(sim::Seconds(15));
    EXPECT_TRUE(rig.controller.BeEnabled());
}

TEST(TopLevel, ThinSlackDisallowsGrowth)
{
    TopRig rig;
    rig.plat.queue().RunFor(sim::Seconds(16));
    rig.plat.tail = sim::Millis(11);  // slack ~8%
    rig.plat.queue().RunFor(sim::Seconds(15));
    EXPECT_TRUE(rig.controller.BeEnabled());
    EXPECT_FALSE(rig.controller.CanGrowBe());
}

TEST(TopLevel, CriticalSlackStripsCoresToTwo)
{
    TopRig rig;
    rig.plat.queue().RunFor(sim::Seconds(16));
    rig.plat.be_cores = 20;
    rig.plat.tail = sim::Millis(11.5);  // slack ~4%
    rig.plat.queue().RunFor(sim::Seconds(15));
    EXPECT_EQ(rig.plat.be_cores, 2);
    EXPECT_EQ(rig.controller.stats().core_shrinks, 1u);
}

TEST(TopLevel, NoBeJobNoEnable)
{
    TopRig rig;
    rig.plat.has_be = false;
    rig.plat.queue().RunFor(sim::Seconds(31));
    EXPECT_FALSE(rig.controller.BeEnabled());
}

TEST(TopLevel, StopCancelsLoops)
{
    TopRig rig;
    rig.plat.queue().RunFor(sim::Seconds(16));
    rig.controller.Stop();
    const auto polls = rig.controller.stats().polls;
    rig.plat.queue().RunFor(sim::Minutes(2));
    EXPECT_EQ(rig.controller.stats().polls, polls);
}

TEST(TopLevel, SubcontrollerLoopsRespectAblationFlags)
{
    HeraclesConfig cfg;
    cfg.enable_net = false;
    TopRig rig(cfg);
    rig.plat.queue().RunFor(sim::Seconds(20));
    EXPECT_EQ(rig.plat.set_ceil_calls, 0);
}

TEST(TopLevel, NetworkCeilUpdatesEverySecond)
{
    TopRig rig;
    rig.plat.queue().RunFor(sim::Seconds(10));
    EXPECT_GE(rig.plat.set_ceil_calls, 9);
}

// --------------------------------------------------------------------------
// Closed-loop integration with the simulated server

struct LoopRig {
    LoopRig(const workloads::LcParams& lc_params,
            const workloads::BeProfile& be_profile,
            HeraclesConfig cfg = {})
        : machine(Cfg(), queue),
          lc(machine, lc_params, 5),
          be(machine, be_profile),
          plat(machine, lc, &be)
    {
        plat.ApplyInitialPlacement();
        controller = std::make_unique<HeraclesController>(
            plat, cfg, LcBwModel::Profile(lc_params, Cfg()));
        controller->Start();
    }

    sim::EventQueue queue;
    hw::Machine machine;
    workloads::LcApp lc;
    workloads::BeTask be;
    platform::SimPlatform plat;
    std::unique_ptr<HeraclesController> controller;
};

// The controller's utilization monitor: the delta of the LC's busy-time
// counter over the span since the previous read, per LC cpu.
TEST(SimPlatform, LcCpuUtilizationIsTheBusyCounterDelta)
{
    sim::EventQueue queue;
    hw::Machine machine(Cfg(), queue);
    workloads::LcApp lc(machine, workloads::Websearch(), 5);
    workloads::BeTask be(machine, workloads::Brain());
    platform::SimPlatform plat(machine, lc, &be);
    plat.ApplyInitialPlacement();
    lc.SetLoad(0.5);
    lc.Start();
    const auto expect_delta = [&](int64_t busy_ns, sim::SimTime at) {
        const int cpus = machine.CpusOf(&lc).Count();
        const double expected =
            static_cast<double>(lc.BusyThreadNs() - busy_ns) /
            (static_cast<double>(queue.Now() - at) * cpus);
        EXPECT_EQ(plat.LcCpuUtilization(), expected);
        EXPECT_GT(expected, 0.0);
        EXPECT_LT(expected, 1.0);
    };

    // The first read spans everything since construction.
    queue.RunFor(sim::Millis(3001));
    expect_delta(0, 0);
    int64_t busy_ns = lc.BusyThreadNs();
    sim::SimTime at = queue.Now();

    // Later reads span from the previous one, with the LC cpu count at
    // the read; the machine's resolves in between do not move it.
    plat.SetBeCores(10);
    queue.RunFor(sim::Millis(1713));
    expect_delta(busy_ns, at);

    // With no time since the previous read, the current level.
    EXPECT_EQ(plat.LcCpuUtilization(), lc.CpuBusyFraction());
    busy_ns = lc.BusyThreadNs();
    at = queue.Now();
    queue.RunFor(sim::Millis(2000));
    expect_delta(busy_ns, at);
}

// Every actuation resolves before it returns: it schedules nothing, runs
// exactly one resolve, and the BE's view shows it with the queue still
// held at the same instant.
TEST(SimPlatform, ActuationsResolveBeforeReturning)
{
    sim::EventQueue queue;
    hw::Machine machine(Cfg(), queue);
    workloads::LcApp lc(machine, workloads::Websearch(), 5);
    workloads::BeTask be(machine, workloads::Brain());
    platform::SimPlatform plat(machine, lc, &be);
    plat.ApplyInitialPlacement();
    const auto llc_mb = [](const hw::TaskView& v) {
        double total = 0.0;
        for (double mb : v.llc_mb) total += mb;
        return total;
    };
    const auto dram_demand = [](const hw::TaskView& v) {
        double total = 0.0;
        for (double gbps : v.dram_demand_gbps) total += gbps;
        return total;
    };
    const auto freq = [](const hw::TaskView& v) { return v.freq_ghz; };
    const auto expect_resolved = [&](const char* what, const auto& actuate,
                                     const auto& field) {
        SCOPED_TRACE(what);
        const size_t pending = queue.pending();
        const uint64_t resolves = machine.resolves();
        const double before = field(machine.ViewOf(&be));
        actuate();
        EXPECT_EQ(queue.pending(), pending);
        EXPECT_EQ(machine.resolves(), resolves + 1);
        EXPECT_NE(field(machine.ViewOf(&be)), before);
    };

    expect_resolved("cores", [&] { plat.SetBeCores(4); }, freq);
    expect_resolved("ways", [&] { plat.SetBeWays(2); }, llc_mb);
    expect_resolved(
        "freq cap", [&] { plat.SetBeFreqCapGhz(Cfg().min_ghz); }, freq);
    expect_resolved(
        "demand scale", [&] { be.SetDemandScale(0.5); }, dram_demand);
    EXPECT_EQ(queue.Now(), 0);
}

TEST(Integration, WebsearchBrainNoViolationAndBeGrows)
{
    LoopRig rig(workloads::Websearch(), workloads::Brain());
    rig.lc.SetLoad(0.4);
    rig.lc.Start();
    rig.queue.RunFor(sim::Seconds(120));
    rig.lc.ResetStats();
    rig.queue.RunFor(sim::Seconds(90));
    EXPECT_LE(rig.lc.WorstReportTail(),
              rig.lc.params().slo_latency);
    EXPECT_GE(rig.plat.BeCores(), 10);
    EXPECT_GT(rig.be.AvgRate(), 0.0);
}

TEST(Integration, BeDisabledAtHighLoad)
{
    LoopRig rig(workloads::Websearch(), workloads::Brain());
    rig.lc.SetLoad(0.92);
    rig.lc.Start();
    rig.queue.RunFor(sim::Seconds(60));
    EXPECT_EQ(rig.plat.BeCores(), 0);
    EXPECT_FALSE(rig.controller->BeEnabled());
}

TEST(Integration, LoadSpikeTriggersBackoffThenRecovery)
{
    LoopRig rig(workloads::Websearch(), workloads::Brain());
    sim::StepTrace trace({{0, 0.3}, {sim::Seconds(120), 0.9}});
    rig.lc.SetTrace(&trace);
    rig.lc.Start();
    rig.queue.RunFor(sim::Seconds(110));
    EXPECT_GE(rig.plat.BeCores(), 8);  // colocation established
    rig.queue.RunFor(sim::Seconds(80));
    // After the spike the controller must have pulled BE off.
    EXPECT_EQ(rig.plat.BeCores(), 0);
}

TEST(Integration, PowerVirusLcKeepsGuaranteedFrequency)
{
    LoopRig rig(workloads::Websearch(), workloads::CpuPowerVirus());
    rig.lc.SetLoad(0.5);
    rig.lc.Start();
    rig.queue.RunFor(sim::Seconds(180));
    rig.lc.ResetStats();
    rig.queue.RunFor(sim::Seconds(60));
    EXPECT_LE(rig.lc.WorstReportTail(), rig.lc.params().slo_latency);
    if (rig.plat.BeCores() > 0) {
        // If the virus is running, the LC frequency must be protected.
        EXPECT_GE(rig.plat.LcFreqGhz(),
                  rig.plat.facts().guaranteed_lc_freq_ghz - 0.11);
    }
}

TEST(Integration, IperfShapedMemkeyvalMeetsSlo)
{
    LoopRig rig(workloads::Memkeyval(), workloads::Iperf());
    rig.lc.SetLoad(0.5);
    rig.lc.Start();
    rig.queue.RunFor(sim::Seconds(120));
    rig.lc.ResetStats();
    rig.queue.RunFor(sim::Seconds(60));
    EXPECT_LE(rig.lc.WorstReportTail(), rig.lc.params().slo_latency);
    // The BE ceil must be active and leave headroom for the LC flows.
    EXPECT_GE(rig.machine.BeNetCeilGbps(), 0.0);
    EXPECT_LT(rig.machine.BeNetCeilGbps(), 10.0);
}

TEST(Integration, StaleBwModelStillSafe)
{
    // Build the model from a perturbed workload (the paper: the binary
    // and shard changed between profiling and the experiment).
    workloads::LcParams stale = workloads::Websearch();
    stale.peak_dram_frac *= 1.10;
    stale.cache.data_slope_mb *= 0.9;
    LoopRig rig(workloads::Websearch(), workloads::StreamDram());
    rig.controller->Stop();
    rig.controller = std::make_unique<HeraclesController>(
        rig.plat, HeraclesConfig{}, LcBwModel::Profile(stale, Cfg()));
    rig.controller->Start();
    rig.lc.SetLoad(0.4);
    rig.lc.Start();
    rig.queue.RunFor(sim::Seconds(150));
    rig.lc.ResetStats();
    rig.queue.RunFor(sim::Seconds(60));
    EXPECT_LE(rig.lc.WorstReportTail(), rig.lc.params().slo_latency);
}

TEST(Integration, DramBandwidthKeptBelowLimit)
{
    LoopRig rig(workloads::Websearch(), workloads::StreamDram());
    rig.lc.SetLoad(0.3);
    rig.lc.Start();
    rig.queue.RunFor(sim::Seconds(150));
    rig.machine.ResetTelemetryAverages();
    rig.queue.RunFor(sim::Seconds(60));
    const auto t = rig.machine.AveragedTelemetry();
    EXPECT_LE(t.dram_gbps, 0.95 * Cfg().TotalDramGbps());
    EXPECT_LE(rig.lc.WorstReportTail(), rig.lc.params().slo_latency);
}

}  // namespace
}  // namespace heracles::ctl
