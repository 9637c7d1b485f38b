/**
 * @file
 * Tests for the fan-out cluster simulator and the TCO model.
 */
#include <gtest/gtest.h>

#include "cluster/cluster.h"
#include "tco/tco.h"

namespace heracles {
namespace {

// --------------------------------------------------------------------------
// TCO model

TEST(Tco, PowerLinearInUtilization)
{
    tco::TcoModel m;
    EXPECT_DOUBLE_EQ(m.ServerPowerW(0.0), m.params().idle_power_w);
    EXPECT_DOUBLE_EQ(m.ServerPowerW(1.0), m.params().peak_power_w);
    EXPECT_NEAR(m.ServerPowerW(0.5),
                0.5 * (m.params().idle_power_w + m.params().peak_power_w),
                1e-9);
}

TEST(Tco, TcoIncreasesWithUtilization)
{
    tco::TcoModel m;
    EXPECT_LT(m.MonthlyTcoPerServer(0.2), m.MonthlyTcoPerServer(0.9));
}

TEST(Tco, ThroughputPerTcoIncreasesWithUtilization)
{
    tco::TcoModel m;
    double prev = 0.0;
    for (double u = 0.1; u <= 1.0; u += 0.1) {
        const double v = m.ThroughputPerTco(u);
        EXPECT_GT(v, prev);
        prev = v;
    }
}

TEST(Tco, PaperGainBusyCluster)
{
    // 75% -> 90%: the paper reports ~15%.
    tco::TcoModel m;
    EXPECT_NEAR(m.GainFromUtilization(0.75, 0.90), 0.15, 0.04);
}

TEST(Tco, PaperGainIdleCluster)
{
    // 20% -> 90%: the paper reports ~306%; the linear-power model lands
    // in the same regime (roughly 3-4x).
    tco::TcoModel m;
    const double gain = m.GainFromUtilization(0.20, 0.90);
    EXPECT_GT(gain, 2.2);
    EXPECT_LT(gain, 3.5);
}

TEST(Tco, EnergyProportionalityGainsAreSmall)
{
    tco::TcoModel m;
    EXPECT_LT(m.EnergyProportionalityGain(0.75), 0.07);
    EXPECT_LT(m.EnergyProportionalityGain(0.20), 0.12);
    EXPECT_GT(m.EnergyProportionalityGain(0.20),
              m.EnergyProportionalityGain(0.75));
}

TEST(Tco, EnergyCostUsesPue)
{
    tco::TcoParams p;
    p.pue = 1.0;
    tco::TcoModel base(p);
    p.pue = 2.0;
    tco::TcoModel doubled(p);
    EXPECT_NEAR(doubled.EnergyCostMonth(0.5),
                2.0 * base.EnergyCostMonth(0.5), 1e-9);
}

TEST(TcoDeath, RejectsIdleAbovePeak)
{
    tco::TcoParams p;
    p.idle_power_w = 600.0;
    EXPECT_DEATH(tco::TcoModel{p}, "peak_power_w");
}

// --------------------------------------------------------------------------
// Cluster simulator (small configs to stay fast)

cluster::ClusterConfig
TinyCluster()
{
    cluster::ClusterConfig cfg;
    cfg.leaves = 3;
    cfg.duration = sim::Minutes(4);
    cfg.seed = 7;
    return cfg;
}

TEST(Cluster, TargetIsMeasuredAndPlausible)
{
    cluster::ClusterExperiment e(TinyCluster());
    const sim::Duration target = e.MeasureTarget();
    // Root latency at 90% load: above the leaf mean service time and
    // below the leaf SLO (it is a mean, not a tail).
    EXPECT_GT(target, sim::Millis(4));
    EXPECT_LT(target, sim::Millis(20));
}

TEST(Cluster, BaselineRunsWithoutViolation)
{
    cluster::ClusterConfig cfg = TinyCluster();
    cfg.colocate = false;
    cluster::ClusterExperiment e(cfg);
    const auto r = e.Run();
    EXPECT_FALSE(r.slo_violated);
    EXPECT_GT(r.latency_frac.size(), 3u);
    // Baseline EMU equals the offered load.
    EXPECT_NEAR(r.avg_emu, r.load.MeanValue(), 0.1);
}

TEST(Cluster, HeraclesRaisesEmuWithoutViolation)
{
    cluster::ClusterConfig cfg = TinyCluster();
    cfg.duration = sim::Minutes(8);
    cluster::ClusterExperiment e(cfg);
    const auto r = e.Run();
    EXPECT_FALSE(r.slo_violated) << "worst " << r.worst_latency_frac;
    EXPECT_GT(r.avg_emu, r.load.MeanValue() + 0.15);
}

TEST(Cluster, LoadSeriesFollowsDiurnalShape)
{
    cluster::ClusterConfig cfg = TinyCluster();
    cfg.colocate = false;
    cluster::ClusterExperiment e(cfg);
    const auto r = e.Run();
    EXPECT_GT(r.load.MaxValue(), 0.6);
    EXPECT_LT(r.load.MinValue(), 0.5);
}

}  // namespace
}  // namespace heracles
