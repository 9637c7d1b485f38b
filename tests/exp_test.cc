/**
 * @file
 * Tests for the experiment harness: policies, EMU accounting, the
 * characterization rig and the reporting utilities.
 */
#include <gtest/gtest.h>

#include <sstream>

#include "exp/characterization.h"
#include "exp/experiment.h"
#include "exp/reporting.h"

namespace heracles::exp {
namespace {

ExperimentConfig
QuickConfig()
{
    ExperimentConfig cfg;
    cfg.warmup = sim::Seconds(90);
    cfg.measure = sim::Seconds(60);
    return cfg;
}

// --------------------------------------------------------------------------
// Reporting

TEST(Reporting, TableAlignsColumns)
{
    Table t({"a", "bbbb"});
    t.AddRow({"xx", "y"});
    std::ostringstream os;
    t.Print(os);
    const std::string out = os.str();
    EXPECT_NE(out.find("a   bbbb"), std::string::npos);
    EXPECT_NE(out.find("xx  y"), std::string::npos);
}

TEST(ReportingDeath, RowWidthMismatchAborts)
{
    Table t({"a", "b"});
    EXPECT_DEATH(t.AddRow({"only-one"}), "width");
}

TEST(Reporting, Formatters)
{
    EXPECT_EQ(FormatPct(0.87), "87%");
    EXPECT_EQ(FormatPct(0.875, 1), "87.5%");
    EXPECT_EQ(FormatTailFrac(0.5), "50%");
    EXPECT_EQ(FormatTailFrac(3.5), ">300%");
    EXPECT_EQ(FormatDouble(1.2345, 2), "1.23");
}

TEST(Reporting, PolicyNames)
{
    EXPECT_EQ(PolicyName(PolicyKind::kNoColocation), "baseline");
    EXPECT_EQ(PolicyName(PolicyKind::kHeracles), "heracles");
    EXPECT_EQ(PolicyName(PolicyKind::kOsOnly), "os-only");
    EXPECT_EQ(PolicyName(PolicyKind::kStaticPartition), "static");
}

// --------------------------------------------------------------------------
// Experiment runner

TEST(Experiment, BaselineMeetsSlo)
{
    ExperimentConfig cfg = QuickConfig();
    cfg.lc = workloads::Websearch();
    cfg.policy = PolicyKind::kNoColocation;
    Experiment e(cfg);
    const auto r = e.RunAt(0.5);
    EXPECT_FALSE(r.slo_violated);
    EXPECT_NEAR(r.lc_throughput, 0.5, 0.05);
    EXPECT_NEAR(r.emu, 0.5, 0.05);  // no BE: EMU is just the LC load
    EXPECT_EQ(r.be_cores, 0);
}

TEST(Experiment, OsOnlyPolicyViolates)
{
    ExperimentConfig cfg = QuickConfig();
    cfg.lc = workloads::Websearch();
    cfg.be = workloads::Brain();
    cfg.policy = PolicyKind::kOsOnly;
    Experiment e(cfg);
    const auto r = e.RunAt(0.5);
    EXPECT_TRUE(r.slo_violated);
}

TEST(Experiment, HeraclesBeatsOsOnlyAndMeetsSlo)
{
    ExperimentConfig cfg = QuickConfig();
    cfg.warmup = sim::Seconds(150);
    cfg.lc = workloads::Websearch();
    cfg.be = workloads::Brain();
    cfg.policy = PolicyKind::kHeracles;
    Experiment e(cfg);
    const auto r = e.RunAt(0.4);
    EXPECT_FALSE(r.slo_violated);
    EXPECT_GT(r.emu, 0.6);  // well above the 0.4 baseline
    EXPECT_GT(r.be_throughput, 0.1);
}

TEST(Experiment, StaticPartitionSafeButLowEmuAtHighLoad)
{
    ExperimentConfig cfg = QuickConfig();
    cfg.lc = workloads::Websearch();
    cfg.be = workloads::Brain();
    cfg.policy = PolicyKind::kStaticPartition;
    Experiment e(cfg);
    // At high load half the cores cannot carry websearch: violation —
    // the static split is either wasteful or unsafe, never both right.
    const auto high = e.RunAt(0.85);
    EXPECT_TRUE(high.slo_violated);
}

TEST(Experiment, BeAloneRateComputedOnce)
{
    ExperimentConfig cfg = QuickConfig();
    cfg.lc = workloads::Websearch();
    cfg.be = workloads::Brain();
    cfg.policy = PolicyKind::kHeracles;
    Experiment e(cfg);
    EXPECT_GT(e.BeAloneRate(), 1.0);
}

TEST(Experiment, RunAtTracksLoad)
{
    ExperimentConfig cfg = QuickConfig();
    cfg.warmup = sim::Seconds(30);
    cfg.measure = sim::Seconds(30);
    cfg.lc = workloads::Websearch();
    cfg.policy = PolicyKind::kNoColocation;
    Experiment e(cfg);
    const auto lo = e.RunAt(0.2);
    const auto hi = e.RunAt(0.8);
    EXPECT_DOUBLE_EQ(lo.load, 0.2);
    EXPECT_DOUBLE_EQ(hi.load, 0.8);
    EXPECT_LT(lo.telemetry.cpu_utilization, hi.telemetry.cpu_utilization);
}

TEST(Experiment, ResultsDeterministicForSeed)
{
    ExperimentConfig cfg = QuickConfig();
    cfg.warmup = sim::Seconds(20);
    cfg.measure = sim::Seconds(20);
    cfg.lc = workloads::Websearch();
    cfg.policy = PolicyKind::kNoColocation;
    cfg.seed = 99;
    Experiment a(cfg), b(cfg);
    EXPECT_EQ(a.RunAt(0.5).worst_tail, b.RunAt(0.5).worst_tail);
}

// The catalog goldens pin only RunScenario; this pins the Experiment
// load-point path itself, bit for bit, so a refactor of the measurement
// loop cannot drift it unnoticed. Regenerate the literals (with %a) only
// for an intentional behavior change.
TEST(Experiment, RunAtPinnedBits)
{
    ExperimentConfig cfg;
    cfg.lc = workloads::Websearch();
    cfg.be = workloads::Brain();
    cfg.policy = PolicyKind::kHeracles;
    cfg.warmup = sim::Seconds(30);
    cfg.measure = sim::Seconds(30);
    cfg.seed = 4242;
    Experiment e(cfg);

    const LoadPointResult lo = e.RunAt(0.3);
    EXPECT_EQ(lo.load, 0.3);
    EXPECT_EQ(lo.worst_tail, 8208857);
    EXPECT_EQ(lo.tail_frac_slo, 0x1.503c1ab86810ep-1);
    EXPECT_EQ(lo.emu, 0x1.28e9ef26091f3p-1);
    EXPECT_EQ(lo.be_throughput, 0x1.1e11d1a11583bp-2);
    EXPECT_EQ(lo.telemetry.dram_frac, 0x1.a6db77a151ba5p-2);
    EXPECT_EQ(lo.be_cores, 23);
    EXPECT_EQ(lo.be_ways, 2);
    EXPECT_EQ(lo.be_disables, 0u);

    const LoadPointResult hi = e.RunAt(0.8);
    EXPECT_EQ(hi.load, 0.8);
    EXPECT_EQ(hi.worst_tail, 9762031);
    EXPECT_EQ(hi.tail_frac_slo, 0x1.8fda506e01905p-1);
    EXPECT_EQ(hi.emu, 0x1.b9c309810010bp-1);
    EXPECT_EQ(hi.be_throughput, 0x1.03ccccccccccap-4);
    EXPECT_EQ(hi.telemetry.dram_frac, 0x1.7f790c671a237p-2);
    EXPECT_EQ(hi.be_cores, 3);
    EXPECT_EQ(hi.be_ways, 3);
    EXPECT_EQ(hi.be_disables, 0u);
}

// --------------------------------------------------------------------------
// Characterization rig

TEST(Characterization, NamesAndOrder)
{
    const auto all = AllAntagonists();
    ASSERT_EQ(all.size(), 8u);
    EXPECT_EQ(AntagonistName(all[0]), "LLC (small)");
    EXPECT_EQ(AntagonistName(all[7]), "brain");

    // 5%..95% in whole percents: every point is the exact decimal.
    const auto loads = CharacterizationRig::PaperLoads();
    ASSERT_EQ(loads.size(), 19u);
    EXPECT_EQ(loads.front(), 0.05);
    EXPECT_EQ(loads[2], 0.15);
    EXPECT_EQ(loads.back(), 0.95);
}

TEST(Characterization, BrainOsOnlyAlwaysViolates)
{
    CharacterizationRig rig(hw::MachineConfig{}, workloads::Websearch(),
                            sim::Seconds(10), sim::Seconds(20));
    EXPECT_GT(rig.RunCell(AntagonistKind::kBrainOsOnly, 0.3), 1.0);
}

TEST(Characterization, DramAntagonistCrushesLowLoad)
{
    CharacterizationRig rig(hw::MachineConfig{}, workloads::Websearch(),
                            sim::Seconds(10), sim::Seconds(20));
    EXPECT_GT(rig.RunCell(AntagonistKind::kDram, 0.2), 3.0);
}

TEST(Characterization, DramAntagonistFadesAtHighLoad)
{
    CharacterizationRig rig(hw::MachineConfig{}, workloads::Websearch(),
                            sim::Seconds(10), sim::Seconds(20));
    EXPECT_LT(rig.RunCell(AntagonistKind::kDram, 0.95), 1.0);
}

TEST(Characterization, WebsearchImmuneToNetworkAntagonist)
{
    CharacterizationRig rig(hw::MachineConfig{}, workloads::Websearch(),
                            sim::Seconds(10), sim::Seconds(20));
    EXPECT_LT(rig.RunCell(AntagonistKind::kNetwork, 0.5), 1.0);
}

TEST(Characterization, MemkeyvalKilledByNetworkAntagonist)
{
    CharacterizationRig rig(hw::MachineConfig{}, workloads::Memkeyval(),
                            sim::Seconds(10), sim::Seconds(15));
    EXPECT_LT(rig.RunCell(AntagonistKind::kNetwork, 0.25), 1.0);
    EXPECT_GT(rig.RunCell(AntagonistKind::kNetwork, 0.5), 3.0);
}

TEST(Characterization, BaselineComfortableAtMidLoad)
{
    CharacterizationRig rig(hw::MachineConfig{}, workloads::Websearch(),
                            sim::Seconds(10), sim::Seconds(20));
    const double b = rig.RunBaseline(0.5);
    EXPECT_GT(b, 0.3);
    EXPECT_LT(b, 1.0);
}

}  // namespace
}  // namespace heracles::exp
