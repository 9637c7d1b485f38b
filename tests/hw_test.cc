/**
 * @file
 * Unit tests for the hardware models: cpusets/topology, LLC+CAT, DRAM,
 * power/DVFS, NIC/HTB and the Machine contention resolver.
 */
#include <gtest/gtest.h>

#include <set>
#include <vector>

#include "hw/dram.h"
#include "hw/llc.h"
#include "hw/machine.h"
#include "hw/nic.h"
#include "hw/power.h"
#include "sim/random.h"

namespace heracles::hw {
namespace {

MachineConfig
Cfg()
{
    return MachineConfig{};
}

// --------------------------------------------------------------------------
// CpuSet

TEST(CpuSet, BasicOps)
{
    CpuSet s;
    EXPECT_TRUE(s.Empty());
    s.Add(3);
    s.Add(7);
    EXPECT_EQ(s.Count(), 2);
    EXPECT_TRUE(s.Contains(3));
    EXPECT_FALSE(s.Contains(4));
    s.Remove(3);
    EXPECT_FALSE(s.Contains(3));
}

TEST(CpuSet, RangeAndOf)
{
    const CpuSet r = CpuSet::Range(4, 3);
    EXPECT_EQ(r.Cpus(), (std::vector<int>{4, 5, 6}));
    const CpuSet o = CpuSet::Of({1, 9, 2});
    EXPECT_EQ(o.Cpus(), (std::vector<int>{1, 2, 9}));
}

TEST(CpuSet, SetAlgebra)
{
    const CpuSet a = CpuSet::Range(0, 4);   // 0-3
    const CpuSet b = CpuSet::Range(2, 4);   // 2-5
    EXPECT_EQ(a.Union(b).Count(), 6);
    EXPECT_EQ(a.Intersect(b).Cpus(), (std::vector<int>{2, 3}));
    EXPECT_EQ(a.Minus(b).Cpus(), (std::vector<int>{0, 1}));
    EXPECT_TRUE(a.Intersects(b));
    EXPECT_FALSE(a.Intersects(CpuSet::Range(10, 2)));
}

// --------------------------------------------------------------------------
// Topology

TEST(Topology, SocketCoreThreadMapping)
{
    const Topology topo(Cfg());  // 2 sockets x 18 cores x 2 threads
    EXPECT_EQ(topo.SocketOf(0), 0);
    EXPECT_EQ(topo.SocketOf(35), 0);
    EXPECT_EQ(topo.SocketOf(36), 1);
    EXPECT_EQ(topo.CoreOf(0), 0);
    EXPECT_EQ(topo.CoreOf(1), 0);
    EXPECT_EQ(topo.CoreOf(2), 1);
    EXPECT_EQ(topo.CoreOf(36), 18);
    EXPECT_EQ(topo.ThreadOf(0), 0);
    EXPECT_EQ(topo.ThreadOf(1), 1);
}

TEST(Topology, CpuOfInvertsMapping)
{
    const Topology topo(Cfg());
    for (int cpu = 0; cpu < Cfg().LogicalCpus(); ++cpu) {
        EXPECT_EQ(topo.CpuOf(topo.CoreOf(cpu), topo.ThreadOf(cpu)), cpu);
    }
}

TEST(Topology, SiblingIsSymmetric)
{
    const Topology topo(Cfg());
    for (int cpu = 0; cpu < Cfg().LogicalCpus(); ++cpu) {
        const int sib = topo.SiblingOf(cpu);
        ASSERT_NE(sib, cpu);
        EXPECT_EQ(topo.SiblingOf(sib), cpu);
        EXPECT_EQ(topo.CoreOf(sib), topo.CoreOf(cpu));
    }
}

TEST(Topology, PhysicalCoresIncludesBothThreads)
{
    const Topology topo(Cfg());
    const CpuSet s = topo.PhysicalCores(0, 3);
    EXPECT_EQ(s.Count(), 6);
    EXPECT_EQ(topo.PhysicalCoreCount(s), 3);
}

TEST(Topology, ThreadOfCoresPicksOneThread)
{
    const Topology topo(Cfg());
    const CpuSet t0 = topo.ThreadOfCores(0, 4, 0);
    EXPECT_EQ(t0.Count(), 4);
    for (int cpu : t0.Cpus()) EXPECT_EQ(topo.ThreadOf(cpu), 0);
}

TEST(Topology, SpreadCoresAlternatesSockets)
{
    const Topology topo(Cfg());
    const CpuSet s = topo.SpreadCores(4);
    EXPECT_EQ(topo.PhysicalCoreCount(s), 4);
    EXPECT_EQ(topo.OnSocket(s, 0).Count(), 4);  // 2 cores x 2 threads
    EXPECT_EQ(topo.OnSocket(s, 1).Count(), 4);
}

TEST(Topology, SpreadCoresOddCount)
{
    const Topology topo(Cfg());
    const CpuSet s = topo.SpreadCores(5);
    EXPECT_EQ(topo.PhysicalCoreCount(s), 5);
    EXPECT_EQ(topo.OnSocket(s, 0).Count() + topo.OnSocket(s, 1).Count(),
              10);
}

TEST(Topology, OnSocketFilters)
{
    const Topology topo(Cfg());
    const CpuSet all = topo.AllCpus();
    EXPECT_EQ(topo.OnSocket(all, 0).Count(), Cfg().CpusPerSocket());
    EXPECT_EQ(topo.OnSocket(all, 1).Count(), Cfg().CpusPerSocket());
}

// The word-scanning CpuSet and the mask-based Topology queries against a
// per-bit reference, over seeded random sets on every machine shape the
// sibling model supports (1-2 sockets, 1-2 threads per core). 64 cores
// per socket fills all 256 cpus, so the scan crosses every word boundary.
TEST(Topology, BruteForceAgainstPerBitReference)
{
    sim::Rng rng(2026);
    for (int sockets : {1, 2}) {
        for (int threads : {1, 2}) {
            for (int cores : {18, 64}) {
                MachineConfig cfg;
                cfg.sockets = sockets;
                cfg.threads_per_core = threads;
                cfg.cores_per_socket = cores;
                const Topology topo(cfg);
                const int n = cfg.LogicalCpus();
                for (int trial = 0; trial < 40; ++trial) {
                    // Trial 0 is the empty set, trial 1 the full set.
                    const double density =
                        trial == 0 ? 0.0 : trial == 1 ? 1.0
                                                      : rng.Uniform(0, 1);
                    std::vector<int> members;
                    CpuSet set;
                    for (int cpu = 0; cpu < n; ++cpu) {
                        if (density == 1.0 || rng.Bernoulli(density)) {
                            members.push_back(cpu);
                            set.Add(cpu);
                        }
                    }
                    SCOPED_TRACE(testing::Message()
                                 << sockets << "x" << cores << "x"
                                 << threads << " trial " << trial
                                 << " density " << density);
                    EXPECT_EQ(set.Cpus(), members);
                    EXPECT_EQ(set.Count(), static_cast<int>(members.size()));

                    std::set<int> distinct_cores;
                    for (int cpu : members) {
                        distinct_cores.insert(topo.CoreOf(cpu));
                    }
                    EXPECT_EQ(topo.PhysicalCoreCount(set),
                              static_cast<int>(distinct_cores.size()));

                    for (int s = 0; s < sockets; ++s) {
                        std::vector<int> here;
                        for (int cpu : members) {
                            if (topo.SocketOf(cpu) == s) here.push_back(cpu);
                        }
                        EXPECT_EQ(topo.OnSocket(set, s).Cpus(), here)
                            << "socket " << s;
                    }
                    EXPECT_TRUE(topo.OnSocket(set, sockets).Empty());
                    EXPECT_TRUE(topo.OnSocket(set, -1).Empty());
                }
            }
        }
    }
}

// --------------------------------------------------------------------------
// LLC model

TEST(Llc, EverythingFitsGetsFootprint)
{
    const auto out = ResolveLlc(Cfg(), {{10.0, 5.0, 0}, {20.0, 50.0, 0}});
    EXPECT_DOUBLE_EQ(out[0], 10.0);
    EXPECT_DOUBLE_EQ(out[1], 20.0);
}

TEST(Llc, OversubscriptionSplitsByPressure)
{
    // Two tasks with 40MB footprints in a 45MB cache; weights 1:3.
    const auto out =
        ResolveLlc(Cfg(), {{40.0, 100.0, 0}, {40.0, 300.0, 0}});
    EXPECT_LT(out[0], out[1]);
    EXPECT_NEAR(out[0] + out[1], Cfg().llc_mb_per_socket, 1e-6);
    EXPECT_NEAR(out[1] / out[0], 3.0, 0.01);
}

TEST(Llc, CatPartitionIsHardCap)
{
    // Task 0 has 4 ways (9 MB) but wants 30 MB.
    const auto out = ResolveLlc(Cfg(), {{30.0, 100.0, 4}, {40.0, 1.0, 0}});
    EXPECT_NEAR(out[0], 4 * Cfg().MbPerWay(), 1e-6);
    // The unrestricted task gets the remaining 16 ways' capacity.
    EXPECT_NEAR(out[1], 16 * Cfg().MbPerWay(), 1e-6);
}

TEST(Llc, CatProtectsSmallTaskFromHeavyCompetitor)
{
    // Without CAT the heavy streamer crushes the small task...
    const auto shared =
        ResolveLlc(Cfg(), {{15.0, 10.0, 0}, {43.0, 1000.0, 0}});
    EXPECT_LE(shared[0], 2.0);
    // ...with CAT the small task's partition is inviolate.
    const auto cat = ResolveLlc(Cfg(), {{15.0, 10.0, 8}, {43.0, 1000.0, 0}});
    EXPECT_NEAR(cat[0], 15.0, 1e-6);
}

TEST(Llc, SmallFootprintFrozenAtFootprint)
{
    // A tiny task competing against a huge one still gets its footprint
    // when its fair share exceeds it.
    const auto out = ResolveLlc(Cfg(), {{2.0, 500.0, 0}, {60.0, 500.0, 0}});
    EXPECT_NEAR(out[0], 2.0, 1e-6);
    EXPECT_NEAR(out[1], Cfg().llc_mb_per_socket - 2.0, 1e-6);
}

TEST(Llc, ZeroWeightGetsNothingUnderPressure)
{
    const auto out = ResolveLlc(Cfg(), {{40.0, 0.0, 0}, {40.0, 10.0, 0}});
    EXPECT_DOUBLE_EQ(out[0], 0.0);
}

TEST(LlcDeath, OverAllocatedWaysAbort)
{
    EXPECT_DEATH(ResolveLlc(Cfg(), {{10.0, 1.0, 12}, {10.0, 1.0, 12}}),
                 "over-allocated");
}

// --------------------------------------------------------------------------
// DRAM model

TEST(Dram, UnderloadedGrantsAll)
{
    const auto out = ResolveDram(Cfg(), {10.0, 15.0});
    EXPECT_DOUBLE_EQ(out.granted_gbps[0], 10.0);
    EXPECT_DOUBLE_EQ(out.granted_gbps[1], 15.0);
    EXPECT_NEAR(out.rho, 0.5, 1e-9);
}

TEST(Dram, OverloadGrantsProportionally)
{
    const auto out = ResolveDram(Cfg(), {60.0, 40.0});  // peak 50
    EXPECT_NEAR(out.total_granted_gbps, 50.0, 1e-9);
    EXPECT_NEAR(out.granted_gbps[0] / out.granted_gbps[1], 1.5, 1e-9);
}

TEST(Dram, StretchFlatBelowKnee)
{
    const auto& cfg = Cfg();
    EXPECT_LT(DramStretch(cfg, 0.3), 1.1);
    EXPECT_LT(DramStretch(cfg, 0.6), 1.15);
}

TEST(Dram, StretchCliffAboveKnee)
{
    const auto& cfg = Cfg();
    EXPECT_GT(DramStretch(cfg, 1.0), 2.5);
    EXPECT_GT(DramStretch(cfg, 1.5), DramStretch(cfg, 1.0) + 2.0);
}

TEST(Dram, StretchMonotone)
{
    const auto& cfg = Cfg();
    double prev = 0.0;
    for (double rho = 0.0; rho <= 2.0; rho += 0.05) {
        const double m = DramStretch(cfg, rho);
        EXPECT_GE(m, prev);
        prev = m;
    }
}

TEST(Dram, EmptyDemand)
{
    const auto out = ResolveDram(Cfg(), {});
    EXPECT_EQ(out.total_granted_gbps, 0.0);
    EXPECT_DOUBLE_EQ(out.stretch, 1.0);
}

// --------------------------------------------------------------------------
// Power model

TEST(Power, TurboDecreasesWithActiveCores)
{
    const auto& cfg = Cfg();
    EXPECT_GT(MaxTurboGhz(cfg, 1), MaxTurboGhz(cfg, 18));
    EXPECT_GE(MaxTurboGhz(cfg, 18), cfg.nominal_ghz);
}

TEST(Power, IdleSocketDrawsUncorePlusLeakage)
{
    const auto& cfg = Cfg();
    std::vector<CorePowerRequest> cores(cfg.cores_per_socket);
    const auto out = ResolvePower(cfg, cores);
    EXPECT_NEAR(out.socket_power_w,
                cfg.uncore_w + cfg.cores_per_socket * cfg.core_idle_w,
                1.0);
    EXPECT_FALSE(out.throttled);
}

TEST(Power, FewBusyCoresReachHighTurbo)
{
    const auto& cfg = Cfg();
    std::vector<CorePowerRequest> cores(cfg.cores_per_socket);
    cores[0].busy = 1.0;
    cores[1].busy = 1.0;
    const auto out = ResolvePower(cfg, cores);
    EXPECT_FALSE(out.throttled);
    EXPECT_GT(out.freq_ghz[0], 3.0);
}

TEST(Power, AllCoreNormalLoadStaysNearTdp)
{
    const auto& cfg = Cfg();
    std::vector<CorePowerRequest> cores(cfg.cores_per_socket);
    for (auto& c : cores) c.busy = 1.0;
    const auto out = ResolvePower(cfg, cores);
    EXPECT_LE(out.socket_power_w, cfg.tdp_w + 1e-6);
    // Normal intensity: all-core frequency lands above nominal.
    EXPECT_GE(out.freq_ghz[0], cfg.nominal_ghz);
}

TEST(Power, PowerVirusThrottlesWholeSocket)
{
    const auto& cfg = Cfg();
    std::vector<CorePowerRequest> cores(cfg.cores_per_socket);
    for (auto& c : cores) {
        c.busy = 1.0;
        c.intensity = 2.1;
    }
    const auto out = ResolvePower(cfg, cores);
    EXPECT_TRUE(out.throttled);
    EXPECT_LT(out.freq_ghz[0], cfg.nominal_ghz);
    EXPECT_LE(out.socket_power_w, cfg.tdp_w + 1e-6);
}

TEST(Power, DvfsCapRespected)
{
    const auto& cfg = Cfg();
    std::vector<CorePowerRequest> cores(cfg.cores_per_socket);
    for (auto& c : cores) c.busy = 1.0;
    cores[0].dvfs_cap_ghz = 1.5;
    const auto out = ResolvePower(cfg, cores);
    EXPECT_LE(out.freq_ghz[0], 1.5 + 1e-9);
    EXPECT_GT(out.freq_ghz[1], 1.5);
}

TEST(Power, CappingVirusCoresFreesBudgetForOthers)
{
    const auto& cfg = Cfg();
    std::vector<CorePowerRequest> uncapped(cfg.cores_per_socket);
    for (auto& c : uncapped) {
        c.busy = 1.0;
        c.intensity = 2.1;
    }
    std::vector<CorePowerRequest> capped = uncapped;
    // Cap all but two cores at the floor (what Heracles' power
    // subcontroller does to BE cores).
    for (size_t i = 2; i < capped.size(); ++i) {
        capped[i].dvfs_cap_ghz = cfg.min_ghz;
    }
    capped[0].intensity = capped[1].intensity = 1.0;
    const auto a = ResolvePower(cfg, uncapped);
    const auto b = ResolvePower(cfg, capped);
    EXPECT_GT(b.freq_ghz[0], a.freq_ghz[0] + 0.3);
}

TEST(Power, FrequencyOnDvfsGrid)
{
    const auto& cfg = Cfg();
    std::vector<CorePowerRequest> cores(cfg.cores_per_socket);
    for (auto& c : cores) c.busy = 0.7;
    const auto out = ResolvePower(cfg, cores);
    for (double f : out.freq_ghz) {
        const double steps = f / cfg.dvfs_step_ghz;
        EXPECT_NEAR(steps, std::round(steps), 1e-6);
    }
}

TEST(Power, NeighbourReuseMatchesPlainSolveBitForBit)
{
    // The per-epoch form memoizes f^dyn_exp and reuses the frequency and
    // power of a core equal to its left neighbour. Requests drawn from a
    // few values make neighbours agree in some fields and not others,
    // and the heavy ones throttle the socket into the bisection.
    const auto& cfg = Cfg();
    sim::Rng rng(11);
    const double busy[] = {0.0, 0.5, 1.0};
    const double intensity[] = {0.6, 1.0, 2.1};
    const double cap[] = {0.0, cfg.min_ghz, 2.0};
    PowerScratch scratch;
    PowerOutcome with;
    int throttled = 0;
    for (int trial = 0; trial < 200; ++trial) {
        std::vector<CorePowerRequest> cores(cfg.cores_per_socket);
        for (size_t i = 0; i < cores.size(); ++i) {
            CorePowerRequest& c = cores[i];
            c.busy = busy[rng.UniformInt(3)];
            c.intensity = intensity[rng.UniformInt(3)];
            c.dvfs_cap_ghz = cap[rng.UniformInt(3)];
            // Long runs of equal neighbours, as uniform placements give.
            if (i > 0 && rng.Bernoulli(0.5)) c = cores[i - 1];
        }
        if (trial % 2 == 0) {
            for (auto& c : cores) c.busy = 1.0;
        }
        const PowerOutcome plain = ResolvePower(cfg, cores);
        ResolvePower(cfg, cores, &scratch, &with, /*reuse_neighbours=*/true);
        EXPECT_EQ(plain.socket_power_w, with.socket_power_w) << trial;
        EXPECT_EQ(plain.throttled, with.throttled) << trial;
        EXPECT_EQ(plain.freq_ghz, with.freq_ghz) << trial;
        throttled += plain.throttled;
    }
    EXPECT_GT(throttled, 0);
}

// --------------------------------------------------------------------------
// NIC model

TEST(Nic, UncontendedLcGetsDemand)
{
    NicRequest req;
    req.lc_demand_gbps = 3.0;
    const auto out = ResolveNic(Cfg(), req);
    EXPECT_DOUBLE_EQ(out.lc_granted_gbps, 3.0);
    EXPECT_FALSE(out.lc_overloaded);
    EXPECT_LT(out.lc_delay_factor, 1.5);
    EXPECT_EQ(out.lc_drop_prob, 0.0);
}

TEST(Nic, UnshapedSwarmCapturesMostOfLink)
{
    NicRequest req;
    req.lc_demand_gbps = 1.0;
    req.be_demand_gbps = 20.0;
    const auto out = ResolveNic(Cfg(), req);
    EXPECT_NEAR(out.be_granted_gbps, 0.65 * 10.0, 1e-6);
}

TEST(Nic, UnshapedSwarmDropsLcPacketsNearSaturation)
{
    NicRequest req;
    req.lc_demand_gbps = 3.45;  // ~0.99 of the 3.5 Gb/s leftover
    req.be_demand_gbps = 20.0;
    const auto out = ResolveNic(Cfg(), req);
    EXPECT_GT(out.lc_drop_prob, 0.05);
}

TEST(Nic, UnshapedSwarmHarmlessAtLowLcLoad)
{
    NicRequest req;
    req.lc_demand_gbps = 1.5;
    req.be_demand_gbps = 20.0;
    const auto out = ResolveNic(Cfg(), req);
    EXPECT_EQ(out.lc_drop_prob, 0.0);
    EXPECT_LT(out.lc_delay_factor, 2.0);
}

TEST(Nic, HtbCeilLimitsBeAndProtectsLc)
{
    NicRequest req;
    req.lc_demand_gbps = 8.0;
    req.be_demand_gbps = 20.0;
    req.be_ceil_gbps = 1.5;
    const auto out = ResolveNic(Cfg(), req);
    EXPECT_DOUBLE_EQ(out.be_granted_gbps, 1.5);
    EXPECT_DOUBLE_EQ(out.lc_granted_gbps, 8.0);
    EXPECT_FALSE(out.lc_overloaded);
    EXPECT_EQ(out.lc_drop_prob, 0.0);
}

TEST(Nic, LcOverloadFlagged)
{
    NicRequest req;
    req.lc_demand_gbps = 12.0;  // more than the link itself
    const auto out = ResolveNic(Cfg(), req);
    EXPECT_TRUE(out.lc_overloaded);
    EXPECT_GT(out.lc_delay_factor, 50.0);
}

TEST(Nic, NoDropsWithoutSwarm)
{
    NicRequest req;
    req.lc_demand_gbps = 9.9;  // near saturation but alone on the link
    const auto out = ResolveNic(Cfg(), req);
    EXPECT_EQ(out.lc_drop_prob, 0.0);
}

// --------------------------------------------------------------------------
// Machine (integration of the resolvers)

/** Minimal configurable client for machine tests. */
class FakeClient : public ResourceClient
{
  public:
    explicit FakeClient(std::string name, bool lc = false)
        : name_(std::move(name)), lc_(lc)
    {
    }
    const std::string& name() const override { return name_; }
    bool is_lc() const override { return lc_; }
    double CpuBusyFraction() const override { return busy; }
    double LlcFootprintMb(int) const override { return footprint; }
    double LlcAccessWeight(int) const override { return weight; }
    double
    DramDemandGbps(int, double) const override
    {
        return dram_per_socket;
    }
    double PowerIntensity() const override { return intensity; }
    double NetTxDemandGbps() const override { return net; }
    double HtAggression() const override { return aggression; }

    double busy = 1.0, footprint = 10.0, weight = 10.0;
    double dram_per_socket = 5.0, intensity = 1.0, net = 0.0;
    double aggression = 1.3;

  private:
    std::string name_;
    bool lc_;
};

TEST(Machine, RegistersAndResolves)
{
    sim::EventQueue q;
    Machine m(Cfg(), q);
    FakeClient a("a", true);
    m.AddClient(&a);
    m.AssignCpus(&a, m.topology().PhysicalCores(0, 4));
    m.ResolveNow();
    const TaskView& v = m.ViewOf(&a);
    EXPECT_GT(v.freq_ghz, Cfg().nominal_ghz);  // few cores -> turbo
    EXPECT_NEAR(v.llc_mb[0] + v.llc_mb[1], 10.0, 1e-6);
    m.RemoveClient(&a);
}

TEST(MachineDeath, OverlappingCpusetsAbort)
{
    sim::EventQueue q;
    Machine m(Cfg(), q);
    FakeClient a("a"), b("b");
    m.AddClient(&a);
    m.AddClient(&b);
    m.AssignCpus(&a, CpuSet::Range(0, 4));
    EXPECT_DEATH(m.AssignCpus(&b, CpuSet::Range(2, 4)), "overlap");
}

TEST(MachineDeath, RejectsShapesTheSiblingModelCannotRepresent)
{
    sim::EventQueue q;
    MachineConfig smt4 = Cfg();
    smt4.cores_per_socket = 8;
    smt4.threads_per_core = 4;
    EXPECT_DEATH({ Machine m(smt4, q); }, "threads_per_core");
    MachineConfig no_threads = Cfg();
    no_threads.threads_per_core = 0;
    EXPECT_DEATH({ Machine m(no_threads, q); }, "threads_per_core");
    MachineConfig no_sockets = Cfg();
    no_sockets.sockets = 0;
    EXPECT_DEATH({ Machine m(no_sockets, q); }, "sockets");
    MachineConfig no_cores = Cfg();
    no_cores.cores_per_socket = 0;
    EXPECT_DEATH({ Machine m(no_cores, q); }, "cores_per_socket");
}

TEST(Machine, SharingAllowedWhenEnabled)
{
    sim::EventQueue q;
    Machine m(Cfg(), q);
    m.AllowCpuSharing(true);
    FakeClient a("a"), b("b");
    m.AddClient(&a);
    m.AddClient(&b);
    m.AssignCpus(&a, CpuSet::Range(0, 4));
    m.AssignCpus(&b, CpuSet::Range(0, 4));  // no abort
    m.ResolveNow();
    // Same-cpu sharing imposes a strong HT-style penalty.
    EXPECT_GT(m.ViewOf(&a).ht_penalty, 1.3);
}

TEST(Machine, HtPenaltyOnlyWhenSiblingsShared)
{
    sim::EventQueue q;
    Machine m(Cfg(), q);
    FakeClient lc("lc", true), be("be");
    m.AddClient(&lc);
    m.AddClient(&be);
    const auto& topo = m.topology();
    // Disjoint physical cores: no penalty.
    m.AssignCpus(&lc, topo.PhysicalCores(0, 4));
    m.AssignCpus(&be, topo.PhysicalCores(4, 4));
    m.ResolveNow();
    EXPECT_NEAR(m.ViewOf(&lc).ht_penalty, 1.0, 1e-9);
    // Sibling threads of the same cores: penalty appears.
    m.AssignCpus(&be, CpuSet());
    m.AssignCpus(&lc, topo.ThreadOfCores(0, 4, 0));
    m.AssignCpus(&be, topo.ThreadOfCores(0, 4, 1));
    m.ResolveNow();
    EXPECT_GT(m.ViewOf(&lc).ht_penalty, 1.2);
}

TEST(Machine, CatWaysReduceEffectiveCache)
{
    sim::EventQueue q;
    Machine m(Cfg(), q);
    FakeClient a("a");
    a.footprint = 40.0;
    m.AddClient(&a);
    m.AssignCpus(&a, m.topology().PhysicalCores(0, 18));  // socket 0
    m.ResolveNow();
    EXPECT_NEAR(m.ViewOf(&a).llc_mb[0], 40.0, 1e-6);
    m.SetCatWays(&a, 4);
    m.ResolveNow();
    EXPECT_NEAR(m.ViewOf(&a).llc_mb[0], 4 * Cfg().MbPerWay(), 1e-6);
}

TEST(Machine, DramSaturationStretchesAccessTime)
{
    sim::EventQueue q;
    Machine m(Cfg(), q);
    FakeClient a("a");
    a.dram_per_socket = 60.0;  // > 50 peak per socket
    m.AddClient(&a);
    m.AssignCpus(&a, m.topology().PhysicalCores(0, 18));
    m.ResolveNow();
    EXPECT_GT(m.ViewOf(&a).dram_stretch, 2.0);
    EXPECT_LE(m.ViewOf(&a).dram_granted_gbps[0], 50.0 + 1e-6);
}

TEST(Machine, CountersAreNoisyButClose)
{
    sim::EventQueue q;
    Machine m(Cfg(), q);
    FakeClient a("a");
    a.dram_per_socket = 20.0;
    m.AddClient(&a);
    m.AssignCpus(&a, m.topology().PhysicalCores(0, 18));
    m.ResolveNow();
    for (int i = 0; i < 50; ++i) {
        const double r = m.MeasuredDramGbps(0);
        EXPECT_NEAR(r, 20.0, 20.0 * Cfg().counter_noise + 1e-9);
    }
}

TEST(Machine, FreqCapAppliesToClientCores)
{
    sim::EventQueue q;
    Machine m(Cfg(), q);
    FakeClient a("a"), b("b");
    m.AddClient(&a);
    m.AddClient(&b);
    m.AssignCpus(&a, m.topology().PhysicalCores(0, 9));
    m.AssignCpus(&b, m.topology().PhysicalCores(9, 9));
    m.SetFreqCapGhz(&b, 1.2);
    m.ResolveNow();
    EXPECT_LE(m.MeasuredFreqGhz(&b), 1.2 + 1e-9);
    EXPECT_GT(m.MeasuredFreqGhz(&a), 2.0);
}

TEST(Machine, CapChangeAloneMissesTheMemo)
{
    sim::EventQueue q;
    Machine m(Cfg(), q);
    FakeClient lc("lc", true), be("be");
    lc.busy = 0.5;  // Busy levels stay fixed from here on.
    m.AddClient(&lc);
    m.AddClient(&be);
    m.AssignCpus(&lc, m.topology().PhysicalCores(0, 9));
    m.AssignCpus(&be, m.topology().PhysicalCores(9, 9));
    m.Resolve();
    const double uncapped = m.ViewOf(&be).freq_ghz;
    const uint64_t solves = m.busy_solves();
    m.Resolve();  // The same inputs: restored, not solved.
    EXPECT_EQ(m.busy_solves(), solves);

    m.SetFreqCapGhz(&be, 1.2);
    m.Resolve();
    EXPECT_EQ(m.busy_solves(), solves + 1);
    EXPECT_NE(m.ViewOf(&be).freq_ghz, uncapped);

    m.SetFreqCapGhz(&be, 0.0);
    m.Resolve();
    EXPECT_EQ(m.busy_solves(), solves + 1);
    EXPECT_EQ(m.ViewOf(&be).freq_ghz, uncapped);
    EXPECT_EQ(m.resolves(), 4u);
}

TEST(Machine, NetworkShapingViaBeCeil)
{
    sim::EventQueue q;
    Machine m(Cfg(), q);
    FakeClient lc("lc", true), be("be");
    lc.net = 6.0;
    be.net = 20.0;
    m.AddClient(&lc);
    m.AddClient(&be);
    m.AssignCpus(&lc, m.topology().PhysicalCores(0, 8));
    m.AssignCpus(&be, m.topology().PhysicalCores(8, 8));
    m.SetBeNetCeilGbps(2.0);
    m.ResolveNow();
    EXPECT_NEAR(m.BeTxGbps(), 2.0, 1e-6);
    EXPECT_NEAR(m.LcTxGbps(), 6.0, 1e-6);
}

TEST(Machine, TelemetryAveragesOverTime)
{
    sim::EventQueue q;
    Machine m(Cfg(), q);
    FakeClient a("a");
    m.AddClient(&a);
    m.AssignCpus(&a, m.topology().PhysicalCores(0, 18));
    m.ResolveNow();
    m.ResetTelemetryAverages();
    q.RunFor(sim::Seconds(2));
    const MachineTelemetry t = m.AveragedTelemetry();
    EXPECT_GT(t.power_w, 0.0);
    EXPECT_GT(t.cpu_utilization, 0.0);
    // The client only has cpus on socket 0, so only that socket's demand
    // (5 GB/s) is granted.
    EXPECT_NEAR(t.dram_gbps, 5.0, 0.5);
}

TEST(Machine, EmptyCpusetNeutralView)
{
    sim::EventQueue q;
    Machine m(Cfg(), q);
    FakeClient a("a");
    m.AddClient(&a);
    m.ResolveNow();
    const TaskView& v = m.ViewOf(&a);
    EXPECT_DOUBLE_EQ(v.dram_stretch, 1.0);
}

}  // namespace
}  // namespace heracles::hw
