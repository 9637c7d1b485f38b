/**
 * @file
 * Tests for the workload models: the LC queueing engine, the three
 * paper workload parameterizations, BE tasks and antagonist profiles.
 */
#include <gtest/gtest.h>

#include <cmath>

#include "workloads/antagonists.h"
#include "workloads/be_task.h"
#include "workloads/lc_app.h"
#include "workloads/lc_configs.h"

namespace heracles::workloads {
namespace {

hw::MachineConfig
Cfg()
{
    return hw::MachineConfig{};
}

/** A small fixture owning one machine + LC app. */
struct LcRig {
    explicit LcRig(const LcParams& params, uint64_t seed = 3)
        : machine(Cfg(), queue), app(machine, params, seed)
    {
    }

    void
    RunAlone(double load, sim::Duration warmup, sim::Duration measure)
    {
        app.SetCpus(machine.topology().PhysicalCores(
            0, machine.config().TotalCores()));
        app.SetLoad(load);
        app.Start();
        machine.ResolveNow();
        queue.RunFor(warmup);
        app.ResetStats();
        queue.RunFor(measure);
    }

    sim::EventQueue queue;
    hw::Machine machine;
    LcApp app;
};

// --------------------------------------------------------------------------
// Workload configurations (Section 3.1 facts)

TEST(LcConfigs, ThreeWorkloadsDefined)
{
    const auto all = AllLcWorkloads();
    ASSERT_EQ(all.size(), 3u);
    EXPECT_EQ(all[0].name, "websearch");
    EXPECT_EQ(all[1].name, "ml_cluster");
    EXPECT_EQ(all[2].name, "memkeyval");
}

TEST(LcConfigs, SloPercentilesMatchPaper)
{
    EXPECT_DOUBLE_EQ(Websearch().slo_percentile, 0.99);
    EXPECT_DOUBLE_EQ(MlCluster().slo_percentile, 0.95);
    EXPECT_DOUBLE_EQ(Memkeyval().slo_percentile, 0.99);
}

TEST(LcConfigs, SloScalesMatchPaper)
{
    // websearch / ml_cluster: tens of milliseconds.
    EXPECT_GE(Websearch().slo_latency, sim::Millis(10));
    EXPECT_GE(MlCluster().slo_latency, sim::Millis(10));
    // memkeyval: hundreds of microseconds.
    EXPECT_LT(Memkeyval().slo_latency, sim::Millis(1));
}

TEST(LcConfigs, DramFractionsMatchPaper)
{
    EXPECT_DOUBLE_EQ(Websearch().peak_dram_frac, 0.40);
    EXPECT_DOUBLE_EQ(MlCluster().peak_dram_frac, 0.60);
    EXPECT_DOUBLE_EQ(Memkeyval().peak_dram_frac, 0.20);
}

TEST(LcConfigs, MlClusterBandwidthIsSuperLinear)
{
    EXPECT_GT(MlCluster().bw_load_exp, 1.0);
}

TEST(LcConfigs, MemkeyvalIsNetworkLimitedAtPeak)
{
    const auto p = Memkeyval();
    const double peak_gbps = p.peak_qps * p.resp_bytes * 8.0 / 1e9;
    EXPECT_GT(peak_gbps, 0.9 * Cfg().nic_gbps);
    EXPECT_LE(peak_gbps, 1.05 * Cfg().nic_gbps);
}

// --------------------------------------------------------------------------
// Analytic helpers

TEST(LcAnalytic, WebsearchBandwidthHitsPaperFraction)
{
    const auto p = Websearch();
    // Warm cache at full load: ~40% of the machine's 100 GB/s.
    const double full_cache = 100.0;
    const double bw = LcApp::AnalyticDramGbps(p, Cfg(), 1.0, full_cache);
    EXPECT_NEAR(bw, 0.40 * Cfg().TotalDramGbps(), 1.0);
}

TEST(LcAnalytic, BandwidthGrowsWithLoad)
{
    for (const auto& p : AllLcWorkloads()) {
        double prev = -1.0;
        for (double load = 0.1; load <= 1.0; load += 0.1) {
            const double bw = LcApp::AnalyticDramGbps(p, Cfg(), load, 100.0);
            EXPECT_GT(bw, prev) << p.name << " @ " << load;
            prev = bw;
        }
    }
}

TEST(LcAnalytic, CacheStarvationRaisesBandwidth)
{
    for (const auto& p : AllLcWorkloads()) {
        const double warm = LcApp::AnalyticDramGbps(p, Cfg(), 0.8, 100.0);
        const double cold = LcApp::AnalyticDramGbps(p, Cfg(), 0.8, 1.0);
        EXPECT_GT(cold, warm * 1.5) << p.name;
    }
}

TEST(LcAnalytic, CacheFactorsBounds)
{
    for (const auto& p : AllLcWorkloads()) {
        const auto [ip0, dm0] = LcApp::CacheFactorsFor(p, 0.5, 0.0);
        EXPECT_NEAR(ip0, p.cache.instr_miss_penalty, 1e-9);
        EXPECT_NEAR(dm0, p.cache.mem_miss_ceil, 1e-9);
        const auto [ip1, dm1] = LcApp::CacheFactorsFor(p, 0.5, 1000.0);
        EXPECT_NEAR(ip1, 1.0, 1e-9);
        EXPECT_NEAR(dm1, 1.0, 1e-9);
    }
}

TEST(LcAnalytic, CacheFactorsMonotoneInCache)
{
    const auto p = Websearch();
    double prev_ip = 1e9, prev_dm = 1e9;
    for (double mb = 0.0; mb <= 50.0; mb += 2.5) {
        const auto [ip, dm] = LcApp::CacheFactorsFor(p, 0.7, mb);
        EXPECT_LE(ip, prev_ip);
        EXPECT_LE(dm, prev_dm);
        prev_ip = ip;
        prev_dm = dm;
    }
}

TEST(LcAnalytic, FootprintGrowsWithLoad)
{
    for (const auto& p : AllLcWorkloads()) {
        EXPECT_LT(LcApp::DataFootprintMb(p, 0.1),
                  LcApp::DataFootprintMb(p, 0.9))
            << p.name;
    }
}

TEST(LcAnalytic, MinCoresMonotoneInLoad)
{
    LcRig rig(Websearch());
    int prev = 0;
    for (double load = 0.05; load <= 1.0; load += 0.05) {
        const int cores = rig.app.MinPhysCoresForLoad(load);
        EXPECT_GE(cores, prev);
        prev = cores;
    }
    EXPECT_LE(prev, Cfg().TotalCores());
}

TEST(LcAnalytic, MinCoresTighterUtilNeedsFewerCores)
{
    LcRig rig(Websearch());
    EXPECT_LE(rig.app.MinPhysCoresForLoad(0.5, 0.9),
              rig.app.MinPhysCoresForLoad(0.5, 0.5));
}

// --------------------------------------------------------------------------
// LcApp dynamics (short simulations)

class LcAppAloneTest
    : public ::testing::TestWithParam<std::tuple<int, double>>
{
};

TEST_P(LcAppAloneTest, MeetsSloAlone)
{
    const auto all = AllLcWorkloads();
    const auto& params = all[std::get<0>(GetParam())];
    const double load = std::get<1>(GetParam());
    LcRig rig(params);
    rig.RunAlone(load, sim::Seconds(20), sim::Seconds(30));
    EXPECT_LE(rig.app.WorstReportTail(), params.slo_latency)
        << params.name << " @ " << load;
}

std::string
LcAloneName(const ::testing::TestParamInfo<std::tuple<int, double>>& info)
{
    static const char* kNames[] = {"websearch", "ml_cluster", "memkeyval"};
    return std::string(kNames[std::get<0>(info.param)]) + "_load" +
           std::to_string(static_cast<int>(std::get<1>(info.param) * 100));
}

INSTANTIATE_TEST_SUITE_P(
    AllWorkloadsAndLoads, LcAppAloneTest,
    ::testing::Combine(::testing::Values(0, 1, 2),
                       ::testing::Values(0.1, 0.3, 0.5, 0.7, 0.9)),
    LcAloneName);

TEST(LcApp, LatencyGrowsWithLoad)
{
    double low_tail, high_tail;
    {
        LcRig rig(Websearch());
        rig.RunAlone(0.2, sim::Seconds(15), sim::Seconds(25));
        low_tail = static_cast<double>(rig.app.WorstReportTail());
    }
    {
        LcRig rig(Websearch());
        rig.RunAlone(0.95, sim::Seconds(15), sim::Seconds(25));
        high_tail = static_cast<double>(rig.app.WorstReportTail());
    }
    EXPECT_GT(high_tail, low_tail);
}

TEST(LcApp, MeasuredQpsTracksTargetLoad)
{
    LcRig rig(Websearch());
    rig.RunAlone(0.5, sim::Seconds(20), sim::Seconds(20));
    EXPECT_NEAR(rig.app.LoadFraction(), 0.5, 0.05);
    EXPECT_NEAR(rig.app.ServedFraction(), 0.5, 0.05);
}

TEST(LcApp, TotalCountsAdvance)
{
    LcRig rig(Websearch());
    rig.RunAlone(0.3, sim::Seconds(5), sim::Seconds(5));
    EXPECT_GT(rig.app.TotalArrived(), 0u);
    EXPECT_NEAR(static_cast<double>(rig.app.TotalCompleted()),
                static_cast<double>(rig.app.TotalArrived()),
                0.05 * rig.app.TotalArrived());
}

TEST(LcApp, BusyFractionReflectsLoad)
{
    LcRig rig(Websearch());
    rig.RunAlone(0.5, sim::Seconds(10), sim::Seconds(10));
    // 0.5 * 11500 qps * 4 ms over 72 threads ~ 32% busy.
    EXPECT_NEAR(rig.app.CpuBusyFraction(), 0.32, 0.08);
}

// The busy-read contract in hw::ResourceClient::CpuBusyFraction.
TEST(LcApp, BusyReadIsPureAndTheBusyCounterMonotonic)
{
    // Two identical rigs; only the first reads mid-epoch, at t1. Both
    // read at t2, still inside the same 25 ms epoch.
    LcRig a(Websearch()), b(Websearch());
    a.RunAlone(0.5, sim::Seconds(5), sim::Seconds(5));
    b.RunAlone(0.5, sim::Seconds(5), sim::Seconds(5));
    a.queue.RunFor(sim::Millis(5));
    b.queue.RunFor(sim::Millis(5));
    const double at_t1 = a.app.CpuBusyFraction();
    EXPECT_EQ(a.app.CpuBusyFraction(), at_t1);
    a.queue.RunFor(sim::Millis(10));
    b.queue.RunFor(sim::Millis(10));

    // The read left no trace: the twins agree bit for bit.
    ASSERT_EQ(a.app.TotalCompleted(), b.app.TotalCompleted());
    const double level = a.app.CpuBusyFraction();
    EXPECT_EQ(a.app.CpuBusyFraction(), level);
    EXPECT_EQ(b.app.CpuBusyFraction(), level);
    EXPECT_EQ(a.app.BusyThreadNs(), b.app.BusyThreadNs());
    EXPECT_EQ(a.machine.Telemetry().cpu_utilization,
              b.machine.Telemetry().cpu_utilization);
    EXPECT_EQ(a.machine.Telemetry().power_w, b.machine.Telemetry().power_w);

    // The level is a whole number of busy threads out of the 72.
    const double threads = level * Cfg().LogicalCpus();
    EXPECT_DOUBLE_EQ(threads, std::round(threads));
    EXPECT_GT(level, 0.0);
    EXPECT_LT(level, 1.0);

    // The counter never falls, and its mean over a second tracks the
    // load: 0.5 * 11500 qps * 4 ms over 72 threads ~ 32% busy.
    const int64_t start = a.app.BusyThreadNs();
    int64_t last = start;
    for (int ms = 0; ms < 1000; ++ms) {
        a.queue.RunFor(sim::Millis(1));
        const int64_t now = a.app.BusyThreadNs();
        EXPECT_GE(now, last);
        last = now;
    }
    const double mean = static_cast<double>(last - start) /
                        (static_cast<double>(sim::Seconds(1)) *
                         Cfg().LogicalCpus());
    EXPECT_NEAR(mean, 0.32, 0.08);
}

/** A registered client with a fixed busy level and HT aggression. */
class StubClient : public hw::ResourceClient
{
  public:
    StubClient(double busy, double aggression)
        : busy_(busy), aggression_(aggression)
    {
    }
    const std::string& name() const override { return name_; }
    bool is_lc() const override { return false; }
    double CpuBusyFraction() const override { return busy_; }
    double LlcFootprintMb(int) const override { return 0.0; }
    double LlcAccessWeight(int) const override { return 0.0; }
    double DramDemandGbps(int, double) const override { return 0.0; }
    double PowerIntensity() const override { return 1.0; }
    double NetTxDemandGbps() const override { return 0.0; }
    double HtAggression() const override { return aggression_; }

  private:
    std::string name_ = "stub";
    double busy_;
    double aggression_;
};

// Every resolver phase reads one busy level per client: an LC spread
// evenly over both sockets asks both for the same power and runs both at
// the same frequency, whichever phase reads its busy level first.
TEST(LcApp, EvenSpreadGetsTheSamePowerOnBothSockets)
{
    for (const bool aggressor : {false, true}) {
        SCOPED_TRACE(aggressor ? "with an HT aggressor" : "alone");
        // Alone and without HT aggression, the LC is read first by the
        // power phase, socket by socket. With its aggression and an HT
        // aggressor beside it, the HT phase reads it first, for its
        // neighbours' penalties.
        LcParams params = Websearch();
        if (!aggressor) params.ht_aggression = 1.0;
        hw::MachineConfig cfg = Cfg();
        cfg.counter_noise = 0.0;
        // One idle probe per socket reads that socket's frequency. The
        // stubs outlive the machine's last resolve (in ~LcApp).
        StubClient probe0(0.0, 1.0), probe1(0.0, 1.0);
        StubClient virus(1.0, 1.5);
        sim::EventQueue queue;
        hw::Machine machine(cfg, queue);
        LcApp app(machine, params, 3);
        const hw::Topology& topo = machine.topology();
        const int per_socket = cfg.cores_per_socket;
        machine.AddClient(&probe0);
        machine.AddClient(&probe1);
        machine.AssignCpus(&probe0, topo.ThreadOfCores(per_socket - 1, 1, 0));
        machine.AssignCpus(&probe1,
                           topo.ThreadOfCores(2 * per_socket - 1, 1, 0));
        if (aggressor) {
            // The same two cores on each socket.
            machine.AddClient(&virus);
            machine.AssignCpus(&virus, topo.PhysicalCores(8, 2).Union(
                                           topo.PhysicalCores(
                                               per_socket + 8, 2)));
        }
        app.SetCpus(topo.SpreadCores(12));
        app.SetLoad(0.5);
        app.Start();
        machine.ResolveNow();
        queue.RunFor(sim::Seconds(2));
        for (int i = 0; i < 40; ++i) {
            queue.RunFor(sim::Millis(7));
            ASSERT_EQ(machine.MeasuredSocketPowerW(0),
                      machine.MeasuredSocketPowerW(1))
                << "read " << i;
            ASSERT_EQ(machine.ViewOf(&probe0).freq_ghz,
                      machine.ViewOf(&probe1).freq_ghz)
                << "read " << i;
        }
    }
}

TEST(LcApp, StarvedByTinyCpusetViolatesSlo)
{
    LcRig rig(Websearch());
    rig.app.SetCpus(rig.machine.topology().PhysicalCores(0, 2));
    rig.app.SetLoad(0.8);
    rig.app.Start();
    rig.machine.ResolveNow();
    rig.queue.RunFor(sim::Seconds(20));
    EXPECT_GT(rig.app.WorstReportTail(), rig.app.params().slo_latency);
    EXPECT_GT(rig.app.QueueDepth(), 100u);
}

TEST(LcApp, FastTailAvailableQuickly)
{
    LcRig rig(Websearch());
    // A fast (~2 s) window completes long before the 15 s controller
    // window does.
    rig.RunAlone(0.4, sim::Seconds(5), sim::Seconds(3));
    EXPECT_GT(rig.app.FastTailLatency(), 0);
    EXPECT_EQ(rig.app.CtlTailLatency(), 0);
}

TEST(LcApp, CtlTailRollsOnRead)
{
    LcRig rig(Websearch());
    rig.RunAlone(0.4, sim::Seconds(10), sim::Seconds(16));
    // A 15s controller window has passed since the stats reset; reading
    // must roll it even if no event landed exactly on the boundary.
    EXPECT_GT(rig.app.CtlTailLatency(), 0);
}

TEST(LcApp, SchedDelayModelInflatesTail)
{
    double clean, delayed;
    {
        LcRig rig(Websearch());
        rig.RunAlone(0.3, sim::Seconds(15), sim::Seconds(20));
        clean = static_cast<double>(rig.app.WorstReportTail());
    }
    {
        LcRig rig(Websearch());
        rig.app.SetSchedDelayModel(0.3, sim::Millis(1), sim::Millis(10));
        rig.RunAlone(0.3, sim::Seconds(15), sim::Seconds(20));
        delayed = static_cast<double>(rig.app.WorstReportTail());
    }
    EXPECT_GT(delayed, clean + static_cast<double>(sim::Millis(4)));
}

TEST(LcApp, ExternalInjectionReportsCompletions)
{
    LcRig rig(Websearch());
    rig.app.SetCpus(rig.machine.topology().PhysicalCores(0, 8));
    rig.app.StartExternal();
    int done = 0;
    sim::Duration last = 0;
    rig.app.SetCompletionCallback([&](uint64_t tag, sim::Duration lat) {
        ++done;
        EXPECT_GT(tag, 0u);
        last = lat;
    });
    for (uint64_t i = 1; i <= 50; ++i) rig.app.InjectRequest(i);
    rig.queue.RunFor(sim::Seconds(2));
    EXPECT_EQ(done, 50);
    EXPECT_GT(last, 0);
}

TEST(LcApp, OverallPercentileMatchesCompletedRequests)
{
    // The overall histogram must hold exactly the requests completed
    // since the last ResetStats: compare it against a reference fed from
    // the completion callback, before and after a mid-run reset (with
    // requests still in flight across it).
    LcRig rig(Memkeyval());
    rig.app.SetCpus(rig.machine.topology().PhysicalCores(0, 4));
    rig.app.StartExternal();
    const auto batch = static_cast<uint64_t>(rig.app.params().batch);
    sim::LatencyHistogram ref;
    rig.app.SetCompletionCallback([&](uint64_t, sim::Duration lat) {
        ref.RecordN(lat, batch);
    });
    uint64_t tag = 0;
    auto drive = [&](sim::Duration span) {
        const sim::SimTime end = rig.queue.Now() + span;
        while (rig.queue.Now() < end) {
            for (int i = 0; i < 8; ++i) rig.app.InjectRequest(++tag);
            rig.queue.RunFor(sim::Micros(500));
        }
    };
    auto expect_equal = [&](const char* phase) {
        ASSERT_GT(ref.count(), 0u) << phase;
        for (const double p : {0.0, 0.5, 0.9, 0.95, 0.99, 0.999, 1.0}) {
            EXPECT_EQ(rig.app.OverallPercentile(p), ref.Percentile(p))
                << phase << " p=" << p;
        }
    };
    drive(sim::Seconds(3));
    expect_equal("before reset");
    rig.app.ResetStats();
    ref.Reset();
    drive(sim::Seconds(3));
    expect_equal("after reset");
}

TEST(LcAppDeath, InjectWithoutExternalAborts)
{
    LcRig rig(Websearch());
    rig.app.SetCpus(rig.machine.topology().PhysicalCores(0, 4));
    rig.app.SetLoad(0.1);
    rig.app.Start();
    EXPECT_DEATH(rig.app.InjectRequest(1), "StartExternal");
}

TEST(LcAppDeath, StartWithoutCpusAborts)
{
    sim::EventQueue queue;
    hw::Machine machine(Cfg(), queue);
    LcApp app(machine, Websearch());
    app.SetLoad(0.5);
    EXPECT_DEATH(app.Start(), "cpus");
}

// --------------------------------------------------------------------------
// BE tasks and antagonists

TEST(BeTask, PausedWithoutCpus)
{
    sim::EventQueue queue;
    hw::Machine machine(Cfg(), queue);
    BeTask be(machine, Brain());
    machine.ResolveNow();
    queue.RunFor(sim::Seconds(1));
    EXPECT_DOUBLE_EQ(be.CurrentRate(), 0.0);
    EXPECT_DOUBLE_EQ(be.CpuBusyFraction(), 0.0);
}

TEST(BeTask, BusyQueriesAreStable)
{
    // Every read returns the task's level: busy whenever it holds
    // cpus.
    sim::EventQueue queue;
    hw::Machine machine(Cfg(), queue);
    BeTask be(machine, Brain());
    be.SetCpus(machine.topology().PhysicalCores(0, 4));
    queue.RunFor(sim::Millis(110));
    EXPECT_EQ(be.CpuBusyFraction(), 1.0);
    EXPECT_EQ(be.CpuBusyFraction(), 1.0);
    queue.RunFor(sim::Millis(10));
    EXPECT_EQ(be.CpuBusyFraction(), 1.0);
    be.SetCpus(hw::CpuSet{});
    EXPECT_EQ(be.CpuBusyFraction(), 0.0);
    EXPECT_EQ(be.CpuBusyFraction(), 0.0);
}

TEST(BeTask, RateGrowsWithCores)
{
    sim::EventQueue queue;
    hw::Machine machine(Cfg(), queue);
    BeTask be(machine, Brain());
    be.SetCpus(machine.topology().PhysicalCores(0, 4));
    machine.ResolveNow();
    const double r4 = be.CurrentRate();
    be.SetCpus(machine.topology().PhysicalCores(0, 12));
    machine.ResolveNow();
    const double r12 = be.CurrentRate();
    EXPECT_GT(r4, 0.0);
    EXPECT_GT(r12, r4 * 1.5);
}

TEST(BeTask, AvgRateAccrues)
{
    sim::EventQueue queue;
    hw::Machine machine(Cfg(), queue);
    BeTask be(machine, Brain());
    be.SetCpus(machine.topology().PhysicalCores(0, 8));
    machine.ResolveNow();
    be.ResetThroughput();
    queue.RunFor(sim::Seconds(5));
    EXPECT_NEAR(be.AvgRate(), be.CurrentRate(), 0.2 * be.CurrentRate());
}

TEST(BeTask, MeasureAloneRatePositive)
{
    for (const char* name :
         {"brain", "streetview", "stream-dram", "iperf"}) {
        const double rate =
            MeasureAloneRate(Cfg(), BeProfileByName(Cfg(), name));
        EXPECT_GT(rate, 0.0) << name;
    }
}

TEST(BeTask, StreetviewIsMemoryBound)
{
    // Alone on the whole machine, streetview's rate equals the granted
    // DRAM bandwidth, which saturates the channels.
    const double rate = MeasureAloneRate(Cfg(), Streetview());
    EXPECT_NEAR(rate, Cfg().TotalDramGbps(), 5.0);
}

TEST(BeTask, CacheSizeBoostsBrain)
{
    sim::EventQueue queue;
    hw::Machine machine(Cfg(), queue);
    BeTask be(machine, Brain());
    be.SetCpus(machine.topology().PhysicalCores(0, 8));
    machine.SetCatWays(&be, 2);  // 4.5 MB of a 24 MB footprint
    machine.ResolveNow();
    const double starved = be.CurrentRate();
    machine.SetCatWays(&be, 12);  // 27 MB: fits
    machine.ResolveNow();
    const double fed = be.CurrentRate();
    EXPECT_GT(fed, starved * 1.2);
}

TEST(Antagonists, ProfilesHaveExpectedShapes)
{
    const auto cfg = Cfg();
    EXPECT_EQ(Spinloop().footprint_mb, 0.0);
    EXPECT_GT(Spinloop().ht_aggression, 1.0);
    EXPECT_NEAR(StreamLlcSmall(cfg).footprint_mb,
                0.25 * cfg.llc_mb_per_socket, 1e-6);
    EXPECT_NEAR(StreamLlcMedium(cfg).footprint_mb,
                0.5 * cfg.llc_mb_per_socket, 1e-6);
    EXPECT_GT(StreamLlcBig(cfg).footprint_mb,
              0.9 * cfg.llc_mb_per_socket);
    EXPECT_GT(StreamDram().footprint_mb, cfg.llc_mb_per_socket * 5);
    EXPECT_GT(CpuPowerVirus().power_intensity, 2.0);
    EXPECT_GT(Iperf().net_demand_gbps, cfg.nic_gbps);
    EXPECT_TRUE(StreamDram().memory_bound);
    EXPECT_TRUE(Iperf().network_bound);
}

TEST(Antagonists, EvaluationSetMatchesPaper)
{
    const auto set = EvaluationBeSet(Cfg());
    ASSERT_EQ(set.size(), 6u);
    std::vector<std::string> names;
    for (const auto& p : set) names.push_back(p.name);
    EXPECT_NE(std::find(names.begin(), names.end(), "brain"), names.end());
    EXPECT_NE(std::find(names.begin(), names.end(), "streetview"),
              names.end());
    EXPECT_NE(std::find(names.begin(), names.end(), "iperf"), names.end());
}

TEST(AntagonistsDeath, UnknownNameAborts)
{
    EXPECT_DEATH(BeProfileByName(Cfg(), "nonsense"), "unknown");
}

}  // namespace
}  // namespace heracles::workloads
