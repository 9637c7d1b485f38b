/**
 * @file
 * Incremental arbitration vs the naive reference resolver.
 *
 * hw::Machine's incremental paths — the demand-dirty gate over the
 * LLC/DRAM/NIC phases, the cached cpu layouts, the HT runs and core
 * classes, memoized power curves — all claim to be *exact*
 * equivalence transforms of the historical eager full-scan resolver.
 * SetNaiveArbitration(true) retains that resolver: every resolve is a
 * full recompute and nothing is gated or cached.
 *
 * This suite drives two identical server rigs (machine + LC app + BE
 * task + platform) through a seeded churn of actuations, demand-scale
 * phase changes and counter reads — one rig incremental, one naive —
 * and asserts every published view and measured counter stays bitwise
 * identical throughout. Any shortcut that changes even the last ULP of
 * a grant, or perturbs an RNG stream, diverges here within a few
 * seconds of simulated time. A second churn places tasks by hand to
 * reach the layouts the controller never builds: OS-only sharing of
 * logical cpus, HT-split cores, a throttled socket, mixed DVFS caps on
 * one socket and a third registered client.
 */
#include <gtest/gtest.h>

#include <memory>
#include <utility>
#include <vector>

#include "hw/machine.h"
#include "platform/sim_platform.h"
#include "sim/random.h"
#include "workloads/antagonists.h"
#include "workloads/be_task.h"
#include "workloads/lc_app.h"
#include "workloads/lc_configs.h"

namespace heracles {
namespace {

/** One self-contained server simulation under churn. */
struct Rig {
    sim::EventQueue queue;
    hw::Machine machine;
    workloads::LcApp lc;
    std::unique_ptr<workloads::BeTask> be;
    platform::SimPlatform plat;

    Rig(bool naive, const hw::MachineConfig& cfg,
        const workloads::LcParams& lp, const workloads::BeProfile& bp)
        : machine(cfg, queue),
          lc(machine, lp, /*seed=*/cfg.seed ^ 0x11),
          be(std::make_unique<workloads::BeTask>(machine, bp)),
          plat(machine, lc, be.get())
    {
        machine.SetNaiveArbitration(naive);
        plat.ApplyInitialPlacement();
        lc.SetLoad(0.6);
        lc.Start();
    }

    /** Kills the BE job: releases its allocations, then unregisters it
     *  (the ~BeTask RemoveClient path — a client-set demand change). */
    void Detach()
    {
        if (be == nullptr) return;
        plat.SetBeCores(0);
        plat.AttachBeJob(nullptr);
        be.reset();
    }

    /** (Re)starts a BE job from scratch and admits it with @p cores. */
    void Attach(const workloads::BeProfile& bp, int cores)
    {
        if (be != nullptr) return;
        be = std::make_unique<workloads::BeTask>(machine, bp);
        plat.AttachBeJob(be.get());
        plat.SetBeCores(cores);
    }
};

using ClientPairs = std::vector<
    std::pair<const hw::ResourceClient*, const hw::ResourceClient*>>;

/** Asserts every view of the paired clients and every machine counter is
 *  bitwise identical. Both machines see the exact same call sequence,
 *  reads included: the counter reads draw measurement noise. */
void
ExpectSameMachine(hw::Machine& a, hw::Machine& b, const ClientPairs& pairs,
                  int step)
{
    const hw::MachineConfig& cfg = a.config();
    for (const auto& [c, d] : pairs) {
        const hw::TaskView& va = a.ViewOf(c);
        const hw::TaskView& vb = b.ViewOf(d);
        for (int s = 0; s < cfg.sockets; ++s) {
            EXPECT_EQ(va.llc_mb[s], vb.llc_mb[s]) << "step " << step;
            EXPECT_EQ(va.dram_demand_gbps[s], vb.dram_demand_gbps[s])
                << "step " << step;
            EXPECT_EQ(va.dram_granted_gbps[s], vb.dram_granted_gbps[s])
                << "step " << step;
        }
        EXPECT_EQ(va.dram_stretch, vb.dram_stretch) << "step " << step;
        EXPECT_EQ(va.freq_ghz, vb.freq_ghz) << "step " << step;
        EXPECT_EQ(va.ht_penalty, vb.ht_penalty) << "step " << step;
        EXPECT_EQ(va.net_granted_gbps, vb.net_granted_gbps)
            << "step " << step;
        EXPECT_EQ(va.net_delay_factor, vb.net_delay_factor)
            << "step " << step;
        EXPECT_EQ(va.net_drop_prob, vb.net_drop_prob) << "step " << step;
        EXPECT_EQ(va.net_overloaded, vb.net_overloaded)
            << "step " << step;
    }
    // Noisy counters consume the machine's noise RNG — identical call
    // sequences on both rigs keep the streams aligned, so the readings
    // must match exactly too.
    for (int s = 0; s < cfg.sockets; ++s) {
        EXPECT_EQ(a.MeasuredDramGbps(s), b.MeasuredDramGbps(s))
            << "step " << step;
        EXPECT_EQ(a.MeasuredSocketPowerW(s), b.MeasuredSocketPowerW(s))
            << "step " << step;
    }
    for (const auto& [c, d] : pairs) {
        EXPECT_EQ(a.MeasuredFreqGhz(c), b.MeasuredFreqGhz(d))
            << "step " << step;
    }
    EXPECT_EQ(a.LcTxGbps(), b.LcTxGbps()) << "step " << step;
    EXPECT_EQ(a.BeTxGbps(), b.BeTxGbps()) << "step " << step;

    const hw::MachineTelemetry ta = a.Telemetry();
    const hw::MachineTelemetry tb = b.Telemetry();
    EXPECT_EQ(ta.dram_gbps, tb.dram_gbps) << "step " << step;
    EXPECT_EQ(ta.cpu_utilization, tb.cpu_utilization) << "step " << step;
    EXPECT_EQ(ta.power_w, tb.power_w) << "step " << step;
    EXPECT_EQ(ta.lc_tx_gbps, tb.lc_tx_gbps) << "step " << step;
    EXPECT_EQ(ta.be_tx_gbps, tb.be_tx_gbps) << "step " << step;
    EXPECT_EQ(ta.net_frac, tb.net_frac) << "step " << step;
}

/** The workloads ride on the views: identical views imply identical
 *  service-time draws, so the request streams must stay in lockstep. */
void
ExpectSameLc(const workloads::LcApp& a, const workloads::LcApp& b, int step)
{
    EXPECT_EQ(a.TotalArrived(), b.TotalArrived()) << "step " << step;
    EXPECT_EQ(a.TotalCompleted(), b.TotalCompleted()) << "step " << step;
    EXPECT_EQ(a.CtlTailLatency(), b.CtlTailLatency()) << "step " << step;
}

/** Asserts every observable of both rigs is bitwise identical. */
void
ExpectIdentical(Rig& a, Rig& b, int step)
{
    ASSERT_EQ(a.be != nullptr, b.be != nullptr) << "step " << step;
    ClientPairs pairs = {{&a.lc, &b.lc}};
    if (a.be != nullptr) pairs.push_back({a.be.get(), b.be.get()});
    ExpectSameMachine(a.machine, b.machine, pairs, step);
    ExpectSameLc(a.lc, b.lc, step);
    if (a.be != nullptr && b.be != nullptr) {
        EXPECT_EQ(a.be->AvgRate(), b.be->AvgRate()) << "step " << step;
    }
}

TEST(MachineEquivalence, SeededChurnStaysBitIdenticalToNaive)
{
    hw::MachineConfig cfg;
    cfg.seed = 1234;
    const workloads::LcParams lp = workloads::Websearch();
    const workloads::BeProfile bp = workloads::Brain();

    Rig inc(/*naive=*/false, cfg, lp, bp);
    Rig naive(/*naive=*/true, cfg, lp, bp);

    // One decision stream, applied identically to both rigs. The op mix
    // covers every actuator the controller uses, BE phase changes, the
    // controller's utilization read, and plain time advancement.
    sim::Rng churn(99);
    const int total_cores = cfg.TotalCores();
    const int total_ways = cfg.llc_ways;
    for (int step = 0; step < 120; ++step) {
        const int op = static_cast<int>(churn.UniformInt(8));
        switch (op) {
        case 0: {
            const int cores =
                static_cast<int>(churn.UniformInt(total_cores));
            inc.plat.SetBeCores(cores);
            naive.plat.SetBeCores(cores);
            break;
        }
        case 1: {
            const int ways =
                static_cast<int>(churn.UniformInt(total_ways));
            inc.plat.SetBeWays(ways);
            naive.plat.SetBeWays(ways);
            break;
        }
        case 2: {
            const double ghz =
                churn.Uniform(cfg.min_ghz, cfg.turbo_1c_ghz);
            inc.plat.SetBeFreqCapGhz(ghz);
            naive.plat.SetBeFreqCapGhz(ghz);
            break;
        }
        case 3: {
            const double ceil = churn.Bernoulli(0.3)
                                    ? -1.0
                                    : churn.Uniform(0.5, cfg.nic_gbps);
            inc.plat.SetBeNetCeilGbps(ceil);
            naive.plat.SetBeNetCeilGbps(ceil);
            break;
        }
        case 4: {
            const double scale = churn.Uniform(0.2, 1.5);
            if (inc.be != nullptr) {
                inc.be->SetDemandScale(scale);
                naive.be->SetDemandScale(scale);
            }
            break;
        }
        case 5: {
            // The controller's utilization read between resolves: a
            // delta of the LC's busy counter, which leaves the machine
            // untouched.
            EXPECT_EQ(inc.plat.LcCpuUtilization(),
                      naive.plat.LcCpuUtilization())
                << "step " << step;
            break;
        }
        case 6: {
            // Same-instant pile-up: several actuations with no time in
            // between, each resolving before the next one writes.
            const int cores =
                static_cast<int>(churn.UniformInt(total_cores));
            const int ways =
                static_cast<int>(churn.UniformInt(total_ways));
            inc.plat.SetBeCores(cores);
            inc.plat.SetBeWays(ways);
            naive.plat.SetBeCores(cores);
            naive.plat.SetBeWays(ways);
            break;
        }
        default: {
            // Job churn: unregistering and re-registering a client is
            // the sharpest demand change (the client set itself moves).
            if (inc.be != nullptr) {
                inc.Detach();
                naive.Detach();
            } else {
                const int cores = 1 + static_cast<int>(
                                      churn.UniformInt(total_cores - 1));
                inc.Attach(bp, cores);
                naive.Attach(bp, cores);
            }
            break;
        }
        }
        const sim::Duration gap =
            sim::Millis(1 + static_cast<int>(churn.UniformInt(400)));
        inc.queue.RunFor(gap);
        naive.queue.RunFor(gap);
        if (step % 10 == 9) ExpectIdentical(inc, naive, step);
    }
    ExpectIdentical(inc, naive, 120);

    // The incremental rig must actually have been incremental: the
    // demand phases recompute only when demand inputs changed, while
    // the naive reference recomputes them on every resolve.
    EXPECT_LT(inc.machine.demand_recomputes(), inc.machine.resolves());
    EXPECT_EQ(naive.machine.demand_recomputes(),
              naive.machine.resolves());
    EXPECT_GT(inc.machine.resolves(), 0u);
}

/**
 * A server with three clients placed by hand, cpu sharing allowed: the
 * LC app, a brain job and, attached and detached by the churn, a power
 * virus. Placements go straight to the machine, so they reach layouts
 * the platform never builds.
 */
struct SharedRig {
    sim::EventQueue queue;
    hw::Machine machine;
    workloads::LcApp lc;
    workloads::BeTask be;
    std::unique_ptr<workloads::BeTask> virus;

    SharedRig(bool naive, const hw::MachineConfig& cfg)
        : machine(cfg, queue),
          lc(machine, workloads::Websearch(), /*seed=*/cfg.seed ^ 0x22),
          be(machine, workloads::Brain())
    {
        machine.SetNaiveArbitration(naive);
        machine.AllowCpuSharing(true);
        lc.SetCpus(machine.topology().SpreadCores(12));
        be.SetCpus(machine.topology().PhysicalCores(12, 12));
        lc.SetLoad(0.1);
        lc.Start();
    }

    ClientPairs
    Pairs(const SharedRig& o) const
    {
        ClientPairs pairs = {{&lc, &o.lc}, {&be, &o.be}};
        if (virus != nullptr) pairs.push_back({virus.get(), o.virus.get()});
        return pairs;
    }
};

TEST(MachineEquivalence, SharedAndSplitLayoutsStayBitIdenticalToNaive)
{
    hw::MachineConfig cfg;
    cfg.seed = 4321;
    const hw::Topology topo(cfg);
    SharedRig inc(/*naive=*/false, cfg);
    SharedRig naive(/*naive=*/true, cfg);

    const int per_socket = cfg.cores_per_socket;
    const int total_cores = cfg.TotalCores();
    // Both rigs take each placement, then resolve the way the
    // platform's actuators do.
    const auto both = [&](const auto& act) {
        for (SharedRig* r : {&inc, &naive}) {
            act(*r);
            r->machine.Resolve();
        }
    };
    // What the churn must reach, read off the incremental rig's views.
    int split_steps = 0, shared_steps = 0, throttled_steps = 0;
    int mixed_cap_steps = 0, three_client_steps = 0;

    sim::Rng churn(7);
    for (int step = 0; step < 150; ++step) {
        const int op = static_cast<int>(churn.UniformInt(7));
        switch (op) {
        case 0: {
            // HT-split cores, like the rig's HyperThread cell: LC on
            // thread 0, the antagonist on thread 1 of the same cores.
            const int first = static_cast<int>(churn.UniformInt(8));
            const int n = 12 + static_cast<int>(churn.UniformInt(16));
            both([&](SharedRig& r) {
                r.lc.SetCpus(topo.ThreadOfCores(first, n, 0));
                r.be.SetCpus(topo.ThreadOfCores(first, n, 1));
            });
            ++split_steps;
            break;
        }
        case 1: {
            // OS-only sharing: overlapping cpusets share logical cpus.
            // The brain job holds one thread of some cores and both of
            // the next ones, so the LC cpus over them see the sibling,
            // the cpu itself, or both.
            const int lc_first = static_cast<int>(churn.UniformInt(12));
            const int lc_n = 8 + static_cast<int>(churn.UniformInt(12));
            const int be_first = static_cast<int>(churn.UniformInt(16));
            const int be_split = 1 + static_cast<int>(churn.UniformInt(8));
            const int be_whole = static_cast<int>(churn.UniformInt(8));
            const int thread = static_cast<int>(churn.UniformInt(2));
            both([&](SharedRig& r) {
                r.lc.SetCpus(topo.PhysicalCores(lc_first, lc_n));
                r.be.SetCpus(
                    topo.ThreadOfCores(be_first, be_split, thread)
                        .Union(topo.PhysicalCores(be_first + be_split,
                                                  be_whole)));
            });
            ++shared_steps;
            break;
        }
        case 2: {
            // The power virus over most of one socket: enough busy
            // high-intensity cores to throttle it.
            if (inc.virus == nullptr) break;
            const int socket = static_cast<int>(churn.UniformInt(2));
            const int n =
                per_socket / 2 +
                static_cast<int>(churn.UniformInt(per_socket / 2 + 1));
            both([&](SharedRig& r) {
                r.virus->SetCpus(
                    topo.PhysicalCores(socket * per_socket, n));
            });
            break;
        }
        case 3: {
            // Mixed DVFS caps, each sometimes uncapped.
            double caps[3];
            for (double& c : caps) {
                c = churn.Bernoulli(0.3)
                        ? 0.0
                        : churn.Uniform(cfg.min_ghz, cfg.turbo_1c_ghz);
            }
            both([&](SharedRig& r) {
                r.machine.SetFreqCapGhz(&r.lc, caps[0]);
                r.machine.SetFreqCapGhz(&r.be, caps[1]);
                if (r.virus != nullptr) {
                    r.machine.SetFreqCapGhz(r.virus.get(), caps[2]);
                }
            });
            break;
        }
        case 4: {
            // The third client comes and goes; removal shifts the
            // registration indices the layout classes refer to.
            if (inc.virus != nullptr) {
                both([](SharedRig& r) { r.virus.reset(); });
            } else {
                const int n = 1 + static_cast<int>(
                                      churn.UniformInt(total_cores - 1));
                both([&](SharedRig& r) {
                    r.virus = std::make_unique<workloads::BeTask>(
                        r.machine, workloads::CpuPowerVirus());
                    r.virus->SetCpus(topo.PhysicalCores(0, n));
                });
            }
            break;
        }
        case 5: {
            // A busy read between resolves: pure, so it changes nothing.
            EXPECT_EQ(inc.lc.CpuBusyFraction(), naive.lc.CpuBusyFraction())
                << "step " << step;
            break;
        }
        default: {
            // The brain job paused (empty cpuset) or given a socket.
            const bool pause = churn.Bernoulli(0.5);
            const int socket = static_cast<int>(churn.UniformInt(2));
            both([&](SharedRig& r) {
                r.be.SetCpus(pause ? hw::CpuSet{}
                                   : topo.PhysicalCores(
                                         socket * per_socket, per_socket));
            });
            break;
        }
        }
        const sim::Duration gap =
            sim::Millis(1 + static_cast<int>(churn.UniformInt(300)));
        inc.queue.RunFor(gap);
        naive.queue.RunFor(gap);
        ExpectSameMachine(inc.machine, naive.machine, inc.Pairs(naive), step);
        ExpectSameLc(inc.lc, naive.lc, step);
        EXPECT_EQ(inc.be.AvgRate(), naive.be.AvgRate()) << "step " << step;

        if (inc.virus != nullptr) {
            ++three_client_steps;
            const double f = inc.machine.ViewOf(inc.virus.get()).freq_ghz;
            if (inc.machine.FreqCapOf(inc.virus.get()) == 0.0 &&
                f < cfg.nominal_ghz) {
                ++throttled_steps;
            }
            const double a = inc.machine.FreqCapOf(&inc.be);
            const double b = inc.machine.FreqCapOf(inc.virus.get());
            if (a > 0.0 && b > 0.0 && a != b) ++mixed_cap_steps;
        }
    }
    EXPECT_GT(split_steps, 0);
    EXPECT_GT(shared_steps, 0);
    EXPECT_GT(throttled_steps, 0);
    EXPECT_GT(mixed_cap_steps, 0);
    EXPECT_GT(three_client_steps, 0);
}

}  // namespace
}  // namespace heracles
