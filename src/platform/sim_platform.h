/**
 * @file
 * Platform implementation bound to the simulated server.
 *
 * Owns the placement policy for the LC/BE core split: the LC workload
 * gets physical cores from the bottom of the machine (spread across both
 * sockets), BE jobs get whole physical cores from the top of the highest
 * socket downwards (mirroring the paper's use of numactl to confine BE
 * jobs). Both hardware threads of a physical core always belong to the
 * same task — Section 3's characterization shows cross-workload
 * HyperThread sharing is never acceptable.
 */
#ifndef HERACLES_PLATFORM_SIM_PLATFORM_H
#define HERACLES_PLATFORM_SIM_PLATFORM_H

#include "hw/machine.h"
#include "platform/iface.h"
#include "workloads/be_task.h"
#include "workloads/lc_app.h"

namespace heracles::platform {

/**
 * How often each isolation mechanism was actuated. The scenario harness
 * records these counts in its canonical metrics: a controller change
 * that leaves tails intact but doubles the actuation rate is still a
 * behavioral regression worth catching.
 */
struct ActuationCounts {
    uint64_t set_cores = 0;     ///< cpuset resizes.
    uint64_t set_ways = 0;      ///< CAT repartitions.
    uint64_t set_freq_cap = 0;  ///< DVFS cap changes.
    uint64_t set_net_ceil = 0;  ///< HTB ceil updates.
};

/** Binds the Platform interface to hw::Machine + workload models. */
class SimPlatform : public Platform
{
  public:
    /**
     * @param machine the server.
     * @param lc the latency-critical workload (required).
     * @param be the best-effort job, or nullptr when none is colocated.
     */
    SimPlatform(hw::Machine& machine, workloads::LcApp& lc,
                workloads::BeTask* be);

    /** Applies the initial placement: all cores to LC, BE disabled. */
    void ApplyInitialPlacement();

    /**
     * Rebinds the platform to a different (or no) BE job at runtime —
     * the hook a cluster-level scheduler uses to move jobs between
     * leaves. The caller must have released the outgoing job's
     * allocations first (HeraclesController::OnBeJobRemoved does);
     * the incoming job starts with zero cores/ways until the local
     * controller admits it.
     */
    void AttachBeJob(workloads::BeTask* be);

    // --- Platform ------------------------------------------------------------
    sim::EventQueue& queue() override { return machine_.queue(); }
    const Facts& facts() override { return facts_; }

    sim::Duration LcTailLatency() override { return lc_.CtlTailLatency(); }
    sim::Duration LcFastTailLatency() override {
        return lc_.FastTailLatency();
    }
    sim::Duration LcSlo() override { return lc_.params().slo_latency; }
    double LcLoad() override { return lc_.LoadFraction(); }
    /**
     * The LC's mean busy fraction since the previous call (since
     * construction for the first), from the delta of its busy-time
     * counter; the current level when no time has passed.
     */
    double LcCpuUtilization() override;

    double MeasuredDramGbps() override {
        return machine_.MeasuredTotalDramGbps();
    }
    double BeDramEstimateGbps() override;

    double SocketPowerW(int socket) override {
        return machine_.MeasuredSocketPowerW(socket);
    }
    double LcFreqGhz() override { return machine_.MeasuredFreqGhz(&lc_); }
    double BeFreqCapGhz() override;
    void SetBeFreqCapGhz(double ghz) override;

    double LcTxGbps() override { return machine_.LcTxGbps(); }
    void SetBeNetCeilGbps(double gbps) override {
        ++actuations_.set_net_ceil;
        machine_.SetBeNetCeilGbps(gbps);
    }

    int BeCores() override { return be_cores_; }
    void SetBeCores(int cores) override;
    int BeWays() override { return be_ways_; }
    void SetBeWays(int ways) override;

    bool HasBeJob() override { return be_ != nullptr; }
    double BeRate() override;

    /** Cumulative actuator call counts since construction. */
    const ActuationCounts& actuations() const { return actuations_; }

  private:
    void ApplyCpusets();
    void ApplyCat();

    hw::Machine& machine_;
    workloads::LcApp& lc_;
    workloads::BeTask* be_;
    const Facts facts_;
    mutable sim::Rng noise_;
    // LcCpuUtilization's previous read: when, and the LC's busy counter.
    sim::SimTime util_read_at_;
    int64_t util_read_busy_ns_;

    int be_cores_ = 0;
    int be_ways_ = 0;
    ActuationCounts actuations_;
};

}  // namespace heracles::platform

#endif  // HERACLES_PLATFORM_SIM_PLATFORM_H
