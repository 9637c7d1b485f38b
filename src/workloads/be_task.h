/**
 * @file
 * Best-effort tasks and antagonists.
 *
 * A BeTask is a throughput-oriented job described by a demand profile on
 * every shared resource (cache footprint, DRAM bandwidth per core, power
 * intensity, HyperThread aggression, network demand) plus a throughput
 * model used for Effective Machine Utilization accounting. One class
 * covers both the paper's synthetic antagonists (Section 3.2) and its
 * production batch jobs (Section 5.1); they differ only in profile.
 *
 * BE tasks are elastic: Heracles resizes their cpuset at will, and a task
 * with an empty cpuset is effectively paused (consumes nothing, produces
 * nothing) — that is how DisableBE() is realized.
 */
#ifndef HERACLES_WORKLOADS_BE_TASK_H
#define HERACLES_WORKLOADS_BE_TASK_H

#include <string>

#include "hw/machine.h"

namespace heracles::workloads {

/** Demand + throughput profile of a best-effort task. */
struct BeProfile {
    std::string name = "be";

    // --- Demands ------------------------------------------------------------
    /** Cache footprint (MB) on each socket where the task has cores. */
    double footprint_mb = 0.0;
    /** LLC competition weight per core (pressure under shared caching). */
    double weight_per_core = 0.0;
    /** DRAM bandwidth per core when its footprint misses entirely (GB/s). */
    double dram_per_core_gbps = 0.0;
    /** Fraction of DRAM demand present even with a fully-resident
     *  footprint (compulsory/streaming misses). */
    double dram_compulsory_frac = 0.05;
    double power_intensity = 0.9;
    double ht_aggression = 1.35;
    /** Total egress network demand (Gb/s); iperf asks for "everything". */
    double net_demand_gbps = 0.0;

    // --- Throughput model ---------------------------------------------------
    /** Rate factor with zero cache residency (1 = cache-insensitive). */
    double cache_rate_floor = 1.0;
    /** Sensitivity of throughput to core frequency (0 = insensitive). */
    double freq_sensitivity = 1.0;
    /** Memory-bound: throughput tracks granted DRAM bandwidth. */
    bool memory_bound = false;
    /** Network-bound: throughput tracks granted egress bandwidth. */
    bool network_bound = false;

    /** Field-wise equality — keep in sync when adding fields.
     *  MeasureAloneRate memoizes on this (a same-named profile resolved
     *  against a different machine can differ). */
    bool
    operator==(const BeProfile& o) const
    {
        return name == o.name && footprint_mb == o.footprint_mb &&
               weight_per_core == o.weight_per_core &&
               dram_per_core_gbps == o.dram_per_core_gbps &&
               dram_compulsory_frac == o.dram_compulsory_frac &&
               power_intensity == o.power_intensity &&
               ht_aggression == o.ht_aggression &&
               net_demand_gbps == o.net_demand_gbps &&
               cache_rate_floor == o.cache_rate_floor &&
               freq_sensitivity == o.freq_sensitivity &&
               memory_bound == o.memory_bound &&
               network_bound == o.network_bound;
    }
    bool operator!=(const BeProfile& o) const { return !(*this == o); }
};

/** A best-effort task colocated with the LC service. */
class BeTask : public hw::ResourceClient
{
  public:
    BeTask(hw::Machine& machine, const BeProfile& profile);
    ~BeTask() override;

    /** Pins (or resizes) the task; an empty set pauses it. */
    void SetCpus(const hw::CpuSet& cpus);

    /** Accrued work units per second since the last reset. */
    double AvgRate() const;

    /** Instantaneous work units per second at the current allocation. */
    double CurrentRate() const;

    /** Restarts throughput accounting (e.g. after warmup). */
    void ResetThroughput();

    /**
     * Scales the task's demands (cache footprint, access weight, DRAM
     * per core, egress) by @p scale — an abrupt phase change that turns
     * the job into a much heavier (or lighter) antagonist without
     * touching its throughput model or any RNG stream. The chaos
     * layer's antagonist bursts drive this; 1.0 restores the profile.
     */
    void SetDemandScale(double scale);

    // --- ResourceClient -----------------------------------------------------
    const std::string& name() const override { return profile_.name; }
    bool is_lc() const override { return false; }
    double CpuBusyFraction() const override;
    double LlcFootprintMb(int socket) const override;
    double LlcAccessWeight(int socket) const override;
    double DramDemandGbps(int socket, double effective_llc_mb) const override;
    double PowerIntensity() const override {
        return profile_.power_intensity;
    }
    double NetTxDemandGbps() const override;
    double HtAggression() const override { return profile_.ht_aggression; }

  private:
    void Accrue();
    int CoresOn(int socket) const;
    double MissFraction(int socket, double effective_llc_mb) const;

    hw::Machine& machine_;
    BeProfile profile_;
    double demand_scale_ = 1.0;
    sim::EventQueue::EventId accrue_event_;

    double work_ = 0.0;
    sim::SimTime accounting_start_ = 0;
    sim::SimTime last_accrue_ = 0;
};

/**
 * Measures the task's throughput running *alone* on the whole machine
 * (every core, full cache, unshaped network) for normalization. Runs a
 * short standalone simulation with a fresh machine of the same
 * configuration, once per distinct (@p cfg, @p profile) pair — seed
 * included — per process: later calls read the memoized value
 * (sim::OnceCache), which is bit-identical to a fresh run. Thread-safe.
 */
double MeasureAloneRate(const hw::MachineConfig& cfg,
                        const BeProfile& profile);

}  // namespace heracles::workloads

#endif  // HERACLES_WORKLOADS_BE_TASK_H
