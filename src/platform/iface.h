/**
 * @file
 * The platform interface: everything the Heracles controller can monitor
 * or actuate.
 *
 * The controller never touches the hardware models directly — it sees the
 * system only through this interface, exactly as the paper's controller
 * sees Linux: tail latency and load from the LC application's metrics
 * endpoint, DRAM bandwidth from IMC performance counters, package power
 * from RAPL, frequencies from aperf/mperf, and the four actuators
 * (cgroup cpusets, CAT MSRs, per-core DVFS, tc/HTB qdiscs). A real
 * deployment would implement this interface over procfs/resctrl/msr; this
 * repository ships SimPlatform, which binds it to the simulated server.
 *
 * The server's shape and ratings (sockets, cores, LLC ways, peak DRAM
 * bandwidth, TDP, the DVFS range and step, the link rate) and the LC
 * workload's guaranteed frequency are fixed for a run: they come as one
 * Facts record, not as calls. Every method below may read a different
 * value each time — the SLO included, which a cluster's central
 * controller retargets per leaf.
 */
#ifndef HERACLES_PLATFORM_IFACE_H
#define HERACLES_PLATFORM_IFACE_H

#include "sim/event_queue.h"
#include "sim/time.h"

namespace heracles::platform {

/** One server's facts that are fixed for a run; a platform fills them
 *  once. */
struct Facts {
    int sockets = 0;
    int total_phys_cores = 0;
    int total_llc_ways = 0;
    double dram_peak_gbps = 0.0;  ///< Peak streaming DRAM bandwidth.
    double tdp_w = 0.0;           ///< Per-socket TDP.
    double min_ghz = 0.0;         ///< Lowest DVFS frequency.
    double max_ghz = 0.0;         ///< Highest (single-core turbo) frequency.
    double freq_step_ghz = 0.0;   ///< DVFS step.
    double link_rate_gbps = 0.0;  ///< NIC line rate.
    /** Frequency the LC workload sustains running alone at full load. */
    double guaranteed_lc_freq_ghz = 0.0;
};

/** Monitor + actuator surface for one server. All methods are cheap. */
class Platform
{
  public:
    virtual ~Platform() = default;

    /** Event queue used to schedule the control loops. */
    virtual sim::EventQueue& queue() = 0;

    /** The server's fixed facts; the same values for the whole run. */
    virtual const Facts& facts() = 0;

    // --- Latency-critical workload monitors --------------------------------

    /** Tail latency over the last controller window (0 if none yet). */
    virtual sim::Duration LcTailLatency() = 0;

    /**
     * Approximate tail latency over a short (~2 s) window. Statistically
     * weaker than LcTailLatency but fresh enough for the subcontrollers
     * to judge whether the system is "close to an SLO violation" between
     * top-level polls (Section 4.3).
     */
    virtual sim::Duration LcFastTailLatency() = 0;

    /** The LC workload's SLO latency target. */
    virtual sim::Duration LcSlo() = 0;

    /** Current load as a fraction of the LC workload's peak rate. */
    virtual double LcLoad() = 0;

    /**
     * Busy fraction of the LC workload's own cpus (procfs-style). CPU
     * utilization cannot *guarantee* the SLO (Section 4.2 cites [47]),
     * but it is a sound safety bound: a service whose threads are nearly
     * all busy is one core-removal away from collapse regardless of how
     * healthy its tail currently looks.
     */
    virtual double LcCpuUtilization() = 0;

    // --- Memory bandwidth ----------------------------------------------------

    /** Measured total DRAM bandwidth (GB/s), from IMC counters. */
    virtual double MeasuredDramGbps() = 0;

    /**
     * Rough estimate of the BE jobs' DRAM bandwidth (GB/s), from counters
     * proportional to per-core memory traffic (noisier than the total).
     */
    virtual double BeDramEstimateGbps() = 0;

    // --- Power ----------------------------------------------------------------

    virtual double SocketPowerW(int socket) = 0;   ///< RAPL reading.
    virtual double LcFreqGhz() = 0;  ///< Mean frequency of LC cores.
    virtual double BeFreqCapGhz() = 0;  ///< 0 = uncapped.
    virtual void SetBeFreqCapGhz(double ghz) = 0;

    // --- Network -----------------------------------------------------------------

    virtual double LcTxGbps() = 0;     ///< LC egress bandwidth.
    virtual void SetBeNetCeilGbps(double gbps) = 0;  ///< HTB ceil.

    // --- Cores and cache ---------------------------------------------------------

    virtual int BeCores() = 0;               ///< 0 = BE disabled.
    virtual void SetBeCores(int cores) = 0;  ///< LC gets the rest.
    virtual int BeWays() = 0;
    virtual void SetBeWays(int ways) = 0;

    // --- Best-effort job probe ------------------------------------------------------

    /** Whether a BE job is attached at all (colocation possible). */
    virtual bool HasBeJob() = 0;

    /** BE throughput estimate in arbitrary units (for BeBenefit tests). */
    virtual double BeRate() = 0;
};

}  // namespace heracles::platform

#endif  // HERACLES_PLATFORM_IFACE_H
