/**
 * @file
 * The interface between workloads and the shared-resource models.
 *
 * Every colocated task (the LC service, each antagonist, each BE batch job)
 * registers a ResourceClient with the Machine. Each contention epoch the
 * resolver queries the client's demand on every shared resource, resolves
 * competition, and publishes a TaskView describing what the task actually
 * received. Workload models read their TaskView when computing service
 * times or accruing throughput.
 */
#ifndef HERACLES_HW_CLIENT_H
#define HERACLES_HW_CLIENT_H

#include <string>

#include "hw/cpuset.h"

namespace heracles::hw {

/** Maximum sockets supported in per-socket arrays. */
constexpr int kMaxSockets = 4;

/** A task's demand on the server's shared resources. */
class ResourceClient
{
  public:
    virtual ~ResourceClient() = default;

    /** Task name (for reports and debugging). */
    virtual const std::string& name() const = 0;

    /** True for the latency-critical task; false for antagonists/BE. */
    virtual bool is_lc() const = 0;

    /**
     * Fraction of the task's allocated cpus that are busy at Now(), in
     * [0, 1]. A pure read.
     */
    virtual double CpuBusyFraction() const = 0;

    /** Cache footprint the task would like resident on @p socket (MB). */
    virtual double LlcFootprintMb(int socket) const = 0;

    /**
     * Relative intensity of the task's cache accesses on @p socket, used
     * as its weight in shared-cache competition when CAT is off. Roughly
     * "footprint * accesses per second", arbitrary common unit.
     */
    virtual double LlcAccessWeight(int socket) const = 0;

    /**
     * DRAM bandwidth the task would consume on @p socket given that
     * @p effective_llc_mb of its footprint is cache-resident (GB/s).
     */
    virtual double DramDemandGbps(int socket,
                                  double effective_llc_mb) const = 0;

    /** Per-busy-core power intensity; 1.0 = typical, ~2 = power virus. */
    virtual double PowerIntensity() const = 0;

    /** Desired egress network bandwidth (Gb/s). */
    virtual double NetTxDemandGbps() const = 0;

    /**
     * Slowdown this task inflicts on a *different* task sharing a physical
     * core via HyperThreading (multiplier >= 1; 1 = no interference).
     */
    virtual double HtAggression() const = 0;
};

/** What a task actually received this epoch, per shared resource. */
struct TaskView {
    /** Cache-resident MB on each socket (post-CAT / post-competition). */
    double llc_mb[kMaxSockets] = {0, 0, 0, 0};

    /** DRAM bandwidth demanded / granted on each socket (GB/s). */
    double dram_demand_gbps[kMaxSockets] = {0, 0, 0, 0};
    double dram_granted_gbps[kMaxSockets] = {0, 0, 0, 0};

    /**
     * Memory-access-time multiplier from DRAM contention (>= 1), the
     * demand-weighted mean over the task's sockets.
     */
    double dram_stretch = 1.0;

    /** Mean effective core frequency over the task's cpus (GHz). */
    double freq_ghz = 0.0;

    /**
     * Mean service-time multiplier from foreign HyperThread siblings
     * (>= 1; 1 when no other task shares the task's physical cores).
     */
    double ht_penalty = 1.0;

    /** Egress bandwidth granted (Gb/s) and queueing delay multiplier. */
    double net_granted_gbps = 0.0;
    double net_delay_factor = 1.0;
    /** Probability a response loses a packet to congestion (RTO). */
    double net_drop_prob = 0.0;
    /** True when the task wanted more egress bandwidth than it received. */
    bool net_overloaded = false;

    /** Total granted DRAM bandwidth across sockets. */
    double
    TotalDramGrantedGbps() const
    {
        double s = 0;
        for (double g : dram_granted_gbps) s += g;
        return s;
    }
};

}  // namespace heracles::hw

#endif  // HERACLES_HW_CLIENT_H
