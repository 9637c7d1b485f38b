/**
 * @file
 * Server hardware configuration.
 *
 * Defaults model the paper's evaluation platform: a dual-socket Intel Xeon
 * (Haswell-EP class) with a high core count, 2.3 GHz nominal frequency,
 * 2.5 MB of LLC per core, CAT way-partitioning, RAPL power monitoring,
 * per-core DVFS, and a 10 GbE NIC.
 */
#ifndef HERACLES_HW_CONFIG_H
#define HERACLES_HW_CONFIG_H

#include "sim/time.h"

namespace heracles::hw {

/** Static description of one server. All rates are per second. */
struct MachineConfig {
    // --- Topology -------------------------------------------------------
    int sockets = 2;
    int cores_per_socket = 18;
    int threads_per_core = 2;  ///< HyperThreads per physical core.

    // --- Frequency / power ----------------------------------------------
    double nominal_ghz = 2.3;   ///< Guaranteed base frequency.
    double min_ghz = 1.2;       ///< DVFS floor.
    double turbo_1c_ghz = 3.6;  ///< Single-core max turbo.
    /** All-core turbo = turbo_1c - slope * (active_cores - 1). */
    double turbo_slope_ghz = 0.05;
    double dvfs_step_ghz = 0.1;  ///< Per-core DVFS granularity (100 MHz).

    double tdp_w = 145.0;        ///< Thermal design power per socket.
    double uncore_w = 18.0;      ///< Static uncore power per socket.
    double core_idle_w = 1.0;    ///< Per-core leakage/idle power.
    /** Dynamic core power = dyn_coeff_w * intensity * f_ghz^dyn_exp. */
    double dyn_coeff_w = 0.458;
    double dyn_exp = 2.6;

    // --- Last-level cache -------------------------------------------------
    double llc_mb_per_socket = 45.0;  ///< 18 cores x 2.5 MB.
    int llc_ways = 20;                ///< CAT way-partitioning granularity.

    // --- Memory -----------------------------------------------------------
    double dram_gbps_per_socket = 50.0;  ///< Peak streaming bandwidth.
    /** Utilization knee after which DRAM access latency rises sharply. */
    double dram_knee = 0.75;

    // --- Network ------------------------------------------------------------
    double nic_gbps = 10.0;  ///< Egress link rate.

    // --- Simulation ---------------------------------------------------------
    /** Contention is re-resolved at this period of simulated time. */
    sim::Duration epoch = sim::Millis(25);
    /** Relative noise applied to counter readings (RAPL, DRAM BW). */
    double counter_noise = 0.01;
    uint64_t seed = 1;

    // --- Derived helpers ----------------------------------------------------
    /** Field-wise equality (seed included) — keep in sync when adding
     *  fields. The memoized offline measurements (alone rates,
     *  fingerprints) key on this. */
    bool
    operator==(const MachineConfig& o) const
    {
        return sockets == o.sockets &&
               cores_per_socket == o.cores_per_socket &&
               threads_per_core == o.threads_per_core &&
               nominal_ghz == o.nominal_ghz && min_ghz == o.min_ghz &&
               turbo_1c_ghz == o.turbo_1c_ghz &&
               turbo_slope_ghz == o.turbo_slope_ghz &&
               dvfs_step_ghz == o.dvfs_step_ghz && tdp_w == o.tdp_w &&
               uncore_w == o.uncore_w && core_idle_w == o.core_idle_w &&
               dyn_coeff_w == o.dyn_coeff_w && dyn_exp == o.dyn_exp &&
               llc_mb_per_socket == o.llc_mb_per_socket &&
               llc_ways == o.llc_ways &&
               dram_gbps_per_socket == o.dram_gbps_per_socket &&
               dram_knee == o.dram_knee && nic_gbps == o.nic_gbps &&
               epoch == o.epoch && counter_noise == o.counter_noise &&
               seed == o.seed;
    }
    bool operator!=(const MachineConfig& o) const { return !(*this == o); }

    int TotalCores() const { return sockets * cores_per_socket; }
    int LogicalCpus() const {
        return TotalCores() * threads_per_core;
    }
    int CpusPerSocket() const {
        return cores_per_socket * threads_per_core;
    }
    double MbPerWay() const {
        return llc_mb_per_socket / llc_ways;
    }
    double TotalDramGbps() const {
        return dram_gbps_per_socket * sockets;
    }
    double TotalTdpW() const { return tdp_w * sockets; }
};

}  // namespace heracles::hw

#endif  // HERACLES_HW_CONFIG_H
