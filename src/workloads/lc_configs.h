/**
 * @file
 * Parameterizations of the paper's three production LC workloads.
 *
 * The constants encode the characterization facts from Section 3.1:
 *
 *  - websearch: 99%-ile SLO in the tens of milliseconds; compute
 *    intensive; ~40% of DRAM bandwidth at 100% load; small but hot
 *    instruction working set (the inclusive-LLC eviction effect); low
 *    network bandwidth.
 *  - ml_cluster: 95%-ile SLO in the tens of milliseconds; slightly less
 *    compute intensive; ~60% DRAM bandwidth at peak with *super-linear*
 *    growth versus load (per-request working sets add up); low network.
 *  - memkeyval: 99%-ile SLO in the hundreds of microseconds; very high
 *    request rate; network bandwidth limited at peak; ~20% DRAM
 *    bandwidth; sensitive to everything.
 *
 * Absolute rates are scaled so full sweeps simulate in minutes (see
 * DESIGN.md); SLOs, service times and the controller's time constants are
 * real (simulated) units.
 */
#ifndef HERACLES_WORKLOADS_LC_CONFIGS_H
#define HERACLES_WORKLOADS_LC_CONFIGS_H

#include <optional>
#include <string>
#include <vector>

#include "workloads/lc_app.h"

namespace heracles::workloads {

/** Query-serving leaf of a production web search service. */
LcParams Websearch();

/** Real-time text-clustering service (machine-learned model in DRAM). */
LcParams MlCluster();

/** In-memory key-value store (memcached-like caching service). */
LcParams Memkeyval();

/** All three, for parameterized tests and sweeps. */
std::vector<LcParams> AllLcWorkloads();

/** The AllLcWorkloads() entry named @p name; nullopt if unknown. */
std::optional<LcParams> FindLcWorkload(const std::string& name);

/** FindLcWorkload that aborts with a named diagnostic when unknown. */
LcParams LcWorkloadByName(const std::string& name);

/**
 * Scales a workload's time constants (windows only, not SLO/service) by
 * @p factor — used by fast test configurations.
 */
LcParams WithWindows(LcParams p, sim::Duration report_window,
                     sim::Duration ctl_window);

}  // namespace heracles::workloads

#endif  // HERACLES_WORKLOADS_LC_CONFIGS_H
