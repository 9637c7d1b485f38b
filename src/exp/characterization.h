/**
 * @file
 * Interference characterization rig (Figure 1).
 *
 * Reproduces the paper's methodology (Section 3.2): the LC workload is
 * pinned to just enough cores to satisfy its SLO at each load; a
 * microbenchmark antagonist stressing one shared resource runs on the
 * remaining cores; the cell value is tail latency as a fraction of the
 * SLO. The HyperThread antagonist instead occupies the sibling hardware
 * threads of the LC cores; the network antagonist gets one core and the
 * LC workload all others; the "brain" row uses OS-only isolation (shared
 * cpus, CFS shares).
 */
#ifndef HERACLES_EXP_CHARACTERIZATION_H
#define HERACLES_EXP_CHARACTERIZATION_H

#include <string>
#include <vector>

#include "hw/config.h"
#include "workloads/lc_configs.h"

namespace heracles::exp {

/** The antagonist rows of Figure 1. */
enum class AntagonistKind {
    kLlcSmall,
    kLlcMedium,
    kLlcBig,
    kDram,
    kHyperThread,
    kCpuPower,
    kNetwork,
    kBrainOsOnly,
};

/** Row label as printed in the figure. */
std::string AntagonistName(AntagonistKind kind);

/** All rows in the figure's order. */
std::vector<AntagonistKind> AllAntagonists();

/**
 * One characterization matrix runner for one LC workload. Every cell is
 * an independent simulation seeded only by (kind, load), so callers fan
 * a grid out with runner::ParallelMap.
 */
class CharacterizationRig
{
  public:
    CharacterizationRig(const hw::MachineConfig& machine,
                        const workloads::LcParams& lc,
                        sim::Duration warmup = sim::Seconds(30),
                        sim::Duration measure = sim::Seconds(60),
                        uint64_t seed = 1);

    /**
     * Runs one cell: tail latency under @p kind at @p load, as a
     * fraction of the SLO (1.0 = exactly at SLO).
     */
    double RunCell(AntagonistKind kind, double load) const;

    /** Baseline (no antagonist) tail fraction at @p load. */
    double RunBaseline(double load) const;

    /**
     * The paper's load grid: 5%, 10%, ..., 95%, each point built from a
     * whole percent so it is the exact decimal (0.15, not
     * 0.15000000000000002).
     */
    static std::vector<double> PaperLoads();

    /**
     * Target per-thread utilization used to size "enough cores for the
     * SLO" (default 0.75: tight enough that saturating antagonists
     * overwhelm the thin provisioning, as on the paper's testbed).
     */
    void SetSizingUtil(double util);

  private:
    double sizing_util_ = 0.75;

    hw::MachineConfig machine_;
    workloads::LcParams lc_;
    sim::Duration warmup_;
    sim::Duration measure_;
    uint64_t seed_;
};

}  // namespace heracles::exp

#endif  // HERACLES_EXP_CHARACTERIZATION_H
