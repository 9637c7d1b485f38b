/**
 * @file
 * Deterministic epoch barriers for the partitioned cluster engine.
 *
 * The cluster simulation runs every leaf on its own sim::EventQueue and
 * only lets cross-leaf state move at *barriers*: the instants where the
 * root closes an SLO window, the cluster scheduler ticks, a cluster
 * fault opens or closes a window, and the end of the run. Between two
 * consecutive barriers no leaf can observe another leaf (arrivals for
 * the interval are staged before it starts; replies are drained after
 * it ends), so the leaves of one epoch may execute on any number of
 * threads in any order and the run stays bit-identical to jobs=1.
 *
 * The barrier schedule is a pure function of the run's configuration —
 * never of anything a leaf computes — which is what makes the schedule
 * itself deterministic. Cluster fault boundaries are barriers by
 * construction, so crash/recover and slack-freeze injections land on
 * exact epoch edges (pinned by tests/epoch_determinism_test.cc).
 */
#ifndef HERACLES_CLUSTER_EPOCH_H
#define HERACLES_CLUSTER_EPOCH_H

#include <vector>

#include "chaos/fault_plan.h"
#include "sim/time.h"

namespace heracles::cluster {

/** The sorted, deduplicated barrier schedule of one cluster run. */
struct BarrierClock {
    /** Barrier instants, strictly increasing, in (0, duration]. The
     *  last entry is always the run's end. */
    std::vector<sim::SimTime> barriers;

    /**
     * Builds the schedule: every multiple of @p root_window and of
     * @p scheduler_period (0 = no scheduler) up to @p duration, every
     * resolved cluster-fault begin/end inside (0, duration], and
     * @p duration itself. Fault times at exactly 0 are not barriers —
     * they act before the first epoch starts.
     */
    static BarrierClock Build(sim::Duration duration,
                              sim::Duration root_window,
                              sim::Duration scheduler_period,
                              const std::vector<chaos::TimedFault>& faults);

    size_t size() const { return barriers.size(); }
};

}  // namespace heracles::cluster

#endif  // HERACLES_CLUSTER_EPOCH_H
