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

/**
 * Deterministic leaf → batch mapping for the epoch engine's fan-out.
 *
 * Dispatching one pool task per leaf makes the per-barrier overhead
 * (submit, wake, notify) proportional to the leaf count; at thousands of
 * leaves and ~25 ms barrier intervals that overhead rivals the simulated
 * work. Batching runs `batch_size` consecutive leaves per task. The
 * mapping is a pure function of the leaf count — never of the thread
 * count — so batch boundaries cannot perturb results: leaves stay
 * thread-confined within an epoch regardless of which task executes
 * them.
 */
struct LeafBatching {
    size_t leaves = 0;
    size_t batch_size = 1;

    /**
     * The batching policy: 8 leaves per task once the cluster is large
     * enough (>= 64 leaves) for dispatch overhead to matter, else one
     * task per leaf.
     */
    static LeafBatching Resolve(size_t leaves);

    /** Number of batches (ceil(leaves / batch_size); 0 for no leaves). */
    size_t batches() const {
        return batch_size > 0 ? (leaves + batch_size - 1) / batch_size : 0;
    }

    /** Batch hosting @p leaf. */
    size_t BatchOf(size_t leaf) const { return leaf / batch_size; }

    /** First leaf of @p batch. */
    size_t BatchBegin(size_t batch) const { return batch * batch_size; }

    /** One past the last leaf of @p batch. */
    size_t BatchEnd(size_t batch) const {
        const size_t end = (batch + 1) * batch_size;
        return end < leaves ? end : leaves;
    }
};

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

    /** True when @p t is on the schedule (binary search). */
    bool IsBarrier(sim::SimTime t) const;

    size_t size() const { return barriers.size(); }
};

}  // namespace heracles::cluster

#endif  // HERACLES_CLUSTER_EPOCH_H
