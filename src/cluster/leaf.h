/**
 * @file
 * Per-leaf blueprint of a composable cluster.
 *
 * The paper's Section 5.3 cluster is a single fixed shape — homogeneous
 * leaves, brain/streetview split down the middle, one uniform tail
 * target. A LeafSpec makes every one of those choices per leaf, so a
 * cluster can mix websearch and ml_cluster leaves, large and small
 * machines, and per-leaf tail-target policies, while the default-built
 * vector reproduces the paper's uniform cluster exactly.
 */
#ifndef HERACLES_CLUSTER_LEAF_H
#define HERACLES_CLUSTER_LEAF_H

#include <optional>

#include "hw/config.h"
#include "workloads/be_task.h"
#include "workloads/lc_app.h"

namespace heracles::cluster {

/**
 * Blueprint for one leaf server. Seeds are derived by the cluster
 * assembly (cluster seed * 131 + leaf index), not stored here, so the
 * same spec vector composes bit-identical clusters for a given
 * ClusterConfig::seed.
 */
struct LeafSpec {
    /** Server shape of this leaf (seed field ignored; derived). */
    hw::MachineConfig machine;

    /** LC workload served by this leaf. The root drives every leaf with
     *  the same query stream; a leaf whose workload has a lower
     *  peak_qps simply runs at a higher load fraction (heterogeneous
     *  capacity, exactly what a slack-aware scheduler exploits). */
    workloads::LcParams lc;

    /** BE job pinned to this leaf at assembly (static-split scheduling
     *  only). Unset = the leaf idles unless the cluster-level scheduler
     *  places a job on it. */
    std::optional<workloads::BeProfile> be;

    /**
     * Per-leaf tail-target policy: the target Heracles defends on this
     * leaf is `derived * tail_scale`, where `derived` comes from the
     * target-defining run (uniform mean leaf tail by default, this
     * leaf's own tail under ClusterConfig::per_leaf_targets). A scale
     * above 1 grants the leaf extra colocation headroom — safe because
     * the root SLO is a window *mean* while leaves defend a *tail*.
     */
    double tail_scale = 1.0;
};

}  // namespace heracles::cluster

#endif  // HERACLES_CLUSTER_LEAF_H
