/**
 * @file
 * Composable cluster simulation (Section 5.3, Figure 8, and beyond).
 *
 * A root node spreads every user query over the leaf servers through a
 * pluggable Topology (full fan-out reproduces the paper; a sharded
 * topology models a replicated, partitioned index) and combines the
 * replies, so root latency is the maximum touched-leaf latency plus
 * network hops. The cluster SLO is the *average* root latency over
 * 30-second windows (mu/30s); the target is the mu/30s measured at 90%
 * load with no colocation.
 *
 * Heracles runs independently on every leaf. Leaves are described by a
 * vector of LeafSpec (machine, LC workload, pinned BE job, tail-target
 * policy) and may be heterogeneous; the default-synthesized vector is
 * the paper's uniform cluster with brain on half the leaves and
 * streetview on the other half. Above the leaves, a cluster-level BE
 * scheduler (cluster/scheduler.h) can own a queue of BE jobs and
 * place/migrate them using the slack each leaf's controller exports;
 * the static-split policy reproduces the pinned-at-assembly behavior
 * bit for bit. Load follows a diurnal trace (or a flash crowd).
 */
#ifndef HERACLES_CLUSTER_CLUSTER_H
#define HERACLES_CLUSTER_CLUSTER_H

#include <memory>
#include <vector>

#include "chaos/fault_plan.h"
#include "cluster/leaf.h"
#include "cluster/scheduler.h"
#include "cluster/topology.h"
#include "exp/server_sim.h"
#include "heracles/config.h"
#include "hw/config.h"
#include "runner/pool.h"
#include "sim/stats.h"
#include "sim/trace.h"
#include "workloads/lc_configs.h"

namespace heracles::cluster {

/** Configuration of a cluster run. */
struct ClusterConfig {
    /** Leaf count when leaf_specs is empty (uniform paper cluster). */
    int leaves = 12;
    hw::MachineConfig machine;
    /** Root workload: defines the query rate (peak_qps) and the default
     *  leaf workload of the uniform cluster. */
    workloads::LcParams lc = workloads::Websearch();
    ctl::HeraclesConfig heracles;
    /** Run best-effort tasks under Heracles (false = baseline). */
    bool colocate = true;

    /**
     * Explicit per-leaf blueprints. Empty = synthesize the paper's
     * uniform cluster: `leaves` copies of (machine, lc) with brain
     * pinned to even leaves and streetview to odd ones.
     */
    std::vector<LeafSpec> leaf_specs;

    /** Root fan-out shape; shards only applies to kSharded (<= leaves;
     *  0 picks one shard per leaf, i.e. full fan-out degenerate) and
     *  rack_size to kHierarchical (leaves per rack, clamped to the
     *  leaf count). */
    TopologyKind topology = TopologyKind::kFullFanout;
    int shards = 0;
    int rack_size = 0;

    /**
     * Cluster-level BE scheduling. kStaticSplit runs the LeafSpec-pinned
     * jobs exactly as before; kGreedySlack/kRoundRobin ignore the pinned
     * jobs and instead queue `be_jobs`, placing them across leaves at
     * runtime (at most one job per leaf).
     */
    SchedulerConfig scheduler;
    std::vector<workloads::BeProfile> be_jobs;

    /**
     * Derive each leaf's tail target from its *own* tail in the
     * target-defining run instead of the uniform mean — required for
     * meaningfully heterogeneous leaves (a mean over different LC
     * workloads defends nothing). Off = the paper's uniform target.
     */
    bool per_leaf_targets = false;

    /** Diurnal load range (the paper's trace swings roughly 20%-90%). */
    double load_low = 0.20;
    double load_high = 0.90;
    /** Drive the run with a flash-crowd burst (base load_low, peak
     *  load_high) instead of the diurnal swing. */
    bool flash_crowd = false;
    /** Trace length. The paper's 12-hour trace is time-compressed; the
     *  controller's time constants are NOT scaled. */
    sim::Duration duration = sim::Minutes(25);

    /** Length of the target-defining run (MeasureTarget). */
    sim::Duration target_run = sim::Minutes(3);
    /** Warmup excluded from every run's window statistics. */
    sim::Duration run_warmup = sim::Seconds(60);

    /**
     * Centralized controller (the paper's future work): dynamically
     * raises each leaf's tail target while the root has slack, letting
     * leaves colocate more aggressively, and tightens it when root
     * slack shrinks. Off by default (the paper's evaluated system uses
     * a uniform static per-leaf target).
     */
    bool central_controller = false;

    /**
     * Deterministic fault-injection plan for the *colocated* run only
     * (windows are fractions of `duration`). The target-defining run
     * always executes clean: faults degrade operation, not the SLO
     * definition. Platform faults apply per leaf (FaultSpec::leaf < 0 =
     * every leaf); kLeafCrash / kSlackFreeze act at this layer.
     */
    chaos::FaultPlan faults;

    uint64_t seed = 42;

    /**
     * Worker threads for the run: the epoch engine's per-barrier leaf
     * fan-out uses this width, through one pool (capped at the leaf
     * count) that ClusterExperiment shares across its target-defining
     * and colocated runs, and a cold fingerprint grid (kPredictive)
     * fans its cells over as many threads. Results never depend on it —
     * leaves exchange state only at deterministic epoch barriers, so
     * jobs=N is bit-identical to jobs=1. Defaults to the tree's shared
     * policy (HERACLES_JOBS env var, else hardware concurrency).
     */
    int jobs = runner::DefaultJobs();
};

/**
 * Results of a cluster run. The inherited activity counters are summed
 * over every leaf (zero when the run is not colocated), plus the
 * cluster-layer invariant violations (a BE job placed onto a crashed
 * leaf); the scenario harness pins them against golden baselines
 * alongside the latency/EMU outcome.
 */
struct ClusterResult : public exp::ActivityCounters {
    /** Root mu/30s as a fraction of the target, per window. */
    sim::TimeSeries latency_frac;
    /** Cluster-wide Effective Machine Utilization, sampled per window. */
    sim::TimeSeries emu;
    /** Offered load, sampled per window. */
    sim::TimeSeries load;

    double worst_latency_frac = 0.0;
    bool slo_violated = false;
    double avg_emu = 0.0;
    double min_emu = 0.0;
    sim::Duration target = 0;       ///< Root mu/30s target.
    sim::Duration leaf_target = 0;  ///< Mean per-leaf tail target.

    // Cluster-level scheduler activity (zero under static split).
    uint64_t be_placements = 0;  ///< Queue → leaf assignments.
    uint64_t be_migrations = 0;  ///< Leaf → leaf moves.
    /** predict_only ablation: acted decisions the predictive ranking
     *  disputed (zero everywhere else). */
    uint64_t be_would_placements = 0;
    uint64_t be_would_migrations = 0;

    // Epoch-engine throughput counters for the colocated run (the
    // scoreboard of BENCH_cluster.json; not part of the golden metrics
    // record): barrier intervals executed and events executed across
    // every leaf's queue.
    uint64_t epochs = 0;
    uint64_t leaf_events = 0;

    // Host seconds, not simulation results: they vary run to run and
    // stay out of every identity check and digest. barrier_s is the
    // root's serial barrier section (arrival staging, reply drain,
    // window close, fault boundaries, scheduler tick), fanout_s the
    // parallel leaf fan-out. Both cover every run of the experiment
    // since its previous Run(), so the first Run() includes the
    // target-defining run.
    double barrier_s = 0.0;
    double fanout_s = 0.0;

    /** Deleted so `a == b` cannot silently compare only the inherited
     *  counters. */
    bool operator==(const ClusterResult&) const = delete;
};

/** Runs the composed cluster under its load trace. */
class ClusterExperiment
{
  public:
    explicit ClusterExperiment(ClusterConfig cfg);

    /**
     * Measures the root latency target (worst mu/30s window at the
     * paper's 90% target-defining load with no colocation) and the
     * per-leaf tail targets derived from the same run, "set such that
     * the latency at the root satisfies the SLO" (Section 5.3). Cached.
     */
    sim::Duration MeasureTarget();

    /** Mean per-leaf tail target used by Heracles across the leaves. */
    sim::Duration LeafTarget();

    /** Per-leaf tail targets (after tail_scale / overrides). */
    const std::vector<sim::Duration>& LeafTargets();

    /** Runs the full trace and reports the Figure 8 series. */
    ClusterResult Run();

  private:
    /** The resolved leaf blueprint vector (synthesized when empty). */
    const std::vector<LeafSpec>& ResolveSpecs();

    /**
     * The pool every run of this experiment shares, lazily spawned from
     * cfg.jobs (capped at the leaf count) — so MeasureTarget and Run
     * (and a caller's repeat runs) pay one thread spawn total, not one
     * per run. Null when cfg.jobs <= 1 or there is a single leaf: the
     * runs then execute inline.
     */
    runner::Pool* SharedPool();

    ClusterConfig cfg_;
    std::unique_ptr<runner::Pool> pool_;
    std::vector<LeafSpec> specs_;
    sim::Duration target_ = 0;
    sim::Duration leaf_target_ = 0;
    std::vector<sim::Duration> leaf_targets_;
    /** Host time of runs not yet reported by Run(). */
    double barrier_s_ = 0.0;
    double fanout_s_ = 0.0;
};

}  // namespace heracles::cluster

#endif  // HERACLES_CLUSTER_CLUSTER_H
