/**
 * @file
 * Cluster-level best-effort scheduler.
 *
 * The per-node Heracles controller answers "how much BE can *this*
 * server run right now"; the cluster scheduler answers the layer-above
 * question in the spirit of Paragon/Quasar: *which* servers should host
 * the BE jobs at all. It maintains a queue of cluster-wide BE jobs and
 * a job → leaf assignment, and on every period re-evaluates it against
 * the latency slack each leaf's controller exports:
 *
 *  - kStaticSplit — the paper's behavior: jobs are pinned to leaves at
 *    assembly (job j on leaf j) and never move. No scheduler events are
 *    even scheduled, so a static cluster is byte-identical to the
 *    pre-scheduler implementation.
 *  - kGreedySlack — place each queued job on the free leaf with the
 *    most slack; migrate a job away when its leaf stops running BE or
 *    its slack collapses, to the best free leaf (with hysteresis).
 *  - kRoundRobin — the slack-blind ablation: place and re-place jobs
 *    in leaf-index rotation, migrating only when the hosting leaf has
 *    BE disabled. Identical mechanics, no slack signal.
 *  - kPredictive — Bubble-Up/Paragon-style interference prediction:
 *    place each queued job on the leaf with the lowest *predicted*
 *    tail fraction for that (job, leaf) pair, from an offline
 *    fingerprint table (cluster/fingerprint.h) supplied at assembly via
 *    SetPredictions. Live slack is only a safety veto (a leaf below the
 *    placement floor is excluded), never the ranking signal — so the
 *    policy keeps choosing well when telemetry is frozen or a crash
 *    invalidates history. SchedulerConfig::predict_only turns it into
 *    the CPI2-style monitoring ablation: the engine *acts* greedy but
 *    counts every decision where the predictive ranking disagreed.
 *
 * The decision engine is a pure function of its inputs (no RNG, no
 * clock), so placements are deterministic under a fixed seed and unit
 * testable without running a simulation.
 */
#ifndef HERACLES_CLUSTER_SCHEDULER_H
#define HERACLES_CLUSTER_SCHEDULER_H

#include <cstdint>
#include <string>
#include <vector>

#include "sim/time.h"

namespace heracles::cluster {

/** Cluster-level BE placement policy. */
enum class SchedulerPolicy {
    kStaticSplit,  ///< Jobs pinned at assembly (the paper; default).
    kGreedySlack,  ///< Most-slack-first placement + slack migration.
    kRoundRobin,   ///< Slack-blind rotation (ablation).
    kPredictive,   ///< Fingerprint-predicted tail, slack as veto only.
};

/** Human-readable policy name ("static-split", "greedy-slack", ...). */
std::string SchedulerPolicyName(SchedulerPolicy p);

/** Tunables of the cluster scheduler. */
struct SchedulerConfig {
    SchedulerPolicy policy = SchedulerPolicy::kStaticSplit;

    /**
     * CPI2-style monitoring-only ablation (kPredictive only): the
     * engine decides and acts exactly like kGreedySlack, but computes
     * the predictive choice alongside every acted decision and counts
     * the disagreements in SchedulerStats::would_placements /
     * would_migrations — the "what would prediction have done"
     * counters, with zero effect on placement.
     */
    bool predict_only = false;
};

/** Placement activity counters (surfaced into ClusterResult). */
struct SchedulerStats {
    uint64_t ticks = 0;
    uint64_t placements = 0;  ///< Queue → leaf assignments.
    uint64_t migrations = 0;  ///< Leaf → leaf moves.
    /** predict_only: acted decisions the predictive ranking disputed. */
    uint64_t would_placements = 0;
    uint64_t would_migrations = 0;
};

/**
 * The decision engine. The cluster simulation feeds it one LeafState
 * per leaf each period and executes the moves it returns; the engine
 * owns the job → leaf assignment and the counters.
 */
class ClusterScheduler
{
  public:
    /** Per-leaf inputs, read from the leaf's Heracles controller. */
    struct LeafState {
        bool hosts_job = false;  ///< A job is currently assigned here.
        /** Latest top-level latency slack (1.0 before any signal). */
        double slack = 1.0;
        bool be_enabled = false;  ///< Controller currently runs BE.
        bool in_cooldown = false;  ///< Post-violation LC-only window.
        bool has_signal = false;  ///< At least one poll saw latency data.
        /** Leaf is down (chaos layer): never a placement target. */
        bool crashed = false;
    };

    /** One placement (from == -1) or migration (from >= 0). */
    struct Move {
        int job = 0;
        int from = -1;
        int to = 0;
    };

    ClusterScheduler(const SchedulerConfig& cfg, int jobs, int leaves);

    /**
     * Installs the offline prediction table for kPredictive (and the
     * predict_only ablation): predicted[job][leaf] is the tail fraction
     * the fingerprint model expects if @c job ran on @c leaf
     * (cluster/fingerprint.h). Required before the first Tick of a
     * predictive scheduler; dimensions must match (jobs, leaves).
     */
    void SetPredictions(std::vector<std::vector<double>> predicted);

    /**
     * One scheduling period: decides placements for still-queued jobs
     * and migrations for placed ones. @p leaves must have one entry per
     * leaf, index-aligned with the cluster's leaf vector. The returned
     * moves are already applied to the internal assignment.
     */
    std::vector<Move> Tick(const std::vector<LeafState>& leaves);

    /** Leaf currently hosting @p job, or -1 while queued. */
    int LeafOf(int job) const;

    /**
     * Returns @p job to the queue without a Move (its leaf crashed and
     * the job died with it); the next Tick re-places it on a live leaf.
     */
    void ReleaseJob(int job);

    /** Jobs still waiting for a leaf. */
    int QueuedJobs() const;

    const SchedulerStats& stats() const { return stats_; }
    const SchedulerConfig& config() const { return cfg_; }

  private:
    /** Best placement target for @p job among free leaves under the
     *  *acting* policy (greedy rules when predict_only), or -1. */
    int PickLeaf(int job, const std::vector<LeafState>& leaves,
                 const std::vector<bool>& taken) const;

    /** Free, live leaf with the lowest predicted tail for @p job that
     *  clears the live-slack safety veto, or -1. */
    int PickPredicted(int job, const std::vector<LeafState>& leaves,
                      const std::vector<bool>& taken) const;

    /** True when kPredictive actually ranks (not monitoring-only). */
    bool PredictsActively() const;

    SchedulerConfig cfg_;
    std::vector<int> assignment_;      ///< job -> leaf (-1 = queued).
    std::vector<int> resident_ticks_;  ///< Ticks since job last moved.
    /** predicted_[job][leaf]: offline fingerprint tail prediction. */
    std::vector<std::vector<double>> predicted_;
    int rr_cursor_ = 0;
    SchedulerStats stats_;
};

}  // namespace heracles::cluster

#endif  // HERACLES_CLUSTER_SCHEDULER_H
