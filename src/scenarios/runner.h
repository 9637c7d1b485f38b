/**
 * @file
 * Scenario execution: one ScenarioSpec in, one canonical ScenarioMetrics
 * record out, bit-identical for a fixed (spec, options) regardless of
 * how many worker threads fan the catalog out.
 *
 * Every scenario run is a self-contained single-threaded simulation
 * (its own event queue, machine and RNG streams), so a catalog sweep is
 * embarrassingly parallel over runner::Pool — the same guarantee the
 * sweep benches rely on, extended to whole end-to-end scenarios.
 */
#ifndef HERACLES_SCENARIOS_RUNNER_H
#define HERACLES_SCENARIOS_RUNNER_H

#include <optional>

#include "cluster/cluster.h"
#include "exp/experiment.h"
#include "scenarios/scenario.h"

namespace heracles::scenarios {

/** Knobs shared by every scenario run. */
struct RunOptions {
    /**
     * Multiplies the spec's phase durations. 1.0 reproduces the
     * full-scale scenario; the golden harness uses Golden() so the whole
     * catalog regresses in minutes. Floors keep scaled phases long
     * enough to contain at least one controller poll and SLO window.
     */
    double time_scale = 1.0;
    /** Overrides the spec's seed when set (the --seed flag; any value
     *  including 0 is a valid seed). */
    std::optional<uint64_t> seed;
    /** Overrides the spec's cluster leaf count when positive. */
    int cluster_leaves = 0;
    /**
     * Worker threads for the cluster epoch engine (and cold fingerprint
     * grids) of each cluster scenario — the --cluster-jobs flag.
     * Metrics are bit-identical across values; 1 keeps a catalog sweep's
     * per-scenario work serial so RunScenarios' own fan-out composes
     * without oversubscription.
     */
    int cluster_jobs = 1;

    /** Reduced-scale preset used by the golden regression harness. */
    static RunOptions Golden();
};

/**
 * Runs one scenario to completion and reports its metrics record.
 * @param spec a cataloged (or hand-built) scenario blueprint.
 * @param opts time scale / seed / leaf-count overrides.
 * @return the canonical metrics record; bit-identical for equal
 *         (spec, opts) on every platform.
 */
ScenarioMetrics RunScenario(const ScenarioSpec& spec,
                            const RunOptions& opts = {});

/**
 * Runs many scenarios, fanning them across @p jobs worker threads.
 * Results are merged in catalog order and bit-identical to jobs == 1.
 */
std::vector<ScenarioMetrics> RunScenarios(
    const std::vector<ScenarioSpec>& specs, const RunOptions& opts = {},
    int jobs = 1);

/**
 * Composition helpers: the assembly a spec describes, as the config of
 * the corresponding experiment layer. Benches and examples use these to
 * build on a cataloged scenario (e.g. sweeping extra load points or
 * printing a full time series) instead of duplicating assembly.
 */
exp::ExperimentConfig ExperimentConfigFor(const ScenarioSpec& spec,
                                          const RunOptions& opts = {});
cluster::ClusterConfig ClusterConfigFor(const ScenarioSpec& spec,
                                        const RunOptions& opts = {});

}  // namespace heracles::scenarios

#endif  // HERACLES_SCENARIOS_RUNNER_H
