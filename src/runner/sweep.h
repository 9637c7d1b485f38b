/**
 * @file
 * Scenario fan-out on top of runner::Pool.
 *
 * A sweep is a flat list of (experiment configuration, load) jobs — a
 * whole figure's worth of independent single-server simulations. RunSweep
 * fans them across a pool, preserves each job's derived seeds (they are a
 * pure function of the config and load, never of scheduling), and merges
 * results in submission order, so parallel output is bit-identical to
 * serial. Jobs that share a config share its BE alone-rate baseline
 * through workloads::MeasureAloneRate's memo, not through the sweep.
 */
#ifndef HERACLES_RUNNER_SWEEP_H
#define HERACLES_RUNNER_SWEEP_H

#include <string>
#include <vector>

#include "exp/experiment.h"

namespace heracles::runner {

/** One independent simulation: a full experiment config at one load. */
struct SweepJob {
    exp::ExperimentConfig cfg;  ///< Server + workload + policy blueprint.
    double load = 0.0;          ///< LC load fraction for this point.
    /** Optional caller tag (row label, variant name); carried through. */
    std::string tag;
};

/**
 * Runs every job across @p jobs threads, each as Experiment(cfg)
 * .RunAt(load). Results arrive in submission order; jobs <= 1 is the
 * serial reference path producing identical bytes. (To sweep the loads
 * of one already-built Experiment, use Experiment::Sweep.)
 */
std::vector<exp::LoadPointResult> RunSweep(
    const std::vector<SweepJob>& sweep, int jobs);

/**
 * Expands one config over many loads into jobs tagged with @p tag,
 * appending to @p sweep. Convenience for building figure-bench job
 * lists.
 */
void AppendLoadJobs(std::vector<SweepJob>& sweep,
                    const exp::ExperimentConfig& cfg,
                    const std::vector<double>& loads,
                    const std::string& tag);

}  // namespace heracles::runner

#endif  // HERACLES_RUNNER_SWEEP_H
