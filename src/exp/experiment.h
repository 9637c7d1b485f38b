/**
 * @file
 * Single-server colocation experiments.
 *
 * An Experiment builds a fresh simulated server, the LC workload, an
 * optional BE job and an isolation policy; runs warmup + measurement at a
 * given load (or over a trace); and reports tail latency, Effective
 * Machine Utilization and shared-resource telemetry — the measurements
 * behind Figures 4-7 of the paper.
 */
#ifndef HERACLES_EXP_EXPERIMENT_H
#define HERACLES_EXP_EXPERIMENT_H

#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "chaos/fault_plan.h"
#include "exp/server_sim.h"
#include "heracles/config.h"
#include "heracles/controller.h"
#include "hw/machine.h"
#include "sim/trace.h"
#include "workloads/antagonists.h"
#include "workloads/lc_configs.h"

namespace heracles::exp {

/** Configuration of one colocation experiment. */
struct ExperimentConfig {
    hw::MachineConfig machine;
    workloads::LcParams lc = workloads::Websearch();
    std::optional<workloads::BeProfile> be;  ///< No BE when unset.
    PolicyKind policy = PolicyKind::kHeracles;
    ctl::HeraclesConfig heracles;

    sim::Duration warmup = sim::Seconds(90);
    sim::Duration measure = sim::Seconds(180);
    uint64_t seed = 1;
};

/** Results of one measurement (a load point or a load trace). */
struct LoadPointResult : public ActivityCounters {
    double load = 0.0;  ///< The constant load (RunAt only; 0 for a trace).

    sim::Duration worst_tail = 0;  ///< Worst report-window tail.
    double tail_frac_slo = 0.0;    ///< worst_tail / SLO.
    bool slo_violated = false;
    sim::Duration p95 = 0;  ///< LC p95 over the whole measurement.
    sim::Duration p99 = 0;

    double lc_throughput = 0.0;  ///< Served fraction of LC peak.
    double be_throughput = 0.0;  ///< BE rate normalized to running alone.
    double emu = 0.0;            ///< Effective Machine Utilization.

    hw::MachineTelemetry telemetry;  ///< Time-averaged over measurement.

    // Final controller state (Heracles policy only).
    int be_cores = 0;
    int be_ways = 0;
    double be_freq_cap_ghz = 0.0;
    double slack = 0.0;

    /** Deleted so `a == b` cannot silently compare only the inherited
     *  counters. */
    bool operator==(const LoadPointResult&) const = delete;
};

/**
 * Runs colocation measurements. Every Run builds a completely fresh
 * simulation so measurements are independent and reproducible.
 */
class Experiment
{
  public:
    explicit Experiment(ExperimentConfig cfg);

    /**
     * The one single-server measurement: builds a fresh server seeded
     * from (config seed, @p salt) with @p faults resolved against
     * warmup + measure, drives its LC app with @p trace through warmup
     * and measurement, and harvests tail, EMU, telemetry and controller
     * state. Catalog single-server scenarios and RunAt both measure
     * here.
     */
    LoadPointResult Run(const sim::LoadTrace& trace, uint64_t salt,
                        const chaos::FaultPlan& faults) const;

    /** Runs warmup + measurement at a fixed load fraction. */
    LoadPointResult RunAt(double load) const;

    /**
     * Runs the whole sweep (one fresh simulation per point). Load points
     * are fully independent, so with @p jobs > 1 they fan out across a
     * runner::Pool; results are merged in load order and bit-identical
     * to the serial (@p jobs <= 1) path.
     */
    std::vector<LoadPointResult> Sweep(const std::vector<double>& loads,
                                       int jobs = 1) const;

    /** The BE job's standalone throughput (units/s), for normalization. */
    double BeAloneRate() const { return be_alone_rate_; }

    const ExperimentConfig& config() const { return cfg_; }

    /** Default load sweep used across the paper's figures: 5%..95%. */
    static std::vector<double> PaperLoads(double step = 0.10);

  private:
    ExperimentConfig cfg_;
    double be_alone_rate_ = 1.0;
};

}  // namespace heracles::exp

#endif  // HERACLES_EXP_EXPERIMENT_H
