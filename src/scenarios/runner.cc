#include "scenarios/runner.h"

#include <algorithm>
#include <memory>

#include "runner/pool.h"
#include "sim/log.h"
#include "sim/trace.h"
#include "workloads/antagonists.h"
#include "workloads/lc_configs.h"

namespace heracles::scenarios {
namespace {

bool
HasBe(const ScenarioSpec& spec)
{
    return !spec.be.empty() && spec.be != "none" &&
           spec.topology == Topology::kSingleServer;
}

sim::Duration
Scale(sim::Duration d, double factor, sim::Duration floor)
{
    return std::max(
        static_cast<sim::Duration>(static_cast<double>(d) * factor),
        floor);
}

/** The load trace a single-server scenario drives its LC app with. */
std::unique_ptr<sim::LoadTrace>
MakeTrace(const ScenarioSpec& spec, sim::Duration warmup,
          sim::Duration measure, uint64_t seed)
{
    const sim::Duration total = warmup + measure;
    switch (spec.trace) {
      case TraceKind::kConstant:
        return std::make_unique<sim::ConstantTrace>(spec.load);
      case TraceKind::kStep:
        // Warm up and establish colocation at the base load, then step
        // to the peak halfway through the measurement.
        return std::make_unique<sim::StepTrace>(
            std::vector<sim::StepTrace::Step>{
                {0, spec.load},
                {warmup + measure / 2, spec.load_high}});
      case TraceKind::kDiurnal:
        return std::make_unique<sim::DiurnalTrace>(
            total, spec.load, spec.load_high, 0.02, seed ^ 0xD1);
      case TraceKind::kFlashCrowd:
        // The crowd arrives a quarter into the measurement so both the
        // eviction and (at full scale) the recovery are observed.
        return std::make_unique<sim::FlashCrowdTrace>(
            total, spec.load, spec.load_high,
            /*onset=*/warmup + measure / 4, /*ramp=*/sim::Seconds(5),
            /*hold=*/sim::Seconds(25), /*decay=*/sim::Seconds(45),
            /*jitter=*/0.02, seed ^ 0xF1);
    }
    HERACLES_FATAL("unhandled trace kind");
}

/** The Experiment a single-server spec describes, for any trace shape. */
exp::ExperimentConfig
ComposeExperimentConfig(const ScenarioSpec& spec, const RunOptions& opts)
{
    exp::ExperimentConfig cfg;
    cfg.machine = spec.machine;
    cfg.lc = workloads::LcWorkloadByName(spec.lc);
    if (HasBe(spec)) {
        cfg.be = workloads::BeProfileByName(spec.machine, spec.be);
    }
    cfg.policy = spec.policy;
    cfg.heracles = spec.heracles;
    cfg.warmup = Scale(spec.warmup, opts.time_scale, sim::Seconds(20));
    cfg.measure = Scale(spec.measure, opts.time_scale, sim::Seconds(30));
    cfg.seed = opts.seed.value_or(spec.seed);
    return cfg;
}

/** A metrics record for @p spec holding the run's activity counters —
 *  the one copy both topologies share. */
ScenarioMetrics
MetricsWithActivity(const ScenarioSpec& spec,
                    const exp::ActivityCounters& a)
{
    ScenarioMetrics m;
    m.scenario = spec.name;
    m.polls = static_cast<double>(a.polls);
    m.be_enables = static_cast<double>(a.be_enables);
    m.be_disables = static_cast<double>(a.be_disables);
    m.core_shrinks = static_cast<double>(a.core_shrinks);
    m.act_set_cores = static_cast<double>(a.actuations.set_cores);
    m.act_set_ways = static_cast<double>(a.actuations.set_ways);
    m.act_set_freq_cap = static_cast<double>(a.actuations.set_freq_cap);
    m.act_set_net_ceil = static_cast<double>(a.actuations.set_net_ceil);
    m.invariant_violations = static_cast<double>(a.invariant_violations);
    m.faulted_ops = static_cast<double>(a.faulted_ops);
    return m;
}

ScenarioMetrics
RunSingleServer(const ScenarioSpec& spec, const RunOptions& opts)
{
    const exp::ExperimentConfig cfg = ComposeExperimentConfig(spec, opts);
    const exp::Experiment experiment(cfg);
    const auto trace = MakeTrace(spec, cfg.warmup, cfg.measure, cfg.seed);
    const exp::LoadPointResult r =
        experiment.Run(*trace, /*salt=*/97, spec.faults);

    ScenarioMetrics m = MetricsWithActivity(spec, r);

    m.worst_tail_ms = sim::ToMillis(r.worst_tail);
    m.tail_frac_slo = r.tail_frac_slo;
    m.slo_attained = m.tail_frac_slo <= 1.0 ? 1.0 : 0.0;
    m.p95_ms = sim::ToMillis(r.p95);
    m.p99_ms = sim::ToMillis(r.p99);

    m.lc_throughput = r.lc_throughput;
    m.be_throughput = r.be_throughput;
    m.emu = r.emu;

    m.dram_frac = r.telemetry.dram_frac;
    m.cpu_util = r.telemetry.cpu_utilization;
    m.power_frac_tdp = r.telemetry.power_frac_tdp;

    m.be_cores = r.be_cores;
    m.be_ways = r.be_ways;
    return m;
}

ScenarioMetrics
RunCluster(const ScenarioSpec& spec, const RunOptions& opts)
{
    cluster::ClusterExperiment experiment(ClusterConfigFor(spec, opts));
    const cluster::ClusterResult r = experiment.Run();

    ScenarioMetrics m = MetricsWithActivity(spec, r);
    m.slo_attained = r.slo_violated ? 0.0 : 1.0;
    m.tail_frac_slo = r.worst_latency_frac;
    m.worst_tail_ms =
        r.worst_latency_frac * sim::ToMillis(r.target);
    m.emu = r.avg_emu;
    m.min_emu = r.min_emu;

    m.be_placements = static_cast<double>(r.be_placements);
    m.be_migrations = static_cast<double>(r.be_migrations);
    m.be_would_placements = static_cast<double>(r.be_would_placements);
    m.be_would_migrations = static_cast<double>(r.be_would_migrations);

    m.root_target_ms = sim::ToMillis(r.target);
    m.leaf_target_ms = sim::ToMillis(r.leaf_target);
    return m;
}

}  // namespace

RunOptions
RunOptions::Golden()
{
    RunOptions o;
    o.time_scale = 1.0 / 3.0;
    o.cluster_leaves = 3;
    return o;
}

ScenarioMetrics
RunScenario(const ScenarioSpec& spec, const RunOptions& opts)
{
    return spec.topology == Topology::kCluster
               ? RunCluster(spec, opts)
               : RunSingleServer(spec, opts);
}

std::vector<ScenarioMetrics>
RunScenarios(const std::vector<ScenarioSpec>& specs, const RunOptions& opts,
             int jobs)
{
    // Each scenario is a fully self-contained simulation whose seeds
    // derive only from (spec, opts), so fanning the catalog across
    // threads cannot change any record.
    return runner::ParallelMap(jobs, specs.size(), [&](size_t i) {
        return RunScenario(specs[i], opts);
    });
}

exp::ExperimentConfig
ExperimentConfigFor(const ScenarioSpec& spec, const RunOptions& opts)
{
    HERACLES_CHECK_MSG(spec.topology == Topology::kSingleServer,
                       "not a single-server scenario: " << spec.name);
    // ExperimentConfig carries no trace: a caller sweeping the composed
    // config with RunAt would silently run constant load instead of the
    // cataloged shape. Run shaped scenarios via RunScenario instead.
    HERACLES_CHECK_MSG(spec.trace == TraceKind::kConstant,
                       "scenario " << spec.name << " uses a "
                                   << TraceKindName(spec.trace)
                                   << " trace, which Experiment cannot "
                                      "reproduce");
    return ComposeExperimentConfig(spec, opts);
}

cluster::ClusterConfig
ClusterConfigFor(const ScenarioSpec& spec, const RunOptions& opts)
{
    HERACLES_CHECK_MSG(spec.topology == Topology::kCluster,
                       "not a cluster scenario: " << spec.name);
    // The cluster experiment drives a load_low..load_high diurnal swing
    // or a flash-crowd burst; any other declared shape would silently
    // not match the scenario's self-description.
    HERACLES_CHECK_MSG(spec.trace == TraceKind::kDiurnal ||
                           spec.trace == TraceKind::kFlashCrowd,
                       "cluster scenario "
                           << spec.name
                           << " must use a diurnal or flash-crowd trace");
    cluster::ClusterConfig cfg;
    cfg.leaves = opts.cluster_leaves > 0 && !spec.fixed_leaves
                     ? opts.cluster_leaves
                     : spec.leaves;
    cfg.machine = spec.machine;
    cfg.lc = workloads::LcWorkloadByName(spec.lc);
    cfg.heracles = spec.heracles;
    HERACLES_CHECK_MSG(spec.policy == exp::PolicyKind::kHeracles ||
                           spec.policy == exp::PolicyKind::kNoColocation,
                       "cluster scenario "
                           << spec.name << " must use the heracles or "
                              "baseline policy");
    cfg.colocate = spec.policy != exp::PolicyKind::kNoColocation;
    cfg.flash_crowd = spec.trace == TraceKind::kFlashCrowd;
    cfg.load_low = spec.load;
    cfg.load_high = spec.load_high;

    // Heterogeneous composition: cycle the leaf mix over the leaf
    // count, resolving workload and machine-variant names. An empty
    // mix leaves cfg.leaf_specs empty and the cluster synthesizes the
    // paper's uniform brain/streetview leaves.
    for (int i = 0; i < cfg.leaves && !spec.leaf_mix.empty(); ++i) {
        const ClusterLeafTemplate& t =
            spec.leaf_mix[i % spec.leaf_mix.size()];
        cluster::LeafSpec leaf;
        leaf.machine = MachineVariant(t.machine);
        leaf.lc = workloads::LcWorkloadByName(t.lc);
        leaf.tail_scale = t.tail_scale;
        cfg.leaf_specs.push_back(std::move(leaf));
    }
    cfg.shards = spec.shards;
    cfg.rack_size = spec.rack_size;
    cfg.scheduler.policy = spec.scheduler;
    cfg.scheduler.predict_only = spec.predict_only;
    cfg.per_leaf_targets = spec.per_leaf_targets;
    cfg.faults = spec.faults;
    if (!spec.be_jobs.empty()) {
        // Cluster-wide jobs are sized against the scenario's root
        // machine in *both* scheduler arms: a pinned job and a queued
        // job with the same name must be the same job, or a scheduler
        // ablation would silently compare different workloads
        // (machine-dependent profiles like stream-llc size their
        // footprint from the machine they are resolved against).
        std::vector<workloads::BeProfile> jobs;
        for (const std::string& name : spec.be_jobs) {
            jobs.push_back(workloads::BeProfileByName(spec.machine, name));
        }
        if (spec.scheduler == cluster::SchedulerPolicy::kStaticSplit) {
            // Static split ≡ today's behavior: job j pinned to leaf j.
            HERACLES_CHECK_MSG(
                !cfg.leaf_specs.empty(),
                "scenario " << spec.name
                            << ": static-split be_jobs need a leaf_mix");
            HERACLES_CHECK_MSG(
                jobs.size() <= cfg.leaf_specs.size(),
                "scenario " << spec.name << ": more BE jobs than leaves");
            for (size_t j = 0; j < jobs.size(); ++j) {
                cfg.leaf_specs[j].be = std::move(jobs[j]);
            }
        } else {
            cfg.be_jobs = std::move(jobs);
        }
    }
    cfg.duration =
        Scale(spec.cluster_duration, opts.time_scale, sim::Seconds(150));
    cfg.target_run =
        Scale(cfg.target_run, opts.time_scale, sim::Seconds(75));
    cfg.run_warmup =
        Scale(cfg.run_warmup, opts.time_scale, sim::Seconds(40));
    cfg.central_controller = spec.central_controller;
    cfg.seed = opts.seed.value_or(spec.seed);
    // The epoch engine makes cluster runs thread-count-invariant, so
    // this only sets how wide one scenario fans its leaves (and its
    // cold fingerprint grids). The default of 1 keeps nested catalog
    // sweeps from stacking pools.
    cfg.jobs = std::max(opts.cluster_jobs, 1);
    return cfg;
}

}  // namespace heracles::scenarios
