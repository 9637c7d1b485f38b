/**
 * @file
 * Scenario catalog types: self-describing end-to-end colocation
 * scenarios and the canonical metrics record every scenario emits.
 *
 * A ScenarioSpec names one point of the evaluation matrix — an LC
 * workload × a BE/antagonist mix × a load shape × a topology × an
 * isolation policy — with everything needed to reproduce it from its
 * name and a seed. Scenarios are the unit of regression: the golden
 * harness (tests/golden_test.cc) runs reduced-scale variants of every
 * registered scenario and pins the resulting ScenarioMetrics against
 * checked-in baselines with per-metric tolerances.
 */
#ifndef HERACLES_SCENARIOS_SCENARIO_H
#define HERACLES_SCENARIOS_SCENARIO_H

#include <string>
#include <utility>
#include <vector>

#include "chaos/fault_plan.h"
#include "cluster/scheduler.h"
#include "exp/server_sim.h"
#include "heracles/config.h"
#include "hw/config.h"
#include "sim/time.h"

namespace heracles::scenarios {

/** Where the scenario runs. */
enum class Topology {
    kSingleServer,  ///< One server, one LC app, optional BE job.
    kCluster,       ///< Root/leaf fan-out cluster (Section 5.3).
};

/** Load shape driving the LC workload. */
enum class TraceKind {
    kConstant,    ///< Fixed load forever.
    kStep,        ///< Base load, then a step to the peak mid-measurement.
    kDiurnal,     ///< Valley-to-peak swing (the paper's 12 h trace).
    kFlashCrowd,  ///< Sudden burst: steep ramp, plateau, decay.
};

/** Human-readable topology name ("single-server" / "cluster"). */
std::string TopologyName(Topology t);

/** Human-readable trace-kind name ("constant", "step", ...). */
std::string TraceKindName(TraceKind k);

/**
 * Named machine shapes for heterogeneous clusters: "default" is the
 * paper's dual-socket Haswell-EP class server, "small" a half-width
 * edge box, "big" a wider high-memory server. Aborts on unknown names.
 */
hw::MachineConfig MachineVariant(const std::string& name);

/**
 * One slot of a cluster's leaf mix: LC workload × machine shape ×
 * tail-target scale. A scenario's leaf_mix is cycled over its leaf
 * count, so the same mix composes clusters of any size.
 */
struct ClusterLeafTemplate {
    std::string lc = "websearch";
    std::string machine = "default";  ///< MachineVariant() name.
    /** Multiplier on the leaf's derived tail target (headroom policy). */
    double tail_scale = 1.0;
};

/**
 * Blueprint of one end-to-end scenario. Everything, including the
 * machine and the controller tunables, is part of the spec so two runs
 * of the same (spec, seed, scale) are bit-identical.
 */
struct ScenarioSpec {
    std::string name;         ///< Unique catalog key (CLI `--scenario`).
    std::string description;  ///< One-line summary for `--list-scenarios`.

    Topology topology = Topology::kSingleServer;
    /** Server shape; every leaf of a cluster scenario uses the same. */
    hw::MachineConfig machine;

    /** LC workload name resolved via workloads::AllLcWorkloads(). */
    std::string lc = "websearch";
    /** BE job name via workloads::BeProfileByName(); "none" = no BE. */
    std::string be = "brain";
    /** Isolation policy (Heracles, baseline, OS-only, static). */
    exp::PolicyKind policy = exp::PolicyKind::kHeracles;
    /** Controller tunables; paper defaults unless the scenario ablates. */
    ctl::HeraclesConfig heracles;

    TraceKind trace = TraceKind::kConstant;
    /** Constant level, or the base of a step/diurnal/flash trace. */
    double load = 0.5;
    /** Peak load of step/diurnal/flash traces (unused for constant). */
    double load_high = 0.8;

    // --- Single-server phases (scaled by RunOptions::time_scale) ---------
    sim::Duration warmup = sim::Seconds(90);
    sim::Duration measure = sim::Seconds(120);

    // --- Cluster shape ---------------------------------------------------
    int leaves = 6;          ///< Fan-out width (kCluster only).
    bool colocate = true;    ///< Run BE jobs on the leaves.
    /** Enable the centralized root controller (paper's future work). */
    bool central_controller = false;
    sim::Duration cluster_duration = sim::Minutes(10);

    /**
     * Heterogeneous leaf composition, cycled over `leaves`. Empty =
     * the paper's uniform cluster (every leaf runs `lc` on `machine`,
     * brain/streetview pinned alternately).
     */
    std::vector<ClusterLeafTemplate> leaf_mix;
    /** Shard count (> 0 switches the root to the sharded topology). */
    int shards = 0;
    /** Leaves per rack (> 0 switches the root to the hierarchical
     *  leaf → rack → pod-root topology; takes precedence over shards). */
    int rack_size = 0;
    /** Cluster-level BE scheduling policy. */
    cluster::SchedulerPolicy scheduler =
        cluster::SchedulerPolicy::kStaticSplit;
    /** kPredictive's CPI2-style monitoring ablation: act greedy, count
     *  predictive disagreements (SchedulerConfig::predict_only). */
    bool predict_only = false;
    /**
     * Cluster-wide BE job queue by name. With the static split, job j
     * is pinned to leaf j (today's behavior); greedy/round-robin place
     * and migrate these at runtime. Empty = the uniform cluster's
     * alternating brain/streetview pinning.
     */
    std::vector<std::string> be_jobs;
    /** Derive tail targets per leaf (required for mixed-LC leaves). */
    bool per_leaf_targets = false;
    /**
     * Keep the spec's exact leaf count even under
     * RunOptions::cluster_leaves — set on scenarios whose leaf mix or
     * shard shape the override would distort.
     */
    bool fixed_leaves = false;

    /**
     * True for scenarios whose *point* is an SLO violation (e.g. the
     * os-only ablation). The CLI exit code flags only unexpected
     * violations; the golden baseline still pins the violating record.
     */
    bool expect_slo_violation = false;

    /**
     * Time scale at/above which a *transient* SLO violation is expected
     * (0 = never). Abrupt step/flash scenarios violate only when the
     * trace runs long enough for the controller to grow BE to its full
     * allocation before the surge lands: from there the 15 s top-level
     * poll plus the staged core return cannot drain the arrival backlog
     * before a window tail explodes — inherent to the paper's reactive
     * design, and the regime the predictive tier exists for. Below the
     * threshold (golden and smoke scales) any violation is still a
     * regression; use ViolationExpected() for the verdict.
     */
    double expect_violation_at_scale = 0.0;

    /**
     * Deterministic fault-injection plan (the chaos_* family; also the
     * CLI's --faults). Windows are fractions of the run, so the same
     * plan degrades a full-scale run and its golden-scale regression
     * variant at the same relative times. Empty = clean weather.
     */
    chaos::FaultPlan faults;

    /** Default RNG seed; RunOptions::seed overrides from the CLI. */
    uint64_t seed = 1;
};

/**
 * True when an SLO violation by this spec counts as expected at
 * @p time_scale — either unconditionally (expect_slo_violation) or
 * because the run is at/above the spec's transient-violation scale
 * threshold. The shared verdict of every reporting surface
 * (heracles_sim --json, bench_record), so "unexpected" means unexpected
 * at *every* scale.
 */
bool ViolationExpected(const ScenarioSpec& spec, double time_scale);

/**
 * The canonical structured metrics record of one scenario run. Every
 * field is a double so the record round-trips through JSON exactly and
 * compares field-by-field; counts are stored as exact integers in
 * double (all are far below 2^53).
 *
 * Single-server and cluster scenarios populate different subsets (a
 * cluster run has no single-server telemetry, a single-server run has
 * no root target); unused fields stay zero and still participate in
 * golden comparison, pinning them at zero.
 */
struct ScenarioMetrics {
    std::string scenario;  ///< Catalog name of the scenario that ran.

    // --- SLO / latency ---------------------------------------------------
    double slo_attained = 0.0;   ///< 1.0 when no SLO violation.
    double tail_frac_slo = 0.0;  ///< Worst tail / target (root for cluster).
    double worst_tail_ms = 0.0;
    double p95_ms = 0.0;  ///< Overall p95 across measurement (single-server).
    double p99_ms = 0.0;

    // --- Throughput / utilization ---------------------------------------
    double lc_throughput = 0.0;  ///< Served fraction of LC peak.
    double be_throughput = 0.0;  ///< Normalized to the BE job running alone.
    double emu = 0.0;            ///< Effective Machine Utilization (mean).
    double min_emu = 0.0;        ///< Worst window (cluster only).
    double dram_frac = 0.0;
    double cpu_util = 0.0;
    double power_frac_tdp = 0.0;

    // --- Controller activity ---------------------------------------------
    double polls = 0.0;
    double be_enables = 0.0;
    double be_disables = 0.0;
    double core_shrinks = 0.0;
    double act_set_cores = 0.0;
    double act_set_ways = 0.0;
    double act_set_freq_cap = 0.0;
    double act_set_net_ceil = 0.0;

    // --- Final state -------------------------------------------------------
    double be_cores = 0.0;
    double be_ways = 0.0;

    // --- Cluster-level scheduler activity ---------------------------------
    // Zero for single-server scenarios and the static split; optional
    // in baselines written before these metrics existed (parsed as 0).
    double be_placements = 0.0;
    double be_migrations = 0.0;
    // CPI2-style monitoring-only ablation: decisions where the
    // predictive ranking disagreed with the acting policy's choice.
    // Structurally zero outside predict_only runs; same omit-when-zero /
    // optional-parse rule as the other scheduler counters.
    double be_would_placements = 0.0;
    double be_would_migrations = 0.0;

    // --- Chaos / safety harness --------------------------------------------
    // invariant_violations is the safety verdict of the invariant
    // checker that rides along on every Heracles run: its golden
    // tolerance is exact and the harness asserts it stays zero.
    // faulted_ops counts dropped actuations + degraded telemetry reads,
    // pinning that a chaos scenario's plan actually fired. Both are
    // structurally zero outside the chaos family and omitted from JSON
    // when zero (parsed as 0), so pre-chaos baselines never churn.
    double invariant_violations = 0.0;
    double faulted_ops = 0.0;

    // --- Cluster targets ---------------------------------------------------
    double root_target_ms = 0.0;
    double leaf_target_ms = 0.0;

    /** All metrics as ordered (key, value) pairs — the JSON layout. */
    std::vector<std::pair<std::string, double>> Kv() const;

    /** Bit-exact equality of every field (the jobs-invariance check). */
    bool ExactlyEquals(const ScenarioMetrics& other) const;
};

/** Serializes a metrics record as pretty-printed JSON (round-trips). */
std::string MetricsToJson(const ScenarioMetrics& m);

/**
 * Parses JSON produced by MetricsToJson. Returns false when the text is
 * malformed or any expected metric key is missing (e.g. a baseline from
 * before a new metric was added — regenerate with --update-golden).
 */
bool MetricsFromJson(const std::string& json, ScenarioMetrics* out);

/**
 * Compares a run against its golden baseline using per-metric
 * tolerances: a metric passes when |got - golden| <= max(abs, rel *
 * |golden|), with (rel, abs) from the metric's class in scenario.cc's
 * field table. Returns true when every metric passes; otherwise appends
 * one human-readable line per failing metric to @p mismatches.
 */
bool WithinTolerance(const ScenarioMetrics& got,
                     const ScenarioMetrics& golden,
                     std::vector<std::string>* mismatches = nullptr);

}  // namespace heracles::scenarios

#endif  // HERACLES_SCENARIOS_SCENARIO_H
