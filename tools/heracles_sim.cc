/**
 * @file
 * Command-line runner: colocate any LC workload with any BE job under
 * any policy at any load, and print the outcome.
 *
 * Usage:
 *   heracles_sim [--lc websearch|ml_cluster|memkeyval]
 *                [--be brain|streetview|stream-dram|stream-llc|
 *                      stream-llc-small|stream-llc-big|cpu_pwr|iperf|
 *                      spinloop|none]
 *                [--policy heracles|baseline|os-only|static]
 *                [--load 0.5] [--warmup-s 150] [--measure-s 120]
 *                [--seed 1]
 *                [--sweep 0.1,0.3,0.5|paper] [--jobs N]
 *                [--list-scenarios] [--scenario NAME|all]
 *                [--scale F] [--json] [--faults SPEC]
 *                [--cluster-jobs N]
 *                [--cluster-policy static-split|greedy-slack|
 *                                  round-robin|predictive]
 *
 * --cluster-policy overrides a cluster scenario's BE scheduling policy
 * for one run — the command-line form of the scheduler ablation family
 * (requires a scenario with cluster-wide be_jobs; static-split also
 * needs a leaf_mix to pin jobs against).
 *
 * With --sweep, runs every listed load (or the paper's 5%..95% grid)
 * instead of a single point, fanning the independent load points across
 * --jobs worker threads (default: hardware concurrency). Parallel
 * results are bit-identical to --jobs 1.
 *
 * --cluster-jobs sets how many worker threads a cluster scenario's
 * epoch engine fans its leaves across per barrier interval (metrics are
 * bit-identical for every value). Default: hardware concurrency for a
 * single cluster scenario, 1 for --scenario all (where --jobs already
 * parallelizes across scenarios).
 *
 * Scenario mode composes from the catalog (src/scenarios/registry.cc)
 * instead of the ad-hoc flags: --list-scenarios prints the catalog,
 * --scenario NAME runs one end-to-end scenario (--scale shrinks its
 * phases, --seed makes any run reproducible from the command line,
 * --json emits the canonical metrics record), and --scenario all fans
 * the whole catalog across --jobs threads.
 *
 * --faults overlays a deterministic fault-injection plan (chaos layer)
 * on a single --scenario run, e.g.
 *
 *   --faults "drop:cores@0.3-0.6,noise:tail*0.2@0.1-0.9"
 *
 * with windows as fractions of the run; see src/chaos/fault_plan.h for
 * the clause grammar. The run reports the degraded metrics plus the
 * invariant checker's verdict.
 */
#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <optional>
#include <string>
#include <vector>

#include "chaos/fault_plan.h"
#include "exp/characterization.h"
#include "exp/experiment.h"
#include "exp/reporting.h"
#include "flags.h"
#include "runner/pool.h"
#include "scenarios/registry.h"
#include "scenarios/runner.h"
#include "sim/json.h"
#include "workloads/antagonists.h"
#include "workloads/lc_configs.h"

using namespace heracles;
using tools::kPositive;
using tools::ParseNumber;
using tools::ParsePositiveInt;
using tools::ParseUint64;

namespace {

[[noreturn]] void
Usage(const char* argv0)
{
    std::fprintf(stderr,
                 "usage: %s [--lc NAME] [--be NAME|none] "
                 "[--policy NAME] [--load F] [--warmup-s S] "
                 "[--measure-s S] [--seed N] "
                 "[--sweep F,F,...|paper] [--jobs N] "
                 "[--list-scenarios] [--scenario NAME|all] "
                 "[--scale F] [--json] [--faults SPEC] "
                 "[--cluster-jobs N] "
                 "[--cluster-policy NAME]\n",
                 argv0);
    std::exit(2);
}

/** Prints the scenario catalog as a table. */
void
ListScenarios()
{
    exp::Table table({"name", "topology", "lc", "be", "policy", "trace",
                      "load", "description"});
    for (const auto& s : scenarios::AllScenarios()) {
        char load[32];
        if (s.trace == scenarios::TraceKind::kConstant) {
            std::snprintf(load, sizeof load, "%.0f%%", s.load * 100);
        } else {
            std::snprintf(load, sizeof load, "%.0f-%.0f%%", s.load * 100,
                          s.load_high * 100);
        }
        table.AddRow({s.name, scenarios::TopologyName(s.topology), s.lc,
                      s.be, exp::PolicyName(s.policy),
                      scenarios::TraceKindName(s.trace), load,
                      s.description});
    }
    table.Print();
}

/** Prints one metrics record as a readable two-column table. */
void
PrintMetrics(const scenarios::ScenarioMetrics& m)
{
    std::printf("scenario %s:\n", m.scenario.c_str());
    exp::Table table({"metric", "value"});
    for (const auto& [key, value] : m.Kv()) {
        table.AddRow({key, exp::FormatDouble(value, 4)});
    }
    table.Print();
}

/** True when the run's SLO outcome is a problem (violations are fine —
 *  expected, even — for ablation scenarios like os-only, and for the
 *  abrupt step/flash scenarios once the run is long enough that the
 *  reactive controller physically cannot win; see
 *  ScenarioSpec::expect_violation_at_scale). */
bool
UnexpectedViolation(const scenarios::ScenarioSpec& spec,
                    const scenarios::ScenarioMetrics& m,
                    double time_scale)
{
    return m.slo_attained == 0.0 &&
           !scenarios::ViolationExpected(spec, time_scale);
}

/**
 * Sets @p out to the value of @p values whose @p name_of is @p name.
 * On an unknown name, prints an error listing every name in the order
 * of @p values and returns false.
 */
template <typename E, size_t N>
bool
ParseEnum(const char* flag, const std::string& name, const E (&values)[N],
          std::string (*name_of)(E), E* out)
{
    std::string want;
    for (const E v : values) {
        if (name == name_of(v)) {
            *out = v;
            return true;
        }
        want += (want.empty() ? "" : "|") + name_of(v);
    }
    std::fprintf(stderr, "error: unknown %s '%s' (want %s)\n", flag,
                 name.c_str(), want.c_str());
    return false;
}

/**
 * Parses a --cluster-policy value; prints an error and returns false on
 * an unknown name.
 */
bool
ParseClusterPolicy(const std::string& name, cluster::SchedulerPolicy* out)
{
    constexpr cluster::SchedulerPolicy kPolicies[] = {
        cluster::SchedulerPolicy::kStaticSplit,
        cluster::SchedulerPolicy::kGreedySlack,
        cluster::SchedulerPolicy::kRoundRobin,
        cluster::SchedulerPolicy::kPredictive,
    };
    return ParseEnum("--cluster-policy", name, kPolicies,
                     cluster::SchedulerPolicyName, out);
}

/** Runs --scenario NAME|all; returns the process exit code. */
int
RunScenarioMode(const std::string& name, const scenarios::RunOptions& opts,
                int jobs, bool json, const chaos::FaultPlan* faults,
                const std::string& cluster_policy)
{
    if (name == "all") {
        if (faults != nullptr) {
            std::fprintf(stderr,
                         "--faults applies to a single --scenario run, "
                         "not to 'all'\n");
            return 2;
        }
        if (!cluster_policy.empty()) {
            std::fprintf(stderr,
                         "--cluster-policy applies to a single "
                         "--scenario run, not to 'all'\n");
            return 2;
        }
        const auto& specs = scenarios::AllScenarios();
        const auto results = scenarios::RunScenarios(specs, opts, jobs);
        std::vector<std::string> violating;
        for (size_t i = 0; i < results.size(); ++i) {
            if (UnexpectedViolation(specs[i], results[i],
                                    opts.time_scale)) {
                violating.push_back(results[i].scenario);
            }
        }
        const int unexpected = static_cast<int>(violating.size());
        if (json) {
            // One JSON document: the per-scenario records plus the
            // catalog-level violation verdict — count *and* the
            // offending names (same layout as bench_record), so a
            // reader of the JSON never needs the run's stderr to know
            // which scenarios regressed.
            sim::JsonWriter w;
            w.BeginObject().Key("scenarios").BeginArray();
            for (const auto& m : results) {
                w.BeginObject();
                scenarios::WriteMetricsMembers(w, m);
                w.EndObject();
            }
            w.EndArray();
            w.Key("unexpected_slo_violations").Int(unexpected);
            w.Key("violating_scenarios").BeginArray();
            for (const auto& v : violating) w.String(v);
            w.EndArray().EndObject();
            std::fputs(w.str().c_str(), stdout);
        } else {
            exp::Table table({"scenario", "tail (% target)", "SLO ok",
                              "EMU", "BE disables"});
            for (size_t i = 0; i < results.size(); ++i) {
                const auto& m = results[i];
                table.AddRow(
                    {m.scenario, exp::FormatTailFrac(m.tail_frac_slo),
                     m.slo_attained > 0.0
                         ? "yes"
                         : (scenarios::ViolationExpected(specs[i],
                                                         opts.time_scale)
                                ? "violated (expected)"
                                : "VIOLATED"),
                     exp::FormatPct(m.emu),
                     exp::FormatDouble(m.be_disables, 0)});
            }
            table.Print();
        }
        return unexpected > 0 ? 1 : 0;
    }

    const scenarios::ScenarioSpec* found = scenarios::FindScenario(name);
    if (found == nullptr) {
        std::fprintf(stderr,
                     "unknown scenario: %s (try --list-scenarios)\n",
                     name.c_str());
        return 2;
    }
    scenarios::ScenarioSpec spec = *found;
    if (faults != nullptr) {
        // Cluster-layer faults on a single-server scenario would be
        // silently dropped at resolution — the user would believe they
        // measured a degraded run that never degraded — and one aimed
        // past the composed cluster's last leaf would abort the run.
        int leaves = 0;
        if (spec.topology == scenarios::Topology::kCluster) {
            const cluster::ClusterConfig cfg =
                scenarios::ClusterConfigFor(spec, opts);
            leaves = cfg.leaf_specs.empty()
                         ? cfg.leaves
                         : static_cast<int>(cfg.leaf_specs.size());
        }
        for (const chaos::FaultSpec& f : faults->faults) {
            if (f.kind != chaos::FaultKind::kLeafCrash &&
                f.kind != chaos::FaultKind::kSlackFreeze) {
                continue;
            }
            const std::string kind = chaos::FaultKindName(f.kind);
            if (spec.topology == scenarios::Topology::kSingleServer) {
                std::fprintf(stderr,
                             "error: --faults clause '%s:leaf%d' needs a "
                             "cluster scenario; %s is single-server\n",
                             kind.c_str(), f.leaf, spec.name.c_str());
                return 2;
            }
            if (f.leaf < 0 || f.leaf >= leaves) {
                std::fprintf(stderr,
                             "error: --faults clause '%s:leaf%d' targets "
                             "leaf %d, but %s has %d leaves\n",
                             kind.c_str(), f.leaf, f.leaf,
                             spec.name.c_str(), leaves);
                return 2;
            }
        }
        // The command-line plan replaces the cataloged one, and any SLO
        // outcome under ad-hoc degradation is acceptable — the run's
        // verdict is the invariant count in the metrics record.
        spec.faults = *faults;
        spec.expect_violation_at_scale = 0;
    }
    if (!cluster_policy.empty()) {
        cluster::SchedulerPolicy policy;
        if (!ParseClusterPolicy(cluster_policy, &policy)) return 2;
        // The override only makes sense where a scheduler actually has
        // decisions to make: a cluster scenario with a cluster-wide BE
        // job queue. Silently accepting it elsewhere would report a
        // "policy ablation" that never ran one.
        if (spec.topology != scenarios::Topology::kCluster) {
            std::fprintf(stderr,
                         "error: --cluster-policy needs a cluster "
                         "scenario; %s is single-server\n",
                         spec.name.c_str());
            return 2;
        }
        if (spec.be_jobs.empty()) {
            std::fprintf(stderr,
                         "error: --cluster-policy needs a scenario with "
                         "cluster-wide be_jobs; %s pins its BE work at "
                         "assembly\n",
                         spec.name.c_str());
            return 2;
        }
        if (policy == cluster::SchedulerPolicy::kStaticSplit &&
            spec.leaf_mix.empty()) {
            std::fprintf(stderr,
                         "error: static-split needs a leaf_mix to pin "
                         "jobs against; %s has none\n",
                         spec.name.c_str());
            return 2;
        }
        spec.scheduler = policy;
        // The flag fully determines the scheduler arm — a monitor-mode
        // scenario overridden to any explicit policy runs that policy
        // for real.
        spec.predict_only = false;
    }
    const auto m = scenarios::RunScenario(spec, opts);
    const bool unexpected = UnexpectedViolation(spec, m, opts.time_scale);
    if (json) {
        // The metrics record plus the run's unexpected-violation verdict
        // — the same count the perf record tracks (docs/performance.md),
        // visible at any --scale.
        sim::JsonWriter w;
        w.BeginObject();
        scenarios::WriteMetricsMembers(w, m);
        w.Key("unexpected_slo_violations").Int(unexpected ? 1 : 0);
        w.EndObject();
        std::fputs(w.str().c_str(), stdout);
    } else {
        PrintMetrics(m);
    }
    return unexpected ? 1 : 0;
}

/** Parses "0.1,0.3,0.5" (or "paper") into load fractions. */
std::vector<double>
ParseSweep(const std::string& spec)
{
    if (spec == "paper") return exp::CharacterizationRig::PaperLoads();
    std::vector<double> loads;
    size_t pos = 0;
    do {
        const size_t comma = std::min(spec.find(',', pos), spec.size());
        loads.push_back(ParseNumber(
            "--sweep", spec.substr(pos, comma - pos),
            "comma-separated load fractions in (0, 1] or 'paper'",
            kPositive, 1.0));
        pos = comma + 1;
    } while (pos <= spec.size());
    return loads;
}

exp::PolicyKind
ParsePolicy(const std::string& name)
{
    constexpr exp::PolicyKind kPolicies[] = {
        exp::PolicyKind::kHeracles,
        exp::PolicyKind::kNoColocation,
        exp::PolicyKind::kOsOnly,
        exp::PolicyKind::kStaticPartition,
    };
    exp::PolicyKind policy;
    if (!ParseEnum("--policy", name, kPolicies, exp::PolicyName, &policy)) {
        std::exit(2);
    }
    return policy;
}

}  // namespace

int
main(int argc, char** argv)
{
    std::string lc_name = "websearch";
    std::string be_name = "brain";
    std::string policy_name = "heracles";
    double load = 0.5;
    double warmup_s = 150.0, measure_s = 120.0;
    uint64_t seed = 1;
    bool seed_given = false;
    bool adhoc_given = false;  // any --lc/--be/--policy/--load/... flag
    std::vector<double> sweep_loads;
    std::string scenario_name;
    std::string faults_spec;
    bool faults_given = false;
    double scale = 1.0;
    bool scale_given = false;
    bool json = false;
    int jobs = runner::DefaultJobs();
    int cluster_jobs = 0;
    bool cluster_jobs_given = false;
    std::string cluster_policy;

    for (int i = 1; i < argc; ++i) {
        auto next = [&]() -> const char* {
            if (i + 1 >= argc) Usage(argv[0]);
            return argv[++i];
        };
        auto adhoc_next = [&]() -> const char* {
            adhoc_given = true;
            return next();
        };
        if (!std::strcmp(argv[i], "--lc")) {
            lc_name = adhoc_next();
        } else if (!std::strcmp(argv[i], "--be")) {
            be_name = adhoc_next();
        } else if (!std::strcmp(argv[i], "--policy")) {
            policy_name = adhoc_next();
        } else if (!std::strcmp(argv[i], "--load")) {
            load = ParseNumber("--load", adhoc_next(),
                               "a load fraction in (0, 1]", kPositive, 1.0);
        } else if (!std::strcmp(argv[i], "--warmup-s")) {
            warmup_s = ParseNumber("--warmup-s", adhoc_next(),
                                   "seconds in [0, 1e6]", 0.0, 1e6);
        } else if (!std::strcmp(argv[i], "--measure-s")) {
            // A zero window would divide the throughput by zero.
            measure_s = ParseNumber("--measure-s", adhoc_next(),
                                    "seconds in (0, 1e6]", kPositive, 1e6);
        } else if (!std::strcmp(argv[i], "--seed")) {
            // Garbage must not silently become seed 0 — the run would
            // "reproduce" something the user never asked for.
            seed = ParseUint64("--seed", next());
            seed_given = true;
        } else if (!std::strcmp(argv[i], "--sweep")) {
            sweep_loads = ParseSweep(adhoc_next());
        } else if (!std::strcmp(argv[i], "--jobs")) {
            jobs = ParsePositiveInt("--jobs", next());
        } else if (!std::strcmp(argv[i], "--list-scenarios")) {
            ListScenarios();
            return 0;
        } else if (!std::strcmp(argv[i], "--scenario")) {
            scenario_name = next();
        } else if (!std::strcmp(argv[i], "--scale")) {
            // A non-positive, non-finite or huge scale would collapse
            // every phase to its floor — or overflow the scaled phase
            // durations; fail loudly instead.
            scale = ParseNumber("--scale", next(),
                                "a positive number up to 1000", kPositive,
                                1000.0);
            scale_given = true;
        } else if (!std::strcmp(argv[i], "--cluster-jobs")) {
            // Garbage or a non-positive width must not silently run
            // serial (or die in the pool); fail loudly like --seed.
            cluster_jobs = ParsePositiveInt("--cluster-jobs", next());
            cluster_jobs_given = true;
        } else if (!std::strcmp(argv[i], "--cluster-policy")) {
            cluster_policy = next();
        } else if (!std::strcmp(argv[i], "--faults")) {
            faults_spec = next();
            faults_given = true;
        } else if (!std::strcmp(argv[i], "--json")) {
            json = true;
        } else {
            Usage(argv[0]);
        }
    }

    if (scenario_name.empty() &&
        (scale_given || json || faults_given || cluster_jobs_given ||
         !cluster_policy.empty())) {
        std::fprintf(stderr,
                     "--scale/--json/--faults/--cluster-jobs/"
                     "--cluster-policy only apply to --scenario runs\n");
        return 2;
    }
    chaos::FaultPlan faults;
    if (faults_given) {
        std::string error;
        if (!chaos::ParseFaultPlan(faults_spec, &faults, &error)) {
            std::fprintf(stderr, "error: bad --faults spec: %s\n",
                         error.c_str());
            return 2;
        }
        if (seed_given) faults.seed = seed ^ 0xC7A05;
    }
    if (!scenario_name.empty()) {
        if (adhoc_given) {
            // A cataloged scenario fixes its own workload mix and
            // phases; silently ignoring these flags would misrepresent
            // what actually ran.
            std::fprintf(stderr,
                         "--scenario cannot be combined with ad-hoc "
                         "flags (--lc/--be/--policy/--load/--warmup-s/"
                         "--measure-s/--sweep); use --scale/--seed\n");
            return 2;
        }
        scenarios::RunOptions opts;
        opts.time_scale = scale;
        if (seed_given) opts.seed = seed;
        // A lone cluster scenario gets the machine's full width by
        // default; a catalog sweep keeps each scenario serial so the
        // per-scenario fan-out never stacks on top of --jobs.
        opts.cluster_jobs =
            cluster_jobs_given
                ? cluster_jobs
                : (scenario_name == "all" ? 1 : runner::DefaultJobs());
        return RunScenarioMode(scenario_name, opts, jobs, json,
                               faults_given ? &faults : nullptr,
                               cluster_policy);
    }

    exp::ExperimentConfig cfg;
    const std::optional<workloads::LcParams> lc =
        workloads::FindLcWorkload(lc_name);
    if (!lc.has_value()) {
        std::fprintf(stderr, "error: unknown --lc workload '%s'\n",
                     lc_name.c_str());
        return 2;
    }
    cfg.lc = *lc;
    if (be_name != "none") {
        cfg.be = workloads::FindBeProfile(cfg.machine, be_name);
        if (!cfg.be.has_value()) {
            std::fprintf(stderr, "error: unknown --be profile '%s'\n",
                         be_name.c_str());
            return 2;
        }
    }
    cfg.policy = ParsePolicy(policy_name);
    cfg.warmup = sim::Seconds(warmup_s);
    cfg.measure = sim::Seconds(measure_s);
    cfg.seed = seed;

    exp::Experiment experiment(cfg);

    if (!sweep_loads.empty()) {
        const auto results =
            runner::ParallelMap(jobs, sweep_loads.size(), [&](size_t i) {
                return experiment.RunAt(sweep_loads[i]);
            });

        std::printf("%s + %s under %s, %zu load points (%d jobs):\n",
                    lc_name.c_str(), be_name.c_str(), policy_name.c_str(),
                    sweep_loads.size(), jobs);
        exp::Table table({"load", "tail (% SLO)", "SLO ok", "LC tput",
                          "BE tput", "EMU"});
        bool violated = false;
        for (const auto& r : results) {
            violated |= r.slo_violated;
            table.AddRow({exp::FormatPct(r.load),
                          exp::FormatTailFrac(r.tail_frac_slo),
                          r.slo_violated ? "VIOLATED" : "yes",
                          exp::FormatPct(r.lc_throughput),
                          exp::FormatPct(r.be_throughput),
                          exp::FormatPct(r.emu)});
        }
        table.Print();
        return violated ? 1 : 0;
    }

    const auto r = experiment.RunAt(load);

    std::printf("%s + %s under %s at %.0f%% load:\n", lc_name.c_str(),
                be_name.c_str(), policy_name.c_str(), load * 100);
    std::printf("  worst %2.0f%%-ile tail : %s  (%.1f%% of the %s SLO)%s\n",
                cfg.lc.slo_percentile * 100,
                sim::FormatDuration(r.worst_tail).c_str(),
                r.tail_frac_slo * 100,
                sim::FormatDuration(cfg.lc.slo_latency).c_str(),
                r.slo_violated ? "  ** SLO VIOLATED **" : "");
    std::printf("  EMU                 : %.1f%%  (LC %.1f%% + BE %.1f%%)\n",
                r.emu * 100, r.lc_throughput * 100,
                r.be_throughput * 100);
    std::printf("  DRAM bandwidth      : %.1f%% of peak\n",
                r.telemetry.dram_frac * 100);
    std::printf("  CPU utilization     : %.1f%%\n",
                r.telemetry.cpu_utilization * 100);
    std::printf("  CPU power           : %.1f%% of TDP\n",
                r.telemetry.power_frac_tdp * 100);
    std::printf("  network             : LC %.2f Gb/s, BE %.2f Gb/s\n",
                r.telemetry.lc_tx_gbps, r.telemetry.be_tx_gbps);
    if (cfg.policy == exp::PolicyKind::kHeracles) {
        std::printf("  final BE allocation : %d cores, %d LLC ways, "
                    "DVFS cap %.1f GHz, slack %.2f\n",
                    r.be_cores, r.be_ways, r.be_freq_cap_ghz, r.slack);
    }
    return r.slo_violated ? 1 : 0;
}
