/**
 * @file
 * The repository benchmark: times fixed batches of catalog scenarios
 * (the workloads, see README.md), checks their results, and prints every
 * end-to-end metric by name with its unit.
 *
 * Usage: heracles_bench [--workload NAME|all] [--seed N] [--reps N]
 *                       [--seconds S] [--jobs N] [--trace 0|1] [--check]
 *                       [--smoke] [--out FILE]
 *
 *   --workload  one workload, or all of them (default all)
 *   --seed      0 keeps every scenario's catalog seed; k > 0 runs each
 *               scenario at spec.seed + k * 1000003 (default 0)
 *   --reps      minimum timed repetitions per workload (default 3)
 *   --seconds   keep adding repetitions until this many seconds have
 *               passed (default 0: exactly --reps)
 *   --jobs      threads per workload process (default min(4, nproc);
 *               more than nproc is refused)
 *   --trace 1   each repetition also runs traced: per-layer metrics, a
 *               self-time table and one Chrome trace per workload
 *   --check     untimed correctness gate: every scenario the workloads
 *               use, at golden scale, against tests/golden/
 *   --smoke     every workload once at tiny size, traced and untraced,
 *               plus a reduced --check; validates the harness itself
 *   --out       results file (default benchmark/out/results.json)
 *
 * Every repetition of a workload runs in a fresh process (fork + exec of
 * this binary), so the process-wide fingerprint cache starts cold and
 * wait4() reports that repetition's own CPU time and peak RSS. The last
 * line of standard output is one JSON object:
 * {"correct", "attempted", "failed", "metrics"}, with the end-to-end
 * metrics, or with --trace 1 the per-layer ones.
 *
 * Exit codes: 0 all runs correct; 1 a run failed or a check did not
 * hold; 2 usage error.
 */
#include <fcntl.h>
#include <poll.h>
#include <sched.h>
#include <signal.h>
#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <map>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "cluster/cluster.h"
#include "cluster/fingerprint.h"
#include "scenarios/registry.h"
#include "scenarios/runner.h"

using namespace heracles;

namespace {

// ------------------------------------------------------------------------
// Workloads

/**
 * One workload: a fixed batch of catalog scenarios run back to back by
 * one caller (a closed loop with no arrival schedule). Cluster scenarios
 * fan their leaves over --jobs threads; single-server ones are serial.
 */
struct Workload {
    std::string name;
    std::vector<std::string> scenarios;
    /** Subset run by --smoke. */
    std::vector<std::string> smoke;
    double time_scale = 1.0;
    /** Cluster leaf-count override (0 = the spec's own). */
    int leaves = 0;
};

/**
 * The workloads and why each was chosen (README.md has the full
 * table). Every cluster phase sits at its floor, so one rep takes a few
 * seconds and a 20 s measurement holds several.
 */
const std::vector<Workload>&
AllWorkloads()
{
    static const std::vector<Workload> all = {
        // 128 nearly idle leaves (rack size 64, so ~1% leaf load) behind
        // the two-level root: per-leaf epoch stepping, the runner pool
        // and per-leaf memory. Bypasses scheduler and fingerprints.
        {"pod_128",
         {"cluster_scale_rack_sharded"},
         {"cluster_scale_rack_sharded"},
         1.0 / 3.0,
         128},
        // The paper's Figure 8 cluster with and without colocation: six
        // busy leaves on every query, reply merge, per-leaf controllers.
        {"fanout_fig8",
         {"cluster_websearch_heracles", "cluster_websearch_baseline"},
         {"cluster_websearch_heracles"},
         0.25,
         0},
        // Heterogeneous leaves under the cluster scheduler: four cold
        // fingerprint grids in set-up, placement and migration, BE
        // attach/detach, a leaf crash and a frozen slack export.
        {"sched_hetero",
         {"cluster_hetero_pred_diurnal", "cluster_hetero_greedy_diurnal",
          "chaos_hetero_crash_pred"},
         {"chaos_hetero_crash_pred"},
         0.2,
         0},
        // All 18 single-server scenarios: LcApp, hw::Machine, the
        // controller and the chaos decorators, with no cluster engine.
        {"server_catalog",
         {"websearch_brain_heracles", "websearch_brain_static",
          "websearch_brain_os_only", "websearch_baseline",
          "websearch_streamllc_heracles", "websearch_brain_step",
          "websearch_brain_diurnal", "websearch_brain_flashcrowd",
          "mlcluster_streetview_heracles", "mlcluster_streamdram_heracles",
          "mlcluster_brain_diurnal", "memkeyval_iperf_heracles",
          "memkeyval_cpupwr_flashcrowd", "websearch_brain_no_bw_model",
          "chaos_cores_stuck", "chaos_blind_tail", "chaos_noisy_telemetry",
          "chaos_be_burst"},
         {"websearch_brain_heracles", "websearch_brain_os_only",
          "mlcluster_brain_diurnal", "memkeyval_iperf_heracles",
          "chaos_cores_stuck"},
         0.25,
         0},
    };
    return all;
}

const Workload*
FindWorkload(const std::string& name)
{
    for (const Workload& w : AllWorkloads()) {
        if (w.name == name) return &w;
    }
    return nullptr;
}

/** The time scale and leaf count a workload runs at. --smoke shrinks
 *  both: the pod to 16 leaves, other clusters to the golden 3 (specs
 *  with fixed_leaves keep theirs). */
scenarios::RunOptions
OptionsFor(const Workload& w, uint64_t seed_offset, bool smoke,
           const scenarios::ScenarioSpec& spec)
{
    scenarios::RunOptions o;
    o.time_scale = smoke ? 0.05 : w.time_scale;
    o.cluster_leaves = !smoke ? w.leaves : w.leaves > 0 ? 16 : 3;
    if (seed_offset > 0) o.seed = spec.seed + seed_offset * 1000003ull;
    return o;
}

// ------------------------------------------------------------------------
// Metric tables

struct MetricDef {
    const char* name;
    const char* unit;
};

/** End-to-end metrics, in BENCHMARK.json order. */
const std::vector<MetricDef> kEndToEnd = {
    {"wall_s", "s"},
    {"setup_s", "s"},
    {"sim_server_s_per_s", "1/s"},
    {"cpu_s", "s"},
    {"peak_rss_mb", "MB"},
    {"tail_frac_slo_max", "fraction"},
};

/**
 * Per-layer metrics reported on the last line with --trace 1, in
 * BENCHMARK.json order. Every one exists on every workload; a layer a
 * workload bypasses reads 0 in its counts and shares. Host times of a
 * layer that only some workloads have (cluster.target_s, ...) appear in
 * the printed table and results.json only.
 */
const std::vector<MetricDef> kPerLayer = {
    {"heracles.emu_mean", "fraction"},
    {"cluster.target_share", "fraction"},
    {"cluster.epochs", "count"},
    {"cluster.leaf_events", "count"},
    {"cluster.leaf_events_per_s", "1/s"},
    {"cluster.rss_kb_per_leaf", "KB"},
    {"runner.target_cpu_per_wall", "ratio"},
    {"runner.colocated_cpu_per_wall", "ratio"},
    {"cluster.fingerprint_pairs", "count"},
    {"cluster.fingerprint_share", "fraction"},
    {"cluster.placements", "count"},
    {"cluster.migrations", "count"},
    {"cluster.would_placements", "count"},
    {"cluster.would_migrations", "count"},
    {"heracles.polls", "count"},
    {"heracles.be_enables", "count"},
    {"heracles.be_disables", "count"},
    {"heracles.core_shrinks", "count"},
    {"heracles.disables_per_enable", "ratio"},
    {"platform.set_cores", "count"},
    {"platform.set_ways", "count"},
    {"platform.set_freq_cap", "count"},
    {"platform.set_net_ceil", "count"},
    {"platform.actuations_per_poll", "ratio"},
    {"chaos.faulted_ops", "count"},
    {"chaos.invariant_violations", "count"},
    {"scenarios.runs", "count"},
    {"scenarios.busy_s", "s"},
    {"scenarios.self_s", "s"},
    {"scenarios.max_run_s", "s"},
    {"scenarios.sim_server_s", "s"},
    {"scenarios.busy_share_websearch", "fraction"},
    {"scenarios.busy_share_ml_cluster", "fraction"},
    {"scenarios.busy_share_memkeyval", "fraction"},
    {"setup.self_s", "s"},
    {"trace.overhead_frac", "fraction"},
};

/** Per-layer values printed (and recorded) but not on the last line. */
const std::vector<MetricDef> kPerLayerExtra = {
    {"cluster.target_s", "s"},
    {"cluster.colocated_s", "s"},
    {"cluster.host_ns_per_leaf_event", "ns"},
    {"cluster.fingerprint_s", "s"},
    {"scenarios.busy_s_websearch", "s"},
    {"scenarios.busy_s_ml_cluster", "s"},
    {"scenarios.busy_s_memkeyval", "s"},
    {"trace.coverage", "fraction"},
};

/** The span names of the trace tree, for the self-time table. */
const std::vector<std::string> kSpanNames = {
    "workload",         "setup",         "cluster.fingerprint",
    "scenario",         "cluster.target", "cluster.colocated",
    "scenarios.run",
};

// ------------------------------------------------------------------------
// Clocks, rusage and the result digest

/** steady_clock is CLOCK_MONOTONIC on Linux, so a parent's timestamp
 *  and its child's are on one timeline. */
int64_t
NowNs()
{
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
}

double
Seconds(const timeval& tv)
{
    return static_cast<double>(tv.tv_sec) + 1e-6 * tv.tv_usec;
}

/** CPU seconds (user + sys) of every thread of this process so far. */
double
ProcessCpuSeconds()
{
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    return Seconds(ru.ru_utime) + Seconds(ru.ru_stime);
}

/** FNV-1a over the bits of every simulated result, so a change meant
 *  only for speed shows whether it left the results bit-identical. */
struct Digest {
    uint64_t h = 14695981039346656037ull;

    void
    Bytes(const void* p, size_t n)
    {
        const unsigned char* b = static_cast<const unsigned char*>(p);
        for (size_t i = 0; i < n; ++i) {
            h ^= b[i];
            h *= 1099511628211ull;
        }
    }
    void Add(double v) { Bytes(&v, sizeof v); }
    void Add(uint64_t v) { Bytes(&v, sizeof v); }
    void Add(int64_t v) { Bytes(&v, sizeof v); }
    void
    Add(const sim::TimeSeries& s)
    {
        for (const sim::SimTime t : s.t) Add(static_cast<int64_t>(t));
        for (const double v : s.v) Add(v);
    }
    std::string
    Hex() const
    {
        char buf[24];
        std::snprintf(buf, sizeof buf, "%016llx",
                      static_cast<unsigned long long>(h));
        return buf;
    }
};

void
AddToDigest(Digest* d, const cluster::ClusterResult& r)
{
    d->Add(r.latency_frac);
    d->Add(r.emu);
    d->Add(r.load);
    d->Add(r.worst_latency_frac);
    d->Add(static_cast<uint64_t>(r.slo_violated));
    d->Add(r.avg_emu);
    d->Add(r.min_emu);
    d->Add(static_cast<int64_t>(r.target));
    d->Add(static_cast<int64_t>(r.leaf_target));
    for (const uint64_t v :
         {r.polls, r.be_enables, r.be_disables, r.core_shrinks,
          r.actuations.set_cores, r.actuations.set_ways,
          r.actuations.set_freq_cap, r.actuations.set_net_ceil,
          r.be_placements, r.be_migrations, r.be_would_placements,
          r.be_would_migrations, r.invariant_violations, r.faulted_ops,
          r.epochs, r.leaf_events}) {
        d->Add(v);
    }
}

void
AddToDigest(Digest* d, const scenarios::ScenarioMetrics& m)
{
    for (const auto& kv : m.Kv()) d->Add(kv.second);
}

// ------------------------------------------------------------------------
// Spans

/**
 * One timed interval around a public call. Spans come only from this
 * file, around calls into the library; `run` is the scenario's index in
 * the batch (1-based; 0 = the workload and its setup).
 */
struct Span {
    std::string name;
    std::string label;  ///< The scenario, or a fingerprint's LC workload.
    int parent = -1;
    int run = 0;
    int64_t begin_ns = 0;
    int64_t end_ns = 0;
    double cpu_begin = 0.0;
    double cpu_end = 0.0;

    double
    Wall() const
    {
        return 1e-9 * static_cast<double>(end_ns - begin_ns);
    }
    double Cpu() const { return cpu_end - cpu_begin; }
};

/**
 * In-memory span recorder. A run records a few dozen spans, so they are
 * always kept (the untraced run needs their times); --trace adds a
 * getrusage() per boundary and the trace file.
 */
class Tracer
{
  public:
    explicit Tracer(bool cpu) : cpu_(cpu) {}

    int
    Begin(const std::string& name, int parent, int run,
          const std::string& label = "", int64_t at = 0)
    {
        Span s;
        s.name = name;
        s.label = label;
        s.parent = parent;
        s.run = run;
        s.begin_ns = at != 0 ? at : NowNs();
        if (cpu_) s.cpu_begin = ProcessCpuSeconds();
        spans_.push_back(std::move(s));
        return static_cast<int>(spans_.size()) - 1;
    }

    void
    End(int id)
    {
        Span& s = spans_[static_cast<size_t>(id)];
        if (cpu_) s.cpu_end = ProcessCpuSeconds();
        s.end_ns = NowNs();
    }

    const Span& at(int id) const { return spans_[static_cast<size_t>(id)]; }

    /** Sum of wall (and CPU) seconds over every span called @p name. */
    double
    TotalWall(const std::string& name, double* cpu = nullptr) const
    {
        double wall = 0.0;
        double c = 0.0;
        for (const Span& s : spans_) {
            if (s.name != name) continue;
            wall += s.Wall();
            c += s.Cpu();
        }
        if (cpu != nullptr) *cpu = c;
        return wall;
    }

    /** Self time per span name: each span minus its children. */
    std::map<std::string, double>
    SelfTimes() const
    {
        std::map<std::string, double> self;
        for (const Span& s : spans_) {
            self[s.name] += s.Wall();
            if (s.parent >= 0) self[at(s.parent).name] -= s.Wall();
        }
        return self;
    }

    /** Writes the spans in Chrome trace_event form (complete events). */
    bool
    WriteChromeTrace(const std::string& path, int64_t origin_ns) const
    {
        std::ofstream out(path);
        if (!out.good()) return false;
        out << "{\"traceEvents\":[\n";
        for (size_t i = 0; i < spans_.size(); ++i) {
            const Span& s = spans_[i];
            char line[512];
            std::snprintf(
                line, sizeof line,
                "{\"name\":\"%s\",\"cat\":\"bench\",\"ph\":\"X\","
                "\"ts\":%.3f,\"dur\":%.3f,\"pid\":1,\"tid\":1,"
                "\"args\":{\"parent\":\"%s\",\"run\":%d,\"label\":\"%s\","
                "\"cpu_s\":%.6f}}%s\n",
                s.name.c_str(),
                1e-3 * static_cast<double>(s.begin_ns - origin_ns),
                1e-3 * static_cast<double>(s.end_ns - s.begin_ns),
                s.parent >= 0 ? at(s.parent).name.c_str() : "", s.run,
                s.label.c_str(), s.Cpu(),
                i + 1 < spans_.size() ? "," : "");
            out << line;
        }
        out << "],\"displayTimeUnit\":\"ms\"}\n";
        return out.good();
    }

  private:
    bool cpu_;
    std::vector<Span> spans_;
};

// ------------------------------------------------------------------------
// One repetition of one workload (the child process)

/** Simulated server-seconds of a single-server scenario: warmup plus
 *  measurement with the phase floors of src/scenarios/runner.cc. */
double
ServerSimSeconds(const scenarios::ScenarioSpec& spec, double scale)
{
    return std::max(sim::ToSeconds(spec.warmup) * scale, 20.0) +
           std::max(sim::ToSeconds(spec.measure) * scale, 30.0);
}

/** The (machine, LC) pairs a predictive cluster fingerprints. */
void
FingerprintPairs(const cluster::ClusterConfig& cfg,
                 std::vector<std::pair<hw::MachineConfig, std::string>>* out)
{
    if (cfg.scheduler.policy != cluster::SchedulerPolicy::kPredictive ||
        !cfg.colocate || cfg.be_jobs.empty()) {
        return;
    }
    const auto add = [out](const hw::MachineConfig& m, const std::string& lc) {
        for (const auto& q : *out) {
            if (q.first == m && q.second == lc) return;
        }
        out->push_back({m, lc});
    };
    if (cfg.leaf_specs.empty()) add(cfg.machine, cfg.lc.name);
    for (const cluster::LeafSpec& l : cfg.leaf_specs) add(l.machine, l.lc.name);
}

bool
AllFinite(const sim::TimeSeries& s)
{
    return std::all_of(s.v.begin(), s.v.end(),
                       [](double v) { return std::isfinite(v); });
}

struct ChildArgs {
    const Workload* workload = nullptr;
    uint64_t seed = 0;
    int jobs = 1;
    bool trace = false;
    bool smoke = false;
    /** Stop after set-up: a probe that samples set-up time alone. */
    bool setup_only = false;
    int64_t t0_ns = 0;
    std::string trace_path;
};

/**
 * Runs one repetition: set-up (catalog, configs, the fingerprint cache),
 * then every scenario of the batch, timing each through spans. Reports
 * "value KEY NUMBER", "digest HEX" and "fail TEXT" lines, then "done",
 * on file descriptor 3.
 */
int
RunChild(const ChildArgs& a)
{
    FILE* out = fdopen(3, "w");
    if (out == nullptr) {
        std::fprintf(stderr, "child: no result channel on fd 3\n");
        return 3;
    }
    const Workload& w = *a.workload;
    Tracer tr(a.trace);
    // Both spans open at the parent's fork, so set-up includes launching
    // the process: what a user waits for before the first simulation.
    const int root = tr.Begin("workload", -1, 0, "", a.t0_ns);
    const int setup = tr.Begin("setup", root, 0, "", a.t0_ns);

    struct Planned {
        const scenarios::ScenarioSpec* spec = nullptr;
        scenarios::RunOptions opts;
        bool is_cluster = false;
        cluster::ClusterConfig cluster;
        double sim_server_s = 0.0;
        int leaves = 0;
    };
    std::vector<Planned> plan;
    for (const std::string& name : a.smoke ? w.smoke : w.scenarios) {
        Planned p;
        p.spec = &scenarios::MustFindScenario(name);
        p.opts = OptionsFor(w, a.seed, a.smoke, *p.spec);
        p.is_cluster = p.spec->topology == scenarios::Topology::kCluster;
        if (p.is_cluster) {
            p.cluster = scenarios::ClusterConfigFor(*p.spec, p.opts);
            p.cluster.jobs = a.jobs;
            p.leaves = p.cluster.leaf_specs.empty()
                           ? p.cluster.leaves
                           : static_cast<int>(p.cluster.leaf_specs.size());
            p.sim_server_s =
                p.leaves *
                sim::ToSeconds(p.cluster.target_run + p.cluster.duration);
        } else {
            p.sim_server_s = ServerSimSeconds(*p.spec, p.opts.time_scale);
        }
        plan.push_back(std::move(p));
    }
    std::vector<std::pair<hw::MachineConfig, std::string>> pairs;
    for (const Planned& p : plan) {
        if (p.is_cluster) FingerprintPairs(p.cluster, &pairs);
    }
    for (const auto& [machine, lc] : pairs) {
        const int id = tr.Begin("cluster.fingerprint", setup, 0, lc);
        cluster::FingerprintFor(machine, lc);
        tr.End(id);
    }
    tr.End(setup);
    if (a.setup_only) {
        std::fprintf(out, "value setup_s %.17g\ndone\n", tr.at(setup).Wall());
        return std::fclose(out) == 0 ? 0 : 3;
    }

    std::map<std::string, double> v;  // counters and per-layer values
    std::map<std::string, double> busy_by_lc;
    std::vector<std::string> fails;
    Digest digest;
    double emu_sum = 0.0;
    double tail_max = 0.0;
    double sim_server_s = 0.0;
    double max_run_s = 0.0;
    int max_leaves = 0;

    const auto judge = [&](const scenarios::ScenarioSpec& spec,
                           double scale, bool violated, uint64_t invariants,
                           bool finite) {
        std::string why;
        if (violated && !scenarios::ViolationExpected(spec, scale)) {
            why = "unexpected SLO violation";
        } else if (invariants > 0) {
            why = std::to_string(invariants) + " invariant violations";
        } else if (!finite) {
            why = "non-finite metric";
        }
        if (!why.empty()) fails.push_back(spec.name + ": " + why);
    };

    for (size_t i = 0; i < plan.size(); ++i) {
        const Planned& p = plan[i];
        const int run = static_cast<int>(i) + 1;
        const int sid = tr.Begin("scenario", root, run, p.spec->name);
        double emu = 0.0;
        double tail = 0.0;
        if (p.is_cluster) {
            cluster::ClusterExperiment experiment(p.cluster);
            const int t = tr.Begin("cluster.target", sid, run, p.spec->name);
            experiment.MeasureTarget();
            tr.End(t);
            const int c =
                tr.Begin("cluster.colocated", sid, run, p.spec->name);
            const cluster::ClusterResult r = experiment.Run();
            tr.End(c);
            AddToDigest(&digest, r);
            emu = r.avg_emu;
            tail = r.worst_latency_frac;
            judge(*p.spec, p.opts.time_scale, r.slo_violated,
                  r.invariant_violations,
                  std::isfinite(r.avg_emu) && std::isfinite(r.min_emu) &&
                      std::isfinite(r.worst_latency_frac) &&
                      AllFinite(r.latency_frac) && AllFinite(r.emu) &&
                      AllFinite(r.load));
            v["cluster.epochs"] += r.epochs;
            v["cluster.leaf_events"] += r.leaf_events;
            v["cluster.placements"] += r.be_placements;
            v["cluster.migrations"] += r.be_migrations;
            v["cluster.would_placements"] += r.be_would_placements;
            v["cluster.would_migrations"] += r.be_would_migrations;
            v["heracles.polls"] += r.polls;
            v["heracles.be_enables"] += r.be_enables;
            v["heracles.be_disables"] += r.be_disables;
            v["heracles.core_shrinks"] += r.core_shrinks;
            v["platform.set_cores"] += r.actuations.set_cores;
            v["platform.set_ways"] += r.actuations.set_ways;
            v["platform.set_freq_cap"] += r.actuations.set_freq_cap;
            v["platform.set_net_ceil"] += r.actuations.set_net_ceil;
            v["chaos.faulted_ops"] += r.faulted_ops;
            v["chaos.invariant_violations"] += r.invariant_violations;
            max_leaves = std::max(max_leaves, p.leaves);
        } else {
            const int s = tr.Begin("scenarios.run", sid, run, p.spec->name);
            const scenarios::ScenarioMetrics m =
                scenarios::RunScenario(*p.spec, p.opts);
            tr.End(s);
            AddToDigest(&digest, m);
            emu = m.emu;
            tail = m.tail_frac_slo;
            bool finite = true;
            for (const auto& kv : m.Kv()) {
                finite = finite && std::isfinite(kv.second);
            }
            judge(*p.spec, p.opts.time_scale, m.slo_attained == 0.0,
                  static_cast<uint64_t>(m.invariant_violations), finite);
            v["heracles.polls"] += m.polls;
            v["heracles.be_enables"] += m.be_enables;
            v["heracles.be_disables"] += m.be_disables;
            v["heracles.core_shrinks"] += m.core_shrinks;
            v["platform.set_cores"] += m.act_set_cores;
            v["platform.set_ways"] += m.act_set_ways;
            v["platform.set_freq_cap"] += m.act_set_freq_cap;
            v["platform.set_net_ceil"] += m.act_set_net_ceil;
            v["chaos.faulted_ops"] += m.faulted_ops;
            v["chaos.invariant_violations"] += m.invariant_violations;
        }
        tr.End(sid);
        const double run_s = tr.at(sid).Wall();
        max_run_s = std::max(max_run_s, run_s);
        busy_by_lc[p.spec->lc] += run_s;
        emu_sum += emu;
        if (!scenarios::ViolationExpected(*p.spec, p.opts.time_scale)) {
            tail_max = std::max(tail_max, tail);
        }
        sim_server_s += p.sim_server_s;
    }
    tr.End(root);

    const double wall = tr.at(root).Wall();
    const double setup_s = tr.at(setup).Wall();
    const double busy = tr.TotalWall("scenario");
    const double runs = static_cast<double>(plan.size());
    v["wall_s"] = wall;
    v["setup_s"] = setup_s;
    v["heracles.emu_mean"] = emu_sum / runs;
    v["tail_frac_slo_max"] = tail_max;
    v["failed"] = static_cast<double>(fails.size());

    // Per-layer attribution. Cluster phases come from their own spans;
    // on a single-server batch the runner ratios describe its
    // scenarios.run spans (serial, so about 1.0 by construction).
    double target_cpu = 0.0;
    double coloc_cpu = 0.0;
    const double target_s = tr.TotalWall("cluster.target", &target_cpu);
    const double coloc_s = tr.TotalWall("cluster.colocated", &coloc_cpu);
    double run_cpu = 0.0;
    const double run_s = tr.TotalWall("scenarios.run", &run_cpu);
    const double fingerprint_s = tr.TotalWall("cluster.fingerprint");
    const auto ratio = [](double num, double den) {
        return den > 0.0 ? num / den : 0.0;
    };
    v["cluster.target_s"] = target_s;
    v["cluster.colocated_s"] = coloc_s;
    v["cluster.target_share"] = ratio(target_s, target_s + coloc_s);
    v["cluster.leaf_events_per_s"] = ratio(v["cluster.leaf_events"], coloc_s);
    v["cluster.host_ns_per_leaf_event"] =
        ratio(1e9 * coloc_s, v["cluster.leaf_events"]);
    rusage self{};
    getrusage(RUSAGE_SELF, &self);
    v["cluster.rss_kb_per_leaf"] =
        ratio(static_cast<double>(self.ru_maxrss), max_leaves);
    v["runner.target_cpu_per_wall"] =
        plan.front().is_cluster ? ratio(target_cpu, target_s)
                                : ratio(run_cpu, run_s);
    v["runner.colocated_cpu_per_wall"] =
        plan.front().is_cluster ? ratio(coloc_cpu, coloc_s)
                                : ratio(run_cpu, run_s);
    v["cluster.fingerprint_pairs"] = static_cast<double>(pairs.size());
    v["cluster.fingerprint_s"] = fingerprint_s;
    v["cluster.fingerprint_share"] = ratio(fingerprint_s, setup_s);
    v["heracles.disables_per_enable"] =
        ratio(v["heracles.be_disables"], v["heracles.be_enables"]);
    v["platform.actuations_per_poll"] =
        ratio(v["platform.set_cores"] + v["platform.set_ways"] +
                  v["platform.set_freq_cap"] + v["platform.set_net_ceil"],
              v["heracles.polls"]);
    v["scenarios.runs"] = runs;
    v["scenarios.busy_s"] = busy;
    v["scenarios.max_run_s"] = max_run_s;
    v["scenarios.sim_server_s"] = sim_server_s;
    for (const char* lc : {"websearch", "ml_cluster", "memkeyval"}) {
        v[std::string("scenarios.busy_s_") + lc] = busy_by_lc[lc];
        v[std::string("scenarios.busy_share_") + lc] =
            ratio(busy_by_lc[lc], busy);
    }
    const std::map<std::string, double> self_times = tr.SelfTimes();
    for (const auto& [name, s] : self_times) v["self." + name] = s;
    v["scenarios.self_s"] = self_times.at("scenario");
    v["setup.self_s"] = self_times.at("setup");
    v["trace.coverage"] = ratio(setup_s + busy, wall);

    if (a.trace && !tr.WriteChromeTrace(a.trace_path, a.t0_ns)) {
        fails.push_back("cannot write " + a.trace_path);
    }
    for (const auto& [key, value] : v) {
        std::fprintf(out, "value %s %.17g\n", key.c_str(), value);
    }
    std::fprintf(out, "digest %s\n", digest.Hex().c_str());
    for (const std::string& f : fails) {
        std::fprintf(out, "fail %s\n", f.c_str());
    }
    std::fprintf(out, "done\n");
    return std::fclose(out) == 0 ? 0 : 3;
}

// ------------------------------------------------------------------------
// The orchestrator: one child process per repetition

/** What one child reported, plus its wait4() accounting. */
struct Sample {
    bool ok = false;  ///< Exited 0 and finished its report.
    std::map<std::string, double> v;
    std::string digest;
    std::vector<std::string> fails;
};

std::string g_self_exe;  ///< This binary, re-executed for each child.

/** What a child process does. */
enum class Mode {
    kPlain,      ///< One timed repetition.
    kTraced,     ///< One repetition that also records CPU and the trace.
    kSetupOnly,  ///< Set-up alone: an extra sample of set-up time.
};

/** Longest a child may run before it is killed and counted failed. */
constexpr int kChildTimeoutMs = 150 * 1000;

/** Set-up seconds spent on set-up-only probes after each repetition. */
constexpr double kProbeBudgetS = 0.25;

Sample
LaunchChild(const Workload& w, uint64_t seed, int jobs, Mode mode,
            bool smoke, const std::string& trace_path)
{
    Sample s;
    int fds[2];
    if (pipe2(fds, O_CLOEXEC) != 0) {
        s.fails.push_back(w.name + ": pipe: " + std::strerror(errno));
        return s;
    }
    const int64_t t0 = NowNs();
    std::vector<std::string> args = {
        g_self_exe,   "--child",  w.name,
        "--seed",     std::to_string(seed),
        "--jobs",     std::to_string(jobs),
        "--trace",    mode == Mode::kTraced ? "1" : "0",
        "--t0",       std::to_string(t0),
        "--trace-file", trace_path};
    if (smoke) args.push_back("--smoke");
    if (mode == Mode::kSetupOnly) args.push_back("--setup-only");
    std::vector<char*> argv;
    for (std::string& arg : args) argv.push_back(arg.data());
    argv.push_back(nullptr);

    const pid_t pid = fork();
    if (pid == 0) {
        // Results travel on fd 3; the library's own prints go to stderr
        // so they can never be mistaken for the benchmark's last line.
        if (fds[1] == 3) {
            fcntl(3, F_SETFD, 0);
        } else {
            dup2(fds[1], 3);
        }
        dup2(2, 1);
        execv(g_self_exe.c_str(), argv.data());
        _exit(127);
    }
    close(fds[1]);
    if (pid < 0) {
        close(fds[0]);
        s.fails.push_back(w.name + ": fork: " + std::strerror(errno));
        return s;
    }

    std::string text;
    bool timed_out = false;
    char buf[4096];
    for (;;) {
        const int64_t left_ms =
            kChildTimeoutMs - (NowNs() - t0) / 1000000;
        if (left_ms <= 0) {
            timed_out = true;
            break;
        }
        pollfd pfd{fds[0], POLLIN, 0};
        const int ready = poll(&pfd, 1, static_cast<int>(left_ms));
        if (ready < 0 && errno == EINTR) continue;
        if (ready <= 0) continue;
        const ssize_t n = read(fds[0], buf, sizeof buf);
        if (n < 0 && errno == EINTR) continue;
        if (n <= 0) break;
        text.append(buf, static_cast<size_t>(n));
    }
    close(fds[0]);
    if (timed_out) kill(pid, SIGKILL);
    int status = 0;
    rusage ru{};
    while (wait4(pid, &status, 0, &ru) < 0 && errno == EINTR) {
    }

    std::istringstream lines(text);
    std::string line;
    bool done = false;
    while (std::getline(lines, line)) {
        std::istringstream in(line);
        std::string kind;
        in >> kind;
        if (kind == "value") {
            std::string key;
            double value = 0.0;
            in >> key >> value;
            s.v[key] = value;
        } else if (kind == "digest") {
            in >> s.digest;
        } else if (kind == "fail") {
            s.fails.push_back(line.substr(5));
        } else if (kind == "done") {
            done = true;
        }
    }
    s.v["cpu_s"] = Seconds(ru.ru_utime) + Seconds(ru.ru_stime);
    s.v["peak_rss_mb"] = static_cast<double>(ru.ru_maxrss) / 1024.0;
    const double busy = s.v["scenarios.busy_s"];
    s.v["sim_server_s_per_s"] =
        busy > 0.0 ? s.v["scenarios.sim_server_s"] / busy : 0.0;
    s.ok = done && WIFEXITED(status) && WEXITSTATUS(status) == 0;
    if (!s.ok) {
        char why[128];
        if (timed_out) {
            std::snprintf(why, sizeof why, "killed after %d s",
                          kChildTimeoutMs / 1000);
        } else if (WIFSIGNALED(status)) {
            std::snprintf(why, sizeof why, "crashed (signal %d)",
                          WTERMSIG(status));
        } else {
            std::snprintf(why, sizeof why, "exited %d without a report",
                          WIFEXITED(status) ? WEXITSTATUS(status) : -1);
        }
        s.fails.push_back(w.name + ": child " + why);
    }
    return s;
}

double
Median(std::vector<double> x)
{
    if (x.empty()) return 0.0;
    std::sort(x.begin(), x.end());
    const size_t n = x.size();
    return n % 2 == 1 ? x[n / 2] : 0.5 * (x[n / 2 - 1] + x[n / 2]);
}

/** Median, min and max of one metric over samples. */
struct Stat {
    double median = 0.0;
    double min = 0.0;
    double max = 0.0;
};

Stat
StatOf(const std::vector<double>& x)
{
    if (x.empty()) return {};
    const auto [lo, hi] = std::minmax_element(x.begin(), x.end());
    return {Median(x), *lo, *hi};
}

Stat
StatOf(const std::vector<Sample>& samples, const std::string& key)
{
    std::vector<double> x;
    for (const Sample& s : samples) {
        if (!s.ok) continue;
        const auto it = s.v.find(key);
        if (it != s.v.end()) x.push_back(it->second);
    }
    return StatOf(x);
}

/** Every repetition of one workload. */
struct WorkloadRuns {
    const Workload* workload = nullptr;
    std::vector<Sample> plain;
    std::vector<Sample> traced;
    /** Set-up seconds of every repetition and set-up probe. */
    std::vector<double> setups;
    int attempted = 0;
    int failed = 0;
    std::set<std::string> digests;
    std::vector<std::string> fails;

    /** Records a set-up probe (one attempted operation). */
    void
    AddProbe(Sample s)
    {
        ++attempted;
        if (s.ok) {
            setups.push_back(s.v["setup_s"]);
        } else {
            ++failed;
        }
        for (const std::string& f : s.fails) fails.push_back(f);
    }

    void
    Add(Sample s, bool traced_run, size_t runs)
    {
        if (s.ok && !traced_run) setups.push_back(s.v["setup_s"]);
        attempted += static_cast<int>(runs);
        failed += s.ok ? static_cast<int>(s.v["failed"])
                       : static_cast<int>(runs);
        if (!s.digest.empty()) digests.insert(s.digest);
        for (const std::string& f : s.fails) fails.push_back(f);
        (traced_run ? traced : plain).push_back(std::move(s));
    }

    /** An end-to-end metric over the untraced repetitions (set-up time
     *  also over the probes). */
    Stat
    EndToEnd(const std::string& name) const
    {
        return name == "setup_s" ? StatOf(setups) : StatOf(plain, name);
    }

    /** The per-layer values: medians over the traced repetitions. */
    std::map<std::string, Stat>
    PerLayer() const
    {
        std::map<std::string, Stat> out;
        for (const auto* defs : {&kPerLayer, &kPerLayerExtra}) {
            for (const MetricDef& d : *defs) {
                out[d.name] = StatOf(traced, d.name);
            }
        }
        const double plain_wall = StatOf(plain, "wall_s").median;
        std::vector<double> overhead;
        for (const Sample& s : traced) {
            if (!s.ok || plain_wall <= 0.0) continue;
            overhead.push_back(s.v.at("wall_s") / plain_wall - 1.0);
        }
        out["trace.overhead_frac"] = StatOf(overhead);
        return out;
    }

    /** Problems beyond failed scenario runs: nondeterminism, coverage. */
    std::vector<std::string>
    Problems() const
    {
        std::vector<std::string> out;
        if (digests.size() > 1) {
            out.push_back(workload->name +
                          ": repetitions of one seed disagree (" +
                          std::to_string(digests.size()) + " digests)");
        }
        for (const Sample& s : traced) {
            const auto it = s.v.find("trace.coverage");
            if (s.ok &&
                (it == s.v.end() || std::fabs(it->second - 1.0) > 0.02)) {
                out.push_back(workload->name +
                              ": set-up and scenario spans cover less than "
                              "98% of the traced wall");
            }
        }
        return out;
    }

    /** A child that did not finish counts all its runs as failed. */
    bool Correct() const { return failed == 0 && Problems().empty(); }
};

// ------------------------------------------------------------------------
// The correctness gate

/**
 * Runs @p names at golden scale and compares each against
 * tests/golden/<name>.json. Returns the number of scenarios checked;
 * failures are appended to @p fails.
 */
int
RunCheck(const std::vector<std::string>& names, int jobs,
         std::vector<std::string>* fails)
{
    std::vector<scenarios::ScenarioSpec> specs;
    for (const std::string& name : names) {
        specs.push_back(scenarios::MustFindScenario(name));
    }
    const scenarios::RunOptions golden = scenarios::RunOptions::Golden();
    const std::vector<scenarios::ScenarioMetrics> got =
        scenarios::RunScenarios(specs, golden, jobs);
    for (size_t i = 0; i < specs.size(); ++i) {
        const std::string path =
            std::string(HERACLES_GOLDEN_DIR) + "/" + specs[i].name + ".json";
        std::ifstream in(path);
        std::stringstream buf;
        buf << in.rdbuf();
        scenarios::ScenarioMetrics want;
        std::vector<std::string> mismatches;
        if (!in.good() || !scenarios::MetricsFromJson(buf.str(), &want)) {
            fails->push_back("check " + specs[i].name +
                             ": missing or malformed " + path);
        } else if (!scenarios::WithinTolerance(got[i], want, &mismatches)) {
            for (const std::string& m : mismatches) {
                fails->push_back("check " + m);
            }
        } else if (got[i].invariant_violations > 0.0) {
            fails->push_back("check " + specs[i].name +
                             ": invariant violations");
        } else if (got[i].slo_attained == 0.0 &&
                   !scenarios::ViolationExpected(specs[i],
                                                 golden.time_scale)) {
            fails->push_back("check " + specs[i].name +
                             ": unexpected SLO violation");
        }
    }
    return static_cast<int>(specs.size());
}

// ------------------------------------------------------------------------
// Reporting

const char*
UnitOf(const std::string& name)
{
    for (const auto* defs : {&kEndToEnd, &kPerLayer, &kPerLayerExtra}) {
        for (const MetricDef& d : *defs) {
            if (name == d.name) return d.unit;
        }
    }
    return "s";  // self.<span> times
}

void
PrintRow(const std::string& name, const Stat& s)
{
    std::printf("  %-34s %14.6g %14.6g %14.6g  %s\n", name.c_str(), s.median,
                s.min, s.max, UnitOf(name));
}

void
PrintWorkload(const WorkloadRuns& r, bool trace)
{
    const Workload& w = *r.workload;
    std::printf("\nworkload %s: %zu reps, %d runs attempted, %d failed, "
                "sim_digest %s\n",
                w.name.c_str(), r.plain.size(), r.attempted, r.failed,
                r.digests.empty() ? "-" : r.digests.begin()->c_str());
    std::printf("  %-34s %14s %14s %14s  %s\n", "end-to-end", "median", "min",
                "max", "unit");
    for (const MetricDef& d : kEndToEnd) PrintRow(d.name, r.EndToEnd(d.name));
    if (trace) {
        std::printf("  %-34s %14s %14s %14s  %s\n", "per-layer (traced)",
                    "median", "min", "max", "unit");
        for (const auto& [name, s] : r.PerLayer()) PrintRow(name, s);
        const double wall = StatOf(r.traced, "wall_s").median;
        std::printf("  %-34s %14s %14s\n", "self time per span", "median s",
                    "share of wall");
        for (const std::string& span : kSpanNames) {
            const double self = StatOf(r.traced, "self." + span).median;
            std::printf("  %-34s %14.6g %14.4f\n", span.c_str(), self,
                        wall > 0.0 ? self / wall : 0.0);
        }
    }
    for (const std::string& f : r.fails) std::printf("  FAIL %s\n", f.c_str());
    for (const std::string& p : r.Problems()) {
        std::printf("  FAIL %s\n", p.c_str());
    }
}

std::string
JsonString(const std::string& s)
{
    std::string out = "\"";
    for (const char c : s) {
        if (c == '"' || c == '\\') out += '\\';
        out += c;
    }
    return out + "\"";
}

std::string
JsonStats(const std::map<std::string, Stat>& stats, const char* indent)
{
    std::string out = "{";
    const char* sep = "\n";
    for (const auto& [name, s] : stats) {
        char line[256];
        std::snprintf(line, sizeof line,
                      "%s%s  %s: {\"median\": %.17g, \"min\": %.17g, "
                      "\"max\": %.17g, \"unit\": \"%s\"}",
                      sep, indent, JsonString(name).c_str(), s.median, s.min,
                      s.max, UnitOf(name));
        out += line;
        sep = ",\n";
    }
    return out + "\n" + indent + "}";
}

/** Writes results.json: every statistic of every workload. */
bool
WriteResults(const std::string& path, const std::vector<WorkloadRuns>& runs,
             uint64_t seed, int reps, int jobs, bool trace, int check_runs,
             const std::vector<std::string>& check_fails)
{
    std::ofstream out(path);
    if (!out.good()) return false;
    out << "{\n  \"schema\": 1,\n  \"seed\": " << seed
        << ",\n  \"reps\": " << reps << ",\n  \"jobs\": " << jobs
        << ",\n  \"trace\": " << (trace ? "true" : "false")
        << ",\n  \"check\": {\"scenarios\": " << check_runs
        << ", \"failed\": " << check_fails.size() << "},\n  \"workloads\": {";
    for (size_t i = 0; i < runs.size(); ++i) {
        const WorkloadRuns& r = runs[i];
        std::map<std::string, Stat> e2e;
        for (const MetricDef& d : kEndToEnd) e2e[d.name] = r.EndToEnd(d.name);
        std::map<std::string, Stat> self;
        for (const std::string& span : kSpanNames) {
            self[span] = StatOf(r.traced, "self." + span);
        }
        std::string fails;
        for (const std::string& f : r.fails) {
            fails += (fails.empty() ? "" : ", ") + JsonString(f);
        }
        out << (i == 0 ? "\n" : ",\n") << "    " << JsonString(r.workload->name)
            << ": {\n      \"reps\": " << r.plain.size()
            << ",\n      \"traced_reps\": " << r.traced.size()
            << ",\n      \"runs\": " << r.attempted
            << ",\n      \"failed_runs\": " << r.failed
            << ",\n      \"correct\": " << (r.Correct() ? "true" : "false")
            << ",\n      \"sim_digest\": "
            << JsonString(r.digests.empty() ? "" : *r.digests.begin())
            << ",\n      \"failures\": [" << fails << "]"
            << ",\n      \"end_to_end\": " << JsonStats(e2e, "      ");
        if (trace) {
            out << ",\n      \"per_layer\": "
                << JsonStats(r.PerLayer(), "      ")
                << ",\n      \"self_time_s\": " << JsonStats(self, "      ");
        }
        out << "\n    }";
    }
    out << "\n  }\n}\n";
    return out.good();
}

/** The last line: {"correct", "attempted", "failed", "metrics"}. */
void
PrintSummaryLine(const std::vector<WorkloadRuns>& runs, bool trace,
                 bool correct, int attempted, int failed)
{
    std::string metrics;
    for (const WorkloadRuns& r : runs) {
        const std::string prefix =
            runs.size() > 1 ? r.workload->name + "." : "";
        std::map<std::string, Stat> layer;
        if (trace) layer = r.PerLayer();
        for (const MetricDef& d : trace ? kPerLayer : kEndToEnd) {
            const double value =
                trace ? layer[d.name].median : r.EndToEnd(d.name).median;
            char item[256];
            std::snprintf(item, sizeof item,
                          "%s\"%s%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                          metrics.empty() ? "" : ", ", prefix.c_str(), d.name,
                          value, d.unit);
            metrics += item;
        }
    }
    std::printf("{\"correct\": %s, \"attempted\": %d, \"failed\": %d, "
                "\"metrics\": {%s}}\n",
                correct ? "true" : "false", attempted, failed,
                metrics.c_str());
}

// ------------------------------------------------------------------------
// Command line

int
AvailableCpus()
{
    cpu_set_t set;
    CPU_ZERO(&set);
    if (sched_getaffinity(0, sizeof set, &set) == 0) {
        return std::max(CPU_COUNT(&set), 1);
    }
    return std::max(static_cast<int>(sysconf(_SC_NPROCESSORS_ONLN)), 1);
}

[[noreturn]] void
UsageError(const std::string& msg)
{
    std::fprintf(stderr,
                 "error: %s\nusage: heracles_bench [--workload NAME|all] "
                 "[--seed N] [--reps N] [--seconds S] [--jobs N] "
                 "[--trace 0|1] [--check] [--smoke] [--out FILE]\n",
                 msg.c_str());
    std::exit(2);
}

/** Strict unsigned parse: digits only, no overflow. */
bool
ParseUint(const char* v, uint64_t* out)
{
    if (*v == '\0') return false;
    for (const char* p = v; *p != '\0'; ++p) {
        if (*p < '0' || *p > '9') return false;
    }
    errno = 0;
    *out = std::strtoull(v, nullptr, 10);
    return errno == 0;
}

int
ParsePositiveInt(const std::string& flag, const char* v)
{
    uint64_t n = 0;
    if (!ParseUint(v, &n) || n == 0 || n > 1000000) {
        UsageError(flag + " wants a positive integer, got '" + v + "'");
    }
    return static_cast<int>(n);
}

/** Checks what --smoke promises: every path ran and every field is set. */
std::vector<std::string>
SmokeProblems(const std::vector<WorkloadRuns>& runs,
              const std::string& out_dir, const std::string& results,
              int check_runs)
{
    std::vector<std::string> bad;
    for (const WorkloadRuns& r : runs) {
        const std::string& name = r.workload->name;
        if (r.plain.size() != 1 || r.traced.size() != 1) {
            bad.push_back(name + ": expected one plain and one traced rep");
        }
        for (const MetricDef& d : kEndToEnd) {
            const double v = r.EndToEnd(d.name).median;
            if (!std::isfinite(v) || v <= 0.0) {
                bad.push_back(name + ": " + d.name + " not positive");
            }
        }
        for (const auto& [metric, s] : r.PerLayer()) {
            if (!std::isfinite(s.median)) {
                bad.push_back(name + ": " + metric + " not finite");
            }
        }
        const std::string trace = out_dir + "/trace_" + name + ".json";
        std::ifstream in(trace);
        std::string head;
        in >> head;
        if (head.rfind("{\"traceEvents\":[", 0) != 0) {
            bad.push_back(name + ": no Chrome trace at " + trace);
        }
    }
    if (!std::filesystem::exists(results)) bad.push_back("no " + results);
    if (check_runs == 0) bad.push_back("the golden check did not run");
    return bad;
}

}  // namespace

int
main(int argc, char** argv)
{
    std::string workload_name = "all";
    uint64_t seed = 0;
    int reps = 3;
    double seconds = 0.0;
    const int cpus = AvailableCpus();
    int jobs = std::min(4, cpus);
    bool trace = false;
    bool check = false;
    bool smoke = false;
    bool setup_only = false;
    std::string out_path = std::string(HERACLES_BENCH_OUT) + "/results.json";
    // Internal: set by the orchestrator when it re-executes itself.
    std::string child;
    int64_t t0_ns = 0;
    std::string trace_file;

    for (int i = 1; i < argc; ++i) {
        const std::string flag = argv[i];
        if (flag == "--check") {
            check = true;
            continue;
        }
        if (flag == "--smoke") {
            smoke = true;
            continue;
        }
        if (flag == "--setup-only") {  // internal, like --child
            setup_only = true;
            continue;
        }
        if (i + 1 >= argc) UsageError("unknown flag or missing value: " + flag);
        const char* v = argv[++i];
        if (flag == "--workload") {
            workload_name = v;
        } else if (flag == "--seed") {
            if (!ParseUint(v, &seed)) {
                UsageError(std::string("--seed wants a non-negative integer, "
                                       "got '") + v + "'");
            }
        } else if (flag == "--reps") {
            reps = ParsePositiveInt(flag, v);
        } else if (flag == "--jobs") {
            jobs = ParsePositiveInt(flag, v);
            if (jobs > cpus) {
                UsageError("--jobs " + std::to_string(jobs) + " exceeds the " +
                           std::to_string(cpus) + " CPUs available");
            }
        } else if (flag == "--seconds") {
            char* end = nullptr;
            seconds = std::strtod(v, &end);
            if (end == v || *end != '\0' || !std::isfinite(seconds) ||
                seconds < 0.0) {
                UsageError(std::string("--seconds wants a non-negative "
                                       "number, got '") + v + "'");
            }
        } else if (flag == "--trace") {
            if (std::strcmp(v, "0") != 0 && std::strcmp(v, "1") != 0) {
                UsageError(std::string("--trace wants 0 or 1, got '") + v +
                           "'");
            }
            trace = v[0] == '1';
        } else if (flag == "--out") {
            out_path = v;
        } else if (flag == "--child") {
            child = v;
        } else if (flag == "--t0") {
            uint64_t t = 0;
            if (!ParseUint(v, &t)) UsageError("bad --t0");
            t0_ns = static_cast<int64_t>(t);
        } else if (flag == "--trace-file") {
            trace_file = v;
        } else {
            UsageError("unknown flag: " + flag);
        }
    }

    if (!child.empty()) {
        ChildArgs a;
        a.workload = FindWorkload(child);
        if (a.workload == nullptr || t0_ns == 0) UsageError("bad --child");
        a.seed = seed;
        a.jobs = jobs;
        a.trace = trace;
        a.smoke = smoke;
        a.setup_only = setup_only;
        a.t0_ns = t0_ns;
        a.trace_path = trace_file;
        return RunChild(a);
    }

    std::vector<const Workload*> selected;
    if (workload_name == "all") {
        for (const Workload& w : AllWorkloads()) selected.push_back(&w);
    } else if (const Workload* w = FindWorkload(workload_name)) {
        selected.push_back(w);
    } else {
        std::string names;
        for (const Workload& w : AllWorkloads()) names += " " + w.name;
        UsageError("unknown workload '" + workload_name + "' (want all or" +
                   names + ")");
    }
    if (smoke) {
        reps = 1;
        seconds = 0.0;
        trace = true;
        check = true;
    }

    char exe[4096];
    const ssize_t len = readlink("/proc/self/exe", exe, sizeof exe - 1);
    if (len <= 0) {
        std::fprintf(stderr, "cannot resolve /proc/self/exe\n");
        return 2;
    }
    g_self_exe.assign(exe, static_cast<size_t>(len));
    // Library code that sizes a pool from the environment obeys --jobs.
    setenv("HERACLES_JOBS", std::to_string(jobs).c_str(), 1);
    const std::string out_dir =
        std::filesystem::path(out_path).parent_path().string();
    std::error_code ec;
    if (!out_dir.empty()) std::filesystem::create_directories(out_dir, ec);

    std::vector<WorkloadRuns> runs;
    for (const Workload* w : selected) {
        runs.emplace_back();
        runs.back().workload = w;
    }
    const auto trace_path = [&](const Workload& w) {
        return (out_dir.empty() ? std::string(".") : out_dir) + "/trace_" +
               w.name + ".json";
    };
    const int64_t start = NowNs();
    for (int rep = 0;
         rep < reps || 1e-9 * static_cast<double>(NowNs() - start) < seconds;
         ++rep) {
        // Rotate the order each rep so no workload always runs first.
        for (size_t k = 0; k < runs.size(); ++k) {
            WorkloadRuns& r =
                runs[(k + static_cast<size_t>(rep)) % runs.size()];
            const Workload& w = *r.workload;
            const size_t n = (smoke ? w.smoke : w.scenarios).size();
            for (const bool traced : {false, true}) {
                if (traced && !trace) continue;
                Sample s = LaunchChild(w, seed, jobs,
                                       traced ? Mode::kTraced : Mode::kPlain,
                                       smoke, trace_path(w));
                std::fprintf(stderr,
                             "[bench] %s rep %d%s: wall %.4f s, setup "
                             "%.4f s, cpu %.4f s, rss %.2f MB%s\n",
                             w.name.c_str(), rep + 1,
                             traced ? " traced" : "", s.v["wall_s"],
                             s.v["setup_s"], s.v["cpu_s"],
                             s.v["peak_rss_mb"],
                             s.ok && s.fails.empty() ? "" : " FAILED");
                const double setup_s = s.v["setup_s"];
                r.Add(std::move(s), traced, n);
                // Cheap set-ups (everything but cold fingerprint grids)
                // take milliseconds and jitter with process launch, so
                // each rep adds set-up-only probes for a steady median.
                if (traced || setup_s <= 0.0 ||
                    setup_s > kProbeBudgetS / 10) {
                    continue;
                }
                for (double spent = 0.0; spent < kProbeBudgetS;) {
                    Sample probe = LaunchChild(w, seed, jobs,
                                               Mode::kSetupOnly, smoke, "");
                    spent += probe.ok ? probe.v["setup_s"] : kProbeBudgetS;
                    r.AddProbe(std::move(probe));
                }
            }
        }
    }

    std::vector<std::string> check_fails;
    int check_runs = 0;
    if (check) {
        // --smoke checks one single-server and one cluster scenario:
        // the same comparison, without the cost of the whole set.
        std::vector<std::string> names = {"websearch_brain_heracles",
                                          "cluster_websearch_heracles"};
        if (!smoke) {
            names.clear();
            for (const Workload* w : selected) {
                names.insert(names.end(), w->scenarios.begin(),
                             w->scenarios.end());
            }
        }
        check_runs = RunCheck(names, jobs, &check_fails);
        std::fprintf(stderr, "[bench] check: %d scenarios, %zu failures\n",
                     check_runs, check_fails.size());
    }

    bool correct = check_fails.empty();
    int attempted = check_runs;
    int failed = static_cast<int>(check_fails.size());
    std::printf("heracles benchmark: seed %llu, jobs %d, at least %d reps%s\n",
                static_cast<unsigned long long>(seed), jobs, reps,
                trace ? ", traced" : "");
    std::printf("simulated metrics are unvalidated: the repository holds no "
                "real-hardware reference\n");
    for (const WorkloadRuns& r : runs) {
        PrintWorkload(r, trace);
        correct = correct && r.Correct();
        attempted += r.attempted;
        failed += r.failed;
    }
    for (const std::string& f : check_fails) {
        std::printf("FAIL %s\n", f.c_str());
    }
    if (!WriteResults(out_path, runs, seed, reps, jobs, trace, check_runs,
                      check_fails)) {
        std::fprintf(stderr, "cannot write %s\n", out_path.c_str());
        correct = false;
    }
    if (smoke) {
        for (const std::string& p :
             SmokeProblems(runs, out_dir, out_path, check_runs)) {
            std::printf("SMOKE %s\n", p.c_str());
            correct = false;
        }
    }
    PrintSummaryLine(runs, trace, correct, attempted, failed);
    return correct ? 0 : 1;
}
