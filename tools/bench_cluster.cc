/**
 * @file
 * Records the cluster epoch engine's throughput baseline as
 * BENCH_cluster.json (schema in docs/performance.md).
 *
 * One run executes a cluster scenario end to end (target-defining run
 * plus the colocated trace) twice — once with the leaf fan-out serial
 * (jobs=1) and once at --jobs — wall-clocking each pass and verifying
 * the two produce bit-identical results, which is the epoch engine's
 * core contract. The record carries the scenario's shape (leaves,
 * topology), its epoch/event counts, per-pass throughput
 * (epochs/s, aggregate leaf events/s), per-pass host time in the serial
 * barrier section, in the arrival pump inside it and in the leaf
 * fan-out, and the parallel speedup. The passes differ in jobs, which
 * the memoized target-defining run keys on, so each pass runs its own.
 *
 * Usage: bench_cluster [--scenario NAME] [--scale F] [--jobs N]
 *                      [--leaves N] [--out FILE]
 *   --scenario  cluster scenario to drive (default
 *               cluster_scale_rack_sharded, the 1024-leaf pod)
 *   --scale     time scale for the scenario's phases (default 1.0)
 *   --jobs      width of the parallel pass, at least 2 (default:
 *               hardware concurrency, at least 2)
 *   --leaves    overrides the scenario's leaf count (scenarios that pin
 *               their shape with fixed_leaves ignore this)
 *   --out       output path (default BENCH_cluster.json)
 *
 * Exit codes: 0 recorded; 1 the two passes were not bit-identical
 * (a determinism regression — the record is still written, flagged);
 * 2 usage/IO error.
 */
#include <algorithm>
#include <cstdio>
#include <cstring>
#include <limits>
#include <string>

#include "bench_common.h"
#include "cluster/cluster.h"
#include "cluster/topology.h"
#include "flags.h"
#include "scenarios/registry.h"
#include "scenarios/runner.h"
#include "sim/json.h"
#include "sim/stats.h"

using namespace heracles;

namespace {

bool
SameSeries(const sim::TimeSeries& a, const sim::TimeSeries& b)
{
    return a.t == b.t && a.v == b.v;
}

/** Bit-exact equality of everything a cluster run simulates (the
 *  host-time fields barrier_s, pump_s and fanout_s are not results). */
bool
SameResult(const cluster::ClusterResult& a, const cluster::ClusterResult& b)
{
    return static_cast<const exp::ActivityCounters&>(a) == b &&
           SameSeries(a.latency_frac, b.latency_frac) &&
           SameSeries(a.emu, b.emu) && SameSeries(a.load, b.load) &&
           a.worst_latency_frac == b.worst_latency_frac &&
           a.slo_violated == b.slo_violated && a.avg_emu == b.avg_emu &&
           a.min_emu == b.min_emu && a.target == b.target &&
           a.leaf_target == b.leaf_target &&
           a.be_placements == b.be_placements &&
           a.be_migrations == b.be_migrations &&
           a.be_would_placements == b.be_would_placements &&
           a.be_would_migrations == b.be_would_migrations &&
           a.epochs == b.epochs && a.leaf_events == b.leaf_events;
}

}  // namespace

int
main(int argc, char** argv)
{
    std::string scenario_name = "cluster_scale_rack_sharded";
    double scale = 1.0;
    // The parallel pass must be parallel: at width 1 both passes would
    // share one target-run key, and the second would read the first's
    // memoized run instead of repeating it.
    int jobs = std::max(2, runner::DefaultJobs());
    int leaves = 0;
    std::string out_path = "BENCH_cluster.json";
    for (int i = 1; i < argc; ++i) {
        if (!std::strcmp(argv[i], "--scenario") && i + 1 < argc) {
            scenario_name = argv[++i];
        } else if (!std::strcmp(argv[i], "--scale") && i + 1 < argc) {
            scale = tools::ParseNumber("--scale", argv[++i],
                                       "a positive number up to 1000",
                                       tools::kPositive, 1000.0);
        } else if (!std::strcmp(argv[i], "--jobs") && i + 1 < argc) {
            jobs = static_cast<int>(tools::ParseNumber(
                "--jobs", argv[++i], "a positive integer of at least 2", 2,
                std::numeric_limits<int>::max(), /*integer=*/true));
        } else if (!std::strcmp(argv[i], "--leaves") && i + 1 < argc) {
            leaves = tools::ParsePositiveInt("--leaves", argv[++i]);
        } else if (!std::strcmp(argv[i], "--out") && i + 1 < argc) {
            out_path = argv[++i];
        } else {
            std::fprintf(stderr,
                         "usage: %s [--scenario NAME] [--scale F] "
                         "[--jobs N] [--leaves N] [--out FILE]\n",
                         argv[0]);
            return 2;
        }
    }
    const scenarios::ScenarioSpec& spec =
        scenarios::MustFindScenario(scenario_name);
    scenarios::RunOptions opts;
    opts.time_scale = scale;
    if (leaves > 0) opts.cluster_leaves = leaves;

    cluster::ClusterConfig base = scenarios::ClusterConfigFor(spec, opts);
    const size_t leaf_count = base.leaf_specs.empty()
                                  ? static_cast<size_t>(base.leaves)
                                  : base.leaf_specs.size();

    const int widths[2] = {1, jobs};
    cluster::ClusterResult results[2];
    double wall[2] = {0.0, 0.0};
    for (int p = 0; p < 2; ++p) {
        cluster::ClusterConfig cfg = base;
        cfg.jobs = widths[p];
        cluster::ClusterExperiment experiment(std::move(cfg));
        wall[p] =
            bench::WallSeconds([&] { results[p] = experiment.Run(); });
        std::fprintf(stderr,
                     "jobs=%d: %.2fs wall (%.2fs barrier of which "
                     "%.2fs pump, %.2fs fan-out), %llu epochs, %llu "
                     "leaf events\n",
                     widths[p], wall[p], results[p].barrier_s,
                     results[p].pump_s, results[p].fanout_s,
                     static_cast<unsigned long long>(results[p].epochs),
                     static_cast<unsigned long long>(
                         results[p].leaf_events));
    }
    const bool identical = SameResult(results[0], results[1]);
    if (!identical) {
        std::fprintf(stderr,
                     "DETERMINISM REGRESSION: jobs=1 and jobs=%d "
                     "disagree\n",
                     jobs);
    }

    sim::JsonWriter w;
    w.BeginObject();
    w.Key("bench").String("cluster_epoch");
    w.Key("scenario").String(scenario_name);
    w.Key("scale").Number(scale);
    w.Key("leaves").Int(static_cast<int64_t>(leaf_count));
    w.Key("topology").String(
        cluster::Topology(static_cast<int>(leaf_count), base.shards,
                          base.rack_size, base.seed)
            .Name());
    w.Key("epochs").Int(static_cast<int64_t>(results[0].epochs));
    w.Key("leaf_events").Int(static_cast<int64_t>(results[0].leaf_events));
    w.Key("runs").BeginArray();
    for (int p = 0; p < 2; ++p) {
        w.BeginObject();
        w.Key("jobs").Int(widths[p]);
        w.Key("wall_s").Number(wall[p]);
        w.Key("epochs_per_sec")
            .Number(static_cast<double>(results[p].epochs) / wall[p]);
        w.Key("events_per_sec")
            .Number(static_cast<double>(results[p].leaf_events) / wall[p]);
        w.Key("barrier_s").Number(results[p].barrier_s);
        w.Key("pump_s").Number(results[p].pump_s);
        w.Key("fanout_s").Number(results[p].fanout_s);
        w.Key("barrier_share").Number(results[p].barrier_s / wall[p]);
        w.EndObject();
    }
    w.EndArray();
    w.Key("speedup").Number(wall[1] > 0.0 ? wall[0] / wall[1] : 0.0);
    w.Key("bit_identical").Bool(identical);
    w.EndObject();

    if (!bench::EmitRecord(w.str(), out_path)) return 2;
    return identical ? 0 : 1;
}
