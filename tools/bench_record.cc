/**
 * @file
 * Records the simulation-core performance baseline as BENCH_sim_core.json.
 *
 * One run produces the whole record (schema in docs/performance.md):
 *  - the full scenario catalog end to end (`--scenario all` semantics) at
 *    --scale on one worker thread, wall-clocked per catalog (with the
 *    top-5 slowest scenarios recorded individually) and checked for
 *    unexpected SLO violations;
 *  - the event-queue microbench on the pooled production queue, with
 *    allocs/event;
 *  - the streaming-tail stats microbench;
 *  - the machine-arbitration microbench: one colocated server under a
 *    controller-like actuation cadence, run with the incremental
 *    resolver and with the retained naive full-resolve reference, so
 *    the record shows events/sec, (full) resolves/event and busy
 *    solves per resolve for both, plus an idle window with no
 *    actuations that records heap allocations, busy solves and host
 *    nanoseconds per epoch resolve.
 *
 * Usage: bench_record [--scale F] [--events N] [--reps N] [--out FILE]
 *   --scale   time scale for the catalog pass (default 1.0 = full phases;
 *             CI smoke runs use a small fraction)
 *   --events  fires per event-queue run, samples per stats run
 *             (default 2000000)
 *   --reps    times each measurement is taken (default 1). Above 1, every
 *             timed field is the median over the reps, with its min and
 *             max beside it as FIELD_min / FIELD_max. The catalog pass
 *             repeats in forked child processes, each as cold as the
 *             first (target runs, alone rates and fingerprints are
 *             memoized per process); the microbenches repeat in this
 *             process, naive and incremental arbitration alternating.
 *
 * The microbenches run first, then the catalog pass; the record's
 * layout is the same either way.
 *   --out     output path (default BENCH_sim_core.json)
 *
 * The violation verdict is shared with heracles_sim: the abrupt
 * step/flash scenarios violate transiently once the run is long enough
 * for the reactive controller to be caught fully grown
 * (ScenarioSpec::expect_violation_at_scale), so those are *expected* at
 * full scale and the record's unexpected_slo_violations counts only
 * genuine regressions — CI asserts zero at smoke scale and the full-
 * scale record now pins zero too.
 *
 * Exit codes: 0 recorded; 2 usage/IO error (a failed child pass
 * included).
 */
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <initializer_list>
#include <numeric>
#include <string>
#include <utility>
#include <vector>

#include "flags.h"
#include "hw/machine.h"
#include "platform/sim_platform.h"
#include "scenarios/registry.h"
#include "scenarios/runner.h"
#include "sim/json.h"
#include "sim/random.h"
#include "sim_core_bench.h"
#include "workloads/antagonists.h"
#include "workloads/be_task.h"
#include "workloads/lc_app.h"
#include "workloads/lc_configs.h"

HERACLES_BENCH_DEFINE_ALLOC_COUNTER()

using namespace heracles;

namespace {

/** One machine-arbitration measurement under one resolver mode. */
struct ArbRun {
    double wall_s = 0.0;
    uint64_t events = 0;      ///< Queue events fired during the run.
    uint64_t resolves = 0;    ///< Machine::resolves() at the end.
    uint64_t recomputes = 0;  ///< Machine::demand_recomputes() at the end.
    uint64_t busy_solves = 0;  ///< Machine::busy_solves() at the end.
    // The idle window: no actuations, so every resolve is an epoch tick.
    double idle_wall_s = 0.0;
    uint64_t idle_resolves = 0;
    uint64_t idle_busy_solves = 0;
    uint64_t idle_allocs = 0;  ///< Heap allocations during the window.
};

hw::MachineConfig
ArbConfig()
{
    hw::MachineConfig cfg;
    cfg.seed = 20260809;
    return cfg;
}

/** One colocated server (websearch LC + brain BE) under one resolver. */
struct ArbRig {
    sim::EventQueue queue;
    hw::Machine machine;
    workloads::LcApp lc;
    workloads::BeTask be;
    platform::SimPlatform plat;

    ArbRig(bool naive, double load)
        : machine(ArbConfig(), queue),
          lc(machine, workloads::Websearch(), /*seed=*/7),
          be(machine, workloads::Brain()),
          plat(machine, lc, &be)
    {
        machine.SetNaiveArbitration(naive);
        plat.ApplyInitialPlacement();
        lc.SetLoad(load);
        lc.Start();
    }
};

/**
 * Drives one colocated server through a seeded controller-like churn of
 * actuations and utilization reads — the same op mix
 * tests/machine_equivalence_test.cc pins bit-identical across resolver
 * modes — and reports events/sec plus how many resolves ran the full
 * LLC/DRAM/NIC demand pipeline. With @p naive the machine uses the
 * retained eager full-recompute resolver, so the two runs bracket
 * exactly what incremental arbitration saves.
 *
 * A second, idle rig (LC load 0, half the cores given to BE, then 200 s
 * of simulated time with no actuations) isolates the per-epoch resolve:
 * its heap allocations and host time per resolve. 8000 resolves keep
 * the naive / incremental ratio of host time steady from run to run.
 */
ArbRun
RunArbitrationChurn(bool naive, int steps)
{
    ArbRig rig(naive, /*load=*/0.7);
    const hw::MachineConfig& cfg = rig.machine.config();
    sim::Rng churn(4242);
    const int total_cores = cfg.TotalCores();
    const int total_ways = cfg.llc_ways;
    ArbRun r;
    r.wall_s = bench::WallSeconds([&] {
        for (int step = 0; step < steps; ++step) {
            switch (churn.UniformInt(6)) {
            case 0:
                rig.plat.SetBeCores(
                    static_cast<int>(churn.UniformInt(total_cores)));
                break;
            case 1:
                rig.plat.SetBeWays(
                    static_cast<int>(churn.UniformInt(total_ways)));
                break;
            case 2:
                rig.plat.SetBeFreqCapGhz(
                    churn.Uniform(cfg.min_ghz, cfg.turbo_1c_ghz));
                break;
            case 3:
                rig.plat.SetBeNetCeilGbps(
                    churn.Bernoulli(0.3)
                        ? -1.0
                        : churn.Uniform(0.5, cfg.nic_gbps));
                break;
            case 4:
                rig.be.SetDemandScale(churn.Uniform(0.2, 1.5));
                break;
            default:
                // The controller's utilization read: a busy-counter
                // delta that does not touch the machine.
                (void)rig.plat.LcCpuUtilization();
                break;
            }
            rig.queue.RunFor(
                sim::Millis(1 + static_cast<int>(churn.UniformInt(400))));
        }
    });
    r.events = rig.queue.executed();
    r.resolves = rig.machine.resolves();
    r.recomputes = rig.machine.demand_recomputes();
    r.busy_solves = rig.machine.busy_solves();

    ArbRig idle(naive, /*load=*/0.0);
    idle.plat.SetBeCores(total_cores / 2);
    // One second first, so the window excludes the actuation and the
    // first-resolve growth of the reused scratch buffers.
    idle.queue.RunFor(sim::Seconds(1));
    const uint64_t resolves0 = idle.machine.resolves();
    const uint64_t busy_solves0 = idle.machine.busy_solves();
    const uint64_t allocs0 = bench::AllocCount();
    r.idle_wall_s =
        bench::WallSeconds([&] { idle.queue.RunFor(sim::Seconds(200)); });
    r.idle_allocs = bench::AllocCount() - allocs0;
    r.idle_resolves = idle.machine.resolves() - resolves0;
    r.idle_busy_solves = idle.machine.busy_solves() - busy_solves0;
    return r;
}

/** A timed quantity over the reps: median, min and max. */
struct Spread {
    double median = 0.0;
    double min = 0.0;
    double max = 0.0;
};

Spread
SpreadOf(std::vector<double> v)
{
    std::sort(v.begin(), v.end());
    const size_t n = v.size();
    const double median =
        n % 2 == 1 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2.0;
    return {median, v.front(), v.back()};
}

/** Writes @p key as the median and, past one rep, KEY_min / KEY_max. */
void
WriteSpread(sim::JsonWriter& w, const std::string& key, const Spread& s,
            int reps, double scale = 1.0)
{
    w.Key(key).Number(s.median * scale);
    if (reps > 1) {
        w.Key(key + "_min").Number(s.min * scale);
        w.Key(key + "_max").Number(s.max * scale);
    }
}

/** Runs @p bench @p reps times: the first run's result (its counts are
 *  deterministic, so they stand for every run) and the wall times'
 *  spread. */
template <typename Bench>
std::pair<bench::BenchResult, Spread>
Repeat(int reps, Bench bench)
{
    std::vector<bench::BenchResult> runs;
    std::vector<double> walls;
    for (int rep = 0; rep < reps; ++rep) {
        runs.push_back(bench());
        walls.push_back(runs.back().wall_s);
    }
    return {runs.front(), SpreadOf(walls)};
}

/** The host times of one resolver mode's reps: churn and idle window. */
struct ArbTimes {
    Spread wall;
    Spread idle_wall;
};

ArbTimes
TimesOf(const std::vector<ArbRun>& runs)
{
    std::vector<double> wall, idle_wall;
    for (const ArbRun& r : runs) {
        wall.push_back(r.wall_s);
        idle_wall.push_back(r.idle_wall_s);
    }
    return {SpreadOf(wall), SpreadOf(idle_wall)};
}

/** Events per second at the median wall time of @p runs. */
double
EventsPerSec(const std::vector<ArbRun>& runs)
{
    const double wall = TimesOf(runs).wall.median;
    return static_cast<double>(runs.front().events) /
           (wall > 0 ? wall : 1e-9);
}

/** One resolver mode's machine-arbitration object. The counts are
 *  deterministic, so the first rep's stand for all. */
void
WriteArbRun(sim::JsonWriter& w, const std::vector<ArbRun>& runs)
{
    const ArbRun& r = runs.front();
    const int reps = static_cast<int>(runs.size());
    const ArbTimes times = TimesOf(runs);
    const double ev = static_cast<double>(r.events > 0 ? r.events : 1);
    const double idle = static_cast<double>(
        r.idle_resolves > 0 ? r.idle_resolves : 1);
    const double resolves =
        static_cast<double>(r.resolves > 0 ? r.resolves : 1);
    w.BeginObject();
    WriteSpread(w, "wall_s", times.wall, reps);
    w.Key("events").Int(r.events);
    w.Key("events_per_sec").Number(EventsPerSec(runs));
    w.Key("resolves").Int(r.resolves);
    w.Key("resolves_per_event").Number(r.resolves / ev);
    w.Key("full_resolves_per_event").Number(r.recomputes / ev);
    w.Key("busy_solves").Int(r.busy_solves);
    w.Key("busy_solves_per_resolve").Number(r.busy_solves / resolves);
    w.Key("idle").BeginObject();
    w.Key("resolves").Int(r.idle_resolves);
    w.Key("busy_solves").Int(r.idle_busy_solves);
    w.Key("busy_solves_per_resolve").Number(r.idle_busy_solves / idle);
    w.Key("allocs").Int(r.idle_allocs);
    w.Key("allocs_per_resolve").Number(r.idle_allocs / idle);
    WriteSpread(w, "ns_per_resolve", times.idle_wall, reps, 1e9 / idle);
    w.EndObject().EndObject();
}

/** One pass over the catalog: each scenario's wall time, the total, and
 *  the results. */
struct CatalogPass {
    std::vector<double> scenario_wall;
    double wall_s = 0.0;
    std::vector<scenarios::ScenarioMetrics> results;
};

CatalogPass
RunCatalog(const std::vector<scenarios::ScenarioSpec>& specs,
           const scenarios::RunOptions& opts)
{
    // Serial per-spec loop instead of one RunScenarios() call: identical
    // results in identical order (RunScenarios at jobs=1 is this loop),
    // but each scenario gets its own wall clock so the record can name
    // the slowest ones — the first question anyone asks of a perf diff.
    CatalogPass pass;
    pass.results.reserve(specs.size());
    pass.scenario_wall.assign(specs.size(), 0.0);
    pass.wall_s = bench::WallSeconds([&] {
        for (size_t i = 0; i < specs.size(); ++i) {
            pass.scenario_wall[i] = bench::WallSeconds([&] {
                pass.results.push_back(scenarios::RunScenario(specs[i], opts));
            });
        }
    });
    return pass;
}

/** @p pass's scenario walls in catalog order, then its total. */
std::vector<double>
WallsOf(const CatalogPass& pass)
{
    std::vector<double> walls = pass.scenario_wall;
    walls.push_back(pass.wall_s);
    return walls;
}

/**
 * Runs one catalog pass in a forked child and returns its scenario
 * walls followed by its total, or an empty vector when the child
 * failed. The child starts from this process before any pass ran, so
 * no memoized run is warm.
 */
std::vector<double>
ColdCatalogWalls(const std::vector<scenarios::ScenarioSpec>& specs,
                 const scenarios::RunOptions& opts)
{
    int fds[2];
    if (pipe(fds) != 0) return {};
    std::fflush(nullptr);
    const pid_t pid = fork();
    if (pid < 0) {
        close(fds[0]);
        close(fds[1]);
        return {};
    }
    std::vector<double> walls(specs.size() + 1, 0.0);
    const size_t bytes = walls.size() * sizeof(double);
    if (pid == 0) {
        close(fds[0]);
        walls = WallsOf(RunCatalog(specs, opts));
        const char* p = reinterpret_cast<const char*>(walls.data());
        for (size_t left = bytes; left > 0;) {
            const ssize_t k = write(fds[1], p, left);
            if (k <= 0) _exit(1);
            p += k;
            left -= static_cast<size_t>(k);
        }
        _exit(0);
    }
    close(fds[1]);
    char* p = reinterpret_cast<char*>(walls.data());
    size_t got = 0;
    while (got < bytes) {
        const ssize_t k = read(fds[0], p + got, bytes - got);
        if (k <= 0) break;
        got += static_cast<size_t>(k);
    }
    close(fds[0]);
    int status = 0;
    waitpid(pid, &status, 0);
    if (got != bytes || !WIFEXITED(status) || WEXITSTATUS(status) != 0) {
        return {};
    }
    return walls;
}

}  // namespace

int
main(int argc, char** argv)
{
    double scale = 1.0;
    uint64_t events = 2000000;
    int reps = 1;
    std::string out_path = "BENCH_sim_core.json";
    for (int i = 1; i < argc; ++i) {
        if (!std::strcmp(argv[i], "--scale") && i + 1 < argc) {
            scale = tools::ParseNumber("--scale", argv[++i],
                                       "a positive number up to 1000",
                                       tools::kPositive, 1000.0);
        } else if (!std::strcmp(argv[i], "--events") && i + 1 < argc) {
            events = static_cast<uint64_t>(
                tools::ParseNumber("--events", argv[++i],
                                   "a positive integer", 1, 1e15,
                                   /*integer=*/true));
        } else if (!std::strcmp(argv[i], "--reps") && i + 1 < argc) {
            reps = static_cast<int>(
                tools::ParseNumber("--reps", argv[++i],
                                   "a positive integer up to 100", 1, 100,
                                   /*integer=*/true));
        } else if (!std::strcmp(argv[i], "--out") && i + 1 < argc) {
            out_path = argv[++i];
        } else {
            std::fprintf(stderr,
                         "usage: %s [--scale F] [--events N] [--reps N] "
                         "[--out FILE]\n",
                         argv[0]);
            return 2;
        }
    }

    // --- Microbenches ----------------------------------------------------
    // Each runs reps times, before the catalog pass: run after it they
    // read slower than the same churn in a fresh process.
    bench::RunEventQueueChurn(events / 20);  // warmup
    const auto [churn, churn_spread] =
        Repeat(reps, [&] { return bench::RunEventQueueChurn(events); });
    const auto [stats, stats_spread] =
        Repeat(reps, [&] { return bench::RunStatsStreaming(events); });

    // Machine-arbitration microbench, naive and incremental alternating
    // (the first naive run doubles as warmup).
    const int arb_steps = 600;
    std::vector<ArbRun> arb_naive, arb_inc;
    for (int rep = 0; rep < reps; ++rep) {
        arb_naive.push_back(RunArbitrationChurn(/*naive=*/true, arb_steps));
        arb_inc.push_back(RunArbitrationChurn(/*naive=*/false, arb_steps));
    }

    // --- Catalog pass: every scenario, serial, wall-clocked -------------
    const auto& specs = scenarios::AllScenarios();
    scenarios::RunOptions opts;
    opts.time_scale = scale;
    // Reps past the first run in forked children, before this process
    // runs (and memoizes) any scenario; the last runs here and keeps
    // the results.
    std::vector<std::vector<double>> walls_by_rep;  // as WallsOf()
    for (int rep = 1; rep < reps; ++rep) {
        walls_by_rep.push_back(ColdCatalogWalls(specs, opts));
        if (walls_by_rep.back().empty()) {
            std::fprintf(stderr, "error: catalog pass %d failed\n", rep);
            return 2;
        }
    }
    const CatalogPass pass = RunCatalog(specs, opts);
    walls_by_rep.push_back(WallsOf(pass));
    const std::vector<scenarios::ScenarioMetrics>& results = pass.results;
    // scenario_wall[i]: scenario i over the reps; the last, the total.
    std::vector<Spread> scenario_wall;
    for (size_t i = 0; i <= specs.size(); ++i) {
        std::vector<double> column;
        for (const auto& walls : walls_by_rep) column.push_back(walls[i]);
        scenario_wall.push_back(SpreadOf(column));
    }
    // Both the count and the offending names go into the record: a
    // reader of the JSON (CI, or a human diffing two baselines) should
    // not need the run's stderr to know *which* scenarios regressed.
    std::vector<std::string> violating;
    for (size_t i = 0; i < results.size(); ++i) {
        if (results[i].slo_attained == 0.0 &&
            !scenarios::ViolationExpected(specs[i], scale)) {
            std::fprintf(stderr, "unexpected SLO violation: %s\n",
                         results[i].scenario.c_str());
            violating.push_back(results[i].scenario);
        }
    }

    // Top-5 slowest scenarios by wall time (all of them if fewer).
    std::vector<size_t> by_wall(specs.size());
    std::iota(by_wall.begin(), by_wall.end(), size_t{0});
    std::stable_sort(by_wall.begin(), by_wall.end(),
                     [&](size_t a, size_t b) {
                         return scenario_wall[a].median >
                                scenario_wall[b].median;
                     });
    if (by_wall.size() > 5) by_wall.resize(5);

    sim::JsonWriter w;
    w.BeginObject();
    w.Key("bench").String("sim_core");
    w.Key("reps").Int(reps);
    w.Key("scenarios").BeginObject();
    w.Key("count").Int(static_cast<int64_t>(results.size()));
    w.Key("scale").Number(scale);
    w.Key("jobs").Int(1);
    WriteSpread(w, "wall_s", scenario_wall.back(), reps);
    w.Key("unexpected_slo_violations")
        .Int(static_cast<int64_t>(violating.size()));
    w.Key("violating_scenarios").BeginArray();
    for (const auto& name : violating) w.String(name);
    w.EndArray();
    w.Key("slowest").BeginArray();
    for (const size_t i : by_wall) {
        w.BeginObject();
        w.Key("scenario").String(specs[i].name);
        WriteSpread(w, "wall_s", scenario_wall[i], reps);
        w.EndObject();
    }
    w.EndArray().EndObject();

    // --- Scheduler-ablation summary --------------------------------------
    // The policy families the catalog already ran on identical seeds
    // and traces, reduced to what a reader diffs first: EMU and the
    // SLO outcome per policy, plus the monitor run's would-have
    // counters. Pure reporting over `results` — no extra runs; a
    // scenario missing from the catalog is left out.
    const auto metric_of =
        [&](const std::string& name) -> const scenarios::ScenarioMetrics* {
        for (const auto& r : results) {
            if (r.scenario == name) return &r;
        }
        return nullptr;
    };
    const auto policy_family =
        [&](const char* family,
            std::initializer_list<std::pair<const char*, const char*>>
                policies) {
            w.Key(family).BeginObject();
            for (const auto& [key, name] : policies) {
                if (const scenarios::ScenarioMetrics* m = metric_of(name)) {
                    w.Key(key).BeginObject();
                    w.Key("emu").Number(m->emu);
                    w.Key("min_emu").Number(m->min_emu);
                    w.Key("slo_attained").Number(m->slo_attained);
                    w.EndObject();
                }
            }
            w.EndObject();
        };
    w.Key("scheduler_ablation").BeginObject();
    policy_family("hetero_diurnal",
                  {{"static", "cluster_hetero_static"},
                   {"greedy", "cluster_hetero_greedy_diurnal"},
                   {"predictive", "cluster_hetero_pred_diurnal"}});
    policy_family("hetero_flashcrowd",
                  {{"greedy", "cluster_hetero_greedy_flashcrowd"},
                   {"round_robin", "cluster_hetero_rr_flashcrowd"},
                   {"predictive", "cluster_hetero_pred_flashcrowd"}});
    policy_family("chaos_leaf_crash",
                  {{"greedy", "chaos_cluster_leaf_crash"},
                   {"predictive", "chaos_cluster_leaf_crash_pred"}});
    policy_family("chaos_blind_sched",
                  {{"greedy", "chaos_cluster_blind_sched"},
                   {"predictive", "chaos_cluster_blind_sched_pred"}});
    if (const scenarios::ScenarioMetrics* m =
            metric_of("cluster_hetero_pred_monitor")) {
        w.Key("monitor").BeginObject();
        w.Key("would_placements").Number(m->be_would_placements);
        w.Key("would_migrations").Number(m->be_would_migrations);
        w.EndObject();
    }
    w.EndObject();

    const auto per_sec = [](uint64_t n, double wall) {
        return static_cast<double>(n) / (wall > 0 ? wall : 1e-9);
    };
    w.Key("event_queue").BeginObject();
    w.Key("events").Int(static_cast<int64_t>(churn.events));
    w.Key("pooled_events_per_sec")
        .Number(per_sec(churn.events, churn_spread.median));
    WriteSpread(w, "pooled_wall_s", churn_spread, reps);
    w.Key("pooled_allocs_per_event").Number(churn.allocs_per_event);
    w.EndObject();
    w.Key("stats").BeginObject();
    w.Key("samples").Int(static_cast<int64_t>(stats.events));
    w.Key("samples_per_sec")
        .Number(per_sec(stats.events, stats_spread.median));
    WriteSpread(w, "wall_s", stats_spread, reps);
    w.Key("allocs_per_sample").Number(stats.allocs_per_event);
    w.EndObject();
    w.Key("machine_arbitration").BeginObject();
    w.Key("naive");
    WriteArbRun(w, arb_naive);
    w.Key("incremental");
    WriteArbRun(w, arb_inc);
    w.Key("full_resolve_reduction")
        .Number(static_cast<double>(arb_naive.front().recomputes) /
                std::max<uint64_t>(arb_inc.front().recomputes, 1));
    w.EndObject().EndObject();

    if (!bench::EmitRecord(w.str(), out_path)) return 2;
    return 0;
}
