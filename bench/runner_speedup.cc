/**
 * @file
 * Serial-vs-parallel wall-clock of a fig4-style load sweep
 * (websearch+brain under Heracles, 9 load points), emitted as JSON so
 * the speedup trajectory can be tracked across PRs.
 *
 * Also asserts the runner's core guarantee: the parallel sweep must be
 * bit-identical to the serial one (exit 1 if not).
 *
 * Usage: runner_speedup [--jobs N] [--out FILE]
 *   --jobs  worker threads for the parallel run (default: hardware)
 *   --out   also write the JSON record to FILE
 */
#include <chrono>
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "bench_common.h"
#include "exp/experiment.h"

using namespace heracles;

namespace {

bool
Identical(const exp::LoadPointResult& a, const exp::LoadPointResult& b)
{
    return static_cast<const exp::ActivityCounters&>(a) == b &&
           a.load == b.load && a.worst_tail == b.worst_tail &&
           a.tail_frac_slo == b.tail_frac_slo &&
           a.slo_violated == b.slo_violated &&
           a.lc_throughput == b.lc_throughput &&
           a.be_throughput == b.be_throughput && a.emu == b.emu &&
           a.be_cores == b.be_cores && a.be_ways == b.be_ways &&
           a.be_freq_cap_ghz == b.be_freq_cap_ghz && a.slack == b.slack;
}

double
WallSeconds(const std::function<void()>& fn)
{
    const auto t0 = std::chrono::steady_clock::now();
    fn();
    const auto t1 = std::chrono::steady_clock::now();
    return std::chrono::duration<double>(t1 - t0).count();
}

}  // namespace

int
main(int argc, char** argv)
{
    const int jobs = bench::ParseJobs(argc, argv);
    std::string out_path;
    for (int i = 1; i < argc - 1; ++i) {
        if (!std::strcmp(argv[i], "--out")) out_path = argv[i + 1];
    }

    exp::ExperimentConfig cfg;
    cfg.lc = workloads::Websearch();
    cfg.be = workloads::Brain();
    cfg.policy = exp::PolicyKind::kHeracles;
    cfg.warmup = bench::Scaled(sim::Seconds(120), sim::Seconds(60));
    cfg.measure = bench::Scaled(sim::Seconds(120), sim::Seconds(40));
    const exp::Experiment e(cfg);

    const std::vector<double> loads = {0.1, 0.2, 0.3, 0.4, 0.5,
                                       0.6, 0.7, 0.8, 0.9};

    std::vector<exp::LoadPointResult> serial, parallel;
    const double serial_s =
        WallSeconds([&] { serial = e.Sweep(loads, 1); });
    const double parallel_s =
        WallSeconds([&] { parallel = e.Sweep(loads, jobs); });

    bool identical = serial.size() == parallel.size();
    for (size_t i = 0; identical && i < serial.size(); ++i) {
        identical = Identical(serial[i], parallel[i]);
    }

    char json[512];
    std::snprintf(
        json, sizeof json,
        "{\"bench\":\"runner_speedup\",\"sweep\":\"websearch+brain\","
        "\"load_points\":%zu,\"jobs\":%d,\"hardware_threads\":%d,"
        "\"serial_s\":%.3f,\"parallel_s\":%.3f,\"speedup\":%.2f,"
        "\"identical\":%s}",
        loads.size(), jobs, runner::HardwareJobs(), serial_s, parallel_s,
        serial_s / (parallel_s > 0 ? parallel_s : 1e-9),
        identical ? "true" : "false");

    std::printf("%s\n", json);
    if (!out_path.empty()) {
        if (FILE* f = std::fopen(out_path.c_str(), "w")) {
            std::fprintf(f, "%s\n", json);
            std::fclose(f);
        } else {
            std::fprintf(stderr, "cannot write %s\n", out_path.c_str());
            return 2;
        }
    }
    return identical ? 0 : 1;
}
