/**
 * @file
 * Simulation-core microbenchmark: pooled vs. legacy event queue plus
 * streaming-tail stats, emitted as JSON so the core's throughput
 * trajectory is tracked across PRs (see docs/performance.md).
 *
 * Usage: sim_core_baseline [--events N] [--quick] [--out FILE]
 *   --events  total fires per queue implementation (default 2000000)
 *   --quick   smoke preset (200000 events) for CI and local sanity runs
 *   --out     also write the JSON record to FILE
 *
 * Exit code 1 when the pooled queue fails to beat the legacy queue —
 * the regression signal CI acts on.
 */
#include <cstdio>
#include <cstring>
#include <string>

#include "flags.h"
#include "sim/json.h"
#include "sim_core_bench.h"

HERACLES_BENCH_DEFINE_ALLOC_COUNTER()

using namespace heracles;

int
main(int argc, char** argv)
{
    uint64_t events = 2000000;
    std::string out_path;
    for (int i = 1; i < argc; ++i) {
        if (!std::strcmp(argv[i], "--events") && i + 1 < argc) {
            events = static_cast<uint64_t>(
                tools::ParseNumber("--events", argv[++i],
                                   "a positive integer", 1, 1e15,
                                   /*integer=*/true));
        } else if (!std::strcmp(argv[i], "--quick")) {
            events = 200000;
        } else if (!std::strcmp(argv[i], "--out") && i + 1 < argc) {
            out_path = argv[++i];
        } else {
            std::fprintf(stderr,
                         "usage: %s [--events N] [--quick] [--out FILE]\n",
                         argv[0]);
            return 2;
        }
    }

    // Warm both allocators/caches with a short throwaway round.
    bench::RunEventQueueChurn<sim::EventQueue>(events / 20);
    bench::RunEventQueueChurn<bench::LegacyEventQueue>(events / 20);

    const auto pooled =
        bench::RunEventQueueChurn<sim::EventQueue>(events);
    const auto legacy =
        bench::RunEventQueueChurn<bench::LegacyEventQueue>(events);
    const auto stats = bench::RunStatsStreaming(events);

    sim::JsonWriter w;
    w.BeginObject().Key("bench").String("sim_core_baseline");
    bench::WriteCoreBench(w, pooled, legacy, stats);
    w.EndObject();

    if (!bench::EmitRecord(w.str(), out_path)) return 2;
    return pooled.per_sec > legacy.per_sec ? 0 : 1;
}
