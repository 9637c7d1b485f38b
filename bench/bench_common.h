/**
 * @file
 * Shared helpers for the figure-regeneration benches.
 *
 * Set HERACLES_BENCH_FAST=1 to shorten warmup/measurement phases (~3x
 * faster, slightly noisier tails) during development.
 *
 * Every bench accepts --jobs N (default: hardware concurrency, or the
 * HERACLES_JOBS environment variable) to fan its independent simulations
 * across a runner::Pool. Results are bit-identical for every N.
 */
#ifndef HERACLES_BENCH_BENCH_COMMON_H
#define HERACLES_BENCH_BENCH_COMMON_H

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <functional>
#include <string>

#include "flags.h"
#include "runner/pool.h"
#include "sim/time.h"

namespace heracles::bench {

/** True when HERACLES_BENCH_FAST=1 is set in the environment. */
inline bool
FastMode()
{
    const char* v = std::getenv("HERACLES_BENCH_FAST");
    return v != nullptr && std::string(v) == "1";
}

inline sim::Duration
Scaled(sim::Duration full, sim::Duration fast)
{
    return FastMode() ? fast : full;
}

/** Host wall-clock seconds @p fn takes. */
inline double
WallSeconds(const std::function<void()>& fn)
{
    const auto t0 = std::chrono::steady_clock::now();
    fn();
    const auto t1 = std::chrono::steady_clock::now();
    return std::chrono::duration<double>(t1 - t0).count();
}

/**
 * Prints a JSON record to stdout and, unless @p path is empty, writes it
 * to @p path. Returns false (with a message) when the file cannot be
 * written.
 */
inline bool
EmitRecord(const std::string& json, const std::string& path)
{
    std::fputs(json.c_str(), stdout);
    if (path.empty()) return true;
    FILE* f = std::fopen(path.c_str(), "w");
    bool ok = f != nullptr;
    if (ok) {
        // A full disk can fail either the write or the flush in fclose.
        ok = std::fputs(json.c_str(), f) != EOF;
        ok = std::fclose(f) == 0 && ok;
    }
    if (!ok) std::fprintf(stderr, "cannot write %s\n", path.c_str());
    return ok;
}

/**
 * Parses --jobs N (or --jobs=N) from the command line; every other
 * argument is ignored so benches with their own flags can share it.
 * Anything but a positive integer — a trailing --jobs with no value
 * included — exits 2 (tools/flags.h).
 */
inline int
ParseJobs(int argc, char** argv)
{
    int jobs = runner::DefaultJobs();
    for (int i = 1; i < argc; ++i) {
        if (!std::strcmp(argv[i], "--jobs")) {
            jobs = tools::ParsePositiveInt("--jobs",
                                           i + 1 < argc ? argv[++i] : "");
        } else if (!std::strncmp(argv[i], "--jobs=", 7)) {
            jobs = tools::ParsePositiveInt("--jobs", argv[i] + 7);
        }
    }
    return jobs;
}

}  // namespace heracles::bench

#endif  // HERACLES_BENCH_BENCH_COMMON_H
