/**
 * @file
 * Socket power and frequency model: turbo, TDP throttling, per-core DVFS.
 *
 * Modern Xeons opportunistically raise frequency above nominal when there
 * is power headroom (Turbo Boost) and throttle the whole socket when the
 * running-average power would exceed TDP. Per-core DVFS caps let software
 * (Heracles' power subcontroller) keep BE cores slow so LC cores retain
 * their guaranteed frequency. This model solves for the per-core
 * frequencies each epoch:
 *
 *   f_i = clamp(min(dvfs_cap_i, lambda * turbo(active)), f_min, ...)
 *
 * where lambda in (0, 1] is the largest scale for which socket power stays
 * within TDP. Socket power is
 *
 *   P = uncore + sum_i [ idle + busy_i * intensity_i * k * f_i^e ].
 */
#ifndef HERACLES_HW_POWER_H
#define HERACLES_HW_POWER_H

#include <utility>
#include <vector>

#include "hw/config.h"

namespace heracles::hw {

/** Per-core inputs to the frequency solver (one socket). */
struct CorePowerRequest {
    double busy = 0.0;       ///< Busy fraction of the physical core [0,1].
    double intensity = 1.0;  ///< Workload power intensity (virus ~2).
    double dvfs_cap_ghz = 0.0;  ///< 0 = uncapped.
};

/** Solver output for one socket. */
struct PowerOutcome {
    std::vector<double> freq_ghz;  ///< Per-core effective frequency.
    double socket_power_w = 0.0;
    bool throttled = false;  ///< True if TDP limited frequencies.
};

/**
 * Reusable solver scratch. Candidate frequencies are quantized to the
 * DVFS step grid, so only a handful of distinct f^dyn_exp values ever
 * occur; this memoizes them (keyed by the exact quantized frequency,
 * making memoized and unmemoized results bit-identical) across
 * ResolvePower calls. The exponent comes from the config, so a scratch
 * must not be shared between machines with different `dyn_exp`.
 */
struct PowerScratch {
    std::vector<std::pair<double, double>> pow_f;  ///< (f_ghz, f^dyn_exp).
};

/** All-core-aware max turbo frequency for @p active_cores busy cores. */
double MaxTurboGhz(const MachineConfig& cfg, int active_cores);

/** Solves per-core frequencies and socket power for one socket. */
PowerOutcome ResolvePower(const MachineConfig& cfg,
                          const std::vector<CorePowerRequest>& cores);

/**
 * Buffer-reusing form for per-epoch callers: recycles @p out's frequency
 * vector and (when @p scratch is non-null) the pow() memo. With
 * @p reuse_neighbours, a core whose request equals its left neighbour's
 * takes that core's frequency and power instead of recomputing them, in
 * every step of the throttle bisection. Identical results to the
 * returning form either way.
 */
void ResolvePower(const MachineConfig& cfg,
                  const std::vector<CorePowerRequest>& cores,
                  PowerScratch* scratch, PowerOutcome* out,
                  bool reuse_neighbours = false);

}  // namespace heracles::hw

#endif  // HERACLES_HW_POWER_H
