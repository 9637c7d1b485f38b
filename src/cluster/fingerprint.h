/**
 * @file
 * Interference fingerprints for predictive BE placement.
 *
 * The predictive scheduler tier needs to answer "how badly would BE job
 * b hurt the LC workload on leaf l?" *before* placing b — the question
 * Bubble-Up answers with a bubble score and Paragon/Quasar answer with
 * collaborative filtering over microbenchmark reactions. We distill the
 * same signal from the rig this repo already has: the Section 3.2
 * characterization grid (exp/characterization.h).
 *
 * Offline, per (machine shape × LC workload), a short fixed-seed grid
 * run measures the LC tail fraction alone and against one saturating
 * antagonist per shared resource. The deltas become a five-axis
 * *sensitivity vector* (LLC, DRAM, HyperThread, power, network) — "one
 * unit of pressure on axis a costs this much tail". Each BE profile is
 * scored analytically into a *pressure vector* on the same axes,
 * normalized by the machine's capacity. The predicted tail fraction of
 * a (job, leaf) pair is then
 *
 *     baseline + sum_a sensitivity[a] * pressure[a]
 *
 * — the classic bubble-score dot product. The absolute value is rough
 * (real colocation runs under Heracles' isolation, the grid runs
 * without), but placement only needs the *ranking* of leaves per job,
 * and the ranking is exactly what the axes capture: a DRAM-hungry job
 * belongs on the leaf whose LC tolerates DRAM pressure.
 *
 * Grid runs are deterministic (fixed internal seed, fixed probe loads)
 * and cached process-wide keyed on (machine shape sans seed, canonical
 * LC name), so assembling a hundred scenarios measures each distinct
 * (shape, workload) pair exactly once.
 */
#ifndef HERACLES_CLUSTER_FINGERPRINT_H
#define HERACLES_CLUSTER_FINGERPRINT_H

#include <array>
#include <string>

#include "hw/config.h"
#include "runner/pool.h"
#include "sim/time.h"
#include "workloads/be_task.h"
#include "workloads/lc_app.h"

namespace heracles::cluster {

/** Shared-resource axes of the fingerprint space (fixed order). */
enum class FingerprintAxis {
    kLlc = 0,      ///< Last-level cache capacity (stream-LLC-big bubble).
    kDram,         ///< Memory bandwidth (stream-DRAM bubble).
    kHyperThread,  ///< SMT sibling contention (spinloop bubble).
    kPower,        ///< Socket power / turbo headroom (power-virus bubble).
    kNetwork,      ///< Egress bandwidth (iperf bubble).
};

inline constexpr int kFingerprintAxes = 5;

/**
 * Measured reaction of one LC workload on one machine shape: solo tail
 * fraction plus the extra tail one full unit of pressure costs on each
 * axis (clamped non-negative — a bubble can't help).
 */
struct LcFingerprint {
    double baseline = 0.0;
    std::array<double, kFingerprintAxes> sensitivity{};
};

/** Analytic per-axis pressure a BE job exerts, each in [0, 1]. */
struct BePressure {
    std::array<double, kFingerprintAxes> pressure{};
};

/** Rig windows of every production (FingerprintFor) measurement. */
inline constexpr sim::Duration kFingerprintWarmup = sim::Seconds(10);
inline constexpr sim::Duration kFingerprintMeasure = sim::Seconds(30);

/**
 * Runs the characterization grid and distills the fingerprint —
 * deterministic for a given (machine shape, lc); the machine's seed is
 * ignored (the rig re-seeds internally). The baseline and antagonist
 * cells fan out flat across @p jobs threads and are gathered in index
 * order, so the result is bit-identical for every jobs value. Uncached;
 * the windows are parameters only so unit tests can shrink them —
 * production callers go through FingerprintFor().
 */
LcFingerprint MeasureLcFingerprint(
    const hw::MachineConfig& machine, const workloads::LcParams& lc,
    sim::Duration warmup = kFingerprintWarmup,
    sim::Duration measure = kFingerprintMeasure, int jobs = 1);

/**
 * Cached fingerprint lookup. @p lc_name is resolved to the *canonical*
 * workload parameters (workloads::LcWorkloadByName), so leaves that
 * carry per-leaf SLO overrides or scenario-specific seeds still share
 * one cache entry; the key is the machine shape with the seed excluded.
 *
 * Thread-safe (sim::OnceCache). A cold key is measured once, by its
 * first caller, with the cells fanned over @p jobs threads (jobs <= 1
 * runs them inline); concurrent callers of the same key wait for that
 * measurement rather than measure twice, while distinct cold keys
 * measure in parallel. Results are bit-identical for every @p jobs.
 * Aborts on an unknown workload name.
 */
LcFingerprint FingerprintFor(const hw::MachineConfig& machine,
                             const std::string& lc_name,
                             int jobs = runner::DefaultJobs());

/**
 * Scores a BE profile's demand into axis pressures, normalized by the
 * machine's per-socket capacity (a "1.0" saturates the axis the way the
 * grid's antagonist does).
 */
BePressure PressureOf(const hw::MachineConfig& machine,
                      const workloads::BeProfile& be);

/** The bubble-score dot product: predicted LC tail fraction if a job
 *  with @p be pressure ran on a leaf with @p fp reactions. */
double PredictTailFrac(const LcFingerprint& fp, const BePressure& be);

}  // namespace heracles::cluster

#endif  // HERACLES_CLUSTER_FINGERPRINT_H
