/**
 * @file
 * Heracles controller configuration.
 *
 * Defaults are the constants from the paper's Algorithms 1-4 and the
 * surrounding text of Section 4.3. The fields here are the ones a
 * bench, scenario or tool sets away from its default. A constant that
 * nothing varies lives next to its one reader (subcontroller periods,
 * load hysteresis, the initial BE allocation, DVFS stepping, the
 * network headroom), or here when two modules read it (the TDP
 * threshold).
 */
#ifndef HERACLES_HERACLES_CONFIG_H
#define HERACLES_HERACLES_CONFIG_H

#include "sim/time.h"

namespace heracles::ctl {

/**
 * Power threshold as a fraction of TDP (Algorithm 3): lower the BE
 * frequency above it when the LC cores are below guaranteed frequency.
 * The power subcontroller acts on it and chaos::ChaosPlatform judges
 * against it.
 */
constexpr double kTdpThreshold = 0.90;

/** Tunables of the Heracles controller. */
struct HeraclesConfig {
    // --- Top-level controller (Algorithm 1) ----------------------------------
    /** Poll period: "every 15 seconds ... sufficient queries to calculate
     *  statistically meaningful tail latencies". */
    sim::Duration top_period = sim::Seconds(15);
    /** Below this latency slack, BE growth is disallowed. */
    double slack_disallow_growth = 0.10;
    /** Below this slack, cores are taken away from BE immediately. */
    double slack_shrink = 0.05;
    /** After a negative-slack event, all resources go to the LC job for
     *  this long before colocation is attempted again. */
    sim::Duration cooldown = sim::Minutes(5);

    // --- Core & memory subcontroller (Algorithm 2) -----------------------------
    /** DRAM_LIMIT as a fraction of peak streaming bandwidth. */
    double dram_limit_frac = 0.90;
    /**
     * Gate BE core growth on the *fast* (~2 s) tail estimate in addition
     * to the 15 s slack from the top level. The top-level slack is up to
     * 15 s stale while cores move every 2 s; without a fresh signal the
     * descent can overshoot straight into an SLO violation. This is an
     * engineering stabilizer consistent with Section 4.3's "Heracles
     * estimates whether it is close to an SLO violation based on the
     * amount of latency slack" — ablatable for study.
     */
    bool use_fast_slack = true;
    /** Remove one BE core per 2 s tick while the fast slack is below the
     *  shrink threshold (recovers before the next top-level poll). */
    bool fast_shrink = true;
    /**
     * LC CPU-utilization guard: stop giving cores to BE once the LC
     * task's own threads are this busy, and take cores back above the
     * shrink bound. Tail latency alone is a lagging signal near the
     * capacity cliff (a microsecond-scale service looks perfectly
     * healthy until one core too many is removed); thread utilization
     * is the leading one. Set the grow limit to 1.0 to disable.
     */
    double lc_util_grow_limit = 0.62;
    double lc_util_shrink_limit = 0.85;
    /**
     * Extra margin on the fast slack required to keep growing BE cores.
     * Growth stops once the fresh tail estimate is within this distance
     * of the SLO; together with fast_shrink this forms a hysteresis band
     * [slack_shrink, fast_growth_margin] where the allocation is stable
     * instead of oscillating across the saturation knife edge.
     */
    double fast_growth_margin = 0.20;

    // --- Ablation switches ------------------------------------------------------------
    bool enable_core_mem = true;
    bool enable_power = true;
    bool enable_net = true;
    /** Use the offline LC bandwidth model (paper) vs assuming zero LC
     *  bandwidth (ablation A2 shows why the model matters). */
    bool use_bw_model = true;
    /**
     * Use per-task hardware DRAM bandwidth accounting instead of the
     * offline model. The paper's Section 7 calls for exactly this
     * hardware support ("can improve Heracles' accuracy and eliminate
     * the need for offline information"); the simulated platform can
     * provide it, so the ablation benches quantify the benefit.
     */
    bool use_hw_bw_accounting = false;
};

}  // namespace heracles::ctl

#endif  // HERACLES_HERACLES_CONFIG_H
