#include "hw/power.h"

#include <algorithm>
#include <cmath>

namespace heracles::hw {
namespace {

/**
 * f^dyn_exp with optional memoization. Candidate frequencies are already
 * quantized to the DVFS grid by the caller, so the memo stays tiny and a
 * linear scan beats any map. An exact-key hit returns the exact double
 * std::pow produced, keeping memoized runs bit-identical.
 */
double
PowDyn(const MachineConfig& cfg, double f_ghz, PowerScratch* scratch)
{
    if (scratch) {
        for (const auto& [f, v] : scratch->pow_f) {
            if (f == f_ghz) return v;
        }
    }
    const double v = std::pow(f_ghz, cfg.dyn_exp);
    if (scratch) scratch->pow_f.emplace_back(f_ghz, v);
    return v;
}

bool
SameRequest(const CorePowerRequest& a, const CorePowerRequest& b)
{
    return a.busy == b.busy && a.intensity == b.intensity &&
           a.dvfs_cap_ghz == b.dvfs_cap_ghz;
}

/**
 * Socket power with frequencies scaled by @p lambda. With @p reuse, a
 * core whose request equals its left neighbour's reuses that core's
 * frequency and power addend; the sum still adds one addend per core in
 * core order. (Requests that compare equal but differ in the sign of a
 * zero give the same frequency and addend, so the reuse is exact.)
 */
double
PowerAt(const MachineConfig& cfg, const std::vector<CorePowerRequest>& cores,
        double turbo, double lambda, std::vector<double>* freqs,
        PowerScratch* scratch, bool reuse)
{
    double total = cfg.uncore_w;
    double f = 0.0;
    double addend = 0.0;
    for (size_t i = 0; i < cores.size(); ++i) {
        const auto& c = cores[i];
        if (!reuse || i == 0 || !SameRequest(c, cores[i - 1])) {
            f = lambda * turbo;
            if (c.dvfs_cap_ghz > 0.0) f = std::min(f, c.dvfs_cap_ghz);
            f = std::max(f, cfg.min_ghz);
            // Round down to the DVFS step grid, like real P-states.
            f = std::floor(f / cfg.dvfs_step_ghz) * cfg.dvfs_step_ghz;
            f = std::max(f, cfg.min_ghz);
            const double dyn =
                cfg.dyn_coeff_w * c.intensity * PowDyn(cfg, f, scratch);
            addend = cfg.core_idle_w + c.busy * dyn;
        }
        if (freqs) (*freqs)[i] = f;
        total += addend;
    }
    return total;
}

}  // namespace

double
MaxTurboGhz(const MachineConfig& cfg, int active_cores)
{
    if (active_cores < 1) active_cores = 1;
    const double f =
        cfg.turbo_1c_ghz - cfg.turbo_slope_ghz * (active_cores - 1);
    return std::max(f, cfg.nominal_ghz);
}

PowerOutcome
ResolvePower(const MachineConfig& cfg,
             const std::vector<CorePowerRequest>& cores)
{
    PowerOutcome out;
    ResolvePower(cfg, cores, nullptr, &out);
    return out;
}

void
ResolvePower(const MachineConfig& cfg,
             const std::vector<CorePowerRequest>& cores,
             PowerScratch* scratch, PowerOutcome* out_buf,
             bool reuse_neighbours)
{
    PowerOutcome& out = *out_buf;
    out.freq_ghz.assign(cores.size(), cfg.min_ghz);
    out.socket_power_w = 0.0;
    out.throttled = false;

    int active = 0;
    for (const auto& c : cores) {
        if (c.busy > 0.05) ++active;
    }
    const double turbo = MaxTurboGhz(cfg, active);

    // Fast path: full speed fits in TDP.
    const double full = PowerAt(cfg, cores, turbo, 1.0, &out.freq_ghz,
                                scratch, reuse_neighbours);
    if (full <= cfg.tdp_w) {
        out.socket_power_w = full;
        return;
    }

    // Bisect the throttle scale. Power is monotone in lambda. Even at the
    // floor the socket may exceed TDP (every core is already at f_min);
    // real RAPL behaves the same way over short windows.
    out.throttled = true;
    double lo = cfg.min_ghz / turbo, hi = 1.0;
    for (int iter = 0; iter < 40; ++iter) {
        const double mid = 0.5 * (lo + hi);
        if (PowerAt(cfg, cores, turbo, mid, nullptr, scratch,
                    reuse_neighbours) > cfg.tdp_w) {
            hi = mid;
        } else {
            lo = mid;
        }
    }
    out.socket_power_w = PowerAt(cfg, cores, turbo, lo, &out.freq_ghz,
                                 scratch, reuse_neighbours);
}

}  // namespace heracles::hw
