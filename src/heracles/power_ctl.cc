#include "heracles/power_ctl.h"

#include <algorithm>

#include "heracles/config.h"

namespace heracles::ctl {
namespace {

/**
 * Raise the BE frequency cap only while power is below this fraction
 * of TDP. The gap between this and kTdpThreshold (heracles/config.h) is
 * hysteresis: without it the controller saw-tooths across the RAPL
 * limit, dipping the LC cores below guaranteed frequency every other
 * tick.
 */
constexpr double kTdpRaiseThreshold = 0.80;
/** DVFS steps applied per tick when shifting power. */
constexpr int kDvfsStepsPerTick = 2;

}  // namespace

PowerController::PowerController(platform::Platform& platform)
    : platform_(platform)
{
}

void
PowerController::Tick()
{
    if (platform_.BeCores() <= 0) {
        // No BE cores to throttle; make sure the cap is released.
        if (platform_.BeFreqCapGhz() != 0.0) {
            platform_.SetBeFreqCapGhz(0.0);
        }
        return;
    }

    // Worst socket drives the decision (the loop runs per socket on real
    // hardware; both conditions below must hold).
    const platform::Facts& facts = platform_.facts();
    double power_frac = 0.0;
    for (int s = 0; s < facts.sockets; ++s) {
        power_frac =
            std::max(power_frac, platform_.SocketPowerW(s) / facts.tdp_w);
    }
    const double lc_freq = platform_.LcFreqGhz();
    const double guaranteed = facts.guaranteed_lc_freq_ghz;
    const double step = kDvfsStepsPerTick * facts.freq_step_ghz;

    double cap = platform_.BeFreqCapGhz();
    if (cap == 0.0) cap = facts.max_ghz;  // uncapped

    if (power_frac > kTdpThreshold && lc_freq < guaranteed - 1e-3) {
        // LowerFrequency(be_cores): shift power budget to LC cores.
        const double next = std::max(facts.min_ghz, cap - step);
        platform_.SetBeFreqCapGhz(next);
    } else if (power_frac <= kTdpRaiseThreshold &&
               lc_freq >= guaranteed - 1e-3) {
        // IncreaseFrequency(be_cores): comfortable headroom available.
        const double next = cap + step;
        if (next >= facts.max_ghz - 1e-9) {
            platform_.SetBeFreqCapGhz(0.0);  // fully uncapped
        } else {
            platform_.SetBeFreqCapGhz(next);
        }
    }
    // Between the thresholds: hold the current cap (hysteresis).
}

}  // namespace heracles::ctl
