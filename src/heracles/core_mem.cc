#include "heracles/core_mem.h"

#include <algorithm>
#include <cmath>

namespace heracles::ctl {
namespace {

/** A new BE job starts with one core and ~10% of the LLC. */
constexpr int kInitialBeCores = 1;
constexpr double kInitialBeLlcFrac = 0.10;
/** Relative BE throughput gain below which a cache grow "did not
 *  benefit" the BE task (BeBenefit test). */
constexpr double kBeBenefitEps = 0.01;

}  // namespace

CoreMemController::CoreMemController(platform::Platform& platform,
                                     const HeraclesConfig& cfg,
                                     LcBwModel model)
    : platform_(platform), cfg_(cfg), model_(std::move(model))
{
}

double
CoreMemController::DramLimitGbps() const
{
    return cfg_.dram_limit_frac * platform_.facts().dram_peak_gbps;
}

double
CoreMemController::LcModelGbps() const
{
    if (cfg_.use_hw_bw_accounting) {
        // With per-task accounting the LC bandwidth is simply what is
        // left after subtracting the measured BE bandwidth.
        return std::max(0.0, platform_.MeasuredDramGbps() -
                                 platform_.BeDramEstimateGbps());
    }
    if (!cfg_.use_bw_model || model_.empty()) return 0.0;
    const int lc_ways =
        platform_.facts().total_llc_ways - platform_.BeWays();
    return model_.Evaluate(platform_.LcLoad(), lc_ways);
}

double
CoreMemController::BeBwGbps() const
{
    if (cfg_.use_hw_bw_accounting) {
        // Future-work hardware (Section 7): per-task bandwidth counters.
        return platform_.BeDramEstimateGbps();
    }
    // Paper hardware: BE bandwidth = measured total minus the offline LC
    // model; the chip cannot attribute bandwidth per core (Section 4.2).
    return std::max(0.0,
                    platform_.MeasuredDramGbps() - LcModelGbps());
}

double
CoreMemController::BeBwPerCoreGbps() const
{
    const int cores = std::max(platform_.BeCores(), 1);
    return std::max(BeBwGbps() / cores, 0.3);
}

void
CoreMemController::OnBeEnabled()
{
    state_ = State::kGrowLlc;
    const int ways = std::max(
        1, static_cast<int>(std::round(kInitialBeLlcFrac *
                                       platform_.facts().total_llc_ways)));
    platform_.SetBeCores(kInitialBeCores);
    platform_.SetBeWays(ways);
    last_total_bw_ = platform_.MeasuredDramGbps();
    bw_derivative_ = 0.0;
}

void
CoreMemController::OnBeDisabled()
{
    state_ = State::kGrowLlc;
    bw_derivative_ = 0.0;
}

void
CoreMemController::Tick(bool can_grow_be, double slack)
{
    if (platform_.BeCores() <= 0) return;  // BE disabled

    // Fresh (approximate) slack between top-level polls.
    double fast_slack = 1.0;
    if (cfg_.use_fast_slack) {
        const double target = static_cast<double>(platform_.LcSlo());
        const sim::Duration fast = platform_.LcFastTailLatency();
        if (fast > 0) {
            fast_slack = (target - static_cast<double>(fast)) / target;
        }
    }
    if (cfg_.fast_shrink && fast_slack < cfg_.slack_shrink &&
        platform_.BeCores() > 1) {
        // Already violating: back off hard; merely close: back off by one.
        const int remove = fast_slack < 0.0 ? 4 : 1;
        platform_.SetBeCores(std::max(1, platform_.BeCores() - remove));
        return;
    }

    // Leading-signal guard: LC thread utilization. Near the capacity
    // cliff the tail looks healthy until the very step that collapses
    // the service, so slack alone (even the fast estimate) reacts too
    // late for workloads with large latency slack (memkeyval).
    const double lc_util = platform_.LcCpuUtilization();
    if (lc_util > cfg_.lc_util_shrink_limit && platform_.BeCores() > 1) {
        platform_.SetBeCores(platform_.BeCores() - 2);
        return;
    }

    // MeasureDRAMBw(): total bandwidth and its derivative since the
    // previous step.
    const double total_bw = platform_.MeasuredDramGbps();
    bw_derivative_ = total_bw - last_total_bw_;
    last_total_bw_ = total_bw;

    // First priority: never let DRAM saturate. Remove however many BE
    // cores the overage corresponds to.
    if (total_bw > DramLimitGbps()) {
        const double overage = total_bw - DramLimitGbps();
        const int remove = std::max(
            1, static_cast<int>(std::ceil(overage / BeBwPerCoreGbps())));
        platform_.SetBeCores(std::max(1, platform_.BeCores() - remove));
        return;
    }

    if (!can_grow_be) return;

    if (state_ == State::kGrowLlc) {
        // PredictedTotalBW(): the model plus the current BE bandwidth
        // plus the trend from the last reallocation.
        const double predicted =
            LcModelGbps() + BeBwGbps() + bw_derivative_;
        if (predicted > DramLimitGbps()) {
            state_ = State::kGrowCores;
            return;
        }
        const int max_be_ways = platform_.facts().total_llc_ways - 4;
        if (platform_.BeWays() >= max_be_ways) {
            state_ = State::kGrowCores;
            return;
        }
        // GrowCacheForBE(), then re-measure. Growing the BE partition
        // should *reduce* total traffic (more BE hits); if bandwidth did
        // not drop, the grow hurt (e.g. it squeezed the LC partition) and
        // is rolled back.
        const double rate_before = platform_.BeRate();
        const double bw_before = platform_.MeasuredDramGbps();
        platform_.SetBeWays(platform_.BeWays() + 1);
        const double bw_after = platform_.MeasuredDramGbps();
        if (bw_after - bw_before >= 0.0) {
            platform_.SetBeWays(platform_.BeWays() - 1);  // Rollback()
            state_ = State::kGrowCores;
            return;
        }
        // BeBenefit(): keep the way, but stop pushing cache if the BE
        // task no longer speeds up.
        const double rate_after = platform_.BeRate();
        if (rate_after < rate_before * (1.0 + kBeBenefitEps)) {
            state_ = State::kGrowCores;
        }
    } else {  // State::kGrowCores
        const double needed =
            LcModelGbps() + BeBwGbps() + BeBwPerCoreGbps();
        if (needed > DramLimitGbps()) {
            state_ = State::kGrowLlc;
            return;
        }
        // Predictive utilization check: growing BE removes one LC core,
        // concentrating the LC load on the rest. At small LC core counts
        // the jump is large, so gate on the post-removal utilization to
        // avoid oscillating across the guard band.
        const int lc_cores =
            platform_.facts().total_phys_cores - platform_.BeCores();
        const double util_after =
            lc_cores > 1 ? lc_util * lc_cores / (lc_cores - 1) : 1.0;
        if (slack > cfg_.slack_disallow_growth &&
            fast_slack > cfg_.fast_growth_margin &&
            util_after < cfg_.lc_util_grow_limit &&
            platform_.BeCores() < platform_.facts().total_phys_cores - 1) {
            platform_.SetBeCores(platform_.BeCores() + 1);
        }
    }
}

}  // namespace heracles::ctl
