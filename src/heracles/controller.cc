#include "heracles/controller.h"

#include <algorithm>

namespace heracles::ctl {
namespace {

/** Disable BE when LC load exceeds this fraction of peak. */
constexpr double kLoadDisable = 0.85;
/** Re-enable BE when load drops below this (hysteresis). */
constexpr double kLoadEnable = 0.80;
/** Tick periods of the core & memory, power and network subcontrollers
 *  (Algorithms 2-4). */
constexpr sim::Duration kCoreMemPeriod = sim::Seconds(2);
constexpr sim::Duration kPowerPeriod = sim::Seconds(2);
constexpr sim::Duration kNetPeriod = sim::Seconds(1);

}  // namespace

HeraclesController::HeraclesController(platform::Platform& platform,
                                       HeraclesConfig cfg, LcBwModel model)
    : platform_(platform), cfg_(cfg)
{
    core_mem_ = std::make_unique<CoreMemController>(platform_, cfg_,
                                                    std::move(model));
    power_ = std::make_unique<PowerController>(platform_);
    network_ = std::make_unique<NetworkController>(platform_);
}

HeraclesController::~HeraclesController()
{
    Stop();
}

void
HeraclesController::Start()
{
    HERACLES_CHECK_MSG(!started_, "controller started twice");
    started_ = true;
    auto& q = platform_.queue();
    top_event_ = q.SchedulePeriodic(cfg_.top_period, cfg_.top_period,
                                    [this] { TopTick(); });
    if (cfg_.enable_core_mem) {
        core_mem_event_ = q.SchedulePeriodic(
            kCoreMemPeriod, kCoreMemPeriod,
            [this] { core_mem_->Tick(can_grow_be_, last_slack_); });
    }
    if (cfg_.enable_power) {
        power_event_ = q.SchedulePeriodic(kPowerPeriod, kPowerPeriod,
                                          [this] { power_->Tick(); });
    }
    if (cfg_.enable_net) {
        net_event_ = q.SchedulePeriodic(kNetPeriod, kNetPeriod,
                                        [this] { network_->Tick(); });
    }
}

void
HeraclesController::Stop()
{
    if (!started_) return;
    auto& q = platform_.queue();
    q.Cancel(top_event_);
    if (core_mem_event_) q.Cancel(core_mem_event_);
    if (power_event_) q.Cancel(power_event_);
    if (net_event_) q.Cancel(net_event_);
    started_ = false;
}

bool
HeraclesController::InCooldown() const
{
    return platform_.queue().Now() < cooldown_until_;
}

SlackExport
HeraclesController::ExportSlack() const
{
    SlackExport e;
    e.slack = last_slack_;
    e.be_enabled = be_enabled_;
    e.in_cooldown = InCooldown();
    e.has_signal = has_signal_;
    return e;
}

void
HeraclesController::OnBeJobRemoved()
{
    DisableBE();
}

void
HeraclesController::DisableBE()
{
    if (be_enabled_) {
        platform_.SetBeCores(0);
        platform_.SetBeWays(0);
        platform_.SetBeFreqCapGhz(0.0);
        core_mem_->OnBeDisabled();
        be_enabled_ = false;
    }
    can_grow_be_ = false;
}

void
HeraclesController::EnableBE()
{
    if (be_enabled_ || !platform_.HasBeJob() || InCooldown()) return;
    be_enabled_ = true;
    core_mem_->OnBeEnabled();
    ++stats_.be_enables;
}

void
HeraclesController::TopTick()
{
    ++stats_.polls;
    const sim::Duration latency = platform_.LcTailLatency();
    const double load = platform_.LcLoad();
    const double target = static_cast<double>(platform_.LcSlo());
    // Before the first latency window completes there is nothing to act
    // on; leave BE disabled rather than guessing.
    if (latency <= 0) return;
    has_signal_ = true;

    const double slack =
        (target - static_cast<double>(latency)) / target;
    last_slack_ = slack;

    if (slack < 0.0) {
        // SLO violation: give everything to the LC workload for a while.
        if (be_enabled_) ++stats_.be_disables_slack;
        DisableBE();
        cooldown_until_ = platform_.queue().Now() + cfg_.cooldown;
        return;
    }
    if (load > kLoadDisable) {
        if (be_enabled_) ++stats_.be_disables_load;
        DisableBE();
        return;
    }
    if (load < kLoadEnable) {
        EnableBE();
    }
    if (!be_enabled_) return;

    if (slack < cfg_.slack_disallow_growth) {
        can_grow_be_ = false;
        if (slack < cfg_.slack_shrink && platform_.BeCores() > 2) {
            // be_cores.Remove(be_cores.Size() - 2): keep two BE cores.
            platform_.SetBeCores(2);
            ++stats_.core_shrinks;
        }
    } else {
        can_grow_be_ = true;
    }
}

}  // namespace heracles::ctl
