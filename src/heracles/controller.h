/**
 * @file
 * The top-level Heracles controller (Algorithm 1).
 *
 * Polls the LC workload's tail latency and load every 15 seconds and
 * computes the latency slack (target - latency) / target. Safeguards:
 * negative slack disables BE execution and enters a cooldown during which
 * all resources belong to the LC job; load above 85% of peak disables BE
 * (re-enabled below 80%, hysteresis). Otherwise the slack steers the
 * subcontrollers: below 10% growth is disallowed; below 5% cores are
 * taken from BE immediately; above 10% the subcontrollers may grow BE
 * allocations, each within its own saturation constraint.
 */
#ifndef HERACLES_HERACLES_CONTROLLER_H
#define HERACLES_HERACLES_CONTROLLER_H

#include <memory>

#include "heracles/bw_model.h"
#include "heracles/config.h"
#include "heracles/core_mem.h"
#include "heracles/net_ctl.h"
#include "heracles/power_ctl.h"
#include "platform/iface.h"

namespace heracles::ctl {

/** Counters exposed for experiments and debugging. */
struct ControllerStats {
    uint64_t polls = 0;
    uint64_t be_disables_slack = 0;  ///< Negative-slack emergencies.
    uint64_t be_disables_load = 0;   ///< High-load safeguards.
    uint64_t be_enables = 0;
    uint64_t core_shrinks = 0;       ///< slack < 5% core removals.
};

/**
 * Snapshot of the controller's latest poll, exported for cluster-level
 * schedulers: per-leaf latency slack plus the BE-occupancy facts a
 * placement policy needs (is BE actually running here, is the leaf in a
 * post-violation cooldown, has the controller seen latency data yet).
 */
struct SlackExport {
    double slack = 1.0;        ///< (target - tail) / target, last poll.
    bool be_enabled = false;   ///< BE currently admitted on this server.
    bool in_cooldown = false;  ///< LC-only recovery window active.
    bool has_signal = false;   ///< At least one poll saw latency data.
};

/**
 * The per-server Heracles instance: one LC workload, one (elastic) BE
 * job, four isolation mechanisms.
 */
class HeraclesController
{
  public:
    /**
     * @param platform monitors and actuators for this server.
     * @param cfg controller tunables (paper defaults).
     * @param model offline LC DRAM bandwidth model.
     */
    HeraclesController(platform::Platform& platform, HeraclesConfig cfg,
                       LcBwModel model);

    ~HeraclesController();
    HeraclesController(const HeraclesController&) = delete;
    HeraclesController& operator=(const HeraclesController&) = delete;

    /** Schedules the control loops; call once. */
    void Start();

    /** Cancels all control loops. */
    void Stop();

    /**
     * Notifies the controller that its BE job is being taken away by a
     * cluster-level scheduler (migration / reclaim): releases every BE
     * allocation exactly like a safeguard disable, but without counting
     * as one — the decision came from above, not from this controller.
     * The platform's BE job must still be attached when called.
     */
    void OnBeJobRemoved();

    // --- Inspection ---------------------------------------------------------
    bool BeEnabled() const { return be_enabled_; }
    bool InCooldown() const;
    bool CanGrowBe() const { return can_grow_be_; }
    double LastSlack() const { return last_slack_; }
    /** Slack + BE-occupancy snapshot for cluster-level scheduling. */
    SlackExport ExportSlack() const;
    const ControllerStats& stats() const { return stats_; }
    const HeraclesConfig& config() const { return cfg_; }

  private:
    void TopTick();
    void DisableBE();
    void EnableBE();

    platform::Platform& platform_;
    HeraclesConfig cfg_;
    std::unique_ptr<CoreMemController> core_mem_;
    std::unique_ptr<PowerController> power_;
    std::unique_ptr<NetworkController> network_;

    bool started_ = false;
    bool be_enabled_ = false;
    bool can_grow_be_ = false;
    double last_slack_ = 1.0;
    bool has_signal_ = false;
    sim::SimTime cooldown_until_ = 0;
    ControllerStats stats_;

    sim::EventQueue::EventId top_event_ = 0;
    sim::EventQueue::EventId core_mem_event_ = 0;
    sim::EventQueue::EventId power_event_ = 0;
    sim::EventQueue::EventId net_event_ = 0;
};

}  // namespace heracles::ctl

#endif  // HERACLES_HERACLES_CONTROLLER_H
