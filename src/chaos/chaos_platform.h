/**
 * @file
 * The chaos layer's one Platform decorator: fault injection plus the
 * controller-safety judge.
 *
 * ChaosPlatform sits between the Heracles controller and the real
 * (simulated) platform. It applies a ResolvedFaultPlan — actuator calls
 * inside a drop window never reach the plant, monitor reads inside a
 * freeze window hold the first in-window value, reads inside a noise
 * window gain multiplicative noise from a chaos-private RNG — and judges
 * what the controller observes and commands against the paper's safety
 * contract. It schedules no events and never touches the simulation's
 * own random streams, so an empty (or never-active) plan is
 * byte-identical to no decorator at all.
 *
 * Order of work on each call:
 *  - reads: the fault applies first (lazily: while frozen the plant is
 *    not read at all), then the judge observes the value the controller
 *    is about to receive;
 *  - commands: the judge runs first and records the commanded value,
 *    then the command is dropped (a faulted op) or forwarded.
 *
 * The invariants:
 *
 *  1. safeguard-disable — after a top-level poll observes tail latency
 *     above the SLO, the commanded BE core count must reach zero within
 *     one control interval (Algorithm 1 disables BE immediately).
 *  2. no-grow-under-danger — the commanded BE core count never grows
 *     while a fresh (at most one control interval old) latency
 *     observation exceeds the SLO.
 *  3. power-cap-respected — the commanded BE DVFS cap stays within the
 *     machine's DVFS range, and is never raised while BE cores are
 *     commanded and the freshly-observed package power already exceeds
 *     the TDP threshold (Algorithm 3 only shifts power towards BE with
 *     headroom).
 *  4. net-ceil-bounded — the commanded BE egress ceiling stays within
 *     [0, link rate] (Algorithm 4 never over-subscribes the NIC).
 *  5. alloc-bounded — commanded cores/ways always leave the LC task at
 *     least one core and one LLC way.
 *
 * Everything is judged on *observed* telemetry and *commanded*
 * actuations: under degraded telemetry the controller is held to what
 * it could see, and under stuck actuators to what it asked for — a
 * stuck cgroup write is the platform's fault, a grow command issued
 * while the observed tail exceeds the SLO is the controller's. The
 * cluster-layer invariant (the BE scheduler never places a job onto a
 * crashed leaf) is checked by ClusterExperiment, which owns that state.
 */
#ifndef HERACLES_CHAOS_CHAOS_PLATFORM_H
#define HERACLES_CHAOS_CHAOS_PLATFORM_H

#include <string>
#include <vector>

#include "chaos/fault_plan.h"
#include "heracles/config.h"
#include "platform/iface.h"
#include "sim/random.h"

namespace heracles::chaos {

/** One recorded safety violation. */
struct Violation {
    sim::SimTime when = 0;
    std::string invariant;  ///< e.g. "safeguard-disable".
    std::string detail;     ///< Human-readable evidence.
};

/** Platform decorator applying a fault plan and judging the controller. */
class ChaosPlatform : public platform::Platform
{
  public:
    /**
     * @param plan faults to apply (empty = pass-through).
     * @param cfg the controller's configuration: its top_period is the
     *   grace for invariants 1 and 2, its tdp_threshold the power level
     *   above which raising the BE cap is unsafe.
     */
    ChaosPlatform(platform::Platform& inner, ResolvedFaultPlan plan,
                  const ctl::HeraclesConfig& cfg);

    /** Dropped actuator calls + degraded monitor reads so far. */
    uint64_t faulted_ops() const { return faulted_ops_; }

    const std::vector<Violation>& violations() const {
        return violations_;
    }
    uint64_t count() const { return violations_.size(); }

    /** BE core count the controller last requested (dropped or not). */
    int CommandedBeCores() const { return commanded_cores_; }

    // --- Platform ------------------------------------------------------------
    sim::EventQueue& queue() override { return inner_.queue(); }
    const platform::Facts& facts() override { return inner_.facts(); }

    sim::Duration LcTailLatency() override;
    sim::Duration LcFastTailLatency() override;
    sim::Duration LcSlo() override { return inner_.LcSlo(); }
    double LcLoad() override;
    double LcCpuUtilization() override { return inner_.LcCpuUtilization(); }

    double MeasuredDramGbps() override;
    double BeDramEstimateGbps() override {
        return inner_.BeDramEstimateGbps();
    }

    double SocketPowerW(int socket) override;
    double LcFreqGhz() override { return inner_.LcFreqGhz(); }
    double BeFreqCapGhz() override { return inner_.BeFreqCapGhz(); }
    void SetBeFreqCapGhz(double ghz) override;

    double LcTxGbps() override { return inner_.LcTxGbps(); }
    void SetBeNetCeilGbps(double gbps) override;

    int BeCores() override { return inner_.BeCores(); }
    void SetBeCores(int cores) override;
    int BeWays() override { return inner_.BeWays(); }
    void SetBeWays(int ways) override;

    bool HasBeJob() override { return inner_.HasBeJob(); }
    double BeRate() override { return inner_.BeRate(); }

  private:
    // --- Faults --------------------------------------------------------------

    /** Active fault of @p kind on @p channel now, or -1. The channel is
     *  the Monitor or Actuator enum value, matched per kind. */
    int ActiveFault(FaultKind kind, int channel);

    /** True (and counted) when a drop window covers @p a right now. */
    bool Dropped(Actuator a);

    /**
     * Applies freeze/noise faults on @p mon around the lazy plant
     * reading @p read. Laziness is the point: while frozen, the plant
     * is not read at all — a wedged counter also stops its
     * measurement-noise RNG draws. Instantiated only in the .cc.
     */
    template <typename ReadFn>
    double Degrade(Monitor mon, ReadFn read);

    // --- Judge ---------------------------------------------------------------

    void Record(const char* invariant, const std::string& detail);

    /** True when the given observation is fresh enough to count. */
    bool Fresh(sim::SimTime read_at) const;

    /** Fires the safeguard-disable deadline if it has lapsed. */
    void CheckDeadline();

    platform::Platform& inner_;
    ResolvedFaultPlan plan_;
    const sim::Duration top_period_;
    const double tdp_threshold_;
    sim::Rng noise_;  ///< Chaos-private; never a simulation stream.

    /** Per-fault captured value for freeze windows (index-aligned with
     *  plan_.faults; NaN = not captured yet). */
    std::vector<double> frozen_;
    uint64_t faulted_ops_ = 0;

    // Latest observations (what the controller saw, when).
    sim::SimTime tail_read_at_ = -1;
    bool tail_over_ = false;
    sim::SimTime fast_read_at_ = -1;
    bool fast_over_ = false;
    sim::SimTime power_read_at_ = -1;
    double power_frac_ = 0.0;  ///< Worst socket at power_read_at_.

    // Commanded actuator state (what the controller last asked for,
    // whether or not the plant heard it).
    int commanded_cores_ = 0;
    double commanded_cap_ = 0.0;  ///< 0 = uncapped.

    // Armed safeguard deadline (-1 = none).
    sim::SimTime disable_deadline_ = -1;

    std::vector<Violation> violations_;
};

}  // namespace heracles::chaos

#endif  // HERACLES_CHAOS_CHAOS_PLATFORM_H
