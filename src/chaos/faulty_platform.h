/**
 * @file
 * Fault-injecting Platform decorator.
 *
 * Sits between the Heracles controller and the real (simulated)
 * platform and applies a ResolvedFaultPlan: actuator calls inside a
 * drop window are recorded but never reach the plant, monitor reads
 * inside a freeze window hold the first in-window value, and reads
 * inside a noise window gain multiplicative noise from a chaos-private
 * RNG — the simulation's own random streams are never touched, so a
 * plan with no active window is byte-identical to no decorator at all.
 *
 * The decorator also tracks the *commanded* state of every actuator
 * (what the controller last asked for, whether or not the plant heard
 * it). The invariant harness judges the controller by its commands and
 * its observations: a stuck cgroup write is the platform's fault, a
 * grow command issued while the observed tail exceeds the SLO is the
 * controller's.
 */
#ifndef HERACLES_CHAOS_FAULTY_PLATFORM_H
#define HERACLES_CHAOS_FAULTY_PLATFORM_H

#include "chaos/fault_plan.h"
#include "platform/iface.h"
#include "sim/random.h"

namespace heracles::chaos {

/** Platform decorator applying a resolved fault plan. */
class FaultyPlatform : public platform::Platform
{
  public:
    FaultyPlatform(platform::Platform& inner, ResolvedFaultPlan plan);

    /** Dropped actuator calls + degraded monitor reads so far. */
    uint64_t faulted_ops() const { return faulted_ops_; }

    /** BE core count the controller last requested (dropped or not). */
    int CommandedBeCores() const { return commanded_cores_; }

    // --- Platform ----------------------------------------------------------
    sim::EventQueue& queue() override { return inner_.queue(); }

    sim::Duration LcTailLatency() override;
    sim::Duration LcFastTailLatency() override;
    sim::Duration LcSlo() override { return inner_.LcSlo(); }
    double LcLoad() override;
    double LcCpuUtilization() override { return inner_.LcCpuUtilization(); }

    double MeasuredDramGbps() override;
    double DramPeakGbps() override { return inner_.DramPeakGbps(); }
    double BeDramEstimateGbps() override {
        return inner_.BeDramEstimateGbps();
    }

    int Sockets() override { return inner_.Sockets(); }
    double SocketPowerW(int socket) override;
    double TdpW() override { return inner_.TdpW(); }
    double LcFreqGhz() override { return inner_.LcFreqGhz(); }
    double GuaranteedLcFreqGhz() override {
        return inner_.GuaranteedLcFreqGhz();
    }
    double MinGhz() override { return inner_.MinGhz(); }
    double MaxGhz() override { return inner_.MaxGhz(); }
    double FreqStepGhz() override { return inner_.FreqStepGhz(); }
    double BeFreqCapGhz() override { return inner_.BeFreqCapGhz(); }
    void SetBeFreqCapGhz(double ghz) override;

    double LcTxGbps() override { return inner_.LcTxGbps(); }
    double LinkRateGbps() override { return inner_.LinkRateGbps(); }
    void SetBeNetCeilGbps(double gbps) override;

    int TotalPhysCores() override { return inner_.TotalPhysCores(); }
    int BeCores() override { return inner_.BeCores(); }
    void SetBeCores(int cores) override;
    int TotalLlcWays() override { return inner_.TotalLlcWays(); }
    int BeWays() override { return inner_.BeWays(); }
    void SetBeWays(int ways) override;

    bool HasBeJob() override { return inner_.HasBeJob(); }
    double BeRate() override { return inner_.BeRate(); }

  private:
    /** Active fault of @p kind on @p channel now, or -1. The channel is
     *  the Monitor or Actuator enum value, matched per kind. */
    int ActiveFault(FaultKind kind, int channel);

    /** True when an actuator-drop window covers @p a right now. */
    bool Dropped(Actuator a);

    /**
     * Applies freeze/noise faults on @p mon around the lazy plant
     * reading @p read. Laziness is the point: while frozen, the plant
     * is not read at all — a wedged counter also stops its
     * measurement-noise RNG draws. Instantiated only in the .cc.
     */
    template <typename ReadFn>
    double Degrade(Monitor mon, ReadFn read);

    platform::Platform& inner_;
    ResolvedFaultPlan plan_;
    sim::Rng noise_;  ///< Chaos-private; never a simulation stream.

    /** Per-fault captured value for freeze windows (index-aligned with
     *  plan_.faults; NaN = not captured yet / window over). */
    std::vector<double> frozen_;

    int commanded_cores_ = 0;
    uint64_t faulted_ops_ = 0;
};

}  // namespace heracles::chaos

#endif  // HERACLES_CHAOS_FAULTY_PLATFORM_H
