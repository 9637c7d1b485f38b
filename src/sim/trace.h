/**
 * @file
 * Load traces: time-varying target load for latency-critical workloads.
 *
 * The paper drives single-server sweeps with fixed load points and the
 * cluster experiment with an anonymized 12-hour production trace capturing
 * diurnal variation. This module provides constant, step, synthetic-diurnal
 * and flash-crowd traces with the same interface.
 */
#ifndef HERACLES_SIM_TRACE_H
#define HERACLES_SIM_TRACE_H

#include <vector>

#include "sim/random.h"
#include "sim/time.h"

namespace heracles::sim {

/** A time-varying load signal in [0, 1] (fraction of workload peak). */
class LoadTrace
{
  public:
    virtual ~LoadTrace() = default;

    /** Target load fraction at simulated time @p t. */
    virtual double LoadAt(SimTime t) const = 0;
};

/** Constant load forever. */
class ConstantTrace : public LoadTrace
{
  public:
    explicit ConstantTrace(double load) : load_(load) {}
    double LoadAt(SimTime) const override { return load_; }

  private:
    double load_;
};

/** Piecewise-constant schedule of (start_time, load) steps. */
class StepTrace : public LoadTrace
{
  public:
    struct Step {
        SimTime start;
        double load;
    };

    /** @pre steps sorted by start time, first at t=0. */
    explicit StepTrace(std::vector<Step> steps);

    double LoadAt(SimTime t) const override;

  private:
    std::vector<Step> steps_;
};

/**
 * Synthetic diurnal trace emulating the paper's 12-hour websearch trace:
 * a smooth valley-to-peak swing between @p low and @p high with bounded
 * random jitter, starting and ending near the peak.
 */
class DiurnalTrace : public LoadTrace
{
  public:
    DiurnalTrace(Duration length, double low, double high,
                 double jitter = 0.02, uint64_t seed = 42);

    double LoadAt(SimTime t) const override;

  private:
    Duration length_;
    double low_, high_, jitter_;
    std::vector<double> noise_;  // precomputed per-minute jitter
};

/**
 * Flash-crowd (bursty) trace: steady @p base load until the crowd
 * arrives at @p onset, a steep linear ramp to @p peak over @p ramp,
 * a plateau of @p hold, then an exponential decay back towards the base
 * (time constant decay/3, so the burst is ~95% drained after @p decay).
 * A clipped per-second random-walk jitter models the arrival noise of a
 * real crowd. This is the shape the paper's load safeguards exist for:
 * load crossing the disable threshold within one controller period.
 */
class FlashCrowdTrace : public LoadTrace
{
  public:
    FlashCrowdTrace(Duration length, double base, double peak,
                    Duration onset, Duration ramp = Seconds(5),
                    Duration hold = Seconds(25),
                    Duration decay = Seconds(45), double jitter = 0.02,
                    uint64_t seed = 42);

    double LoadAt(SimTime t) const override;

  private:
    Duration length_;
    double base_, peak_, jitter_;
    SimTime onset_;
    Duration ramp_, hold_, decay_;
    std::vector<double> noise_;  // precomputed per-second jitter
};

}  // namespace heracles::sim

#endif  // HERACLES_SIM_TRACE_H
