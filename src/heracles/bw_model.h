/**
 * @file
 * Offline DRAM bandwidth model for the latency-critical workload.
 *
 * Current Intel chips cannot attribute DRAM bandwidth to cores, so
 * Heracles carries an offline profile of the LC workload's bandwidth as a
 * function of load and resource allocation (Section 4.2). The controller
 * subtracts the model from the measured total to estimate the bandwidth
 * consumed by BE jobs. The paper notes the model only needs regenerating
 * on major workload changes and that Heracles tolerates staleness; the
 * staleness test in tests/heracles_test.cc exercises exactly that.
 */
#ifndef HERACLES_HERACLES_BW_MODEL_H
#define HERACLES_HERACLES_BW_MODEL_H

#include <vector>

#include "hw/config.h"
#include "workloads/lc_app.h"

namespace heracles::ctl {

/**
 * Piecewise-linear table: (load, LLC ways available to the LC task) ->
 * expected DRAM bandwidth in GB/s. The profiled workload's bandwidth in
 * this simulator does not depend on its core count once it can sustain
 * its load, so cores is accepted for interface fidelity but does not
 * index the table.
 */
class LcBwModel
{
  public:
    /** An empty model predicts zero bandwidth (ablation mode). */
    LcBwModel() = default;

    /**
     * Builds the model by offline profiling: evaluates the workload's
     * analytic demand curve over a (load x ways) grid, exactly like the
     * paper's offline characterization runs.
     */
    static LcBwModel Profile(const workloads::LcParams& params,
                             const hw::MachineConfig& cfg);

    /** Expected LC DRAM bandwidth (GB/s). @p cores kept for fidelity. */
    double Evaluate(double load, int cores, int lc_ways) const;

    bool empty() const { return table_.empty(); }

  private:
    std::vector<double> loads_;           // grid, ascending
    std::vector<int> ways_;               // grid, ascending
    std::vector<std::vector<double>> table_;  // [load][ways]
};

}  // namespace heracles::ctl

#endif  // HERACLES_HERACLES_BW_MODEL_H
