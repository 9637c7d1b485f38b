#include "heracles/bw_model.h"

#include <algorithm>

#include "sim/log.h"

namespace heracles::ctl {

LcBwModel
LcBwModel::Profile(const workloads::LcParams& params,
                   const hw::MachineConfig& cfg)
{
    LcBwModel m;
    for (double l = 0.0; l <= 1.001; l += 0.05) m.loads_.push_back(l);
    for (int w = 2; w <= cfg.llc_ways; w += 2) m.ways_.push_back(w);

    m.table_.resize(m.loads_.size());
    for (size_t i = 0; i < m.loads_.size(); ++i) {
        m.table_[i].resize(m.ways_.size());
        for (size_t j = 0; j < m.ways_.size(); ++j) {
            // Effective resident cache: the smaller of the partition and
            // the workload's footprint at this load, per socket.
            const double load = m.loads_[i];
            const double part = m.ways_[j] * cfg.MbPerWay();
            const double footprint =
                params.cache.instr_mb +
                workloads::LcApp::DataFootprintMb(params, load);
            const double eff = std::min(part, footprint);
            m.table_[i][j] = workloads::LcApp::AnalyticDramGbps(
                params, cfg, load, eff);
        }
    }
    return m;
}

double
LcBwModel::Evaluate(double load, int lc_ways) const
{
    if (table_.empty()) return 0.0;

    load = std::clamp(load, loads_.front(), loads_.back());
    lc_ways = std::clamp(lc_ways, ways_.front(), ways_.back());

    // Bilinear interpolation on the (load, ways) grid.
    const auto li = std::upper_bound(loads_.begin(), loads_.end(), load);
    const size_t i1 = std::min(
        loads_.size() - 1, static_cast<size_t>(li - loads_.begin()));
    const size_t i0 = i1 > 0 ? i1 - 1 : 0;
    const auto wi = std::upper_bound(ways_.begin(), ways_.end(), lc_ways);
    const size_t j1 =
        std::min(ways_.size() - 1, static_cast<size_t>(wi - ways_.begin()));
    const size_t j0 = j1 > 0 ? j1 - 1 : 0;

    const double tx =
        i1 > i0 ? (load - loads_[i0]) / (loads_[i1] - loads_[i0]) : 0.0;
    const double ty =
        j1 > j0 ? static_cast<double>(lc_ways - ways_[j0]) /
                      (ways_[j1] - ways_[j0])
                : 0.0;

    const double a = table_[i0][j0] * (1 - ty) + table_[i0][j1] * ty;
    const double b = table_[i1][j0] * (1 - ty) + table_[i1][j1] * ty;
    return a * (1 - tx) + b * tx;
}

}  // namespace heracles::ctl
