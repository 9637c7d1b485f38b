#include "cluster/epoch.h"

#include <algorithm>

#include "sim/log.h"

namespace heracles::cluster {

BarrierClock
BarrierClock::Build(sim::Duration duration, sim::Duration root_window,
                    sim::Duration scheduler_period,
                    const std::vector<chaos::TimedFault>& faults)
{
    HERACLES_CHECK_MSG(duration > 0, "empty cluster run");
    HERACLES_CHECK_MSG(root_window > 0, "root window must be positive");

    BarrierClock clock;
    std::vector<sim::SimTime>& b = clock.barriers;
    for (sim::SimTime t = root_window; t <= duration; t += root_window) {
        b.push_back(t);
    }
    if (scheduler_period > 0) {
        for (sim::SimTime t = scheduler_period; t <= duration;
             t += scheduler_period) {
            b.push_back(t);
        }
    }
    for (const chaos::TimedFault& f : faults) {
        if (f.begin > 0 && f.begin <= duration) b.push_back(f.begin);
        if (f.end > 0 && f.end <= duration) b.push_back(f.end);
    }
    b.push_back(duration);
    std::sort(b.begin(), b.end());
    b.erase(std::unique(b.begin(), b.end()), b.end());
    return clock;
}

bool
BarrierClock::IsBarrier(sim::SimTime t) const
{
    return std::binary_search(barriers.begin(), barriers.end(), t);
}

}  // namespace heracles::cluster
