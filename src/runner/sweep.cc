#include "runner/sweep.h"

#include "runner/pool.h"

namespace heracles::runner {

std::vector<exp::LoadPointResult>
RunSweep(const std::vector<SweepJob>& sweep, int jobs)
{
    return ParallelMap(jobs, sweep.size(), [&](size_t i) {
        return exp::Experiment(sweep[i].cfg).RunAt(sweep[i].load);
    });
}

void
AppendLoadJobs(std::vector<SweepJob>& sweep,
               const exp::ExperimentConfig& cfg,
               const std::vector<double>& loads, const std::string& tag)
{
    for (double load : loads) sweep.push_back(SweepJob{cfg, load, tag});
}

}  // namespace heracles::runner
