#include "runner/sweep.h"

#include <memory>
#include <unordered_map>

#include "runner/pool.h"

namespace heracles::runner {

std::vector<exp::LoadPointResult>
RunSweep(const std::vector<SweepJob>& sweep, int jobs)
{
    // One Experiment per row: jobs appended together share a config, so
    // the BE alone-rate baseline in the Experiment constructor runs once
    // per row instead of once per load point. Row-less jobs (-1) each
    // get their own.
    std::vector<size_t> exp_of(sweep.size());
    std::vector<size_t> owners;  // job index whose cfg builds Experiment e
    std::unordered_map<int, size_t> row_to_exp;
    for (size_t i = 0; i < sweep.size(); ++i) {
        const int row = sweep[i].row;
        if (row < 0) {
            exp_of[i] = owners.size();
            owners.push_back(i);
        } else {
            const auto [it, inserted] =
                row_to_exp.emplace(row, owners.size());
            if (inserted) owners.push_back(i);
            exp_of[i] = it->second;
        }
    }

    // The constructors run alone-rate simulations; fan them out too.
    std::vector<std::unique_ptr<exp::Experiment>> experiments(
        owners.size());
    ParallelFor(jobs, owners.size(), [&](size_t e) {
        experiments[e] =
            std::make_unique<exp::Experiment>(sweep[owners[e]].cfg);
    });

    return ParallelMap(jobs, sweep.size(), [&](size_t i) {
        return experiments[exp_of[i]]->RunAt(sweep[i].load);
    });
}

void
AppendLoadJobs(std::vector<SweepJob>& sweep,
               const exp::ExperimentConfig& cfg,
               const std::vector<double>& loads, const std::string& tag)
{
    // The pre-append size is unique per block, so it serves as the
    // shared row id for every load point of this config.
    const int row = static_cast<int>(sweep.size());
    for (double load : loads) {
        sweep.push_back(SweepJob{cfg, load, tag, row});
    }
}

}  // namespace heracles::runner
