/**
 * @file
 * Figure 5: Effective Machine Utilization achieved by Heracles.
 *
 * EMU = LC throughput + BE throughput, both normalized to running the
 * task alone at full machine. Values above 100% are possible thanks to
 * better bin-packing of complementary resources (e.g. compute-bound
 * websearch with DRAM-bound streetview).
 */
#include <cstdio>
#include <utility>

#include "bench_common.h"
#include "exp/experiment.h"
#include "exp/reporting.h"
#include "runner/pool.h"

using namespace heracles;

int
main(int argc, char** argv)
{
    const int jobs = bench::ParseJobs(argc, argv);
    const hw::MachineConfig machine;
    const std::vector<double> loads = {0.1, 0.2, 0.3, 0.4, 0.5,
                                       0.6, 0.7, 0.8, 0.9};
    const sim::Duration warmup =
        bench::Scaled(sim::Seconds(180), sim::Seconds(100));
    const sim::Duration measure =
        bench::Scaled(sim::Seconds(180), sim::Seconds(60));

    exp::PrintBanner("Figure 5: Effective Machine Utilization (%)");

    std::vector<std::string> headers = {"colocation"};
    for (double l : loads) headers.push_back(exp::FormatPct(l));
    exp::Table table(headers);

    // Baseline EMU is simply the LC load.
    {
        std::vector<std::string> row = {"baseline (LC alone)"};
        for (double l : loads) row.push_back(exp::FormatPct(l));
        table.AddRow(std::move(row));
    }

    // All (colocation, load) cells are independent: flatten them into
    // one fan-out.
    std::vector<std::pair<std::string, exp::ExperimentConfig>> rows;
    for (const auto& lc : workloads::AllLcWorkloads()) {
        for (const std::string be_name : {"brain", "streetview"}) {
            exp::ExperimentConfig cfg;
            cfg.machine = machine;
            cfg.lc = lc;
            cfg.be = workloads::BeProfileByName(machine, be_name);
            cfg.policy = exp::PolicyKind::kHeracles;
            cfg.warmup = warmup;
            cfg.measure = measure;
            rows.emplace_back(lc.name + "+" + be_name, cfg);
        }
    }
    const size_t cols = loads.size();
    const auto results =
        runner::ParallelMap(jobs, rows.size() * cols, [&](size_t i) {
            return exp::Experiment(rows[i / cols].second)
                .RunAt(loads[i % cols]);
        });

    double total_emu = 0.0;
    for (size_t k = 0; k < rows.size(); ++k) {
        std::vector<std::string> row = {rows[k].first};
        for (size_t l = 0; l < cols; ++l) {
            const double emu = results[k * cols + l].emu;
            row.push_back(exp::FormatPct(emu));
            total_emu += emu;
        }
        table.AddRow(std::move(row));
    }
    table.Print();
    std::printf("\nAverage EMU across colocations and loads: %s\n",
                exp::FormatPct(total_emu / results.size()).c_str());
    std::printf("(the paper reports an average of ~90%%)\n");
    return 0;
}
