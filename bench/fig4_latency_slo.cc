/**
 * @file
 * Figure 4: latency of LC applications colocated with BE jobs under
 * Heracles.
 *
 * For each LC workload and each BE job, sweeps load 10%..90% and prints
 * the worst report-window tail as % of SLO. The paper's headline result:
 * no SLO violations at any load for any colocation, with the latency
 * slack reduced relative to the no-colocation baseline. As in the paper,
 * websearch and ml_cluster with iperf are omitted (they are insensitive
 * to network interference).
 *
 * Every (row, load) cell is an independent simulation; the whole figure
 * is flattened into one runner::ParallelMap (--jobs N threads).
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

    int violations = 0;
    for (const auto& lc : workloads::AllLcWorkloads()) {
        exp::PrintBanner("Figure 4: " + lc.name +
                         " latency with Heracles (% of SLO)");

        std::vector<std::string> headers = {"BE workload"};
        for (double l : loads) headers.push_back(exp::FormatPct(l));
        exp::Table table(headers);

        // Baseline (LC alone) plus one row per colocated BE job.
        std::vector<std::pair<std::string, exp::ExperimentConfig>> rows;
        {
            exp::ExperimentConfig cfg;
            cfg.machine = machine;
            cfg.lc = lc;
            cfg.policy = exp::PolicyKind::kNoColocation;
            cfg.warmup = warmup;
            cfg.measure = measure;
            rows.emplace_back("baseline", cfg);
        }
        for (const auto& be : workloads::EvaluationBeSet(machine)) {
            // The paper omits these network-insensitive combinations.
            if (be.name == "iperf" && lc.name != "memkeyval") continue;
            exp::ExperimentConfig cfg;
            cfg.machine = machine;
            cfg.lc = lc;
            cfg.be = be;
            cfg.policy = exp::PolicyKind::kHeracles;
            cfg.warmup = warmup;
            cfg.measure = measure;
            rows.emplace_back(be.name, cfg);
        }

        const size_t cols = loads.size();
        const auto results =
            runner::ParallelMap(jobs, rows.size() * cols, [&](size_t i) {
                return exp::Experiment(rows[i / cols].second)
                    .RunAt(loads[i % cols]);
            });

        for (size_t k = 0; k < rows.size(); ++k) {
            const std::string& name = rows[k].first;
            std::vector<std::string> row = {name};
            for (size_t l = 0; l < cols; ++l) {
                const auto& r = results[k * cols + l];
                if (name != "baseline" && r.slo_violated) ++violations;
                row.push_back(exp::FormatTailFrac(r.tail_frac_slo));
            }
            table.AddRow(std::move(row));
        }
        table.Print();
        std::fflush(stdout);
    }

    std::printf("\nSLO violations across all colocations and loads: %d\n",
                violations);
    std::printf("(the paper reports zero)\n");
    return violations == 0 ? 0 : 1;
}
