/**
 * @file
 * Figure 6: shared-resource utilization under Heracles — DRAM bandwidth,
 * CPU utilization and CPU power (% of TDP) for each LC workload
 * colocated with each BE job.
 *
 * Key shapes from the paper: Heracles never lets DRAM bandwidth
 * saturate (stream-DRAM and streetview run on few cores — high DRAM,
 * lower CPU); cache-fitting BE tasks get LLC partitions that *reduce*
 * total traffic; CPU power rises far less than EMU (energy-efficiency
 * gain).
 */
#include <cstdio>

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
    const std::vector<double> loads =
        bench::FastMode() ? std::vector<double>{0.25, 0.55, 0.8}
                          : std::vector<double>{0.2, 0.4, 0.6, 0.8};
    const sim::Duration warmup =
        bench::Scaled(sim::Seconds(180), sim::Seconds(100));
    const sim::Duration measure =
        bench::Scaled(sim::Seconds(150), sim::Seconds(60));

    for (const auto& lc : workloads::AllLcWorkloads()) {
        exp::PrintBanner("Figure 6: " + lc.name +
                         " resource utilization with Heracles");

        std::vector<std::string> headers = {"BE workload", "metric"};
        for (double l : loads) headers.push_back(exp::FormatPct(l));
        exp::Table table(headers);

        // Runs @p cfg at every load (independent points, fanned across
        // the pool) and adds its three metric rows.
        auto add_rows = [&](const std::string& name,
                            const exp::ExperimentConfig& cfg) {
            const exp::Experiment e(cfg);
            const auto rs =
                runner::ParallelMap(jobs, loads.size(), [&](size_t i) {
                    return e.RunAt(loads[i]);
                });
            std::vector<std::string> dram = {name, "DRAM BW"};
            std::vector<std::string> cpu = {"", "CPU util"};
            std::vector<std::string> pwr = {"", "CPU power"};
            for (const auto& r : rs) {
                dram.push_back(exp::FormatPct(r.telemetry.dram_frac));
                cpu.push_back(exp::FormatPct(r.telemetry.cpu_utilization));
                pwr.push_back(exp::FormatPct(r.telemetry.power_frac_tdp));
            }
            table.AddRow(std::move(dram));
            table.AddRow(std::move(cpu));
            table.AddRow(std::move(pwr));
        };

        // Baseline.
        {
            exp::ExperimentConfig cfg;
            cfg.machine = machine;
            cfg.lc = lc;
            cfg.policy = exp::PolicyKind::kNoColocation;
            cfg.warmup = warmup;
            cfg.measure = measure;
            add_rows("baseline", cfg);
            std::fflush(stdout);
        }

        for (const auto& be : workloads::EvaluationBeSet(machine)) {
            if (be.name == "iperf" && lc.name != "memkeyval") continue;
            exp::ExperimentConfig cfg;
            cfg.machine = machine;
            cfg.lc = lc;
            cfg.be = be;
            cfg.policy = exp::PolicyKind::kHeracles;
            cfg.warmup = warmup;
            cfg.measure = measure;
            add_rows(be.name, cfg);
            std::fflush(stdout);
        }
        table.Print();
        std::fflush(stdout);
    }
    return 0;
}
