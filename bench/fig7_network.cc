/**
 * @file
 * Figure 7: memkeyval network bandwidth under Heracles with iperf.
 *
 * The network subcontroller shapes iperf's egress traffic to
 * LinkRate - LCBandwidth - max(0.05*LinkRate, 0.10*LCBandwidth), so the
 * BE job soaks up exactly the bandwidth memkeyval is not using while the
 * LC job keeps its SLO at every load.
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
    const std::vector<double> loads = {0.1, 0.2, 0.3, 0.4, 0.5,
                                       0.6, 0.7, 0.8, 0.9};
    const sim::Duration warmup =
        bench::Scaled(sim::Seconds(150), sim::Seconds(80));
    const sim::Duration measure =
        bench::Scaled(sim::Seconds(120), sim::Seconds(40));

    exp::PrintBanner(
        "Figure 7: memkeyval network bandwidth (% of link) with iperf");

    std::vector<std::string> headers = {"series"};
    for (double l : loads) headers.push_back(exp::FormatPct(l));
    exp::Table table(headers);

    // Row 0 is memkeyval alone, row 1 memkeyval + iperf under Heracles;
    // their load points are independent runs, fanned out together.
    exp::ExperimentConfig baseline;
    baseline.machine = machine;
    baseline.lc = workloads::Memkeyval();
    baseline.policy = exp::PolicyKind::kNoColocation;
    baseline.warmup = warmup;
    baseline.measure = measure;
    exp::ExperimentConfig heracles = baseline;
    heracles.be = workloads::Iperf();
    heracles.policy = exp::PolicyKind::kHeracles;
    const std::vector<exp::ExperimentConfig> rows = {baseline, heracles};
    const size_t cols = loads.size();
    const auto results =
        runner::ParallelMap(jobs, rows.size() * cols, [&](size_t i) {
            return exp::Experiment(rows[i / cols]).RunAt(loads[i % cols]);
        });

    std::vector<std::string> base_lc = {"baseline LC tx"};
    std::vector<std::string> lc_tx = {"heracles LC tx"};
    std::vector<std::string> be_tx = {"heracles BE tx (iperf)"};
    std::vector<std::string> tail = {"LC tail (% SLO)"};
    for (size_t l = 0; l < cols; ++l) {
        const auto& b = results[l];
        const auto& h = results[cols + l];
        base_lc.push_back(
            exp::FormatPct(b.telemetry.lc_tx_gbps / machine.nic_gbps));
        lc_tx.push_back(
            exp::FormatPct(h.telemetry.lc_tx_gbps / machine.nic_gbps));
        be_tx.push_back(
            exp::FormatPct(h.telemetry.be_tx_gbps / machine.nic_gbps));
        tail.push_back(exp::FormatTailFrac(h.tail_frac_slo));
    }
    table.AddRow(std::move(base_lc));
    table.AddRow(std::move(lc_tx));
    table.AddRow(std::move(be_tx));
    table.AddRow(std::move(tail));
    table.Print();

    std::printf(
        "\nBE bandwidth tracks the complement of LC bandwidth (minus the\n"
        "reserved headroom) and the memkeyval SLO holds at every load.\n");
    return 0;
}
