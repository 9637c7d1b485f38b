/**
 * @file
 * Figures 4-7: LC applications colocated with BE jobs under Heracles.
 *
 * The paper reads its four single-server figures off one set of runs,
 * and so does this program. For each LC workload the grid has a
 * no-colocation baseline row plus one Heracles row per BE job of the
 * evaluation set, at loads 10%..90%. As in the paper, websearch and
 * ml_cluster with iperf are omitted (they are insensitive to network
 * interference). Every (row, load) cell is an independent simulation;
 * the whole grid is one runner::ParallelMap (--jobs N threads), and each
 * figure is a view of it:
 *
 * - Figure 4: the worst report-window tail as % of SLO. The paper's
 *   headline result: no SLO violations at any load for any colocation,
 *   with the latency slack reduced relative to the baseline. The program
 *   exits 1 when a colocated run violates its SLO.
 * - Figure 5: Effective Machine Utilization of the brain and streetview
 *   colocations. EMU = LC throughput + BE throughput, both normalized to
 *   running the task alone at full machine. Values above 100% are
 *   possible thanks to better bin-packing of complementary resources
 *   (e.g. compute-bound websearch with DRAM-bound streetview).
 * - Figure 6: DRAM bandwidth, CPU utilization and CPU power (% of TDP)
 *   at 20/40/60/80% load. Heracles never lets DRAM bandwidth saturate
 *   (stream-DRAM and streetview run on few cores — high DRAM, lower
 *   CPU); cache-fitting BE tasks get LLC partitions that *reduce* total
 *   traffic; CPU power rises far less than EMU.
 * - Figure 7: memkeyval network bandwidth with iperf. The network
 *   subcontroller shapes iperf's egress traffic to
 *   LinkRate - LCBandwidth - max(0.05*LinkRate, 0.10*LCBandwidth), so the
 *   BE job soaks up exactly the bandwidth memkeyval is not using while
 *   the LC job keeps its SLO at every load.
 */
#include <algorithm>
#include <cstdio>
#include <utility>

#include "bench_common.h"
#include "exp/experiment.h"
#include "exp/reporting.h"
#include "runner/pool.h"

using namespace heracles;

namespace {

/** One grid row: an LC workload alone ("baseline") or colocated with
 *  the BE job @p be under Heracles. */
struct Row {
    std::string lc;
    std::string be;
    exp::ExperimentConfig cfg;
};

}  // namespace

int
main(int argc, char** argv)
{
    const int jobs = bench::ParseJobs(argc, argv);
    const hw::MachineConfig machine;
    const std::vector<workloads::LcParams> lcs = workloads::AllLcWorkloads();
    const std::vector<double> loads = {0.1, 0.2, 0.3, 0.4, 0.5,
                                       0.6, 0.7, 0.8, 0.9};
    const sim::Duration warmup =
        bench::Scaled(sim::Seconds(180), sim::Seconds(100));
    const sim::Duration measure =
        bench::Scaled(sim::Seconds(180), sim::Seconds(60));

    std::vector<Row> rows;
    for (const auto& lc : lcs) {
        exp::ExperimentConfig cfg;
        cfg.machine = machine;
        cfg.lc = lc;
        cfg.policy = exp::PolicyKind::kNoColocation;
        cfg.warmup = warmup;
        cfg.measure = measure;
        rows.push_back({lc.name, "baseline", cfg});
        cfg.policy = exp::PolicyKind::kHeracles;
        for (const auto& be : workloads::EvaluationBeSet(machine)) {
            if (be.name == "iperf" && lc.name != "memkeyval") continue;
            cfg.be = be;
            rows.push_back({lc.name, be.name, cfg});
        }
    }

    const size_t cols = loads.size();
    const auto results =
        runner::ParallelMap(jobs, rows.size() * cols, [&](size_t i) {
            return exp::Experiment(rows[i / cols].cfg).RunAt(loads[i % cols]);
        });
    auto at = [&](size_t row, size_t col) -> const exp::LoadPointResult& {
        return results[row * cols + col];
    };
    auto row_of = [&](const std::string& lc, const std::string& be) {
        return static_cast<size_t>(
            std::find_if(rows.begin(), rows.end(),
                         [&](const Row& r) {
                             return r.lc == lc && r.be == be;
                         }) -
            rows.begin());
    };
    auto with_loads = [&](std::vector<std::string> headers) {
        for (double l : loads) headers.push_back(exp::FormatPct(l));
        return headers;
    };

    // Figure 4.
    int violations = 0;
    for (const auto& lc : lcs) {
        exp::PrintBanner("Figure 4: " + lc.name +
                         " latency with Heracles (% of SLO)");
        exp::Table table(with_loads({"BE workload"}));
        for (size_t k = 0; k < rows.size(); ++k) {
            if (rows[k].lc != lc.name) continue;
            std::vector<std::string> row = {rows[k].be};
            for (size_t l = 0; l < cols; ++l) {
                const auto& r = at(k, l);
                if (rows[k].be != "baseline" && r.slo_violated) ++violations;
                row.push_back(exp::FormatTailFrac(r.tail_frac_slo));
            }
            table.AddRow(std::move(row));
        }
        table.Print();
    }
    std::printf("\nSLO violations across all colocations and loads: %d\n",
                violations);
    std::printf("(the paper reports zero)\n");

    // Figure 5. Baseline EMU is simply the LC load.
    exp::PrintBanner("Figure 5: Effective Machine Utilization (%)");
    {
        exp::Table table(with_loads({"colocation"}));
        table.AddRow(with_loads({"baseline (LC alone)"}));
        double total_emu = 0.0;
        int cells = 0;
        for (const auto& lc : lcs) {
            for (const std::string be : {"brain", "streetview"}) {
                const size_t k = row_of(lc.name, be);
                std::vector<std::string> row = {lc.name + "+" + be};
                for (size_t l = 0; l < cols; ++l) {
                    const double emu = at(k, l).emu;
                    row.push_back(exp::FormatPct(emu));
                    total_emu += emu;
                    ++cells;
                }
                table.AddRow(std::move(row));
            }
        }
        table.Print();
        std::printf("\nAverage EMU across colocations and loads: %s\n",
                    exp::FormatPct(total_emu / cells).c_str());
        std::printf("(the paper reports an average of ~90%%)\n");
    }

    // Figure 6: the 20/40/60/80% columns.
    const std::vector<size_t> fig6_cols = {1, 3, 5, 7};
    for (const auto& lc : lcs) {
        exp::PrintBanner("Figure 6: " + lc.name +
                         " resource utilization with Heracles");
        std::vector<std::string> headers = {"BE workload", "metric"};
        for (size_t l : fig6_cols) headers.push_back(exp::FormatPct(loads[l]));
        exp::Table table(headers);
        for (size_t k = 0; k < rows.size(); ++k) {
            if (rows[k].lc != lc.name) continue;
            std::vector<std::string> dram = {rows[k].be, "DRAM BW"};
            std::vector<std::string> cpu = {"", "CPU util"};
            std::vector<std::string> pwr = {"", "CPU power"};
            for (size_t l : fig6_cols) {
                const hw::MachineTelemetry& t = at(k, l).telemetry;
                dram.push_back(exp::FormatPct(t.dram_frac));
                cpu.push_back(exp::FormatPct(t.cpu_utilization));
                pwr.push_back(exp::FormatPct(t.power_frac_tdp));
            }
            table.AddRow(std::move(dram));
            table.AddRow(std::move(cpu));
            table.AddRow(std::move(pwr));
        }
        table.Print();
    }

    // Figure 7: memkeyval alone and with iperf under Heracles.
    exp::PrintBanner(
        "Figure 7: memkeyval network bandwidth (% of link) with iperf");
    {
        exp::Table table(with_loads({"series"}));
        const size_t base = row_of("memkeyval", "baseline");
        const size_t iperf = row_of("memkeyval", "iperf");
        std::vector<std::string> base_lc = {"baseline LC tx"};
        std::vector<std::string> lc_tx = {"heracles LC tx"};
        std::vector<std::string> be_tx = {"heracles BE tx (iperf)"};
        std::vector<std::string> tail = {"LC tail (% SLO)"};
        for (size_t l = 0; l < cols; ++l) {
            const auto& b = at(base, l);
            const auto& h = at(iperf, l);
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
    }
    std::printf(
        "\nBE bandwidth tracks the complement of LC bandwidth (minus the\n"
        "reserved headroom) and the memkeyval SLO holds at every load.\n");
    return violations == 0 ? 0 : 1;
}
