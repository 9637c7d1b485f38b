/**
 * @file
 * Figure 1: impact of interference on shared resources.
 *
 * For each LC workload (websearch, ml_cluster, memkeyval), prints the
 * characterization matrix: rows are antagonists, columns are load points
 * 5%..95%, and each cell is tail latency normalized to the SLO (values
 * above 300% print as ">300%"). The paper's qualitative findings to look
 * for: OS-only isolation (brain row) violates everywhere; LLC (big) and
 * DRAM antagonists devastate low/mid loads and fade as the LC workload
 * claims more cores; HyperThread interference is tolerable until high
 * load; memkeyval is destroyed by network antagonists from ~35% load.
 */
#include <cstdio>

#include "bench_common.h"
#include "exp/characterization.h"
#include "exp/reporting.h"
#include "runner/pool.h"

using namespace heracles;

int
main(int argc, char** argv)
{
    const int jobs = bench::ParseJobs(argc, argv);
    const hw::MachineConfig machine;
    const auto loads = exp::CharacterizationRig::PaperLoads();
    const sim::Duration warmup =
        bench::Scaled(sim::Seconds(20), sim::Seconds(8));
    const sim::Duration measure =
        bench::Scaled(sim::Seconds(40), sim::Seconds(15));

    for (const auto& lc : workloads::AllLcWorkloads()) {
        exp::CharacterizationRig rig(machine, lc, warmup, measure);
        // A microsecond-scale SLO leaves no provisioning headroom: the
        // minimum-core sizing for memkeyval is tighter, which is what
        // makes it hypersensitive to every antagonist (Section 3.3).
        if (lc.name == "memkeyval") rig.SetSizingUtil(0.90);

        exp::PrintBanner("Figure 1: " + lc.name +
                         " tail latency vs load (% of SLO)");

        std::vector<std::string> headers = {"antagonist"};
        for (double l : loads) {
            headers.push_back(exp::FormatPct(l));
        }
        exp::Table table(headers);

        // One flat fan-out: a row per antagonist, then the baseline row
        // (not in the paper's figure, but needed to judge the
        // interference deltas).
        const auto kinds = exp::AllAntagonists();
        const size_t cols = loads.size();
        const std::vector<double> cells = runner::ParallelMap(
            jobs, (kinds.size() + 1) * cols, [&](size_t i) {
                const double load = loads[i % cols];
                return i / cols < kinds.size()
                           ? rig.RunCell(kinds[i / cols], load)
                           : rig.RunBaseline(load);
            });
        for (size_t k = 0; k <= kinds.size(); ++k) {
            std::vector<std::string> row = {
                k < kinds.size() ? exp::AntagonistName(kinds[k])
                                 : "(baseline)"};
            for (size_t l = 0; l < cols; ++l) {
                row.push_back(exp::FormatTailFrac(cells[k * cols + l]));
            }
            table.AddRow(std::move(row));
        }
        table.Print();
        std::fflush(stdout);
    }
    return 0;
}
