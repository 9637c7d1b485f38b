/**
 * @file
 * Characterizing a workload's interference sensitivity (a small version
 * of the paper's Figure 1 methodology, Section 3.2).
 *
 * Pins the LC workload to just enough cores for its SLO at each load,
 * runs one antagonist on the remaining cores, and reports tail latency
 * as a fraction of the SLO. Use this before trusting any colocation: if
 * a resource's row explodes, that resource needs an isolation mechanism.
 */
#include <cstdio>

#include "exp/characterization.h"
#include "exp/reporting.h"
#include "runner/pool.h"

using namespace heracles;

int
main()
{
    const hw::MachineConfig machine;
    const std::vector<double> loads = {0.2, 0.5, 0.8};
    const int jobs = runner::DefaultJobs();

    exp::CharacterizationRig rig(machine, workloads::MlCluster(),
                                 sim::Seconds(20), sim::Seconds(40));

    exp::PrintBanner("ml_cluster interference characterization "
                     "(tail as % of SLO)");

    std::vector<std::string> headers = {"antagonist"};
    for (double l : loads) headers.push_back(exp::FormatPct(l));
    exp::Table table(headers);

    const std::vector<exp::AntagonistKind> kinds = {
        exp::AntagonistKind::kLlcMedium, exp::AntagonistKind::kLlcBig,
        exp::AntagonistKind::kDram,      exp::AntagonistKind::kHyperThread,
        exp::AntagonistKind::kCpuPower,  exp::AntagonistKind::kNetwork,
        exp::AntagonistKind::kBrainOsOnly};

    // Every cell is an independent simulation: fan the whole matrix (one
    // row per antagonist, then the baseline row) out at once.
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

    std::printf(
        "\nml_cluster tolerates network antagonists but is destroyed by\n"
        "LLC/DRAM pressure — so a static or OS-only policy cannot \n"
        "colocate it safely, while Heracles can (see fig4_7_colocation).\n");
    return 0;
}
