/**
 * @file
 * Ablation A2: sensitivity of Heracles to its controller parameters.
 *
 * Sweeps the DRAM saturation limit, the slack thresholds, the poll
 * period and the fast-slack stabilizer on websearch+brain at 50% load,
 * reporting tail latency and EMU. The defaults (paper constants) should
 * sit on the knee: safe yet close to maximal EMU.
 */
#include <cstdio>
#include <utility>

#include "bench_common.h"
#include "exp/experiment.h"
#include "exp/reporting.h"
#include "runner/pool.h"

using namespace heracles;

namespace {

constexpr double kLoad = 0.5;

std::pair<std::string, exp::ExperimentConfig>
Variant(const std::string& label, const ctl::HeraclesConfig& hcfg)
{
    const hw::MachineConfig machine;
    exp::ExperimentConfig cfg;
    cfg.machine = machine;
    cfg.lc = workloads::Websearch();
    cfg.be = workloads::Brain();
    cfg.policy = exp::PolicyKind::kHeracles;
    cfg.heracles = hcfg;
    cfg.warmup = bench::Scaled(sim::Seconds(180), sim::Seconds(90));
    cfg.measure = bench::Scaled(sim::Seconds(150), sim::Seconds(60));
    return {label, cfg};
}

void
AddRow(exp::Table& t, const std::string& label,
       const exp::LoadPointResult& r)
{
    t.AddRow({label, exp::FormatTailFrac(r.tail_frac_slo),
              r.slo_violated ? "VIOLATED" : "yes", exp::FormatPct(r.emu),
              std::to_string(r.be_cores)});
}

}  // namespace

int
main(int argc, char** argv)
{
    const int jobs = bench::ParseJobs(argc, argv);
    exp::PrintBanner(
        "Ablation A2: controller parameters (websearch+brain @ 50%)");

    exp::Table table(
        {"variant", "tail (% SLO)", "SLO ok", "EMU", "BE cores"});

    // The variants are independent runs; fan them across the pool.
    std::vector<std::pair<std::string, exp::ExperimentConfig>> variants;
    variants.push_back(Variant("defaults (paper constants)", {}));
    for (double limit : {0.70, 0.80, 0.95}) {
        ctl::HeraclesConfig c;
        c.dram_limit_frac = limit;
        variants.push_back(Variant(
            "DRAM limit " + exp::FormatPct(limit) + " (default 90%)", c));
    }
    {
        ctl::HeraclesConfig c;
        c.slack_disallow_growth = 0.20;
        c.slack_shrink = 0.10;
        variants.push_back(
            Variant("conservative slack thresholds (20%/10%)", c));
    }
    {
        ctl::HeraclesConfig c;
        c.top_period = sim::Seconds(30);
        variants.push_back(Variant("slow top-level poll (30s)", c));
    }
    {
        ctl::HeraclesConfig c;
        c.use_fast_slack = false;
        c.fast_shrink = false;
        variants.push_back(
            Variant("no fast-slack stabilizer (pure 15s slack)", c));
    }
    {
        ctl::HeraclesConfig c;
        c.fast_growth_margin = 0.10;
        variants.push_back(Variant("narrow growth hysteresis (10%)", c));
    }
    {
        ctl::HeraclesConfig c;
        c.use_hw_bw_accounting = true;
        c.use_bw_model = false;
        variants.push_back(Variant(
            "hw per-task bw accounting, no offline model (Sec. 7)", c));
    }

    const auto results =
        runner::ParallelMap(jobs, variants.size(), [&](size_t i) {
            return exp::Experiment(variants[i].second).RunAt(kLoad);
        });
    for (size_t i = 0; i < results.size(); ++i) {
        AddRow(table, variants[i].first, results[i]);
    }
    table.Print();
    std::printf(
        "\nLower DRAM limits trade EMU for safety margin; removing the\n"
        "fast-slack stabilizer makes the 2s gradient descent overshoot\n"
        "the 15s latency feedback (violation, then a 5-minute cooldown\n"
        "with zero colocation).\n");
    return 0;
}
