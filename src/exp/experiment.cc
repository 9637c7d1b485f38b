#include "exp/experiment.h"

#include <cmath>

namespace heracles::exp {

Experiment::Experiment(ExperimentConfig cfg) : cfg_(std::move(cfg))
{
    if (cfg_.be.has_value() &&
        cfg_.policy != PolicyKind::kNoColocation) {
        be_alone_rate_ =
            workloads::MeasureAloneRate(cfg_.machine, *cfg_.be);
    }
}

LoadPointResult
Experiment::Run(const sim::LoadTrace& trace, uint64_t salt,
                const chaos::FaultPlan& faults) const
{
    sim::EventQueue queue;

    ServerSpec spec;
    spec.machine = cfg_.machine;
    spec.lc = cfg_.lc;
    spec.SeedFrom(cfg_.seed, salt);
    spec.be = cfg_.be;
    spec.policy = cfg_.policy;
    spec.heracles = cfg_.heracles;
    spec.faults =
        chaos::ResolvedFaultPlan::For(faults, cfg_.warmup + cfg_.measure);

    ServerSim server(spec, queue);
    workloads::LcApp& lc = server.lc();
    workloads::BeTask* be = server.be();

    lc.SetTrace(&trace);
    lc.Start();
    server.machine().ResolveNow();

    const uint64_t completed =
        server.RunMeasured(cfg_.warmup, cfg_.measure);

    LoadPointResult r;
    r.worst_tail = lc.WorstReportTail();
    r.tail_frac_slo = static_cast<double>(r.worst_tail) /
                      static_cast<double>(cfg_.lc.slo_latency);
    r.slo_violated = r.tail_frac_slo > 1.0;
    r.p95 = lc.OverallPercentile(0.95);
    r.p99 = lc.OverallPercentile(0.99);

    const double measure_s = sim::ToSeconds(cfg_.measure);
    r.lc_throughput =
        static_cast<double>(completed) / measure_s / cfg_.lc.peak_qps;
    r.be_throughput = be ? be->AvgRate() / be_alone_rate_ : 0.0;
    r.emu = r.lc_throughput + r.be_throughput;

    r.telemetry = server.machine().AveragedTelemetry();

    static_cast<ActivityCounters&>(r) = server.Activity();
    if (const ctl::HeraclesController* c = server.controller()) {
        r.slack = c->LastSlack();
    }

    r.be_cores = server.platform().BeCores();
    r.be_ways = server.platform().BeWays();
    r.be_freq_cap_ghz = server.platform().BeFreqCapGhz();

    server.StopController();
    return r;
}

LoadPointResult
Experiment::RunAt(double load) const
{
    // A constant load is ConstantTrace, exactly what LcApp::SetLoad
    // installs, so the trace path reproduces the load point bit for bit.
    const sim::ConstantTrace trace(load);
    LoadPointResult r = Run(
        trace, static_cast<uint64_t>(std::lround(load * 1000)), {});
    r.load = load;
    return r;
}

}  // namespace heracles::exp
