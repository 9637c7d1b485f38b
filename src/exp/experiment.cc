#include "exp/experiment.h"

#include <cmath>

#include "runner/pool.h"

namespace heracles::exp {

Experiment::Experiment(ExperimentConfig cfg) : cfg_(std::move(cfg))
{
    if (cfg_.be.has_value() &&
        cfg_.policy != PolicyKind::kNoColocation) {
        be_alone_rate_ =
            workloads::MeasureAloneRate(cfg_.machine, *cfg_.be);
    }
}

std::vector<double>
Experiment::PaperLoads(double step)
{
    std::vector<double> loads;
    for (double l = 0.05; l <= 0.951; l += step) loads.push_back(l);
    return loads;
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

    if (const ctl::HeraclesController* c = server.controller()) {
        const ctl::ControllerStats& s = c->stats();
        r.polls = s.polls;
        r.be_enables = s.be_enables;
        r.be_disables = s.be_disables_slack + s.be_disables_load;
        r.core_shrinks = s.core_shrinks;
        r.slack = c->LastSlack();
    }
    r.actuations = server.platform().actuations();
    if (const chaos::InvariantChecker* c = server.checker()) {
        r.invariant_violations = c->count();
    }
    if (const chaos::FaultyPlatform* f = server.faulty()) {
        r.faulted_ops = f->faulted_ops();
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

std::vector<LoadPointResult>
Experiment::Sweep(const std::vector<double>& loads, int jobs) const
{
    // Each RunAt builds a completely fresh simulation whose seeds derive
    // only from (config, load), so fanning the points across threads
    // cannot change any result.
    return runner::ParallelMap(jobs, loads.size(),
                               [&](size_t i) { return RunAt(loads[i]); });
}

}  // namespace heracles::exp
