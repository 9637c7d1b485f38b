#include "platform/sim_platform.h"

#include <algorithm>

#include "hw/power.h"

namespace heracles::platform {
namespace {

Facts
FactsOf(const hw::MachineConfig& cfg, const workloads::LcParams& lc)
{
    // The frequency the LC task sustains alone at 100% load: all cores
    // busy at the workload's power intensity, no DVFS caps.
    std::vector<hw::CorePowerRequest> cores(cfg.cores_per_socket);
    for (auto& c : cores) {
        c.busy = 1.0;
        c.intensity = lc.power_intensity;
    }
    const hw::PowerOutcome out = hw::ResolvePower(cfg, cores);
    double guaranteed = 0.0;
    for (double ghz : out.freq_ghz) guaranteed += ghz;

    Facts f;
    f.sockets = cfg.sockets;
    f.total_phys_cores = cfg.TotalCores();
    f.total_llc_ways = cfg.llc_ways;
    f.dram_peak_gbps = cfg.TotalDramGbps();
    f.tdp_w = cfg.tdp_w;
    f.min_ghz = cfg.min_ghz;
    f.max_ghz = cfg.turbo_1c_ghz;
    f.freq_step_ghz = cfg.dvfs_step_ghz;
    f.link_rate_gbps = cfg.nic_gbps;
    f.guaranteed_lc_freq_ghz = guaranteed / cores.size();
    return f;
}

}  // namespace

SimPlatform::SimPlatform(hw::Machine& machine, workloads::LcApp& lc,
                         workloads::BeTask* be)
    : machine_(machine),
      lc_(lc),
      be_(be),
      facts_(FactsOf(machine.config(), lc.params())),
      noise_(machine.config().seed ^ 99),
      util_read_at_(machine.queue().Now()),
      util_read_busy_ns_(lc.BusyThreadNs())
{
}

double
SimPlatform::LcCpuUtilization()
{
    const sim::SimTime now = machine_.queue().Now();
    const int64_t busy_ns = lc_.BusyThreadNs();
    const sim::Duration span = now - util_read_at_;
    const int64_t busy_delta = busy_ns - util_read_busy_ns_;
    util_read_at_ = now;
    util_read_busy_ns_ = busy_ns;
    const int cpus = machine_.CpusOf(&lc_).Count();
    if (span <= 0 || cpus == 0) return lc_.CpuBusyFraction();
    const double util = static_cast<double>(busy_delta) /
                        (static_cast<double>(span) * cpus);
    return std::clamp(util, 0.0, 1.0);
}

void
SimPlatform::ApplyInitialPlacement()
{
    be_cores_ = 0;
    be_ways_ = 0;
    ApplyCpusets();
    ApplyCat();
    machine_.SetBeNetCeilGbps(-1.0);
    machine_.ResolveNow();
}

void
SimPlatform::AttachBeJob(workloads::BeTask* be)
{
    be_ = be;
    be_cores_ = 0;
    be_ways_ = 0;
}

void
SimPlatform::ApplyCpusets()
{
    const auto& topo = machine_.topology();
    const int total = machine_.config().TotalCores();
    const int lc_cores = total - be_cores_;
    // Vacate the BE cpuset first so the LC set never transiently overlaps
    // it while the partition point moves (cpusets are exclusive).
    if (be_ != nullptr) be_->SetCpus(hw::CpuSet());
    lc_.SetCpus(topo.PhysicalCores(0, lc_cores));
    if (be_ != nullptr && be_cores_ > 0) {
        be_->SetCpus(topo.PhysicalCores(lc_cores, be_cores_));
    }
}

void
SimPlatform::ApplyCat()
{
    const int total_ways = machine_.config().llc_ways;
    if (be_ != nullptr && be_cores_ > 0 && be_ways_ > 0) {
        machine_.SetCatWays(be_, be_ways_);
        machine_.SetCatWays(&lc_, total_ways - be_ways_);
    } else {
        if (be_ != nullptr) machine_.SetCatWays(be_, 0);
        machine_.SetCatWays(&lc_, 0);
    }
}

void
SimPlatform::SetBeCores(int cores)
{
    ++actuations_.set_cores;
    // The LC workload always keeps at least one physical core.
    const int total = machine_.config().TotalCores();
    be_cores_ = std::clamp(cores, 0, total - 1);
    if (be_ == nullptr) be_cores_ = 0;
    ApplyCpusets();
    ApplyCat();
    // Coalesces with any other same-instant actuations into one resolve.
    machine_.RequestResolve();
}

void
SimPlatform::SetBeWays(int ways)
{
    ++actuations_.set_ways;
    // BE never gets every way: the LC partition keeps at least 4 ways
    // (its hot working set), mirroring production resctrl configs.
    const int total_ways = machine_.config().llc_ways;
    be_ways_ = std::clamp(ways, 0, total_ways - 4);
    ApplyCat();
    machine_.RequestResolve();
}

double
SimPlatform::BeDramEstimateGbps()
{
    if (be_ == nullptr) return 0.0;
    // The paper estimates BE bandwidth from counters proportional to
    // per-core memory traffic; model that as a noisier reading of the
    // true grant.
    const hw::TaskView& view = machine_.ViewOf(be_);
    const double jitter = 1.0 + noise_.Uniform(-0.05, 0.05);
    return view.TotalDramGrantedGbps() * jitter;
}

double
SimPlatform::BeFreqCapGhz()
{
    return be_ != nullptr ? machine_.FreqCapOf(be_) : 0.0;
}

void
SimPlatform::SetBeFreqCapGhz(double ghz)
{
    ++actuations_.set_freq_cap;
    if (be_ != nullptr) {
        machine_.SetFreqCapGhz(be_, ghz);
        machine_.RequestResolve();
    }
}

double
SimPlatform::BeRate()
{
    if (be_ == nullptr) return 0.0;
    const double jitter = 1.0 + noise_.Uniform(-0.02, 0.02);
    return be_->CurrentRate() * jitter;
}

}  // namespace heracles::platform
