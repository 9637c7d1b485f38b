#include "workloads/be_task.h"

#include <algorithm>
#include <utility>

#include "sim/once_cache.h"

namespace heracles::workloads {

BeTask::BeTask(hw::Machine& machine, const BeProfile& profile)
    : machine_(machine), profile_(profile)
{
    machine_.AddClient(this);
    accounting_start_ = machine_.queue().Now();
    last_accrue_ = accounting_start_;
    accrue_event_ = machine_.queue().SchedulePeriodic(
        sim::Millis(100), sim::Millis(100), [this] { Accrue(); });
}

BeTask::~BeTask()
{
    machine_.queue().Cancel(accrue_event_);
    machine_.RemoveClient(this);
}

void
BeTask::SetCpus(const hw::CpuSet& cpus)
{
    Accrue();  // close the accounting period at the old allocation
    machine_.AssignCpus(this, cpus);
}

void
BeTask::SetDemandScale(double scale)
{
    Accrue();  // close the accounting period at the old demand
    // A resolve requested earlier this instant must still see the old
    // demand scale; flush it before the change, then request a resolve
    // so the phase change lands this instant, not at the next 25 ms
    // contention epoch. Same-instant demand changes coalesce into one.
    machine_.EnsureResolved();
    demand_scale_ = scale;
    machine_.MarkDemandDirty();
    machine_.RequestResolve();
}

int
BeTask::CoresOn(int socket) const
{
    const hw::CpuSet here =
        machine_.topology().OnSocket(machine_.CpusOf(this), socket);
    return machine_.topology().PhysicalCoreCount(here);
}

double
BeTask::CpuBusyFraction() const
{
    return machine_.CpusOf(this).Empty() ? 0.0 : 1.0;
}

double
BeTask::LlcFootprintMb(int socket) const
{
    return CoresOn(socket) > 0 ? demand_scale_ * profile_.footprint_mb
                               : 0.0;
}

double
BeTask::LlcAccessWeight(int socket) const
{
    return demand_scale_ * profile_.weight_per_core * CoresOn(socket);
}

double
BeTask::MissFraction(int socket, double effective_llc_mb) const
{
    (void)socket;
    const double footprint = demand_scale_ * profile_.footprint_mb;
    if (footprint <= 0.0) return 1.0;
    const double hit =
        std::clamp(effective_llc_mb / footprint, 0.0, 1.0);
    return 1.0 - hit;
}

double
BeTask::DramDemandGbps(int socket, double effective_llc_mb) const
{
    const int cores = CoresOn(socket);
    if (cores == 0) return 0.0;
    const double miss = MissFraction(socket, effective_llc_mb);
    return cores * demand_scale_ * profile_.dram_per_core_gbps *
           (profile_.dram_compulsory_frac +
            (1.0 - profile_.dram_compulsory_frac) * miss);
}

double
BeTask::NetTxDemandGbps() const
{
    return machine_.CpusOf(this).Empty()
               ? 0.0
               : demand_scale_ * profile_.net_demand_gbps;
}

double
BeTask::CurrentRate() const
{
    const hw::CpuSet& cpus = machine_.CpusOf(this);
    if (cpus.Empty()) return 0.0;
    const hw::TaskView& view = machine_.ViewOf(this);
    const hw::MachineConfig& cfg = machine_.config();

    if (profile_.network_bound) return view.net_granted_gbps;
    if (profile_.memory_bound) return view.TotalDramGrantedGbps();

    double rate = 0.0;
    for (int s = 0; s < cfg.sockets; ++s) {
        const int cores = CoresOn(s);
        if (cores == 0) continue;
        double r = static_cast<double>(cores);
        // Frequency sensitivity.
        const double fr = view.freq_ghz > 0.0
                              ? view.freq_ghz / cfg.nominal_ghz
                              : 1.0;
        r *= std::pow(fr, profile_.freq_sensitivity);
        // Cache sensitivity.
        const double hit = 1.0 - MissFraction(s, view.llc_mb[s]);
        r *= profile_.cache_rate_floor +
             (1.0 - profile_.cache_rate_floor) * hit;
        // Bandwidth starvation: if we wanted more DRAM bandwidth than we
        // were granted, throughput scales with the shortfall.
        const double demand = view.dram_demand_gbps[s];
        if (demand > 1e-9) {
            r *= std::min(1.0, view.dram_granted_gbps[s] / demand);
        }
        rate += r;
    }
    return rate;
}

void
BeTask::Accrue()
{
    const sim::SimTime now = machine_.queue().Now();
    if (now > last_accrue_) {
        work_ += CurrentRate() * sim::ToSeconds(now - last_accrue_);
        last_accrue_ = now;
    }
}

double
BeTask::AvgRate() const
{
    const_cast<BeTask*>(this)->Accrue();
    const sim::SimTime now = machine_.queue().Now();
    const double elapsed = sim::ToSeconds(now - accounting_start_);
    return elapsed > 0.0 ? work_ / elapsed : 0.0;
}

void
BeTask::ResetThroughput()
{
    Accrue();
    work_ = 0.0;
    accounting_start_ = machine_.queue().Now();
    last_accrue_ = accounting_start_;
}

double
MeasureAloneRate(const hw::MachineConfig& cfg, const BeProfile& profile)
{
    using Key = std::pair<hw::MachineConfig, BeProfile>;
    static auto* cache = new sim::OnceCache<Key, double>();
    return cache->Get(Key{cfg, profile}, [&] {
        sim::EventQueue queue;
        hw::Machine machine(cfg, queue);
        BeTask task(machine, profile);
        task.SetCpus(hw::CpuSet::Range(0, cfg.LogicalCpus()));
        machine.ResolveNow();
        task.ResetThroughput();
        queue.RunFor(sim::Seconds(2));
        const double rate = task.AvgRate();
        return rate > 1e-9 ? rate : 1.0;
    });
}

}  // namespace heracles::workloads
