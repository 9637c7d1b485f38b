#include "exp/characterization.h"

#include <cmath>
#include <memory>

#include "hw/machine.h"
#include "workloads/antagonists.h"
#include "workloads/be_task.h"
#include "workloads/lc_app.h"

namespace heracles::exp {

std::string
AntagonistName(AntagonistKind kind)
{
    switch (kind) {
      case AntagonistKind::kLlcSmall: return "LLC (small)";
      case AntagonistKind::kLlcMedium: return "LLC (med)";
      case AntagonistKind::kLlcBig: return "LLC (big)";
      case AntagonistKind::kDram: return "DRAM";
      case AntagonistKind::kHyperThread: return "HyperThread";
      case AntagonistKind::kCpuPower: return "CPU power";
      case AntagonistKind::kNetwork: return "Network";
      case AntagonistKind::kBrainOsOnly: return "brain";
    }
    return "?";
}

std::vector<AntagonistKind>
AllAntagonists()
{
    return {AntagonistKind::kLlcSmall,    AntagonistKind::kLlcMedium,
            AntagonistKind::kLlcBig,      AntagonistKind::kDram,
            AntagonistKind::kHyperThread, AntagonistKind::kCpuPower,
            AntagonistKind::kNetwork,     AntagonistKind::kBrainOsOnly};
}

CharacterizationRig::CharacterizationRig(const hw::MachineConfig& machine,
                                         const workloads::LcParams& lc,
                                         sim::Duration warmup,
                                         sim::Duration measure, uint64_t seed)
    : machine_(machine),
      lc_(lc),
      warmup_(warmup),
      measure_(measure),
      seed_(seed)
{
}

void
CharacterizationRig::SetSizingUtil(double util)
{
    sizing_util_ = util;
}

std::vector<double>
CharacterizationRig::PaperLoads()
{
    std::vector<double> loads;
    for (int pct = 5; pct <= 95; pct += 5) loads.push_back(pct / 100.0);
    return loads;
}

double
CharacterizationRig::RunBaseline(double load) const
{
    sim::EventQueue queue;
    hw::MachineConfig mcfg = machine_;
    mcfg.seed = seed_ * 7919ull + static_cast<uint64_t>(load * 1000);
    hw::Machine machine(mcfg, queue);
    workloads::LcApp lc(machine, lc_, mcfg.seed ^ 0xAB);
    lc.SetCpus(
        machine.topology().PhysicalCores(0, mcfg.TotalCores()));
    lc.SetLoad(load);
    lc.Start();
    machine.ResolveNow();
    queue.RunFor(warmup_);
    lc.ResetStats();
    queue.RunFor(measure_);
    return static_cast<double>(lc.WorstReportTail()) /
           static_cast<double>(lc_.slo_latency);
}

double
CharacterizationRig::RunCell(AntagonistKind kind, double load) const
{
    sim::EventQueue queue;
    hw::MachineConfig mcfg = machine_;
    mcfg.seed = seed_ * 7919ull +
                static_cast<uint64_t>(load * 1000) * 31ull +
                static_cast<uint64_t>(kind);
    hw::Machine machine(mcfg, queue);
    const auto& topo = machine.topology();
    const int total = mcfg.TotalCores();

    if (kind == AntagonistKind::kBrainOsOnly) {
        machine.AllowCpuSharing(true);
    }

    workloads::LcApp lc(machine, lc_, mcfg.seed ^ 0xAB);
    std::unique_ptr<workloads::BeTask> antagonist;

    auto make = [&](const workloads::BeProfile& prof) {
        antagonist = std::make_unique<workloads::BeTask>(machine, prof);
    };

    switch (kind) {
      case AntagonistKind::kLlcSmall:
        make(workloads::StreamLlcSmall(mcfg));
        break;
      case AntagonistKind::kLlcMedium:
        make(workloads::StreamLlcMedium(mcfg));
        break;
      case AntagonistKind::kLlcBig:
        make(workloads::StreamLlcBig(mcfg));
        break;
      case AntagonistKind::kDram:
        make(workloads::StreamDram());
        break;
      case AntagonistKind::kHyperThread:
        make(workloads::Spinloop());
        break;
      case AntagonistKind::kCpuPower:
        make(workloads::CpuPowerVirus());
        break;
      case AntagonistKind::kNetwork:
        make(workloads::Iperf());
        break;
      case AntagonistKind::kBrainOsOnly:
        make(workloads::Brain());
        break;
    }

    // Placement per Section 3.2.
    switch (kind) {
      case AntagonistKind::kHyperThread: {
        // LC pinned to hardware thread 0 of every core, the antagonist
        // spinloop pinned to the sibling thread of the same cores.
        lc.SetCpus(topo.ThreadOfCores(0, total, 0));
        antagonist->SetCpus(topo.ThreadOfCores(0, total, 1));
        break;
      }
      case AntagonistKind::kNetwork: {
        // All cores but one belong to the LC workload.
        lc.SetCpus(topo.PhysicalCores(0, total - 1));
        antagonist->SetCpus(topo.PhysicalCores(total - 1, 1));
        break;
      }
      case AntagonistKind::kBrainOsOnly: {
        // OS-only isolation: both workloads run everywhere; CFS shares
        // keep brain nominally low priority but scheduling delays and
        // unmanaged shared-resource interference remain.
        lc.SetCpus(topo.PhysicalCores(0, total));
        antagonist->SetCpus(topo.PhysicalCores(0, total));
        lc.SetSchedDelayModel(0.30, sim::Micros(500), sim::Millis(10));
        break;
      }
      default: {
        // "Enough cores to satisfy the SLO at this load" for the LC
        // task, spread across both sockets the way the production
        // service is NUMA-interleaved; everything else (on both
        // sockets) goes to the antagonist.
        const int lc_cores = lc.MinPhysCoresForLoad(load, sizing_util_);
        const hw::CpuSet lc_set = topo.SpreadCores(lc_cores);
        lc.SetCpus(lc_set);
        if (lc_cores < total) {
            antagonist->SetCpus(topo.AllCpus().Minus(lc_set));
        }
        break;
      }
    }

    lc.SetLoad(load);
    lc.Start();
    machine.ResolveNow();

    queue.RunFor(warmup_);
    lc.ResetStats();
    queue.RunFor(measure_);

    return static_cast<double>(lc.WorstReportTail()) /
           static_cast<double>(lc_.slo_latency);
}

}  // namespace heracles::exp
