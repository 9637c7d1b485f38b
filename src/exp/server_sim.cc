#include "exp/server_sim.h"

#include "heracles/bw_model.h"
#include "sim/log.h"

namespace heracles::exp {

std::string
PolicyName(PolicyKind kind)
{
    switch (kind) {
      case PolicyKind::kNoColocation: return "baseline";
      case PolicyKind::kHeracles: return "heracles";
      case PolicyKind::kOsOnly: return "os-only";
      case PolicyKind::kStaticPartition: return "static";
    }
    return "?";
}

ActivityCounters&
ActivityCounters::operator+=(const ActivityCounters& o)
{
    polls += o.polls;
    be_enables += o.be_enables;
    be_disables += o.be_disables;
    core_shrinks += o.core_shrinks;
    actuations.set_cores += o.actuations.set_cores;
    actuations.set_ways += o.actuations.set_ways;
    actuations.set_freq_cap += o.actuations.set_freq_cap;
    actuations.set_net_ceil += o.actuations.set_net_ceil;
    invariant_violations += o.invariant_violations;
    faulted_ops += o.faulted_ops;
    return *this;
}

bool
ActivityCounters::operator==(const ActivityCounters& o) const
{
    return polls == o.polls && be_enables == o.be_enables &&
           be_disables == o.be_disables && core_shrinks == o.core_shrinks &&
           actuations.set_cores == o.actuations.set_cores &&
           actuations.set_ways == o.actuations.set_ways &&
           actuations.set_freq_cap == o.actuations.set_freq_cap &&
           actuations.set_net_ceil == o.actuations.set_net_ceil &&
           invariant_violations == o.invariant_violations &&
           faulted_ops == o.faulted_ops;
}

ServerSim::ServerSim(const ServerSpec& spec, sim::EventQueue& queue)
    : queue_(queue)
{
    machine_ = std::make_unique<hw::Machine>(spec.machine, queue);
    if (spec.policy == PolicyKind::kOsOnly) {
        machine_->AllowCpuSharing(true);
    }

    lc_ = std::make_unique<workloads::LcApp>(*machine_, spec.lc,
                                             spec.lc_seed);
    const bool colocated =
        spec.be.has_value() && spec.policy != PolicyKind::kNoColocation;
    if (colocated) {
        be_ = std::make_unique<workloads::BeTask>(*machine_, *spec.be);
    }

    plat_ = std::make_unique<platform::SimPlatform>(*machine_, *lc_,
                                                    be_.get());

    const auto& topo = machine_->topology();
    const int total_cores = spec.machine.TotalCores();

    switch (spec.policy) {
      case PolicyKind::kNoColocation:
        plat_->ApplyInitialPlacement();
        break;
      case PolicyKind::kHeracles: {
        plat_->ApplyInitialPlacement();
        ctl::LcBwModel model =
            ctl::LcBwModel::Profile(spec.lc, spec.machine);
        // The controller monitors and actuates through one wrapper,
        // ChaosPlatform: it applies the spec's fault plan (pass-through
        // on an empty plan — the frozen goldens pin that) and judges
        // every observation and command against the safety invariants.
        chaos_ = std::make_unique<chaos::ChaosPlatform>(
            *plat_, spec.faults, spec.heracles);
        controller_ = std::make_unique<ctl::HeraclesController>(
            *chaos_, spec.heracles, std::move(model));
        controller_->Start();
        break;
      }
      case PolicyKind::kOsOnly:
        // Everything shares every cpu; the BE task runs with a tiny CFS
        // shares value but still induces millisecond-scale scheduling
        // delays plus unrestricted cache/bandwidth/power interference.
        lc_->SetCpus(topo.PhysicalCores(0, total_cores));
        if (be_) be_->SetCpus(topo.PhysicalCores(0, total_cores));
        lc_->SetSchedDelayModel(0.30, sim::Micros(500), sim::Millis(10));
        break;
      case PolicyKind::kStaticPartition: {
        // Conservative static split: half the cores and half the cache.
        const int half = total_cores / 2;
        lc_->SetCpus(topo.PhysicalCores(0, half));
        machine_->SetCatWays(lc_.get(), spec.machine.llc_ways / 2);
        if (be_) {
            be_->SetCpus(topo.PhysicalCores(half, total_cores - half));
            machine_->SetCatWays(be_.get(), spec.machine.llc_ways / 2);
        }
        break;
      }
    }

    // Antagonist bursts: timed demand phase changes on the BE job.
    // Scheduled even when no job is attached yet — a cluster-level
    // scheduler may place one later (AttachBeJob applies the ambient
    // scale), and may equally detach it before a window edge fires,
    // hence the be_ re-check in ApplyBurstScale. Every edge recomputes
    // the ambient scale from all windows, so overlapping or adjacent
    // bursts compose (concurrent phases multiply) instead of one
    // window's end wiping another still in flight.
    if (spec.faults.HasBurst()) {
        for (const chaos::TimedFault& f : spec.faults.faults) {
            if (f.kind != chaos::FaultKind::kBurst) continue;
            bursts_.push_back(f);
        }
        for (const chaos::TimedFault& f : bursts_) {
            queue_.ScheduleAt(f.begin, [this] { ApplyBurstScale(); });
            queue_.ScheduleAt(f.end, [this] { ApplyBurstScale(); });
        }
    }
}

void
ServerSim::ApplyBurstScale()
{
    double scale = 1.0;
    const sim::SimTime now = queue_.Now();
    for (const chaos::TimedFault& f : bursts_) {
        if (f.ActiveAt(now)) scale *= f.magnitude;
    }
    burst_scale_ = scale;
    if (be_) be_->SetDemandScale(scale);
}

ServerSim::~ServerSim()
{
    StopController();
}

void
ServerSim::StopController()
{
    if (controller_ && !controller_stopped_) {
        controller_->Stop();
        controller_stopped_ = true;
    }
}

ActivityCounters
ServerSim::Activity() const
{
    ActivityCounters a;
    if (controller_) {
        const ctl::ControllerStats& s = controller_->stats();
        a.polls = s.polls;
        a.be_enables = s.be_enables;
        a.be_disables = s.be_disables_slack + s.be_disables_load;
        a.core_shrinks = s.core_shrinks;
    }
    a.actuations = plat_->actuations();
    if (chaos_) {
        a.invariant_violations = chaos_->count();
        a.faulted_ops = chaos_->faulted_ops();
    }
    return a;
}

workloads::BeTask*
ServerSim::AttachBeJob(const workloads::BeProfile& profile)
{
    HERACLES_CHECK_MSG(be_ == nullptr,
                       "server already hosts BE job " << be_->name());
    be_ = std::make_unique<workloads::BeTask>(*machine_, profile);
    // A job placed mid-burst inherits the ambient demand scale.
    if (burst_scale_ != 1.0) be_->SetDemandScale(burst_scale_);
    plat_->AttachBeJob(be_.get());
    return be_.get();
}

void
ServerSim::DetachBeJob()
{
    if (be_ == nullptr) return;
    if (controller_ && !controller_stopped_) {
        controller_->OnBeJobRemoved();
    }
    plat_->AttachBeJob(nullptr);
    be_.reset();
}

uint64_t
ServerSim::RunMeasured(sim::Duration warmup, sim::Duration measure)
{
    queue_.RunFor(warmup);

    lc_->ResetStats();
    if (be_) be_->ResetThroughput();
    machine_->ResetTelemetryAverages();
    const uint64_t completed_before = lc_->TotalCompleted();

    queue_.RunFor(measure);
    return lc_->TotalCompleted() - completed_before;
}

}  // namespace heracles::exp
