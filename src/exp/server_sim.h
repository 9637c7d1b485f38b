/**
 * @file
 * Shared single-server assembly.
 *
 * A single-server experiment load point and a cluster leaf boil down to
 * the same build: a fresh machine, the LC workload, an optional BE job,
 * the platform binding and (policy permitting) a Heracles controller.
 * ServerSim is that building block, extracted from exp/experiment.cc and
 * cluster/cluster.cc so both layers compose one implementation. (A
 * characterization cell is not built here: CharacterizationRig pins the
 * LC app and a raw antagonist on its own machine, with no platform or
 * controller.)
 *
 * Construction order is fixed (machine, LC app, BE task, platform,
 * controller) so that, for a given spec, the events scheduled during
 * assembly land in the queue in a deterministic order.
 */
#ifndef HERACLES_EXP_SERVER_SIM_H
#define HERACLES_EXP_SERVER_SIM_H

#include <memory>
#include <optional>
#include <vector>

#include "chaos/chaos_platform.h"
#include "chaos/fault_plan.h"
#include "heracles/config.h"
#include "heracles/controller.h"
#include "hw/machine.h"
#include "platform/sim_platform.h"
#include "workloads/be_task.h"
#include "workloads/lc_app.h"
#include "workloads/lc_configs.h"

namespace heracles::exp {

/** How colocation is (or is not) managed. */
enum class PolicyKind {
    kNoColocation,     ///< LC alone on the machine (baseline).
    kHeracles,         ///< The paper's controller over all 4 mechanisms.
    kOsOnly,           ///< Linux-only: shared cpusets + CFS shares.
    kStaticPartition,  ///< Fixed half/half cores + LLC, no controller.
};

/** Human-readable policy name. */
std::string PolicyName(PolicyKind kind);

/** Blueprint for one simulated server. All seeds must be resolved. */
struct ServerSpec {
    hw::MachineConfig machine;  ///< machine.seed already derived.
    workloads::LcParams lc;
    uint64_t lc_seed = 7;

    /**
     * The one seed-derivation scheme for every assembly: machine and LC
     * streams from a run seed plus a per-run salt (e.g. the load point).
     * Experiments and scenarios must share this so identical (seed,
     * salt) pairs build bit-identical servers.
     */
    void
    SeedFrom(uint64_t seed, uint64_t salt)
    {
        machine.seed = seed * 1000003ull + salt;
        lc_seed = machine.seed ^ 0x5C5C5C;
    }
    std::optional<workloads::BeProfile> be;  ///< No BE when unset.
    PolicyKind policy = PolicyKind::kHeracles;
    ctl::HeraclesConfig heracles;

    /**
     * Resolved fault-injection plan for this server (chaos scenarios).
     * Empty by default; an empty (or never-active) plan is byte-
     * identical to no plan.
     */
    chaos::ResolvedFaultPlan faults;
};

/**
 * A server's controller, actuation and chaos activity over the whole run
 * (warmup included). All zero unless the policy is kHeracles. The one
 * counters record from a leaf to a golden file: LoadPointResult and
 * ClusterResult derive from it, and a cluster sums it over its leaves.
 */
struct ActivityCounters {
    uint64_t polls = 0;
    uint64_t be_enables = 0;
    /** Emergency BE disables (slack violations + load safeguards) —
     *  evidence of instability even when the measured window looks
     *  clean after a cooldown. */
    uint64_t be_disables = 0;
    uint64_t core_shrinks = 0;
    platform::ActuationCounts actuations;
    /** Safety-invariant violations the checker recorded. */
    uint64_t invariant_violations = 0;
    /** Dropped actuations + degraded telemetry reads. */
    uint64_t faulted_ops = 0;

    ActivityCounters& operator+=(const ActivityCounters& o);
    bool operator==(const ActivityCounters& o) const;
};

/**
 * One assembled simulated server on a caller-owned event queue: machine +
 * LC app + optional BE task + platform + policy wiring. The BE task is
 * only instantiated when the spec carries a BE profile and the policy
 * colocates; the controller only under PolicyKind::kHeracles (started
 * during assembly).
 *
 * The caller still drives the workload (SetLoad/Start or StartExternal +
 * InjectRequest) and runs the queue; ServerSim owns assembly and
 * teardown.
 */
class ServerSim
{
  public:
    ServerSim(const ServerSpec& spec, sim::EventQueue& queue);

    sim::EventQueue& queue() { return queue_; }

    /** Stops the controller (if any); members unwind in reverse order. */
    ~ServerSim();

    ServerSim(const ServerSim&) = delete;
    ServerSim& operator=(const ServerSim&) = delete;

    hw::Machine& machine() { return *machine_; }
    workloads::LcApp& lc() { return *lc_; }
    /** Null when not colocated. */
    workloads::BeTask* be() { return be_.get(); }
    platform::SimPlatform& platform() { return *plat_; }
    /** Null unless the policy is kHeracles. */
    ctl::HeraclesController* controller() { return controller_.get(); }

    /** True when a BE task is colocated on this server. */
    bool colocated() const { return be_ != nullptr; }

    /**
     * This server's activity so far, read from the controller, the
     * platform and the chaos decorator between them: its safety
     * violations (zero is part of the golden contract) and its faulted
     * operations (none when the spec carried no plan).
     */
    ActivityCounters Activity() const;

    /** Cancels the controller loops; idempotent. */
    void StopController();

    /**
     * Attaches a BE job at runtime (cluster-level scheduler placement).
     * The server must currently have no BE job. The job starts paused
     * with zero cores; the local controller admits and grows it on its
     * own polls. Returns the created task.
     */
    workloads::BeTask* AttachBeJob(const workloads::BeProfile& profile);

    /**
     * Detaches the current BE job (migration / reclaim): releases its
     * allocations through the controller, unbinds it from the platform
     * and destroys the task. No-op without a job.
     */
    void DetachBeJob();

    /**
     * The shared warmup/measure protocol: runs @p warmup, then resets
     * the LC statistics, BE throughput accounting and telemetry
     * averages, runs @p measure, and returns the number of LC requests
     * completed inside the measurement window. Both Experiment load
     * points and catalog scenarios measure through this one sequence so
     * the reset protocol can never diverge between them.
     */
    uint64_t RunMeasured(sim::Duration warmup, sim::Duration measure);

  private:
    sim::EventQueue& queue_;
    std::unique_ptr<hw::Machine> machine_;
    std::unique_ptr<workloads::LcApp> lc_;
    std::unique_ptr<workloads::BeTask> be_;
    std::unique_ptr<platform::SimPlatform> plat_;
    std::unique_ptr<chaos::ChaosPlatform> chaos_;
    /** Recomputes the ambient burst scale from bursts_ at Now(). */
    void ApplyBurstScale();

    std::unique_ptr<ctl::HeraclesController> controller_;
    bool controller_stopped_ = false;
    /** Resolved burst windows (active ones multiply into the scale). */
    std::vector<chaos::TimedFault> bursts_;
    /** Current antagonist-burst demand multiplier (1.0 = no burst). */
    double burst_scale_ = 1.0;
};

}  // namespace heracles::exp

#endif  // HERACLES_EXP_SERVER_SIM_H
