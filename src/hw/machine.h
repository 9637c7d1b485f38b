/**
 * @file
 * The server model: topology, task placement, isolation mechanism state,
 * the per-epoch contention resolver, and the hardware counters.
 *
 * A Machine owns the authoritative state of all four isolation mechanisms
 * the paper manages:
 *  - core assignment (cgroup cpusets)          -> AssignCpus()
 *  - LLC way-partitioning (Intel CAT MSRs)     -> SetCatWays()
 *  - per-core DVFS caps                        -> SetFreqCapGhz()
 *  - egress traffic shaping (tc qdisc HTB)     -> SetBeNetCeilGbps()
 *
 * Every `epoch` of simulated time (default 25 ms) the resolver recomputes
 * who gets how much of each saturable shared resource and publishes a
 * TaskView per registered client. Workload models read their TaskView when
 * sampling request service times or accruing batch throughput; the
 * platform layer exposes the counters (DRAM bandwidth, RAPL power, core
 * frequency, link bytes) that the Heracles controller polls.
 *
 * Resolution is incremental. The demand side of a resolve (LLC occupancy,
 * DRAM grants, NIC shares) is a pure function of inputs that change only
 * at discrete, known call sites — the mutators here plus the workloads'
 * once-per-second rate updates — so those phases recompute only when a
 * demand input was marked dirty. The HT and power phases are pure
 * functions of the layout and of one record per client read at the start
 * of each resolve (busy level, power intensity, HT aggression, DVFS cap):
 * records that repeat, bit for bit, one of the last four solves under
 * the same layout restore its outputs instead; AddClient, RemoveClient
 * and AssignCpus empty the memo. A core, way, cap or BE-demand actuation
 * calls Resolve() before it returns, so its effect is in every view and
 * counter at once, and the machine schedules no event but its epoch
 * timer. A busy solve charges each cpu for the HT aggressors on its
 * sibling and on itself, and fills each core's power request from the
 * busy threads on it. All of it is byte-identical to the historical
 * eager full-scan resolver (pinned by tests/machine_equivalence_test.cc
 * and the golden scenario baselines).
 */
#ifndef HERACLES_HW_MACHINE_H
#define HERACLES_HW_MACHINE_H

#include <array>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "hw/client.h"
#include "hw/config.h"
#include "hw/cpuset.h"
#include "hw/dram.h"
#include "hw/llc.h"
#include "hw/power.h"
#include "sim/event_queue.h"
#include "sim/random.h"
#include "sim/stats.h"

namespace heracles::hw {

/** Machine-wide telemetry snapshot (for figures and EMU accounting). */
struct MachineTelemetry {
    double dram_gbps = 0.0;        ///< Total granted DRAM bandwidth.
    double dram_frac = 0.0;        ///< ... as a fraction of peak.
    double cpu_utilization = 0.0;  ///< Busy logical cpus / total.
    double power_w = 0.0;          ///< Total socket power.
    double power_frac_tdp = 0.0;   ///< ... as a fraction of total TDP.
    double lc_tx_gbps = 0.0;
    double be_tx_gbps = 0.0;
    double net_frac = 0.0;         ///< Link utilization.
};

/**
 * One simulated server.
 *
 * Not copyable; workloads and controllers hold references. All methods
 * must be called from simulation-event context (single-threaded).
 */
class Machine
{
  public:
    Machine(const MachineConfig& cfg, sim::EventQueue& queue);
    ~Machine();
    Machine(const Machine&) = delete;
    Machine& operator=(const Machine&) = delete;

    const MachineConfig& config() const { return cfg_; }
    const Topology& topology() const { return topo_; }
    sim::EventQueue& queue() { return queue_; }

    // --- Task registry ----------------------------------------------------

    /** Registers a colocated task. The machine does not own the pointer. */
    void AddClient(ResourceClient* client);

    /** Unregisters a task (e.g. a BE job killed by the controller). */
    void RemoveClient(ResourceClient* client);

    /**
     * Pins @p client to @p cpus (the cpuset cgroup mechanism). By default
     * logical cpus are exclusive; overlapping assignments abort unless
     * sharing was enabled (used by the OS-only baseline policy).
     */
    void AssignCpus(ResourceClient* client, const CpuSet& cpus);

    /** Allows multiple tasks on the same logical cpu (OS-only baseline). */
    void AllowCpuSharing(bool allow) { allow_sharing_ = allow; }

    const CpuSet& CpusOf(const ResourceClient* client) const;

    // --- Isolation mechanisms ----------------------------------------------

    /**
     * Gives @p client a hard LLC partition of @p ways ways on every socket
     * where it has cpus; 0 restores unrestricted (shared) caching.
     */
    void SetCatWays(ResourceClient* client, int ways);

    /** Caps the DVFS frequency of @p client's cores; 0 = uncapped. */
    void SetFreqCapGhz(ResourceClient* client, double ghz);
    double FreqCapOf(const ResourceClient* client) const;

    /**
     * Sets the HTB ceil for all best-effort egress traffic; <0 = off.
     * SimPlatform does not resolve after setting it, unlike the other
     * three mechanisms, so a new ceil reaches the views only at the next
     * resolve: the next epoch tick, up to one epoch later, or an earlier
     * actuation of another mechanism.
     */
    void SetBeNetCeilGbps(double gbps);
    double BeNetCeilGbps() const { return be_net_ceil_gbps_; }

    // --- Contention resolution ---------------------------------------------

    /**
     * Resolves contention now: the demand phases (LLC/DRAM/NIC) only if
     * a demand input was marked dirty, the HT and power phases only if
     * the busy inputs miss the memo (both always under the naive
     * reference), telemetry always. The epoch timer calls it, and
     * so do the core, way, cap and BE-demand actuations before they
     * return.
     */
    void Resolve();

    /**
     * Marks the demand inputs dirty, then Resolve(): for callers that
     * mutate client demand out-of-band (tests, characterization rigs),
     * so they always see fresh grants.
     */
    void ResolveNow();

    /**
     * Marks the demand-side resolver inputs (LLC footprints/weights,
     * DRAM demand, NIC demand) changed, so the next resolve recomputes
     * the LLC/DRAM/NIC phases. Workloads call this from the call sites
     * where those inputs actually change; marking is idempotent and
     * over-marking is always safe (a recompute from unchanged inputs is
     * bitwise identical).
     */
    void MarkDemandDirty() { demand_dirty_ = true; }

    /**
     * Disables every incremental path, the retained naive reference for
     * the equivalence test and the arbitration microbench. Each resolve
     * then rebuilds every client's cached cpu layout from its cpuset,
     * recomputes the demand phases, neither reads nor fills the busy
     * memo, and solves power without ResolvePower's neighbour reuse.
     */
    void SetNaiveArbitration(bool naive);

    /** The latest resolved view for @p client. */
    const TaskView& ViewOf(const ResourceClient* client) const;

    // --- Resolver statistics (microbench / diagnostics) --------------------

    /** Resolves executed: epoch ticks, actuations and ResolveNow(). */
    uint64_t resolves() const { return resolve_count_; }

    /**
     * Resolves that recomputed the demand phases (LLC/DRAM/NIC): bumps
     * exactly when the grants were recomputed, so workloads key their
     * derived-input caches on it (plus their own load/allocation
     * versions) — see LcApp's service-time factor cache.
     */
    uint64_t demand_recomputes() const { return demand_recomputes_; }

    /** Resolves that ran the HT and power phases (missed the memo). */
    uint64_t busy_solves() const { return busy_solves_; }

    // --- Hardware counters (what a controller can measure) ----------------

    /** Noisy measured DRAM bandwidth on @p socket (GB/s), like IMC CAS
     *  counters. */
    double MeasuredDramGbps(int socket) const;

    /** Total measured DRAM bandwidth across sockets (GB/s). */
    double MeasuredTotalDramGbps() const;

    /** Noisy RAPL package power reading for @p socket (W). */
    double MeasuredSocketPowerW(int socket) const;

    /** Mean effective frequency of @p client's cores (GHz, aperf/mperf). */
    double MeasuredFreqGhz(const ResourceClient* client) const;

    /** Egress bandwidth of the LC / BE traffic classes (Gb/s). */
    double LcTxGbps() const;
    double BeTxGbps() const;

    /** Noise-free machine-wide telemetry (for reports, not controllers). */
    MachineTelemetry Telemetry() const;

    /** Time-averaged telemetry accumulated since ResetTelemetryAverages. */
    MachineTelemetry AveragedTelemetry() const;
    void ResetTelemetryAverages();

  private:
    struct ClientState {
        CpuSet cpus;
        // The cpu layout the resolver loops over, derived from `cpus` by
        // BuildLayout (AssignCpus is the only writer of `cpus`).
        std::vector<int> cpu_list;  ///< Cpu ids, ascending.
        std::vector<int> siblings;  ///< HT sibling of each cpu_list entry.
        /** Per socket: the local core id of each of the client's cpus
         *  there, in cpu_list order. */
        std::array<std::vector<int>, kMaxSockets> socket_cores;
        int cat_ways = 0;
        double freq_cap_ghz = 0.0;
        TaskView view;
    };

    /** One client's inputs to the HT and power phases: its part of the
     *  memo key. Only doubles, so memcmp reads no padding. */
    struct BusyInput {
        double busy = 0.0;
        double intensity = 0.0;
        double ht_aggr = 0.0;  ///< HtAggression() minus one.
        double freq_cap_ghz = 0.0;
    };
    /** One busy solve: its inputs, and its outputs in client order
     *  (ht_penalty, freq_ghz) followed by each socket's power. */
    struct BusySolve {
        std::vector<BusyInput> key;
        std::vector<double> out;
    };
    static constexpr int kBusyMemoEntries = 4;

    /** Reads every client's busy inputs into inputs_. */
    void ReadInputs();
    /** The memo: restores a stored solve whose key equals inputs_ (false
     *  if none), or stores this resolve's solve over the oldest entry. */
    bool RestoreBusySolve();
    void StoreBusySolve();

    /** Rebuilds @p st's cpu layout from st.cpus (reuses capacity). */
    void BuildLayout(ClientState& st) const;

    void ResolveLlcAndDram();
    void ResolveHt();
    void ResolvePowerAllSockets();
    void ResolveNetwork();
    void UpdateTelemetry();
    ClientState& StateOf(ResourceClient* client);
    const ClientState& StateOf(const ResourceClient* client) const;

    MachineConfig cfg_;
    Topology topo_;
    sim::EventQueue& queue_;
    mutable sim::Rng noise_rng_;
    sim::EventQueue::EventId epoch_event_;

    /**
     * Registered tasks in registration order. Deliberately NOT keyed by
     * pointer: every resolver phase iterates this container, and
     * pointer-ordered iteration would make resource grants depend on
     * heap addresses — bit-exact reproducibility requires the order to
     * derive from construction order alone.
     */
    std::vector<std::pair<ResourceClient*, ClientState>> clients_;
    bool allow_sharing_ = false;
    double be_net_ceil_gbps_ = -1.0;

    // Incremental-resolution state.
    bool naive_ = false;
    bool demand_dirty_ = true;
    uint64_t resolve_count_ = 0;
    uint64_t demand_recomputes_ = 0;
    uint64_t busy_solves_ = 0;

    // Resolver scratch, reused across resolves (the historical code
    // allocated these per socket per resolve).
    std::vector<LlcRequest> scratch_reqs_;
    std::vector<size_t> scratch_idx_;
    std::vector<double> scratch_frac_;
    std::vector<double> scratch_demand_;
    std::vector<double> scratch_llc_;
    DramOutcome scratch_dram_;
    std::vector<CorePowerRequest> scratch_cores_;
    PowerOutcome scratch_power_;
    PowerScratch power_scratch_;
    /** Per client: its busy inputs, read once per resolve (ReadInputs). */
    std::vector<BusyInput> inputs_;
    /** The last busy solves, overwritten round-robin. Emptied by
     *  zeroing memo_stores_, so the entries keep their storage. */
    std::array<BusySolve, kBusyMemoEntries> memo_;
    int memo_stores_ = 0;  ///< Solves stored since the memo was emptied.

    // Resolved machine-level state.
    std::vector<double> dram_granted_;  ///< Per socket.
    std::vector<double> socket_power_;  ///< Per socket.
    double lc_tx_gbps_ = 0.0;
    double be_tx_gbps_ = 0.0;
    double link_util_ = 0.0;
    double cpu_util_ = 0.0;

    // Time-weighted averages for experiment reporting.
    sim::TimeWeightedMean avg_dram_;
    sim::TimeWeightedMean avg_power_;
    sim::TimeWeightedMean avg_cpu_;
    sim::TimeWeightedMean avg_lc_tx_;
    sim::TimeWeightedMean avg_be_tx_;
    sim::SimTime telemetry_reset_time_ = 0;
};

}  // namespace heracles::hw

#endif  // HERACLES_HW_MACHINE_H
