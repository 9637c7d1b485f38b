/**
 * @file
 * Generic latency-critical service model.
 *
 * An LcApp is an open-loop queueing system: requests arrive as a Poisson
 * process at load * peak_qps, wait in a FIFO queue for one of the task's
 * hardware threads, hold the thread for a sampled service time, and record
 * their sojourn latency (plus network transmit time) in windowed tail
 * trackers. Service times are decomposed into a compute part — stretched
 * by frequency loss, HyperThread sharing and instruction-working-set
 * eviction — and a memory part — stretched by data-working-set eviction
 * and DRAM bandwidth contention. The decomposition parameters for
 * websearch, ml_cluster and memkeyval live in lc_configs.h and encode the
 * characterization facts from Section 3.1 of the paper.
 */
#ifndef HERACLES_WORKLOADS_LC_APP_H
#define HERACLES_WORKLOADS_LC_APP_H

#include <deque>
#include <functional>
#include <memory>
#include <string>

#include "hw/machine.h"
#include "sim/random.h"
#include "sim/stats.h"
#include "sim/trace.h"

namespace heracles::workloads {

/** Cache behaviour of an LC workload (per socket where it runs). */
struct CacheProfile {
    /** Hot instruction + metadata working set (MB); evicting it inflates
     *  compute time (the inclusive-LLC effect the paper describes for
     *  websearch). */
    double instr_mb = 4.0;
    /** Data footprint at zero load (MB). */
    double data_base_mb = 8.0;
    /** Additional data footprint at full load (MB): outstanding-request
     *  working sets add up (the ml_cluster effect). */
    double data_slope_mb = 10.0;
    /** Footprint grows like load^exp (exp > 1 => super-linear pressure). */
    double footprint_load_exp = 1.0;
    /** Compute-time multiplier when the instruction set is fully evicted. */
    double instr_miss_penalty = 2.5;
    /** Memory-time multiplier when the data set is fully evicted. */
    double mem_miss_ceil = 3.0;
};

/** Full parameterization of a latency-critical workload. */
struct LcParams {
    std::string name = "lc";
    double slo_percentile = 0.99;
    sim::Duration slo_latency = sim::Millis(20);
    double peak_qps = 10000.0;

    /** Mean service time at nominal frequency with a warm cache. */
    sim::Duration mean_service = sim::Millis(4);
    double service_sigma = 0.35;  ///< Log-normal shape.
    /** Fraction of warm-cache service time spent waiting on memory. */
    double mem_frac = 0.25;

    CacheProfile cache;

    /** DRAM bandwidth at 100% load, warm cache, as a fraction of the
     *  machine's total peak (websearch: 0.40, ml_cluster: 0.60,
     *  memkeyval: 0.20 per Section 3.1). */
    double peak_dram_frac = 0.40;
    double bw_load_exp = 1.0;  ///< Bandwidth ~ load^exp (>1: super-linear).

    /** LLC competition weight at full load (CAT-off sharing pressure). */
    double access_weight_scale = 150.0;

    double resp_bytes = 8192.0;
    double req_bytes = 512.0;

    double power_intensity = 1.0;
    /** Service multiplier when both hyperthreads run this same app. */
    double ht_self_penalty = 1.4;
    /** Slowdown inflicted on a different task on the sibling thread. */
    double ht_aggression = 1.3;

    /** Requests represented by one simulated arrival (memkeyval batches
     *  multi-gets); latency samples are recorded per logical request. */
    int batch = 1;

    /** SLO accounting window (the paper uses 60 s) and controller window. */
    sim::Duration report_window = sim::Seconds(60);
    sim::Duration ctl_window = sim::Seconds(15);
    /** Short window for the fast (approximate) tail estimate used to gate
     *  resource-growth decisions between top-level polls. */
    sim::Duration fast_window = sim::Seconds(2);

    /** Field-wise equality — keep in sync when adding fields. The
     *  memoized cluster target run keys on this. */
    bool
    operator==(const LcParams& o) const
    {
        const CacheProfile &c = cache, &d = o.cache;
        return name == o.name && slo_percentile == o.slo_percentile &&
               slo_latency == o.slo_latency && peak_qps == o.peak_qps &&
               mean_service == o.mean_service &&
               service_sigma == o.service_sigma && mem_frac == o.mem_frac &&
               c.instr_mb == d.instr_mb && c.data_base_mb == d.data_base_mb &&
               c.data_slope_mb == d.data_slope_mb &&
               c.footprint_load_exp == d.footprint_load_exp &&
               c.instr_miss_penalty == d.instr_miss_penalty &&
               c.mem_miss_ceil == d.mem_miss_ceil &&
               peak_dram_frac == o.peak_dram_frac &&
               bw_load_exp == o.bw_load_exp &&
               access_weight_scale == o.access_weight_scale &&
               resp_bytes == o.resp_bytes && req_bytes == o.req_bytes &&
               power_intensity == o.power_intensity && batch == o.batch &&
               ht_self_penalty == o.ht_self_penalty &&
               ht_aggression == o.ht_aggression &&
               report_window == o.report_window &&
               ctl_window == o.ctl_window && fast_window == o.fast_window;
    }
};

/**
 * The latency-critical service. Registers itself as a ResourceClient on
 * construction and unregisters on destruction.
 */
class LcApp : public hw::ResourceClient
{
  public:
    LcApp(hw::Machine& machine, const LcParams& params, uint64_t seed = 7);
    ~LcApp() override;

    // --- Setup ------------------------------------------------------------

    /** Pins the service to @p cpus (cgroup cpuset). */
    void SetCpus(const hw::CpuSet& cpus);

    /** Drives arrival rate from @p trace (not owned). */
    void SetTrace(const sim::LoadTrace* trace);

    /** Convenience: constant target load fraction. */
    void SetLoad(double load_fraction);

    /**
     * Starts generating arrivals on the queue's arrival lane
     * (sim::EventQueue::SetLane), which the app owns until it is
     * destroyed. Call once after setup; one self-driven app per queue.
     */
    void Start();

    /**
     * Marks the app as externally driven: no arrivals are self-generated,
     * so no load or trace is read; callers feed requests via
     * InjectRequest (cluster fan-out mode).
     */
    void StartExternal();

    /**
     * Enqueues one request now, tagged for completion reporting.
     * Only valid after StartExternal().
     */
    void InjectRequest(uint64_t tag);

    /** Invoked as (tag, latency) when an injected request completes. */
    using CompletionFn = std::function<void(uint64_t, sim::Duration)>;
    void SetCompletionCallback(CompletionFn fn) {
        completion_fn_ = std::move(fn);
    }

    /**
     * Injects CFS-style scheduling delays when sharing cpus with another
     * task under OS-only isolation: with probability @p prob a dispatch
     * waits an extra U(lo, hi). Set prob = 0 to disable (default).
     */
    void SetSchedDelayModel(double prob, sim::Duration lo, sim::Duration hi);

    // --- Monitors (what a controller or experiment can read) --------------

    /** Tail latency of the last completed controller window (15 s). */
    sim::Duration CtlTailLatency() const;

    /** Approximate tail over the last completed fast window (~2 s). */
    sim::Duration FastTailLatency() const;

    /** Worst tail over any completed report window (60 s) since reset. */
    sim::Duration WorstReportTail() const;

    /**
     * Any percentile over every request completed since the last
     * ResetStats (p in [0,1]) — the scenario harness records p95/p99
     * side by side regardless of the workload's SLO percentile.
     */
    sim::Duration OverallPercentile(double p) const;

    /** Measured load fraction: the arrival rate, exponentially smoothed
     *  over ~3 s, over peak_qps. */
    double LoadFraction() const { return qps_ewma_ / params_.peak_qps; }

    /** Served throughput fraction: the completion rate, same smoothing,
     *  over peak_qps (for EMU). */
    double ServedFraction() const { return served_ewma_ / params_.peak_qps; }

    /** Total requests completed since construction (never reset). */
    uint64_t TotalCompleted() const { return total_completed_; }

    /** Total requests that have arrived since construction. */
    uint64_t TotalArrived() const { return total_arrived_; }

    /**
     * Busy thread-nanoseconds since construction: a monotonic counter, so
     * a reader takes its mean utilization over any span as a delta.
     */
    int64_t BusyThreadNs() const;

    /** Forgets worst-window statistics (call after warmup). */
    void ResetStats();

    /**
     * Updates the SLO latency target at runtime. Used by the
     * centralized cluster controller (the paper's future work) to set
     * per-leaf tail targets from root-level slack.
     */
    void SetSloLatency(sim::Duration slo);

    const LcParams& params() const { return params_; }
    hw::Machine& machine() { return machine_; }
    size_t QueueDepth() const { return queue_.size(); }

    /**
     * Analytic minimum physical cores needed to serve @p load at target
     * per-thread utilization @p util (used by the characterization rig to
     * pin the LC task to "just enough cores to satisfy its SLO").
     */
    int MinPhysCoresForLoad(double load, double util = 0.65) const;

    /** Data footprint (MB per socket) of @p params at @p load. */
    static double DataFootprintMb(const LcParams& params, double load);

    /**
     * (instruction-miss compute penalty, data-miss memory factor) of
     * @p params at @p load when @p eff_mb of cache is resident.
     */
    static std::pair<double, double> CacheFactorsFor(const LcParams& params,
                                                     double load,
                                                     double eff_mb);

    /**
     * Analytic DRAM bandwidth demand (GB/s, whole machine) of @p params
     * at @p load with @p eff_mb resident cache — the curve an operator
     * profiles offline to build the controller's LcBwModel.
     */
    static double AnalyticDramGbps(const LcParams& params,
                                   const hw::MachineConfig& cfg, double load,
                                   double eff_mb);

    // --- ResourceClient ----------------------------------------------------
    const std::string& name() const override { return params_.name; }
    bool is_lc() const override { return true; }
    double CpuBusyFraction() const override;
    double LlcFootprintMb(int socket) const override;
    double LlcAccessWeight(int socket) const override;
    double DramDemandGbps(int socket, double effective_llc_mb) const override;
    double PowerIntensity() const override { return params_.power_intensity; }
    double NetTxDemandGbps() const override;
    double HtAggression() const override { return params_.ht_aggression; }

  private:
    struct Request {
        sim::SimTime arrival;
        uint64_t tag = 0;
        bool tracked = false;
    };

    void ScheduleNextArrival();
    void OnArrival();
    void TryDispatch();
    void StartService(Request req);
    void OnCompletion(const Request& req);
    /** Completion event for the pooled in-flight request at @p slot. */
    void CompleteInflight(uint32_t slot);
    sim::Duration SampleServiceTime(bool ht_shared);
    double CurrentDataFootprintMb() const;
    /** (instr penalty, data miss factor) for @p eff_mb resident MB. */
    std::pair<double, double> CacheFactors(double eff_mb) const;
    void UpdateRates();  // 1 s periodic bookkeeping
    void AccumulateBusy();

    hw::Machine& machine_;
    LcParams params_;
    sim::Rng rng_;

    const sim::LoadTrace* trace_ = nullptr;
    std::unique_ptr<sim::LoadTrace> owned_trace_;
    bool started_ = false;
    bool external_ = false;
    CompletionFn completion_fn_;

    int capacity_ = 0;       ///< Logical cpus in the cpuset.
    int phys_cores_ = 0;     ///< Physical cores in the cpuset.
    int busy_ = 0;
    std::deque<Request> queue_;

    /**
     * Slab of in-service requests with free-list reuse: a dispatched
     * request parks in a recycled slot and its completion event captures
     * only (this, slot index), so the per-request closure stays within
     * the event pool's inline storage and the app allocates nothing on
     * the request hot path after the first ramp-up. Bounded by the
     * cpuset capacity (at most one in-flight request per busy thread).
     */
    std::vector<Request> inflight_;
    std::vector<uint32_t> inflight_free_;

    mutable sim::WindowedTailTracker report_tail_;
    mutable sim::WindowedTailTracker ctl_tail_;
    mutable sim::WindowedTailTracker fast_tail_;
    /** Every request completed since the last ResetStats. */
    sim::LatencyHistogram overall_;

    // Rate measurement.
    uint64_t arrivals_in_sec_ = 0;
    uint64_t completions_in_sec_ = 0;
    uint64_t total_arrived_ = 0;
    uint64_t total_completed_ = 0;
    double qps_ewma_ = 0.0;
    double served_ewma_ = 0.0;

    // BusyThreadNs up to busy_last_change_.
    int64_t busy_thread_ns_ = 0;
    sim::SimTime busy_last_change_ = 0;

    /** Precomputed response wire seconds (constant per machine+params). */
    double wire_s_ = 0.0;

    /**
     * Memoized service-time cache factors (SampleServiceTime): valid
     * while the machine's demand recompute count, our cpuset allocation
     * version and the load ewma are all unchanged.
     */
    uint64_t alloc_version_ = 0;
    bool factors_valid_ = false;
    uint64_t factors_gen_ = 0;
    uint64_t factors_alloc_ = 0;
    double factors_qps_ = 0.0;
    double factors_instr_pen_ = 1.0;
    double factors_data_miss_ = 1.0;

    // OS-only scheduling-delay injection.
    double sched_delay_prob_ = 0.0;
    sim::Duration sched_delay_lo_ = 0;
    sim::Duration sched_delay_hi_ = 0;

    sim::EventQueue::EventId rate_event_ = 0;
};

}  // namespace heracles::workloads

#endif  // HERACLES_WORKLOADS_LC_APP_H
