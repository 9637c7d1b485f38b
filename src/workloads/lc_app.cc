#include "workloads/lc_app.h"

#include <algorithm>
#include <cmath>

namespace heracles::workloads {

LcApp::LcApp(hw::Machine& machine, const LcParams& params, uint64_t seed)
    : machine_(machine),
      params_(params),
      rng_(seed),
      report_tail_(params.report_window, params.slo_percentile),
      ctl_tail_(params.ctl_window, params.slo_percentile),
      fast_tail_(params.fast_window, params.slo_percentile)
{
    HERACLES_CHECK(params_.peak_qps > 0 && params_.mean_service > 0);
    HERACLES_CHECK(params_.batch >= 1);
    // Response wire time is a constant of (params, machine); computing it
    // per completion was measurable at cluster scale.
    wire_s_ = params_.resp_bytes * 8.0 / (machine.config().nic_gbps * 1e9);
    machine_.AddClient(this);
    rate_event_ = machine_.queue().SchedulePeriodic(
        sim::Seconds(1), sim::Seconds(1), [this] { UpdateRates(); });
}

LcApp::~LcApp()
{
    machine_.queue().Cancel(rate_event_);
    if (started_ && !external_) machine_.queue().ClearLane();
    machine_.RemoveClient(this);
}

void
LcApp::SetCpus(const hw::CpuSet& cpus)
{
    AccumulateBusy();
    machine_.AssignCpus(this, cpus);
    ++alloc_version_;  // invalidates the cached service-time factors
    capacity_ = cpus.Count();
    phys_cores_ = machine_.topology().PhysicalCoreCount(cpus);
    TryDispatch();
}

void
LcApp::SetTrace(const sim::LoadTrace* trace)
{
    trace_ = trace;
    owned_trace_.reset();
}

void
LcApp::SetLoad(double load_fraction)
{
    owned_trace_ = std::make_unique<sim::ConstantTrace>(load_fraction);
    trace_ = owned_trace_.get();
}

void
LcApp::SetSchedDelayModel(double prob, sim::Duration lo, sim::Duration hi)
{
    HERACLES_CHECK(prob >= 0.0 && prob <= 1.0 && lo >= 0 && hi >= lo);
    sched_delay_prob_ = prob;
    sched_delay_lo_ = lo;
    sched_delay_hi_ = hi;
}

void
LcApp::Start()
{
    HERACLES_CHECK_MSG(!started_, "LcApp started twice");
    HERACLES_CHECK_MSG(trace_ != nullptr, "no load set before Start()");
    HERACLES_CHECK_MSG(capacity_ > 0, "no cpus assigned before Start()");
    started_ = true;
    // The Poisson stream rides the queue's arrival lane: each arrival
    // arms the next one (ScheduleNextArrival) instead of scheduling it.
    machine_.queue().SetLane([this] { OnArrival(); });
    ScheduleNextArrival();
}

void
LcApp::StartExternal()
{
    HERACLES_CHECK_MSG(!started_, "LcApp started twice");
    HERACLES_CHECK_MSG(capacity_ > 0, "no cpus assigned before Start()");
    started_ = true;
    external_ = true;
}

void
LcApp::InjectRequest(uint64_t tag)
{
    HERACLES_CHECK_MSG(external_, "InjectRequest requires StartExternal()");
    arrivals_in_sec_ += static_cast<uint64_t>(params_.batch);
    total_arrived_ += static_cast<uint64_t>(params_.batch);
    Request req;
    req.arrival = machine_.queue().Now();
    req.tag = tag;
    req.tracked = true;
    queue_.push_back(req);
    TryDispatch();
}

void
LcApp::ScheduleNextArrival()
{
    const sim::SimTime now = machine_.queue().Now();
    const double load = trace_->LoadAt(now);
    const double rate =
        load * params_.peak_qps / params_.batch;  // batch arrivals/sec
    if (rate <= 1e-6) {
        // Idle: poll the trace again shortly.
        machine_.queue().ScheduleAfter(sim::Millis(100),
                                       [this] { ScheduleNextArrival(); });
        return;
    }
    const sim::Duration gap =
        std::max<sim::Duration>(1, sim::Seconds(rng_.Exponential(1.0 / rate)));
    machine_.queue().ArmLane(now + gap);
}

void
LcApp::OnArrival()
{
    arrivals_in_sec_ += static_cast<uint64_t>(params_.batch);
    total_arrived_ += static_cast<uint64_t>(params_.batch);
    Request req;
    req.arrival = machine_.queue().Now();
    queue_.push_back(req);
    TryDispatch();
    ScheduleNextArrival();
}

void
LcApp::TryDispatch()
{
    while (busy_ < capacity_ && !queue_.empty()) {
        Request req = queue_.front();
        queue_.pop_front();
        StartService(req);
    }
}

void
LcApp::StartService(Request req)
{
    AccumulateBusy();
    ++busy_;
    // The scheduler fills idle physical cores before doubling up on
    // HyperThread siblings, so self-HT slowdown applies only once the
    // number of in-flight requests exceeds the physical core count.
    const bool ht_shared = busy_ > phys_cores_;
    sim::Duration service = SampleServiceTime(ht_shared);
    if (sched_delay_prob_ > 0.0 && rng_.Bernoulli(sched_delay_prob_)) {
        service += static_cast<sim::Duration>(rng_.Uniform(
            static_cast<double>(sched_delay_lo_),
            static_cast<double>(sched_delay_hi_)));
    }
    uint32_t slot;
    if (!inflight_free_.empty()) {
        slot = inflight_free_.back();
        inflight_free_.pop_back();
    } else {
        slot = static_cast<uint32_t>(inflight_.size());
        inflight_.emplace_back();
    }
    inflight_[slot] = req;
    machine_.queue().ScheduleAfter(service,
                                   [this, slot] { CompleteInflight(slot); });
}

void
LcApp::CompleteInflight(uint32_t slot)
{
    const Request req = inflight_[slot];
    inflight_free_.push_back(slot);
    OnCompletion(req);
}

void
LcApp::OnCompletion(const Request& req)
{
    const sim::SimTime arrival = req.arrival;
    AccumulateBusy();
    --busy_;
    completions_in_sec_ += static_cast<uint64_t>(params_.batch);
    total_completed_ += static_cast<uint64_t>(params_.batch);

    const hw::TaskView& view = machine_.ViewOf(this);
    const sim::SimTime now = machine_.queue().Now();
    // Response transmission: wire time inflated by egress queueing.
    sim::Duration net = sim::Seconds(wire_s_ * view.net_delay_factor);
    if (view.net_drop_prob > 0.0 && rng_.Bernoulli(view.net_drop_prob)) {
        // Lost packet: TCP minimum retransmission timeout.
        net += sim::Millis(200);
    }
    const sim::Duration latency = (now - arrival) + net;

    // One bucket lookup feeds all four histograms.
    const int bucket = sim::LatencyHistogram::BucketOf(latency);
    const auto n = static_cast<uint64_t>(params_.batch);
    overall_.RecordBucket(bucket, latency, n);
    report_tail_.RecordBucket(now, bucket, latency, n);
    ctl_tail_.RecordBucket(now, bucket, latency, n);
    fast_tail_.RecordBucket(now, bucket, latency, n);

    if (req.tracked && completion_fn_) completion_fn_(req.tag, latency);

    TryDispatch();
}

double
LcApp::DataFootprintMb(const LcParams& params, double load)
{
    const CacheProfile& c = params.cache;
    load = std::clamp(load, 0.0, 1.2);
    return c.data_base_mb +
           c.data_slope_mb * std::pow(load, c.footprint_load_exp);
}

std::pair<double, double>
LcApp::CacheFactorsFor(const LcParams& params, double load, double eff_mb)
{
    const CacheProfile& c = params.cache;
    const double instr_resident =
        std::clamp(eff_mb / c.instr_mb, 0.0, 1.0);
    const double leftover = std::max(0.0, eff_mb - c.instr_mb);
    const double data_needed =
        std::max(DataFootprintMb(params, load), 0.1);
    const double data_hit = std::clamp(leftover / data_needed, 0.0, 1.0);
    const double instr_pen =
        1.0 + (1.0 - instr_resident) * (c.instr_miss_penalty - 1.0);
    const double data_miss =
        c.mem_miss_ceil - (c.mem_miss_ceil - 1.0) * data_hit;
    return {instr_pen, data_miss};
}

double
LcApp::AnalyticDramGbps(const LcParams& params, const hw::MachineConfig& cfg,
                        double load, double eff_mb)
{
    load = std::clamp(load, 0.0, 1.2);
    const double warm = cfg.TotalDramGbps() * params.peak_dram_frac *
                        std::pow(load, params.bw_load_exp);
    const auto [ip, data_miss] = CacheFactorsFor(params, load, eff_mb);
    (void)ip;
    return warm * data_miss;
}

std::pair<double, double>
LcApp::CacheFactors(double eff_mb) const
{
    return CacheFactorsFor(params_, LoadFraction(), eff_mb);
}

double
LcApp::CurrentDataFootprintMb() const
{
    return DataFootprintMb(params_, LoadFraction());
}

sim::Duration
LcApp::SampleServiceTime(bool ht_shared)
{
    const hw::TaskView& view = machine_.ViewOf(this);
    const hw::MachineConfig& cfg = machine_.config();

    // Cache factors: cpu-weighted mean over the sockets we occupy. A
    // pure function of the resolved cache shares (the machine's demand
    // recompute count), our cpuset (allocation version) and the smoothed
    // load (exact ewma value) — all of which change orders of magnitude
    // less often than requests arrive, so the aggregation is memoized on
    // that key instead of recomputed per request.
    const uint64_t gen = machine_.demand_recomputes();
    if (!factors_valid_ || factors_gen_ != gen ||
        factors_alloc_ != alloc_version_ || factors_qps_ != qps_ewma_) {
        const auto& topo = machine_.topology();
        const hw::CpuSet& cpus = machine_.CpusOf(this);
        double ipen = 1.0, dmiss = 1.0;
        if (!cpus.Empty()) {
            ipen = 0.0;
            dmiss = 0.0;
            for (int s = 0; s < cfg.sockets; ++s) {
                const int here = topo.OnSocket(cpus, s).Count();
                if (here == 0) continue;
                const double w = static_cast<double>(here) / cpus.Count();
                const auto [ip, dm] = CacheFactors(view.llc_mb[s]);
                ipen += w * ip;
                dmiss += w * dm;
            }
        }
        factors_instr_pen_ = ipen;
        factors_data_miss_ = dmiss;
        factors_gen_ = gen;
        factors_alloc_ = alloc_version_;
        factors_qps_ = qps_ewma_;
        factors_valid_ = true;
    }
    const double instr_pen = factors_instr_pen_;
    const double data_miss = factors_data_miss_;

    const double base = rng_.LogNormalWithMean(
        static_cast<double>(params_.mean_service), params_.service_sigma);

    const double freq =
        view.freq_ghz > 0.0 ? view.freq_ghz : cfg.nominal_ghz;
    double compute = base * (1.0 - params_.mem_frac);
    compute *= cfg.nominal_ghz / freq;
    compute *= view.ht_penalty;
    if (ht_shared) compute *= params_.ht_self_penalty;
    compute *= instr_pen;

    double mem = base * params_.mem_frac;
    mem *= data_miss;
    mem *= view.dram_stretch;

    return static_cast<sim::Duration>(compute + mem);
}

void
LcApp::UpdateRates()
{
    // The ewmas feed the machine's demand model (LLC footprint/weight,
    // DRAM and NIC demand): mark the demand inputs changed.
    constexpr double kAlpha = 0.3;
    qps_ewma_ = (1.0 - kAlpha) * qps_ewma_ +
                kAlpha * static_cast<double>(arrivals_in_sec_);
    served_ewma_ = (1.0 - kAlpha) * served_ewma_ +
                   kAlpha * static_cast<double>(completions_in_sec_);
    arrivals_in_sec_ = 0;
    completions_in_sec_ = 0;
    machine_.MarkDemandDirty();

    const sim::SimTime now = machine_.queue().Now();
    report_tail_.MaybeRoll(now);
    ctl_tail_.MaybeRoll(now);
    fast_tail_.MaybeRoll(now);
}

void
LcApp::AccumulateBusy()
{
    busy_thread_ns_ = BusyThreadNs();
    busy_last_change_ = machine_.queue().Now();
}

int64_t
LcApp::BusyThreadNs() const
{
    return busy_thread_ns_ +
           busy_ * (machine_.queue().Now() - busy_last_change_);
}

double
LcApp::CpuBusyFraction() const
{
    return capacity_ > 0
               ? std::min(1.0, static_cast<double>(busy_) / capacity_)
               : 0.0;
}

double
LcApp::LlcFootprintMb(int socket) const
{
    const hw::CpuSet& cpus = machine_.CpusOf(this);
    if (machine_.topology().OnSocket(cpus, socket).Empty()) return 0.0;
    return params_.cache.instr_mb + CurrentDataFootprintMb();
}

double
LcApp::LlcAccessWeight(int socket) const
{
    const hw::CpuSet& cpus = machine_.CpusOf(this);
    if (machine_.topology().OnSocket(cpus, socket).Empty()) return 0.0;
    // Access pressure grows with request rate; a small floor keeps some
    // residency at idle.
    return params_.access_weight_scale *
           std::max(0.03, std::min(ServedFraction(), 1.2));
}

double
LcApp::DramDemandGbps(int socket, double effective_llc_mb) const
{
    const hw::CpuSet& cpus = machine_.CpusOf(this);
    const auto& topo = machine_.topology();
    const int here = topo.OnSocket(cpus, socket).Count();
    if (here == 0 || cpus.Empty()) return 0.0;

    // Demand follows the served request rate (an overloaded service
    // cannot demand bandwidth for requests it is not processing). Cache
    // starvation converts hits into extra DRAM traffic.
    const double load = std::clamp(ServedFraction(), 0.0, 1.2);
    const double socket_share =
        static_cast<double>(here) / cpus.Count();
    return AnalyticDramGbps(params_, machine_.config(), load,
                            effective_llc_mb) *
           socket_share;
}

double
LcApp::NetTxDemandGbps() const
{
    return served_ewma_ * params_.resp_bytes * 8.0 / 1e9;
}

sim::Duration
LcApp::CtlTailLatency() const
{
    // Roll on read so a poll landing exactly on a window boundary (or
    // during a total-starvation episode) still sees the freshest window.
    ctl_tail_.MaybeRoll(machine_.queue().Now());
    return ctl_tail_.LastWindowTail();
}

sim::Duration
LcApp::FastTailLatency() const
{
    fast_tail_.MaybeRoll(machine_.queue().Now());
    return fast_tail_.LastWindowTail();
}

sim::Duration
LcApp::WorstReportTail() const
{
    // Include the in-progress window so short measurement phases (or an
    // overload at the very end of a run) are never missed.
    return report_tail_.WorstObservedTail();
}

sim::Duration
LcApp::OverallPercentile(double p) const
{
    return overall_.Percentile(p);
}

void
LcApp::SetSloLatency(sim::Duration slo)
{
    HERACLES_CHECK(slo > 0);
    params_.slo_latency = slo;
}

void
LcApp::ResetStats()
{
    report_tail_ = sim::WindowedTailTracker(params_.report_window,
                                            params_.slo_percentile);
    overall_.Reset();
    ctl_tail_ = sim::WindowedTailTracker(params_.ctl_window,
                                         params_.slo_percentile);
    fast_tail_ = sim::WindowedTailTracker(params_.fast_window,
                                          params_.slo_percentile);
    // Window boundaries are phase-locked to t=0; fast-forward to now.
    const sim::SimTime now = machine_.queue().Now();
    report_tail_.MaybeRoll(now);
    ctl_tail_.MaybeRoll(now);
    fast_tail_.MaybeRoll(now);
}

int
LcApp::MinPhysCoresForLoad(double load, double util) const
{
    HERACLES_CHECK(util > 0.0 && util <= 1.0);
    const double demand_threads =
        load * params_.peak_qps *
        sim::ToSeconds(params_.mean_service);
    const double per_core =
        machine_.config().threads_per_core / params_.ht_self_penalty;
    const int cores = static_cast<int>(
        std::ceil(demand_threads / (per_core * util)));
    return std::clamp(cores, 1, machine_.config().TotalCores());
}

}  // namespace heracles::workloads
