#include "cluster/cluster.h"

#include <algorithm>
#include <chrono>
#include <memory>
#include <optional>
#include <utility>

#include "cluster/epoch.h"
#include "cluster/fingerprint.h"
#include "cluster/topology.h"
#include "exp/server_sim.h"
#include "heracles/controller.h"
#include "hw/machine.h"
#include "runner/pool.h"
#include "sim/log.h"
#include "sim/once_cache.h"
#include "workloads/antagonists.h"
#include "workloads/be_task.h"
#include "workloads/lc_app.h"

namespace heracles::cluster {
namespace {

/** Root-level SLO window (mu/30s in the paper). */
constexpr sim::Duration kRootWindow = sim::Seconds(30);
/** One-way network hop latency root <-> leaf. */
constexpr sim::Duration kHop = sim::Micros(250);
/** Load used to define the root latency target (paper: 90%). */
constexpr double kTargetLoad = 0.90;
/** Centralized controller: fraction of root slack converted into
 *  leaf-target increase. */
constexpr double kCentralGain = 0.5;
/** Centralized controller: a leaf target never exceeds this multiple of
 *  the static target. */
constexpr double kCentralMaxBoost = 1.6;
/** Cluster scheduler re-evaluation period (two top-level controller
 *  polls). */
constexpr sim::Duration kSchedulerPeriod = sim::Seconds(30);

/**
 * One assembled cluster: machines, leaves, per-leaf Heracles, a root
 * topology and (optionally) the cluster-level BE scheduler.
 *
 * Execution is epoch-partitioned: every leaf owns its own event queue
 * and advances one barrier interval at a time (cluster/epoch.h), fanned
 * across the runner pool. Root-side work — closing SLO windows, the
 * scheduler tick, cluster fault boundaries, arrival generation — runs
 * single-threaded at the barriers, so the only cross-leaf channels are
 * the staged arrival inboxes (root → leaf, written before an epoch) and
 * the reply outboxes (leaf → root, drained after it in leaf order).
 * The barrier schedule, the inbox order and the drain order depend only
 * on the configuration, never on thread count, which keeps a jobs=N run
 * bit-identical to jobs=1 — and, by matching the old shared queue's
 * insertion-order tie-breaks at the barriers, byte-identical to the
 * serial single-queue implementation this replaced (the reply drain
 * order cannot change a result: a query's latency is a max and the
 * window sum is exact integer arithmetic).
 */
class ClusterSim
{
  public:
    /**
     * @param pool the worker pool for the epoch engine's leaf fan-out
     *        (not owned); nullptr steps every leaf inline on the
     *        caller. Assembly runs on the caller: alone rates are
     *        memoized per process (workloads::MeasureAloneRate).
     * @param faults fault plan for this run, or nullptr for a clean run
     *        (the target-defining run is always clean); windows resolve
     *        against @p fault_total (the run's trace duration).
     */
    ClusterSim(const ClusterConfig& cfg, runner::Pool* pool,
               const std::vector<LeafSpec>& specs,
               const sim::LoadTrace& trace, bool colocate,
               sim::Duration target,
               const chaos::FaultPlan* faults = nullptr,
               sim::Duration fault_total = 0)
        : cfg_(cfg), pool_(pool), trace_(trace), target_(target),
          rng_(cfg.seed),
          topo_(static_cast<int>(specs.size()), cfg.shards, cfg.rack_size,
                cfg.seed ^ 0x70B0C0DEull),
          root_hops_(2 * kHop * topo_.HopLevels())
    {
        if (faults != nullptr) {
            for (const chaos::FaultSpec& f : faults->faults) {
                if (f.kind != chaos::FaultKind::kLeafCrash &&
                    f.kind != chaos::FaultKind::kSlackFreeze) {
                    continue;
                }
                HERACLES_CHECK_MSG(
                    f.leaf >= 0 &&
                        f.leaf < static_cast<int>(specs.size()),
                    "cluster fault targets leaf "
                        << f.leaf << " of " << specs.size()
                        << " (pin the scenario's leaf count with "
                           "fixed_leaves)");
                const chaos::TimedFault t =
                    chaos::ResolveWindow(f, fault_total);
                if (t.end > t.begin) cluster_faults_.push_back(t);
            }
            frozen_.resize(cluster_faults_.size());
        }
        const int n = static_cast<int>(specs.size());
        const int num_jobs = static_cast<int>(cfg_.be_jobs.size());
        const bool scheduled =
            colocate &&
            cfg_.scheduler.policy != SchedulerPolicy::kStaticSplit &&
            num_jobs > 0;

        leaves_.reserve(static_cast<size_t>(n));
        for (int i = 0; i < n; ++i) {
            const LeafSpec& ls = specs[i];
            exp::ServerSpec spec;
            spec.machine = ls.machine;
            spec.machine.seed = cfg_.seed * 131ull + i;
            spec.lc = ls.lc;
            spec.lc_seed = spec.machine.seed ^ 0x11;
            spec.heracles = cfg_.heracles;
            if (faults != nullptr) {
                spec.faults = chaos::ResolvedFaultPlan::For(
                    *faults, fault_total, i);
                // Leaves degrade independently even under a shared
                // noise spec.
                spec.faults.seed = faults->seed * 131ull + i;
            }
            double be_alone = 1.0;
            if (colocate) {
                // Every colocated leaf runs Heracles over an offline
                // bandwidth model of its own (workload, machine) pair,
                // profiled during assembly — one model per leaf, even
                // when leaves serve different shards (Section 5.2 shows
                // Heracles tolerates that).
                spec.policy = exp::PolicyKind::kHeracles;
                if (!scheduled && ls.be.has_value()) {
                    spec.be = ls.be;
                    be_alone =
                        workloads::MeasureAloneRate(ls.machine, *ls.be);
                }
            } else {
                spec.policy = exp::PolicyKind::kNoColocation;
            }

            Leaf leaf;
            leaf.queue = std::make_unique<sim::EventQueue>();
            leaf.server =
                std::make_unique<exp::ServerSim>(spec, *leaf.queue);

            const int idx = static_cast<int>(leaves_.size());
            workloads::LcApp& lc = leaf.server->lc();
            lc.StartExternal();
            // Replies never cross into root state mid-epoch: they land
            // in the leaf's own outbox (thread-confined) and the root
            // drains all outboxes at the next barrier.
            lc.SetCompletionCallback(
                [this, idx](uint64_t tag, sim::Duration latency) {
                    Leaf& l = leaves_[static_cast<size_t>(idx)];
                    l.outbox.push_back({tag, latency});
                });
            leaf.queue->SetLane(
                [this, idx] { InjectNext(leaves_[static_cast<size_t>(idx)]); });

            leaf.base_slo = ls.lc.slo_latency;
            leaf.be_alone = be_alone;
            if (colocate && !scheduled) leaf.pinned = ls.be;
            if (scheduled) {
                // A scheduled job can land on any leaf, so each leaf
                // carries every job's alone rate on its machine.
                for (const workloads::BeProfile& job : cfg_.be_jobs) {
                    leaf.alone_by_job.push_back(
                        workloads::MeasureAloneRate(ls.machine, job));
                }
            }
            leaves_.push_back(std::move(leaf));
        }

        crashed_.assign(static_cast<size_t>(n), false);
        if (scheduled) {
            scheduler_ = std::make_unique<ClusterScheduler>(
                cfg_.scheduler, num_jobs, n);
            if (cfg_.scheduler.policy == SchedulerPolicy::kPredictive) {
                // Offline fingerprint table: predicted tail fraction of
                // every (job, leaf) pair. Fingerprints are cached per
                // (machine shape, LC workload) process-wide, so this
                // costs one characterization grid per distinct pair
                // ever seen, not per scenario. Two static per-leaf
                // corrections the rig cannot see. First, headroom at
                // the trace peak: under the shared query stream a leaf
                // whose LC has a lower peak rate runs hotter relative
                // to its own capacity, and interference impact grows
                // like queueing delay — convex in utilization — so the
                // prediction scales by 1/(1 - rho) at the worst point
                // of the trace the run will actually reach (greedy
                // reacts to the slack of *now*; prediction prepares
                // for the peak). Second, a leaf granted a scaled
                // (relaxed) tail target tolerates proportionally more
                // absolute tail, shrinking its prediction.
                std::vector<std::vector<double>> predicted(
                    static_cast<size_t>(num_jobs),
                    std::vector<double>(static_cast<size_t>(n), 0.0));
                for (int i = 0; i < n; ++i) {
                    const LcFingerprint fp = FingerprintFor(
                        specs[i].machine, specs[i].lc.name, cfg_.jobs);
                    const double peak_leaf_load = std::min(
                        cfg_.load_high * cfg_.lc.peak_qps /
                            std::max(specs[i].lc.peak_qps, 1.0),
                        0.95);
                    const double amp = 1.0 / (1.0 - peak_leaf_load);
                    const double scale =
                        std::max(specs[i].tail_scale, 1e-9);
                    for (int j = 0; j < num_jobs; ++j) {
                        const BePressure pressure = PressureOf(
                            specs[i].machine, cfg_.be_jobs[j]);
                        predicted[j][i] =
                            PredictTailFrac(fp, pressure) * amp / scale;
                    }
                }
                scheduler_->SetPredictions(std::move(predicted));
            }
        }
    }

    ~ClusterSim()
    {
        for (auto& leaf : leaves_) leaf.server->StopController();
    }

    /**
     * Runs the trace through the epoch engine; per-window results land
     * in the series. Each barrier interval: stage the interval's
     * arrivals into the leaf inboxes, advance every leaf (in parallel)
     * to just before the barrier instant, then do the root's barrier
     * work in the old shared queue's tie-break order — drain replies,
     * apply fault boundaries, close the SLO window, tick the scheduler.
     */
    void
    Run(sim::Duration duration, sim::Duration warmup)
    {
        // Host time: everything but the leaf fan-out is the serial
        // barrier section.
        HostClock::time_point mark = HostClock::now();
        const auto lap = [&mark](double* sum) {
            const HostClock::time_point now = HostClock::now();
            *sum += std::chrono::duration<double>(now - mark).count();
            mark = now;
        };
        warmup_end_ = warmup;
        // A fault window opening at t = 0 acts before the first epoch
        // (its one-shot had the smallest insertion seq on the old
        // shared queue).
        ApplyFaultBoundaries(0);
        const BarrierClock clock = BarrierClock::Build(
            duration, kRootWindow,
            scheduler_ != nullptr ? kSchedulerPeriod : 0, cluster_faults_);
        epochs_ += clock.size();

        for (const sim::SimTime t : clock.barriers) {
            for (auto& leaf : leaves_) leaf.inbox.clear();
            lap(&barrier_s_);
            PumpArrivals(/*limit=*/t);
            lap(&pump_s_);
            FanOutLeaves(t, /*inclusive=*/false);
            lap(&fanout_s_);
            DrainOutboxes();
            ReclaimClosed();
            ApplyFaultBoundaries(t);
            if (t % kRootWindow == 0) CloseWindow(t);
            if (scheduler_ != nullptr && t % kSchedulerPeriod == 0) {
                SchedulerTick(t);
            }
        }
        // The shared queue's RunFor(duration) was inclusive, with leaf
        // events at the final instant firing *after* the root's — run
        // them (and any arrival at exactly `duration`) last.
        for (auto& leaf : leaves_) leaf.inbox.clear();
        lap(&barrier_s_);
        PumpArrivals(duration + 1);
        lap(&pump_s_);
        FanOutLeaves(duration, /*inclusive=*/true);
        lap(&fanout_s_);
    }

    /**
     * Centralized controller step: convert root-level slack into
     * per-leaf tail targets between each leaf's static base and
     * base * kCentralMaxBoost.
     */
    void
    AdjustLeafTargets(double window_mean)
    {
        if (!cfg_.central_controller || target_ <= 0) return;
        const double root_slack =
            (static_cast<double>(target_) - window_mean) /
            static_cast<double>(target_);
        const double boost = std::clamp(1.0 + kCentralGain * root_slack,
                                        1.0, kCentralMaxBoost);
        for (auto& leaf : leaves_) {
            leaf.lc().SetSloLatency(static_cast<sim::Duration>(
                static_cast<double>(leaf.base_slo) * boost));
        }
    }

    const sim::TimeSeries& latency_series() const { return latency_; }

    /** Mean of the leaves' overall tail latencies (for target setting). */
    sim::Duration
    MeanLeafTail() const
    {
        double sum = 0.0;
        for (const auto& leaf : leaves_) {
            sum += static_cast<double>(leaf.lc().WorstReportTail());
        }
        return static_cast<sim::Duration>(sum / leaves_.size());
    }

    /** One leaf's overall worst report-window tail. */
    sim::Duration
    LeafTail(int i) const
    {
        return leaves_[static_cast<size_t>(i)].lc().WorstReportTail();
    }

    const sim::TimeSeries& emu_series() const { return emu_; }
    const sim::TimeSeries& load_series() const { return load_; }

    /** Barrier intervals executed (across Run calls). */
    uint64_t epochs() const { return epochs_; }

    /** Host seconds in the serial barrier section (the arrival pump
     *  included), in the pump alone and in the leaf fan-out (across Run
     *  calls). */
    double barrier_s() const { return barrier_s_ + pump_s_; }
    double pump_s() const { return pump_s_; }
    double fanout_s() const { return fanout_s_; }

    /** Events executed across every leaf's queue. */
    uint64_t
    leaf_events() const
    {
        uint64_t total = 0;
        for (const auto& leaf : leaves_) total += leaf.queue->executed();
        return total;
    }

    /** Sums every leaf's activity (plus the cluster-layer invariant
     *  violations) and the scheduler's counters into @p r. */
    void
    AccumulateActivity(ClusterResult& r) const
    {
        for (const auto& leaf : leaves_) r += leaf.server->Activity();
        r.invariant_violations += cluster_violations_;
        if (scheduler_ != nullptr) {
            r.be_placements = scheduler_->stats().placements;
            r.be_migrations = scheduler_->stats().migrations;
            r.be_would_placements = scheduler_->stats().would_placements;
            r.be_would_migrations = scheduler_->stats().would_migrations;
        }
    }

  private:
    using HostClock = std::chrono::steady_clock;

    /** One staged root → leaf query injection. */
    struct Arrival {
        sim::SimTime when;
        uint64_t tag;
    };

    /** One leaf → root completion record. */
    struct Reply {
        uint64_t tag;
        sim::Duration latency;
    };

    /**
     * One leaf's engine state. Cache-line aligned: pool workers step
     * adjacent leaves at the same time, and each one writes its
     * inbox_pos and outbox on every event, so two leaves sharing a line
     * would bounce it between cores.
     */
    struct alignas(64) Leaf {
        /** The leaf's own clock: the partitioned engine's unit of
         *  parallelism. Owned here so ServerSim can keep borrowing. */
        std::unique_ptr<sim::EventQueue> queue;
        std::unique_ptr<exp::ServerSim> server;
        sim::Duration base_slo = 0;  ///< Tail target at assembly.
        double be_alone = 1.0;       ///< Pinned job's alone rate.
        /** Alone rate of every queued job on this machine shape. */
        std::vector<double> alone_by_job;
        int job = -1;  ///< Queued-job index hosted here (-1 = none).
        /** Statically-pinned BE profile (restarts after a crash). */
        std::optional<workloads::BeProfile> pinned;

        /** This epoch's staged arrivals (root-written at the barrier,
         *  injected one at a time by the leaf queue's arrival lane). */
        std::vector<Arrival> inbox;
        size_t inbox_pos = 0;
        /** Completions since the last barrier (leaf-thread-confined). */
        std::vector<Reply> outbox;

        workloads::LcApp& lc() const { return server->lc(); }
        workloads::BeTask* be() const { return server->be(); }
    };

    /** One query's fan-out bookkeeping; closed once remaining is 0. */
    struct Query {
        int remaining = 0;
        sim::Duration max_latency = 0;
    };

    /**
     * Generates and dispatches every arrival strictly before @p limit.
     * Reproduces the old self-rescheduling query event exactly: the gap
     * after an arrival at t is drawn (one Exponential per arrival, plus
     * one priming draw) from the load at t, so the RNG stream and every
     * arrival instant are byte-identical to the serial implementation.
     */
    void
    PumpArrivals(sim::SimTime limit)
    {
        if (!primed_) {
            next_arrival_ = gen_time_ + NextGap();
            primed_ = true;
        }
        while (next_arrival_ < limit) {
            DispatchArrival(next_arrival_);
            gen_time_ = next_arrival_;
            next_arrival_ = gen_time_ + NextGap();
        }
    }

    sim::Duration
    NextGap()
    {
        const double load = trace_.LoadAt(gen_time_);
        const double rate = std::max(load * cfg_.lc.peak_qps, 1.0);
        return std::max<sim::Duration>(
            1, sim::Seconds(rng_.Exponential(1.0 / rate)));
    }

    void
    DispatchArrival(sim::SimTime when)
    {
        const uint64_t tag = next_tag_++;
        topo_.TouchedLeaves(tag, &touched_);
        // Crashed leaves answer nothing; the root combines whatever the
        // surviving replicas return. A query whose every touched leaf
        // is dark is lost (an error response, outside the latency
        // statistics). Crash state only changes at barriers, so the
        // liveness seen here matches what the arrival would have seen
        // firing inside the epoch.
        int alive = 0;
        for (int li : touched_) {
            if (!crashed_[static_cast<size_t>(li)]) ++alive;
        }
        // A lost query still takes its slot, born closed, so the slot
        // of every tag stays head_ + (tag - oldest_tag_).
        pending_.push_back(Query{alive, 0});
        for (int li : touched_) {
            if (crashed_[static_cast<size_t>(li)]) continue;
            leaves_[static_cast<size_t>(li)].inbox.push_back({when, tag});
        }
    }

    /**
     * The leaf queue's arrival lane: injects the next staged arrival,
     * then arms the lane at the one after it. Arming after the inject
     * gives the next arrival a later seq than the completion event the
     * inject may schedule, so at equal times the completion fires first.
     */
    void
    InjectNext(Leaf& leaf)
    {
        leaf.lc().InjectRequest(leaf.inbox[leaf.inbox_pos++].tag);
        if (leaf.inbox_pos < leaf.inbox.size()) {
            leaf.queue->ArmLane(leaf.inbox[leaf.inbox_pos].when);
        }
    }

    /** Advances one leaf to the barrier at @p until (exclusive for all
     *  interior barriers; inclusive only for the final instant). Runs
     *  on a pool thread: touches nothing but this leaf's state. */
    void
    StepLeaf(Leaf& leaf, sim::SimTime until, bool inclusive)
    {
        leaf.inbox_pos = 0;
        if (!leaf.inbox.empty()) leaf.queue->ArmLane(leaf.inbox[0].when);
        if (inclusive) {
            leaf.queue->RunUntil(until);
        } else {
            leaf.queue->RunUntilBefore(until);
        }
    }

    /** Fans every leaf to the barrier at @p until across the pool. */
    void
    FanOutLeaves(sim::SimTime until, bool inclusive)
    {
        runner::ParallelFor(pool_, leaves_.size(), [&](size_t i) {
            StepLeaf(leaves_[i], until, inclusive);
        });
    }

    /**
     * Applies every leaf's completions since the last barrier to the
     * root's fan-out bookkeeping, leaf by leaf in leaf order — a fixed
     * order no thread schedule can perturb. Nothing here depends on the
     * order across leaves: a query's latency is the max over its
     * replies, and the window sum adds integer durations exactly.
     */
    void
    DrainOutboxes()
    {
        for (auto& leaf : leaves_) {
            for (const Reply& r : leaf.outbox) HandleReply(r.tag, r.latency);
            leaf.outbox.clear();
        }
    }

    void
    HandleReply(uint64_t tag, sim::Duration latency)
    {
        if (tag < oldest_tag_) return;
        const size_t slot = head_ + (tag - oldest_tag_);
        if (slot >= pending_.size() || pending_[slot].remaining == 0) return;
        Query& q = pending_[slot];
        q.max_latency = std::max(q.max_latency, latency);
        if (--q.remaining == 0) {
            window_sum_ += q.max_latency + root_hops_;
            // CloseWindow divides it as a double: exact below 2^53.
            HERACLES_CHECK(window_sum_ < (int64_t{1} << 53));
            ++window_count_;
        }
    }

    /**
     * Advances the head past the closed slots and reclaims them: the
     * whole table once it empties, else the closed prefix once it is
     * more than half the table (the erase moves fewer slots than it
     * frees, so it costs amortized O(1) a query). The table then spans
     * only the queries from the oldest one still in flight.
     */
    void
    ReclaimClosed()
    {
        while (head_ < pending_.size() && pending_[head_].remaining == 0) {
            ++head_;
            ++oldest_tag_;
        }
        if (head_ == pending_.size()) {
            pending_.clear();
            head_ = 0;
        } else if (head_ > pending_.size() / 2) {
            pending_.erase(pending_.begin(),
                           pending_.begin() + static_cast<ptrdiff_t>(head_));
            head_ = 0;
        }
    }

    /** Applies every cluster-fault boundary landing exactly at @p t, in
     *  plan order with begin before end per fault — the insertion order
     *  (and so the firing order) of their one-shots on the old shared
     *  queue. */
    void
    ApplyFaultBoundaries(sim::SimTime t)
    {
        for (const chaos::TimedFault& f : cluster_faults_) {
            if (f.kind != chaos::FaultKind::kLeafCrash) continue;
            if (f.begin == t) CrashLeaf(f.leaf);
            if (f.end == t) RecoverLeaf(f.leaf);
        }
    }

    /** Leaf crash: drains in-flight work, then goes dark; any hosted BE
     *  job dies with it (queued jobs return to the scheduler). */
    void
    CrashLeaf(int li)
    {
        crashed_[static_cast<size_t>(li)] = true;
        Leaf& leaf = leaves_[static_cast<size_t>(li)];
        if (leaf.job >= 0) {
            leaf.server->DetachBeJob();
            scheduler_->ReleaseJob(leaf.job);
            leaf.job = -1;
        } else if (leaf.be() != nullptr) {
            leaf.server->DetachBeJob();
        }
    }

    /** Leaf recovery: rejoins the fan-out; a pinned BE job restarts
     *  with the machine (scheduled jobs come back via the scheduler). */
    void
    RecoverLeaf(int li)
    {
        crashed_[static_cast<size_t>(li)] = false;
        Leaf& leaf = leaves_[static_cast<size_t>(li)];
        if (leaf.pinned.has_value() && leaf.be() == nullptr) {
            leaf.server->AttachBeJob(*leaf.pinned);
        }
    }

    void
    CloseWindow(sim::SimTime now)
    {
        if (window_count_ > 0 && now > warmup_end_) {
            const double mean =
                static_cast<double>(window_sum_) / window_count_;
            AdjustLeafTargets(mean);
            latency_.Add(now, target_ > 0
                                  ? mean / static_cast<double>(target_)
                                  : mean);

            double emu = 0.0;
            for (auto& leaf : leaves_) {
                double e = leaf.lc().ServedFraction();
                if (workloads::BeTask* task = leaf.be()) {
                    const double alone =
                        leaf.job >= 0 ? leaf.alone_by_job[leaf.job]
                                      : leaf.be_alone;
                    e += task->CurrentRate() / alone;
                }
                emu += e;
            }
            emu_.Add(now, emu / leaves_.size());
            load_.Add(now, trace_.LoadAt(now));
        }
        window_sum_ = 0;
        window_count_ = 0;
    }

    /** One cluster-scheduler period: export slack, apply the moves. */
    void
    SchedulerTick(sim::SimTime now)
    {
        std::vector<ClusterScheduler::LeafState> states(leaves_.size());
        for (size_t i = 0; i < leaves_.size(); ++i) {
            ctl::SlackExport e;
            if (const ctl::HeraclesController* c =
                    leaves_[i].server->controller()) {
                e = c->ExportSlack();
            }
            // A slack-freeze fault wedges the leaf's export as the
            // scheduler first saw it inside the window — the stale-
            // telemetry regime CPI2 warns about. Liveness (crashed /
            // hosts_job) is cluster-side state and stays fresh.
            for (size_t fi = 0; fi < cluster_faults_.size(); ++fi) {
                const chaos::TimedFault& f = cluster_faults_[fi];
                if (f.kind != chaos::FaultKind::kSlackFreeze ||
                    f.leaf != static_cast<int>(i) || !f.ActiveAt(now)) {
                    continue;
                }
                if (!frozen_[fi].has_value()) {
                    frozen_[fi] = e;
                } else {
                    e = *frozen_[fi];
                }
            }
            ClusterScheduler::LeafState& s = states[i];
            s.hosts_job = leaves_[i].job >= 0;
            s.crashed = crashed_[i];
            s.slack = e.slack;
            s.be_enabled = e.be_enabled;
            s.in_cooldown = e.in_cooldown;
            s.has_signal = e.has_signal;
        }
        for (const ClusterScheduler::Move& m :
             scheduler_->Tick(states)) {
            if (crashed_[static_cast<size_t>(m.to)]) {
                // The cluster-layer safety invariant: jobs never land
                // on a leaf the scheduler was told is down.
                std::fprintf(stderr,
                             "[invariant] no-placement-on-crashed-leaf "
                             "violated at t=%.1fs: job %d -> leaf %d\n",
                             sim::ToSeconds(now), m.job, m.to);
                ++cluster_violations_;
            }
            if (m.from >= 0) {
                Leaf& src = leaves_[static_cast<size_t>(m.from)];
                src.server->DetachBeJob();
                src.job = -1;
            }
            Leaf& dst = leaves_[static_cast<size_t>(m.to)];
            dst.server->AttachBeJob(
                cfg_.be_jobs[static_cast<size_t>(m.job)]);
            dst.job = m.job;
        }
    }

    ClusterConfig cfg_;
    runner::Pool* pool_;
    const sim::LoadTrace& trace_;
    sim::Duration target_;
    sim::Rng rng_;
    Topology topo_;
    /** Request/response hops every root latency pays. */
    sim::Duration root_hops_;
    std::vector<Leaf> leaves_;
    std::unique_ptr<ClusterScheduler> scheduler_;
    std::vector<int> touched_;  // per-query scratch

    std::vector<chaos::TimedFault> cluster_faults_;
    /** Each slack-freeze fault's captured export, aligned with
     *  cluster_faults_. */
    std::vector<std::optional<ctl::SlackExport>> frozen_;
    std::vector<bool> crashed_;
    uint64_t cluster_violations_ = 0;

    // Root arrival generator (the old self-rescheduling query event).
    uint64_t next_tag_ = 1;
    sim::SimTime gen_time_ = 0;      ///< Instant the next gap is drawn at.
    sim::SimTime next_arrival_ = 0;  ///< Lookahead arrival instant.
    bool primed_ = false;

    /** Queries by tag, oldest first: tag t sits in slot
     *  head_ + (t - oldest_tag_); slots before head_ are reclaimable. */
    std::vector<Query> pending_;
    size_t head_ = 0;
    uint64_t oldest_tag_ = 1;  ///< Tag held by slot head_.
    /** Root latencies of the window's completed queries (exact). */
    int64_t window_sum_ = 0;
    uint64_t window_count_ = 0;
    sim::SimTime warmup_end_ = 0;
    uint64_t epochs_ = 0;
    double barrier_s_ = 0.0;  ///< Host time; not a simulation result.
    double pump_s_ = 0.0;     ///< Excluded from barrier_s_.
    double fanout_s_ = 0.0;

    sim::TimeSeries latency_;
    sim::TimeSeries emu_;
    sim::TimeSeries load_;
};

}  // namespace

ClusterExperiment::ClusterExperiment(ClusterConfig cfg) : cfg_(std::move(cfg))
{
}

const std::vector<LeafSpec>&
ClusterExperiment::ResolveSpecs()
{
    if (!specs_.empty()) return specs_;
    if (!cfg_.leaf_specs.empty()) {
        specs_ = cfg_.leaf_specs;
        return specs_;
    }
    // The paper's uniform cluster: identical leaves, brain pinned to the
    // even ones and streetview to the odd ones.
    specs_.reserve(static_cast<size_t>(cfg_.leaves));
    for (int i = 0; i < cfg_.leaves; ++i) {
        LeafSpec s;
        s.machine = cfg_.machine;
        s.lc = cfg_.lc;
        s.be = i % 2 == 0 ? workloads::Brain() : workloads::Streetview();
        specs_.push_back(std::move(s));
    }
    return specs_;
}

runner::Pool*
ClusterExperiment::SharedPool()
{
    if (pool_ == nullptr && cfg_.jobs > 1 && ResolveSpecs().size() > 1) {
        pool_ = std::make_unique<runner::Pool>(std::min(
            cfg_.jobs, static_cast<int>(ResolveSpecs().size())));
    }
    return pool_.get();
}

TargetKey
ClusterExperiment::MakeTargetKey()
{
    std::vector<std::pair<hw::MachineConfig, workloads::LcParams>> leaves;
    for (const LeafSpec& s : ResolveSpecs()) {
        hw::MachineConfig shape = s.machine;
        shape.seed = 0;
        leaves.emplace_back(shape, s.lc);
    }
    return {cfg_.seed,       cfg_.lc,         cfg_.shards,
            cfg_.rack_size,  cfg_.target_run, cfg_.run_warmup,
            cfg_.jobs,       std::move(leaves)};
}

TargetRun
ClusterExperiment::MeasureTargetRun()
{
    const std::vector<LeafSpec>& specs = ResolveSpecs();
    sim::ConstantTrace trace(kTargetLoad);
    ClusterSim sim(cfg_, SharedPool(), specs, trace, /*colocate=*/false,
                   /*target=*/0);
    sim.Run(cfg_.target_run, cfg_.run_warmup);
    barrier_s_ += sim.barrier_s();
    pump_s_ += sim.pump_s();
    fanout_s_ += sim.fanout_s();
    const sim::TimeSeries& s = sim.latency_series();
    TargetRun run{s.size() == 0, s.size() > 0 ? s.MaxValue() : 0.0,
                  sim.MeanLeafTail(), {}};
    for (size_t i = 0; i < specs.size(); ++i) {
        run.leaf_tails.push_back(sim.LeafTail(static_cast<int>(i)));
    }
    return run;
}

const TargetRun&
ClusterExperiment::MemoizedTargetRun()
{
    static auto* cache = new sim::OnceCache<TargetKey, TargetRun>();
    return cache->Get(MakeTargetKey(), [this] { return MeasureTargetRun(); });
}

sim::Duration
ClusterExperiment::MeasureTarget()
{
    if (target_ > 0) return target_;
    const TargetRun& run = MemoizedTargetRun();
    const std::vector<LeafSpec>& specs = ResolveSpecs();
    // The worst mu/30s window at the defining load is the SLO target,
    // with a small confidence margin: the defining run observes only a
    // few windows, so its sample maximum understates the true worst
    // window of a long run at the same load.
    target_ = !run.empty ? static_cast<sim::Duration>(1.05 * run.max_window)
                         : cfg_.lc.slo_latency;
    // Per-leaf tail targets from the same run: Heracles on each leaf
    // defends the tail observed at the defining load — the uniform mean
    // leaf tail by default (Section 5.3), each leaf's own tail under
    // per_leaf_targets, scaled by the leaf's spec.
    leaf_targets_.assign(specs.size(), 0);
    double sum = 0.0;
    for (size_t i = 0; i < specs.size(); ++i) {
        sim::Duration derived =
            cfg_.per_leaf_targets ? run.leaf_tails[i] : run.mean_leaf_tail;
        if (derived <= 0) derived = specs[i].lc.slo_latency;
        const sim::Duration t = static_cast<sim::Duration>(
            static_cast<double>(derived) * specs[i].tail_scale);
        leaf_targets_[i] = t;
        sum += static_cast<double>(t);
    }
    leaf_target_ = static_cast<sim::Duration>(sum / specs.size());
    return target_;
}

sim::Duration
ClusterExperiment::LeafTarget()
{
    MeasureTarget();
    return leaf_target_;
}

const std::vector<sim::Duration>&
ClusterExperiment::LeafTargets()
{
    MeasureTarget();
    return leaf_targets_;
}

ClusterResult
ClusterExperiment::Run()
{
    MeasureTarget();
    std::unique_ptr<sim::LoadTrace> trace;
    if (cfg_.flash_crowd) {
        // The crowd arrives a quarter into the post-warmup window so
        // both the eviction and the recovery land in the statistics.
        trace = std::make_unique<sim::FlashCrowdTrace>(
            cfg_.duration, cfg_.load_low, cfg_.load_high,
            /*onset=*/cfg_.run_warmup +
                (cfg_.duration - cfg_.run_warmup) / 4,
            /*ramp=*/sim::Seconds(10), /*hold=*/sim::Seconds(40),
            /*decay=*/sim::Seconds(60), /*jitter=*/0.02, cfg_.seed);
    } else {
        trace = std::make_unique<sim::DiurnalTrace>(
            cfg_.duration, cfg_.load_low, cfg_.load_high, 0.02,
            cfg_.seed);
    }
    // Every leaf's Heracles defends its derived tail target.
    std::vector<LeafSpec> run_specs = ResolveSpecs();
    for (size_t i = 0; i < run_specs.size(); ++i) {
        run_specs[i].lc.slo_latency = leaf_targets_[i];
    }
    ClusterSim sim(cfg_, SharedPool(), run_specs, *trace, cfg_.colocate,
                   target_, cfg_.faults.empty() ? nullptr : &cfg_.faults,
                   cfg_.duration);
    sim.Run(cfg_.duration, cfg_.run_warmup);

    ClusterResult r;
    sim.AccumulateActivity(r);
    r.leaf_target = leaf_target_;
    r.latency_frac = sim.latency_series();
    r.emu = sim.emu_series();
    r.load = sim.load_series();
    r.worst_latency_frac = r.latency_frac.MaxValue();
    r.slo_violated = r.worst_latency_frac > 1.0;
    r.avg_emu = r.emu.MeanValue();
    r.min_emu = r.emu.MinValue();
    r.target = target_;
    r.epochs = sim.epochs();
    r.leaf_events = sim.leaf_events();
    r.barrier_s = std::exchange(barrier_s_, 0.0) + sim.barrier_s();
    r.pump_s = std::exchange(pump_s_, 0.0) + sim.pump_s();
    r.fanout_s = std::exchange(fanout_s_, 0.0) + sim.fanout_s();
    return r;
}

}  // namespace heracles::cluster
