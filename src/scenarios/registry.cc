#include "scenarios/registry.h"

#include "sim/log.h"

namespace heracles::scenarios {
namespace {

ScenarioSpec
Single(std::string name, std::string description, std::string lc,
       std::string be, exp::PolicyKind policy, TraceKind trace,
       double load, double load_high, uint64_t seed)
{
    ScenarioSpec s;
    s.name = std::move(name);
    s.description = std::move(description);
    s.topology = Topology::kSingleServer;
    s.lc = std::move(lc);
    s.be = std::move(be);
    s.policy = policy;
    s.trace = trace;
    s.load = load;
    s.load_high = load_high;
    s.seed = seed;
    return s;
}

ScenarioSpec
Cluster(std::string name, std::string description, bool colocate,
        bool central, uint64_t seed)
{
    ScenarioSpec s;
    s.name = std::move(name);
    s.description = std::move(description);
    s.topology = Topology::kCluster;
    s.lc = "websearch";
    s.be = colocate ? "brain+streetview" : "none";
    s.policy = colocate ? exp::PolicyKind::kHeracles
                        : exp::PolicyKind::kNoColocation;
    s.trace = TraceKind::kDiurnal;
    s.load = 0.20;
    s.load_high = 0.90;
    s.leaves = 6;
    s.central_controller = central;
    s.cluster_duration = sim::Minutes(10);
    s.seed = seed;
    return s;
}

std::vector<ScenarioSpec>
BuildCatalog()
{
    using PK = exp::PolicyKind;
    using TK = TraceKind;
    std::vector<ScenarioSpec> all;

    // --- websearch colocations: the four policies on one mix -----------
    all.push_back(Single(
        "websearch_brain_heracles",
        "websearch + brain at 50% load under the full controller", "websearch",
        "brain", PK::kHeracles, TK::kConstant, 0.5, 0.5, 11));
    all.push_back(Single(
        "websearch_brain_static",
        "same mix under a fixed half/half core+LLC split", "websearch",
        "brain", PK::kStaticPartition, TK::kConstant, 0.5, 0.5, 12));
    {
        // The paper's Figure 1 "brain" row: OS-only isolation cannot
        // protect the tail, so the violation *is* the expected outcome.
        ScenarioSpec s = Single(
            "websearch_brain_os_only",
            "same mix with Linux-only isolation (shared cpus, CFS shares)",
            "websearch", "brain", PK::kOsOnly, TK::kConstant, 0.5, 0.5,
            13);
        s.expect_violation_at_scale = 0;
        all.push_back(s);
    }
    all.push_back(Single(
        "websearch_baseline",
        "websearch alone at 70% load (no colocation reference)",
        "websearch", "none", PK::kNoColocation, TK::kConstant, 0.7, 0.7,
        14));

    // --- websearch versus antagonists and load shapes --------------------
    all.push_back(Single(
        "websearch_streamllc_heracles",
        "websearch vs the stream-LLC cache antagonist", "websearch",
        "stream-llc", PK::kHeracles, TK::kConstant, 0.5, 0.5, 15));
    {
        // At time scales >= ~0.5 the step lands after ~10 top-level
        // polls, when brain holds most of the machine; 80% load does
        // not trip the 85% safeguard, so the controller only reacts to
        // negative slack — 15 s late, returning cores a few per 2 s
        // tick — while the LC queue explodes. A transient violation is
        // the faithful reactive-controller outcome there (and the
        // motivation for the predictive tier); below the threshold the
        // step arrives before BE has grown and the run must stay clean.
        ScenarioSpec s = Single(
            "websearch_brain_step",
            "load step 30%->80% mid-measurement: the load safeguard path",
            "websearch", "brain", PK::kHeracles, TK::kStep, 0.3, 0.8, 16);
        s.expect_violation_at_scale = 0.45;
        all.push_back(s);
    }
    all.push_back(Single(
        "websearch_brain_diurnal",
        "websearch + brain across a 25%-75% diurnal swing", "websearch",
        "brain", PK::kHeracles, TK::kDiurnal, 0.25, 0.75, 17));
    {
        // Same transient regime as the step scenario: the crowd's ramp
        // outruns the reactive unwind once BE is fully grown.
        ScenarioSpec s = Single(
            "websearch_brain_flashcrowd",
            "flash crowd to 90%: BE must be evicted within one period",
            "websearch", "brain", PK::kHeracles, TK::kFlashCrowd, 0.35,
            0.90, 18);
        s.expect_violation_at_scale = 0.45;
        all.push_back(s);
    }

    // --- ml_cluster: DRAM-heavy LC with super-linear footprint ---------
    all.push_back(Single(
        "mlcluster_streetview_heracles",
        "ml_cluster + DRAM-bound streetview at 60% load", "ml_cluster",
        "streetview", PK::kHeracles, TK::kConstant, 0.6, 0.6, 19));
    all.push_back(Single(
        "mlcluster_streamdram_heracles",
        "ml_cluster vs the stream-DRAM bandwidth antagonist",
        "ml_cluster", "stream-dram", PK::kHeracles, TK::kConstant, 0.4,
        0.4, 20));
    all.push_back(Single(
        "mlcluster_brain_diurnal",
        "ml_cluster + brain across a 20%-80% diurnal swing", "ml_cluster",
        "brain", PK::kHeracles, TK::kDiurnal, 0.20, 0.80, 21));

    // --- memkeyval: microsecond SLO, network-limited -------------------
    all.push_back(Single(
        "memkeyval_iperf_heracles",
        "memkeyval + iperf: egress shaping defends a us-scale SLO",
        "memkeyval", "iperf", PK::kHeracles, TK::kConstant, 0.5, 0.5, 22));
    {
        // Violates only at full scale (the us-scale SLO holds further
        // up the ramp than websearch's); same reactive-unwind transient.
        ScenarioSpec s = Single(
            "memkeyval_cpupwr_flashcrowd",
            "memkeyval + power virus through a flash crowd to 85%",
            "memkeyval", "cpu_pwr", PK::kHeracles, TK::kFlashCrowd, 0.30,
            0.85, 23);
        s.expect_violation_at_scale = 0.9;
        all.push_back(s);
    }

    // --- controller ablation -------------------------------------------
    {
        ScenarioSpec s = Single(
            "websearch_brain_no_bw_model",
            "ablation A2: controller without the offline LC bw model",
            "websearch", "brain", PK::kHeracles, TK::kConstant, 0.5, 0.5,
            24);
        s.heracles.use_bw_model = false;
        all.push_back(s);
    }

    // --- cluster topology ------------------------------------------------
    all.push_back(Cluster(
        "cluster_websearch_heracles",
        "fan-out websearch cluster, brain/streetview on the leaves",
        /*colocate=*/true, /*central=*/false, 31));
    all.push_back(Cluster(
        "cluster_websearch_baseline",
        "the same cluster without colocation (EMU floor reference)",
        /*colocate=*/false, /*central=*/false, 32));
    all.push_back(Cluster(
        "cluster_websearch_central",
        "centralized controller converts root slack into leaf targets",
        /*colocate=*/true, /*central=*/true, 33));

    // --- composable clusters: heterogeneous leaves, sharding, the
    // --- cluster-level BE scheduler --------------------------------------
    // The heterogeneous mix shared by the scheduler scenarios: two
    // paper-class leaves and two wide high-memory leaves granted extra
    // tail headroom, serving websearch and ml_cluster side by side.
    // ml_cluster's lower peak_qps makes its leaves systematically
    // tighter under the shared root query stream — exactly the
    // asymmetry a slack-aware scheduler can exploit and a static
    // pinning cannot.
    const std::vector<ClusterLeafTemplate> hetero_mix = {
        {"websearch", "default", 1.0},
        {"ml_cluster", "default", 1.0},
        {"websearch", "big", 1.2},
        {"ml_cluster", "big", 1.2},
    };
    {
        ScenarioSpec s = Cluster(
            "cluster_hetero_static",
            "heterogeneous leaf mix, BE jobs pinned static-split",
            /*colocate=*/true, /*central=*/false, 34);
        s.leaf_mix = hetero_mix;
        s.be = "brain+streetview";
        s.be_jobs = {"brain", "streetview"};
        s.per_leaf_targets = true;
        s.leaves = 4;
        s.fixed_leaves = true;
        s.cluster_duration = sim::Minutes(8);
        all.push_back(s);
    }
    {
        ScenarioSpec s = Cluster(
            "cluster_hetero_greedy_diurnal",
            "same mix, greedy most-slack-first scheduler placing the jobs",
            /*colocate=*/true, /*central=*/false, 34);
        s.leaf_mix = hetero_mix;
        s.be = "brain+streetview";
        s.be_jobs = {"brain", "streetview"};
        s.scheduler = cluster::SchedulerPolicy::kGreedySlack;
        s.per_leaf_targets = true;
        s.leaves = 4;
        s.fixed_leaves = true;
        s.cluster_duration = sim::Minutes(8);
        all.push_back(s);
    }
    // The predictive pair shares the greedy scenario's seed, mix and
    // trace exactly, so any golden/EMU difference is the policy alone.
    {
        ScenarioSpec s = Cluster(
            "cluster_hetero_pred_diurnal",
            "same mix, fingerprint-predictive placement (slack as veto)",
            /*colocate=*/true, /*central=*/false, 34);
        s.leaf_mix = hetero_mix;
        s.be = "brain+streetview";
        s.be_jobs = {"brain", "streetview"};
        s.scheduler = cluster::SchedulerPolicy::kPredictive;
        s.per_leaf_targets = true;
        s.leaves = 4;
        s.fixed_leaves = true;
        s.cluster_duration = sim::Minutes(8);
        all.push_back(s);
    }
    {
        ScenarioSpec s = Cluster(
            "cluster_hetero_pred_monitor",
            "CPI2-style ablation: act greedy, count predictive dissent",
            /*colocate=*/true, /*central=*/false, 34);
        s.leaf_mix = hetero_mix;
        s.be = "brain+streetview";
        s.be_jobs = {"brain", "streetview"};
        s.scheduler = cluster::SchedulerPolicy::kPredictive;
        s.predict_only = true;
        s.per_leaf_targets = true;
        s.leaves = 4;
        s.fixed_leaves = true;
        s.cluster_duration = sim::Minutes(8);
        all.push_back(s);
    }
    {
        ScenarioSpec s = Cluster(
            "cluster_websearch_sharded",
            "2-shard/2-replica root: each query touches half the leaves",
            /*colocate=*/true, /*central=*/false, 35);
        s.shards = 2;
        s.leaves = 4;
        s.fixed_leaves = true;
        s.cluster_duration = sim::Minutes(8);
        // Partial fan-out halves each leaf's load, and the root maximum
        // runs over two leaves instead of four — so the operator grants
        // every leaf extra tail headroom over the (already low-load)
        // derived target, which is what lets BE colocate at all on
        // leaves whose windowed tail barely moves with load.
        s.leaf_mix = {{"websearch", "default", 1.15}};
        s.be_jobs = {"brain", "streetview", "brain", "streetview"};
        all.push_back(s);
    }
    // The flash-crowd ablation pair runs the same machines/workloads
    // without the extra tail headroom of the diurnal pair: during a
    // burst the loosely-defended big leaves would exceed the root
    // budget, and the ablation's subject is the scheduler's reaction,
    // not the headroom policy.
    const std::vector<ClusterLeafTemplate> flash_mix = {
        {"websearch", "default", 1.0},
        {"ml_cluster", "default", 1.0},
        {"websearch", "big", 1.0},
        {"ml_cluster", "big", 1.0},
    };
    {
        ScenarioSpec s = Cluster(
            "cluster_hetero_greedy_flashcrowd",
            "scheduler ablation A: greedy rides out a flash crowd",
            /*colocate=*/true, /*central=*/false, 36);
        s.trace = TraceKind::kFlashCrowd;
        s.load = 0.30;
        s.load_high = 0.88;
        s.leaf_mix = flash_mix;
        s.be = "brain+streetview";
        s.be_jobs = {"brain", "streetview"};
        s.scheduler = cluster::SchedulerPolicy::kGreedySlack;
        s.per_leaf_targets = true;
        s.leaves = 4;
        s.fixed_leaves = true;
        s.cluster_duration = sim::Minutes(6);
        all.push_back(s);
    }
    {
        ScenarioSpec s = Cluster(
            "cluster_hetero_rr_flashcrowd",
            "scheduler ablation B: slack-blind round-robin, same crowd",
            /*colocate=*/true, /*central=*/false, 36);
        s.trace = TraceKind::kFlashCrowd;
        s.load = 0.30;
        s.load_high = 0.88;
        s.leaf_mix = flash_mix;
        s.be = "brain+streetview";
        s.be_jobs = {"brain", "streetview"};
        s.scheduler = cluster::SchedulerPolicy::kRoundRobin;
        s.per_leaf_targets = true;
        s.leaves = 4;
        s.fixed_leaves = true;
        s.cluster_duration = sim::Minutes(6);
        all.push_back(s);
    }
    {
        ScenarioSpec s = Cluster(
            "cluster_hetero_pred_flashcrowd",
            "scheduler ablation C: predictive placement, same crowd",
            /*colocate=*/true, /*central=*/false, 36);
        s.trace = TraceKind::kFlashCrowd;
        s.load = 0.30;
        s.load_high = 0.88;
        s.leaf_mix = flash_mix;
        s.be = "brain+streetview";
        s.be_jobs = {"brain", "streetview"};
        s.scheduler = cluster::SchedulerPolicy::kPredictive;
        s.per_leaf_targets = true;
        s.leaves = 4;
        s.fixed_leaves = true;
        s.cluster_duration = sim::Minutes(6);
        all.push_back(s);
    }

    // --- cluster scale: the epoch engine's reason to exist ---------------
    // Thousand-leaf pods under the hierarchical leaf → rack → pod-root
    // topology. At golden scale these shrink to the usual 3 leaves (one
    // rack) and regress like any other scenario; at full scale they are
    // the BENCH_cluster.json workloads, where per-epoch leaf fan-out
    // actually has thousands of independent queues to spread.
    {
        ScenarioSpec s = Cluster(
            "cluster_scale_rack_sharded",
            "1024 uniform leaves in 16 racks behind a two-level root",
            /*colocate=*/true, /*central=*/false, 51);
        s.leaves = 1024;
        s.rack_size = 64;
        s.load_high = 0.60;  // a pod this wide never runs near peak
        s.cluster_duration = sim::Minutes(3);
        all.push_back(s);
    }
    {
        ScenarioSpec s = Cluster(
            "cluster_scale_hetero_greedy",
            "1040 mixed leaves, 16 racks, greedy scheduler placing 3 jobs",
            /*colocate=*/true, /*central=*/false, 52);
        s.leaves = 1040;
        s.rack_size = 65;
        s.load_high = 0.60;
        s.leaf_mix = hetero_mix;
        s.be = "brain+streetview";
        s.be_jobs = {"brain", "streetview", "brain"};
        s.scheduler = cluster::SchedulerPolicy::kGreedySlack;
        s.per_leaf_targets = true;
        s.cluster_duration = sim::Minutes(3);
        all.push_back(s);
    }

    // --- chaos family: degraded telemetry, stuck actuators, abrupt
    // --- interference, crashing leaves --------------------------------------
    // Every scenario here runs the same controller under a seeded
    // FaultPlan; the golden baseline pins the degraded outcome and the
    // invariant harness asserts the controller stays *safe* throughout
    // (the interesting regime per CPI2 / Bubble-Flux). SLO attainment
    // under faults is an outcome, not a promise — scenarios whose
    // degradation can plausibly cost the SLO mark the violation
    // expected.
    {
        ScenarioSpec s = Single(
            "chaos_cores_stuck",
            "cpuset+CAT actuators stuck for 40% of the run mid-load",
            "websearch", "brain", PK::kHeracles, TK::kConstant, 0.55,
            0.55, 41);
        s.faults.faults = {
            chaos::ActuatorDrop(chaos::Actuator::kCores, 0.35, 0.75),
            chaos::ActuatorDrop(chaos::Actuator::kWays, 0.35, 0.75),
        };
        s.expect_violation_at_scale = 0;
        all.push_back(s);
    }
    {
        ScenarioSpec s = Single(
            "chaos_blind_tail",
            "latency telemetry frozen while a diurnal swing rises",
            "websearch", "brain", PK::kHeracles, TK::kDiurnal, 0.25, 0.75,
            42);
        s.faults.faults = {
            chaos::Freeze(chaos::Monitor::kTail, 0.40, 0.65),
            chaos::Freeze(chaos::Monitor::kFastTail, 0.40, 0.65),
        };
        s.expect_violation_at_scale = 0;
        all.push_back(s);
    }
    {
        ScenarioSpec s = Single(
            "chaos_noisy_telemetry",
            "noisy tail/power/DRAM counters through most of the run",
            "ml_cluster", "streetview", PK::kHeracles, TK::kConstant, 0.6,
            0.6, 43);
        s.faults.faults = {
            chaos::Noise(chaos::Monitor::kTail, 0.15, 0.10, 0.90),
            chaos::Noise(chaos::Monitor::kPower, 0.08, 0.10, 0.90),
            chaos::Noise(chaos::Monitor::kDram, 0.15, 0.10, 0.90),
        };
        s.expect_violation_at_scale = 0;
        all.push_back(s);
    }
    {
        ScenarioSpec s = Single(
            "chaos_be_burst",
            "BE job's demand abruptly triples mid-run (antagonist burst)",
            "websearch", "brain", PK::kHeracles, TK::kConstant, 0.5, 0.5,
            44);
        s.faults.faults = {chaos::Burst(3.0, 0.45, 0.70)};
        s.expect_violation_at_scale = 0;
        all.push_back(s);
    }
    {
        ScenarioSpec s = Cluster(
            "chaos_cluster_leaf_crash",
            "greedy-scheduled cluster rides out a leaf crash + recovery",
            /*colocate=*/true, /*central=*/false, 45);
        s.be_jobs = {"brain", "streetview"};
        s.scheduler = cluster::SchedulerPolicy::kGreedySlack;
        s.leaves = 4;
        s.fixed_leaves = true;
        s.cluster_duration = sim::Minutes(8);
        // Late window: the diurnal trace starts near its peak, so the
        // scheduler only places jobs once slack opens mid-run — the
        // crash must land while its leaf actually hosts one, proving
        // the evict → requeue → re-place path in the golden record.
        s.faults.faults = {chaos::LeafCrash(1, 0.55, 0.85)};
        all.push_back(s);
    }
    {
        ScenarioSpec s = Cluster(
            "chaos_cluster_blind_sched",
            "greedy scheduler fed frozen slack exports from two leaves",
            /*colocate=*/true, /*central=*/false, 46);
        s.be_jobs = {"brain", "streetview"};
        s.scheduler = cluster::SchedulerPolicy::kGreedySlack;
        s.leaves = 4;
        s.fixed_leaves = true;
        s.cluster_duration = sim::Minutes(8);
        s.faults.faults = {
            chaos::SlackFreeze(0, 0.25, 0.75),
            chaos::SlackFreeze(2, 0.25, 0.75),
        };
        all.push_back(s);
    }
    // Predictive-vs-greedy chaos pairs on a *heterogeneous* flash mix:
    // within each pair the seed, fault plan, trace and leaves are
    // identical — only the policy differs. The heterogeneity matters:
    // on a uniform cluster every leaf fingerprints identically and the
    // predictive ranking degenerates to index order, so these pairs are
    // where the policies can genuinely diverge. The mix swaps the
    // ml_cluster/big slot for a second ml_cluster/default leaf — the
    // shape whose controller collapses hardest once the crowd ramps —
    // and the fault plan corrupts exactly the signal greedy ranks by:
    // at the flash valley the ml/default leaf posts the second-roomiest
    // slack on the board, so greedy parks a BE job there, and a
    // SlackFreeze then wedges that leaf's export at its happy valley
    // snapshot (roomy slack, BE enabled). When the crowd crushes the
    // leaf for real, the frozen export keeps reporting the job healthy,
    // so greedy never evicts it and the job starves invisibly for the
    // rest of the run. The fingerprint ranking never liked that machine
    // for either job, so the predictive twins put both jobs on the
    // websearch leaves and ride out the crowd with better EMU and no
    // extra root violations.
    const std::vector<ClusterLeafTemplate> chaos_mix = {
        {"websearch", "default", 1.0},
        {"ml_cluster", "default", 1.0},
        {"websearch", "big", 1.0},
        {"ml_cluster", "default", 1.0},
    };
    {
        ScenarioSpec s = Cluster(
            "chaos_hetero_crash_greedy",
            "flash mix: hosting leaf crashes while a frozen decoy lies",
            /*colocate=*/true, /*central=*/false, 47);
        s.trace = TraceKind::kFlashCrowd;
        s.load = 0.30;
        s.load_high = 0.80;
        s.leaf_mix = chaos_mix;
        // A snappier post-violation cooldown than the paper default
        // (which outlasts the entire reduced-scale run): the pairs
        // compare *placement* quality through the crowd's aftermath,
        // and a leaf-poisoning cooldown longer than the run would
        // reduce that to a race for whichever leaf was left idle.
        s.heracles.cooldown = sim::Seconds(60);
        s.be = "brain+streetview";
        s.be_jobs = {"brain", "streetview"};
        s.scheduler = cluster::SchedulerPolicy::kGreedySlack;
        s.per_leaf_targets = true;
        s.leaves = 4;
        s.fixed_leaves = true;
        s.cluster_duration = sim::Minutes(12);
        // The crash forces an emergency re-placement mid-crowd on top
        // of the frozen-host pin, exercising the evict → requeue →
        // re-place path under both policies.
        s.faults.faults = {
            chaos::SlackFreeze(1, 0.15, 1.0),
            chaos::LeafCrash(0, 0.35, 0.70),
        };
        all.push_back(s);
    }
    {
        ScenarioSpec s = Cluster(
            "chaos_hetero_crash_pred",
            "same crash, predictive placement shuns the frozen decoy",
            /*colocate=*/true, /*central=*/false, 47);
        s.trace = TraceKind::kFlashCrowd;
        s.load = 0.30;
        s.load_high = 0.80;
        s.leaf_mix = chaos_mix;
        // A snappier post-violation cooldown than the paper default
        // (which outlasts the entire reduced-scale run): the pairs
        // compare *placement* quality through the crowd's aftermath,
        // and a leaf-poisoning cooldown longer than the run would
        // reduce that to a race for whichever leaf was left idle.
        s.heracles.cooldown = sim::Seconds(60);
        s.be = "brain+streetview";
        s.be_jobs = {"brain", "streetview"};
        s.scheduler = cluster::SchedulerPolicy::kPredictive;
        s.per_leaf_targets = true;
        s.leaves = 4;
        s.fixed_leaves = true;
        s.cluster_duration = sim::Minutes(12);
        s.faults.faults = {
            chaos::SlackFreeze(1, 0.15, 1.0),
            chaos::LeafCrash(0, 0.35, 0.70),
        };
        all.push_back(s);
    }
    {
        ScenarioSpec s = Cluster(
            "chaos_hetero_blind_greedy",
            "greedy parks a job on a leaf whose export then freezes happy",
            /*colocate=*/true, /*central=*/false, 48);
        s.trace = TraceKind::kFlashCrowd;
        s.load = 0.30;
        s.load_high = 0.80;
        s.leaf_mix = chaos_mix;
        // A snappier post-violation cooldown than the paper default
        // (which outlasts the entire reduced-scale run): the pairs
        // compare *placement* quality through the crowd's aftermath,
        // and a leaf-poisoning cooldown longer than the run would
        // reduce that to a race for whichever leaf was left idle.
        s.heracles.cooldown = sim::Seconds(60);
        s.be = "brain+streetview";
        s.be_jobs = {"brain", "streetview"};
        s.scheduler = cluster::SchedulerPolicy::kGreedySlack;
        s.per_leaf_targets = true;
        s.leaves = 4;
        s.fixed_leaves = true;
        s.cluster_duration = sim::Minutes(12);
        s.faults.faults = {chaos::SlackFreeze(1, 0.15, 1.0)};
        all.push_back(s);
    }
    {
        ScenarioSpec s = Cluster(
            "chaos_hetero_blind_pred",
            "same frozen export, predictive ranking never trusted it",
            /*colocate=*/true, /*central=*/false, 48);
        s.trace = TraceKind::kFlashCrowd;
        s.load = 0.30;
        s.load_high = 0.80;
        s.leaf_mix = chaos_mix;
        // A snappier post-violation cooldown than the paper default
        // (which outlasts the entire reduced-scale run): the pairs
        // compare *placement* quality through the crowd's aftermath,
        // and a leaf-poisoning cooldown longer than the run would
        // reduce that to a race for whichever leaf was left idle.
        s.heracles.cooldown = sim::Seconds(60);
        s.be = "brain+streetview";
        s.be_jobs = {"brain", "streetview"};
        s.scheduler = cluster::SchedulerPolicy::kPredictive;
        s.per_leaf_targets = true;
        s.leaves = 4;
        s.fixed_leaves = true;
        s.cluster_duration = sim::Minutes(12);
        s.faults.faults = {chaos::SlackFreeze(1, 0.15, 1.0)};
        all.push_back(s);
    }

    return all;
}

}  // namespace

const std::vector<ScenarioSpec>&
AllScenarios()
{
    static const std::vector<ScenarioSpec>* catalog =
        new std::vector<ScenarioSpec>(BuildCatalog());
    return *catalog;
}

const ScenarioSpec*
FindScenario(const std::string& name)
{
    for (const ScenarioSpec& s : AllScenarios()) {
        if (s.name == name) return &s;
    }
    return nullptr;
}

const ScenarioSpec&
MustFindScenario(const std::string& name)
{
    const ScenarioSpec* s = FindScenario(name);
    if (s == nullptr) {
        std::string names;
        for (const ScenarioSpec& spec : AllScenarios()) {
            names += "\n  ";
            names += spec.name;
        }
        HERACLES_FATAL("unknown scenario: " << name
                                            << "; available:" << names);
    }
    return *s;
}

}  // namespace heracles::scenarios
