#include "cluster/scheduler.h"

#include <algorithm>

#include "sim/log.h"

namespace heracles::cluster {
namespace {

/** Ticks a job must stay on a leaf before it may migrate again: the
 *  hosting controller needs at least one top-level poll to enable the
 *  job at all. */
constexpr int kMinResidentTicks = 2;
/** Greedy never places a job on a leaf with less slack than this. */
constexpr double kPlaceMinSlack = 0.10;
/** Greedy considers migrating a job away below this source slack. */
constexpr double kMigrateLowSlack = 0.05;
/** A slack-triggered migration needs the destination to beat the
 *  source by at least this much (hysteresis against ping-pong). */
constexpr double kMigrateMinGain = 0.10;

/**
 * A predictive migration needs the destination's predicted tail
 * fraction to beat the source's by at least this much (the
 * prediction-space analogue of kMigrateMinGain). An eviction (source
 * leaf starving the job) waives the margin but not the direction: even
 * a starved job only moves to a leaf predicted strictly better than the
 * one it is leaving — panic-hopping onto a worse-fingerprint machine
 * trades zero throughput now for zero throughput plus churn.
 */
constexpr double kPredictMinGain = 0.05;

/**
 * Predictive placement refuses leaves predicted worse than this factor
 * times the job's best predicted leaf anywhere in the pod (crashed or
 * busy leaves included in the reference): when every machine left
 * standing is a predicted-terrible host, holding the job queued until a
 * sane one frees up beats feeding it to a leaf whose controller will
 * starve it on arrival. Greedy has no such notion and will chase any
 * roomy-looking export — which is exactly what the stale-telemetry
 * chaos scenarios punish.
 */
constexpr double kPredictPlaceTolerance = 1.6;

}  // namespace

std::string
SchedulerPolicyName(SchedulerPolicy p)
{
    switch (p) {
      case SchedulerPolicy::kStaticSplit: return "static-split";
      case SchedulerPolicy::kGreedySlack: return "greedy-slack";
      case SchedulerPolicy::kRoundRobin: return "round-robin";
      case SchedulerPolicy::kPredictive: return "predictive";
    }
    return "?";
}

ClusterScheduler::ClusterScheduler(const SchedulerConfig& cfg, int jobs,
                                   int leaves)
    : cfg_(cfg),
      assignment_(static_cast<size_t>(jobs), -1),
      resident_ticks_(static_cast<size_t>(jobs), 0)
{
    HERACLES_CHECK_MSG(leaves > 0, "scheduler needs at least one leaf");
    HERACLES_CHECK_MSG(jobs <= leaves,
                       "more BE jobs (" << jobs << ") than leaves ("
                                        << leaves << ")");
}

void
ClusterScheduler::SetPredictions(
    std::vector<std::vector<double>> predicted)
{
    HERACLES_CHECK_MSG(predicted.size() == assignment_.size(),
                       "prediction table has " << predicted.size()
                                               << " jobs, scheduler owns "
                                               << assignment_.size());
    for (const std::vector<double>& row : predicted) {
        HERACLES_CHECK_MSG(!row.empty() &&
                               row.size() == predicted.front().size(),
                           "ragged prediction table");
    }
    predicted_ = std::move(predicted);
}

int
ClusterScheduler::LeafOf(int job) const
{
    HERACLES_CHECK_MSG(job >= 0 &&
                           job < static_cast<int>(assignment_.size()),
                       "bad job index " << job);
    return assignment_[static_cast<size_t>(job)];
}

void
ClusterScheduler::ReleaseJob(int job)
{
    HERACLES_CHECK_MSG(job >= 0 &&
                           job < static_cast<int>(assignment_.size()),
                       "bad job index " << job);
    assignment_[static_cast<size_t>(job)] = -1;
    resident_ticks_[static_cast<size_t>(job)] = 0;
}

int
ClusterScheduler::QueuedJobs() const
{
    int queued = 0;
    for (int leaf : assignment_) queued += leaf < 0 ? 1 : 0;
    return queued;
}

bool
ClusterScheduler::PredictsActively() const
{
    return cfg_.policy == SchedulerPolicy::kPredictive &&
           !cfg_.predict_only;
}

int
ClusterScheduler::PickPredicted(int job,
                                const std::vector<LeafState>& leaves,
                                const std::vector<bool>& taken) const
{
    // Lowest predicted tail fraction wins; ties break to the lowest
    // index. Live slack is only the safety veto: a leaf already below
    // the placement floor is excluded no matter how well the
    // fingerprints match (prediction ranks, reaction vetoes). The
    // tolerance cap is the inverse veto — prediction refusing a leaf
    // no matter how roomy its exported slack looks: anything predicted
    // far worse than the job's best machine in the pod is a host whose
    // controller will starve the job on arrival, and staying queued
    // costs less than finding that out.
    const std::vector<double>& row =
        predicted_[static_cast<size_t>(job)];
    double pod_best = row[0];
    for (double p : row) pod_best = std::min(pod_best, p);
    const double cap = pod_best * kPredictPlaceTolerance;
    int best = -1;
    for (int i = 0; i < static_cast<int>(leaves.size()); ++i) {
        if (taken[i] || leaves[i].in_cooldown || leaves[i].crashed) {
            continue;
        }
        if (leaves[i].slack < kPlaceMinSlack) continue;
        if (row[i] > cap) continue;
        if (best < 0 || row[i] < row[best]) best = i;
    }
    return best;
}

int
ClusterScheduler::PickLeaf(int job, const std::vector<LeafState>& leaves,
                           const std::vector<bool>& taken) const
{
    const int n = static_cast<int>(leaves.size());
    if (cfg_.policy == SchedulerPolicy::kRoundRobin) {
        // First free, live leaf in rotation order, slack-blind.
        for (int k = 0; k < n; ++k) {
            const int i = (rr_cursor_ + k) % n;
            if (!taken[i] && !leaves[i].in_cooldown &&
                !leaves[i].crashed) {
                return i;
            }
        }
        return -1;
    }
    if (PredictsActively()) return PickPredicted(job, leaves, taken);
    // Greedy (also the *acting* arm of predict_only): the free, live,
    // non-cooldown leaf with the most slack, provided it clears the
    // placement floor. Ties break to the lowest index.
    int best = -1;
    for (int i = 0; i < n; ++i) {
        if (taken[i] || leaves[i].in_cooldown || leaves[i].crashed) {
            continue;
        }
        if (leaves[i].slack < kPlaceMinSlack) continue;
        if (best < 0 || leaves[i].slack > leaves[best].slack) best = i;
    }
    return best;
}

std::vector<ClusterScheduler::Move>
ClusterScheduler::Tick(const std::vector<LeafState>& leaves)
{
    HERACLES_CHECK_MSG(
        cfg_.policy != SchedulerPolicy::kStaticSplit,
        "static-split placement is fixed at assembly; no ticks");
    if (cfg_.policy == SchedulerPolicy::kPredictive) {
        HERACLES_CHECK_MSG(!predicted_.empty(),
                           "predictive scheduler ticked before "
                           "SetPredictions");
        HERACLES_CHECK_MSG(predicted_.front().size() == leaves.size(),
                           "prediction table covers "
                               << predicted_.front().size()
                               << " leaves, cluster has "
                               << leaves.size());
    }
    const bool monitor =
        cfg_.policy == SchedulerPolicy::kPredictive && cfg_.predict_only;
    ++stats_.ticks;

    std::vector<bool> taken(leaves.size(), false);
    for (size_t i = 0; i < leaves.size(); ++i) {
        taken[i] = leaves[i].hosts_job;
    }

    std::vector<Move> moves;
    const int jobs = static_cast<int>(assignment_.size());
    std::vector<bool> moved_now(static_cast<size_t>(jobs), false);

    // Placements: queued jobs in index order — except under the acting
    // predictive policy, which orders them by descending *regret* (the
    // classic assignment-auction heuristic): the job with the most to
    // lose if its best leaf is taken places first. Sequential
    // index-order picks let an indifferent early job grab the leaf a
    // choosy later job needed, a globally worse matching under the very
    // prediction table the policy trusts. Ties (and jobs with fewer
    // than two eligible leaves) fall back to index order, so the order
    // is deterministic.
    std::vector<int> queued;
    for (int j = 0; j < jobs; ++j) {
        if (assignment_[j] < 0) queued.push_back(j);
    }
    if (PredictsActively() && queued.size() > 1) {
        std::vector<double> regret(static_cast<size_t>(jobs), 0.0);
        for (int j : queued) {
            const std::vector<double>& row =
                predicted_[static_cast<size_t>(j)];
            double best = -1.0, second = -1.0;
            for (int i = 0; i < static_cast<int>(leaves.size()); ++i) {
                if (taken[i] || leaves[i].in_cooldown ||
                    leaves[i].crashed ||
                    leaves[i].slack < kPlaceMinSlack) {
                    continue;
                }
                if (best < 0 || row[i] < best) {
                    second = best;
                    best = row[i];
                } else if (second < 0 || row[i] < second) {
                    second = row[i];
                }
            }
            regret[static_cast<size_t>(j)] =
                second >= 0 ? second - best : 0.0;
        }
        std::stable_sort(queued.begin(), queued.end(),
                         [&regret](int a, int b) {
                             return regret[static_cast<size_t>(a)] >
                                    regret[static_cast<size_t>(b)];
                         });
    }
    for (int j : queued) {
        const int to = PickLeaf(j, leaves, taken);
        if (monitor && PickPredicted(j, leaves, taken) != to) {
            ++stats_.would_placements;
        }
        if (to < 0) continue;  // no acceptable leaf; stay queued
        assignment_[j] = to;
        resident_ticks_[j] = 0;
        moved_now[j] = true;
        taken[to] = true;
        if (cfg_.policy == SchedulerPolicy::kRoundRobin) {
            rr_cursor_ = (to + 1) % static_cast<int>(leaves.size());
        }
        moves.push_back({j, -1, to});
        ++stats_.placements;
    }

    // Migrations: placed jobs in index order. Jobs placed this tick
    // are settling (their LeafState predates the placement); skip them.
    for (int j = 0; j < jobs; ++j) {
        const int from = assignment_[j];
        if (from < 0 || moved_now[j]) continue;
        if (++resident_ticks_[j] < kMinResidentTicks) continue;
        const LeafState& src = leaves[static_cast<size_t>(from)];
        if (!src.has_signal) continue;

        // A leaf that refuses to run its job (load safeguard, cooldown,
        // collapsed slack) is a migration trigger; for the slack-aware
        // policies, so is slack below the migrate floor even while BE
        // still runs (the predictive policy keeps that reactive trigger
        // as its safety net — prediction chooses *where*, collapsed
        // slack still decides *when*). The source slot stays marked
        // taken, so PickLeaf never proposes the leaf the job is trying
        // to leave (a load-starved leaf can have plenty of latency
        // slack).
        const bool starved = !src.be_enabled;
        const bool tight =
            cfg_.policy != SchedulerPolicy::kRoundRobin &&
            src.slack < kMigrateLowSlack;
        if (!starved && !tight) continue;

        const int to = PickLeaf(j, leaves, taken);
        bool acceptable;
        if (PredictsActively()) {
            // Hysteresis in prediction space: the destination's
            // predicted tail must beat the source's by the predictive
            // gain margin. An eviction waives the margin, not the
            // direction — a starved job holds its (predicted-better)
            // leaf rather than panic-hop to a machine the fingerprints
            // rank worse, because the starving controller will
            // re-enable it when pressure passes while the worse host
            // never stops being the worse host.
            const double gain =
                to < 0 ? 0.0
                       : predicted_[static_cast<size_t>(j)]
                                   [static_cast<size_t>(from)] -
                             predicted_[static_cast<size_t>(j)]
                                       [static_cast<size_t>(to)];
            acceptable =
                to >= 0 &&
                (starved ? gain > 0.0 : gain > kPredictMinGain);
        } else {
            acceptable =
                to >= 0 &&
                (cfg_.policy == SchedulerPolicy::kRoundRobin || starved ||
                 leaves[static_cast<size_t>(to)].slack >
                     src.slack + kMigrateMinGain);
        }
        if (monitor && PickPredicted(j, leaves, taken) !=
                           (acceptable ? to : -1)) {
            ++stats_.would_migrations;
        }
        if (!acceptable) continue;  // keep the job where it is
        assignment_[j] = to;
        resident_ticks_[j] = 0;
        taken[to] = true;
        // The vacated slot stays marked taken for the rest of this
        // tick: the leaf was just proven unwilling (or too tight) to
        // run a job, so handing it to the next migrating job would
        // defeat the very signal that triggered the move. It becomes a
        // candidate again next period.
        if (cfg_.policy == SchedulerPolicy::kRoundRobin) {
            rr_cursor_ = (to + 1) % static_cast<int>(leaves.size());
        }
        moves.push_back({j, from, to});
        ++stats_.migrations;
    }
    return moves;
}

}  // namespace heracles::cluster
