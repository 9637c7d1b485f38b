/**
 * @file
 * Randomized stress test for sim::EventQueue.
 *
 * Seeded random interleavings of Schedule / SchedulePeriodic / Cancel /
 * ArmLane / RunFor / RunUntilBefore are executed against both the real
 * queue and a deliberately naive reference implementation (a flat
 * vector scanned for the minimum (time, insertion-seq) on every pop).
 * The firing logs must match token for token and timestamp for
 * timestamp — in particular across the O(1) Cancel bookkeeping:
 * cancelling pending, fired, periodic and already-cancelled events must
 * never change what else fires.
 *
 * The arrival lane is one more token in the reference, whose seq comes
 * from the shared counter at arm time. The mix arms it at the current
 * instant and later, from the top level, from inside a fired one-shot
 * and from inside the lane itself, so the lane ties with one-shot and
 * periodic events at one instant and a run that stops before an instant
 * leaves a lane armed there pending.
 *
 * A tie-storm mix piles more than a thousand events onto at most five
 * distinct timestamps, so the queue's 4-ary heap (depth 5 past 341
 * records) breaks almost every sift on insertion order alone.
 *
 * Failures shrink: the harness bisects the op sequence to the shortest
 * failing prefix and reports the seed plus that length, so a regression
 * reproduces from two integers.
 */
#include <gtest/gtest.h>

#include <algorithm>
#include <functional>
#include <string>
#include <vector>

#include "sim/event_queue.h"
#include "sim/random.h"

namespace heracles::sim {
namespace {

// --------------------------------------------------------------------------
// Naive reference model

/** The arrival lane's token in both firing logs. */
constexpr uint64_t kLaneToken = UINT64_MAX;

/** Mirrors EventQueue semantics with O(n) scans instead of a heap. */
class RefQueue
{
  public:
    /** Called with each fired token, after it is logged. */
    using Hook = std::function<void(uint64_t)>;

    void
    Schedule(SimTime when, Duration period, uint64_t token)
    {
        evs_.push_back(Ev{when, next_seq_++, token, period});
    }

    /** The lane is one more one-shot event, keyed at arm time. */
    void ArmLane(SimTime when) { Schedule(when, 0, kLaneToken); }

    void
    Cancel(uint64_t token)
    {
        for (auto it = evs_.begin(); it != evs_.end(); ++it) {
            if (it->token == token) {
                evs_.erase(it);
                return;
            }
        }
    }

    /** Fires every event at or before @p until (before it, when not
     *  @p inclusive), then advances the clock to @p until. */
    void
    Run(SimTime until, bool inclusive,
        std::vector<std::pair<uint64_t, SimTime>>* log, const Hook& hook)
    {
        for (;;) {
            size_t best = evs_.size();
            for (size_t i = 0; i < evs_.size(); ++i) {
                if (inclusive ? evs_[i].when > until
                              : evs_[i].when >= until) {
                    continue;
                }
                if (best == evs_.size() || evs_[i].when < evs_[best].when ||
                    (evs_[i].when == evs_[best].when &&
                     evs_[i].seq < evs_[best].seq)) {
                    best = i;
                }
            }
            if (best == evs_.size()) break;
            const Ev e = evs_[best];
            evs_.erase(evs_.begin() + best);
            now_ = e.when;
            log->emplace_back(e.token, e.when);
            // As in EventQueue, a periodic takes its next seq after its
            // callback has run.
            hook(e.token);
            if (e.period > 0) {
                Schedule(now_ + e.period, e.period, e.token);
            }
        }
        if (now_ < until) now_ = until;
    }

    SimTime Now() const { return now_; }

    /** Whether the lane is armed at exactly @p when. */
    bool
    LaneArmedAt(SimTime when) const
    {
        return std::any_of(evs_.begin(), evs_.end(), [when](const Ev& e) {
            return e.token == kLaneToken && e.when == when;
        });
    }

    size_t pending() const { return evs_.size(); }

    /** Distinct timestamps among pending events, counted up to @p cap. */
    size_t
    DistinctWhens(size_t cap) const
    {
        std::vector<SimTime> seen;
        for (const Ev& e : evs_) {
            if (std::find(seen.begin(), seen.end(), e.when) != seen.end()) {
                continue;
            }
            seen.push_back(e.when);
            if (seen.size() >= cap) break;
        }
        return seen.size();
    }

  private:
    struct Ev {
        SimTime when;
        uint64_t seq;
        uint64_t token;
        Duration period;
    };
    std::vector<Ev> evs_;
    SimTime now_ = 0;
    uint64_t next_seq_ = 0;
};

// --------------------------------------------------------------------------
// Op-sequence generation and execution

struct Op {
    enum Kind {
        kOneShot,
        kPeriodic,
        kCancel,
        kArm,           // arm the lane now, unless it is armed
        kArmFromEvent,  // a one-shot that arms the lane when it fires
        kRun,           // RunFor
        kRunBefore,     // RunUntilBefore
    } kind;
    Duration a = 0;       // delay / period / run span / lane arm delay
    Duration b = 0;       // phase / kArmFromEvent's lane arm delay
    uint64_t target = 0;  // token picked for kCancel (modulo count so far)
    int rearms = 0;       // lane: re-arms from inside its own firing
    Duration gap = 0;     // lane: delay of each re-arm (0 = same instant)
};

/** Draws a lane's self re-arm budget and gap (0..max_gap). */
void
DrawLaneChain(Rng& rng, Duration max_gap, Op* op)
{
    op->rearms = static_cast<int>(rng.UniformInt(6));
    op->gap = static_cast<Duration>(
        rng.UniformInt(static_cast<uint64_t>(max_gap) + 1));
}

std::vector<Op>
GenOps(uint64_t seed, size_t n)
{
    Rng rng(seed);
    std::vector<Op> ops;
    ops.reserve(n);
    for (size_t i = 0; i < n; ++i) {
        Op op;
        const uint64_t dice = rng.UniformInt(100);
        if (dice < 30) {
            op.kind = Op::kOneShot;
            op.a = static_cast<Duration>(rng.UniformInt(100));  // incl. 0
        } else if (dice < 42) {
            op.kind = Op::kPeriodic;
            op.a = static_cast<Duration>(1 + rng.UniformInt(20));
            op.b = static_cast<Duration>(rng.UniformInt(10));
        } else if (dice < 62) {
            op.kind = Op::kCancel;
            op.target = rng.Next64();  // resolved modulo live tokens
        } else if (dice < 72) {
            op.kind = Op::kArm;
            op.a = static_cast<Duration>(rng.UniformInt(20));  // incl. 0
            DrawLaneChain(rng, 10, &op);
        } else if (dice < 78) {
            op.kind = Op::kArmFromEvent;
            op.a = static_cast<Duration>(rng.UniformInt(50));
            op.b = static_cast<Duration>(rng.UniformInt(20));
            DrawLaneChain(rng, 10, &op);
        } else if (dice < 90) {
            op.kind = Op::kRun;
            op.a = static_cast<Duration>(rng.UniformInt(50));  // incl. 0
        } else {
            op.kind = Op::kRunBefore;
            op.a = static_cast<Duration>(rng.UniformInt(50));  // incl. 0
        }
        ops.push_back(op);
    }
    return ops;
}

/**
 * A tie storm: every delay, phase and period is 1..4, lane arms and
 * re-arms are 0..4 after the arming instant, and runs advance the clock
 * by 0 or 1, so all pending events sit on at most five distinct
 * timestamps (the four after the clock, plus the clock's own instant
 * when a run stopped before it or the lane is armed there); schedules
 * far outnumber runs, so the backlog passes a thousand events.
 */
std::vector<Op>
GenTieStormOps(uint64_t seed, size_t n)
{
    Rng rng(seed);
    std::vector<Op> ops;
    ops.reserve(n);
    for (size_t i = 0; i < n; ++i) {
        Op op;
        const uint64_t dice = rng.UniformInt(100);
        if (dice < 45) {
            op.kind = Op::kOneShot;
            op.a = static_cast<Duration>(1 + rng.UniformInt(4));
        } else if (dice < 75) {
            op.kind = Op::kPeriodic;
            op.a = static_cast<Duration>(1 + rng.UniformInt(4));
            op.b = static_cast<Duration>(1 + rng.UniformInt(4));
        } else if (dice < 88) {
            op.kind = Op::kCancel;
            op.target = rng.Next64();
        } else if (dice < 93) {
            op.kind = Op::kArm;
            op.a = static_cast<Duration>(rng.UniformInt(5));
            DrawLaneChain(rng, 4, &op);
        } else if (dice < 97) {
            op.kind = Op::kArmFromEvent;
            op.a = static_cast<Duration>(1 + rng.UniformInt(4));
            op.b = static_cast<Duration>(rng.UniformInt(5));
            DrawLaneChain(rng, 4, &op);
        } else if (dice < 99) {
            op.kind = Op::kRun;
            op.a = static_cast<Duration>(rng.UniformInt(2));
        } else {
            op.kind = Op::kRunBefore;
            op.a = static_cast<Duration>(rng.UniformInt(2));
        }
        ops.push_back(op);
    }
    return ops;
}

/** What a run reached: the depth a heap test must prove it covered. */
struct RunStats {
    size_t peak_pending = 0;   ///< Most live events pending at once.
    size_t max_distinct = 0;   ///< Most distinct pending timestamps.
    size_t lane_fires = 0;     ///< Lane firings.
    /** RunUntilBefore calls that left the lane armed at their bound. */
    size_t lanes_left_at_until = 0;
};

/**
 * One side's arrival-lane driver: whether the lane is armed, and how
 * many more times, and how far ahead, it re-arms from inside its own
 * firing. Each queue has its own, so the two sides evolve separately
 * and agree only while the queues agree.
 */
struct LaneDriver {
    bool armed = false;
    int rearms = 0;
    Duration gap = 0;

    /** Arms at @p when with @p op's chain, unless already armed. */
    template <typename Queue>
    void
    ArmIfIdle(Queue& q, SimTime when, const Op& op)
    {
        if (armed) return;
        q.ArmLane(when);
        armed = true;
        rearms = op.rearms;
        gap = op.gap;
    }

    /** The lane fired: spend one re-arm, at Now() + gap. */
    template <typename Queue>
    void
    Fired(Queue& q)
    {
        armed = false;
        if (rearms == 0) return;
        --rearms;
        q.ArmLane(q.Now() + gap);
        armed = true;
    }
};

/**
 * Executes the first @p n ops against both queues, then drains. Returns
 * an empty string on agreement, else a description of the divergence.
 * Fills @p stats, when given, from the reference queue after every op.
 */
std::string
RunOps(const std::vector<Op>& ops, size_t n, RunStats* stats = nullptr)
{
    EventQueue q;
    RefQueue ref;
    std::vector<std::pair<uint64_t, SimTime>> got, want;
    std::vector<EventQueue::EventId> real_ids;  // index = token
    std::vector<Duration> periods;              // 0 for one-shots
    std::vector<const Op*> arm_ops;  // kArmFromEvent's op, else nullptr
    LaneDriver real_lane, ref_lane;

    auto fire = [&got, &q](uint64_t token) {
        got.emplace_back(token, q.Now());
    };
    q.SetLane([&] {
        fire(kLaneToken);
        real_lane.Fired(q);
    });
    const RefQueue::Hook hook = [&](uint64_t token) {
        if (token == kLaneToken) {
            ref_lane.Fired(ref);
            if (stats != nullptr) ++stats->lane_fires;
        } else if (const Op* arm = arm_ops[token]) {
            ref_lane.ArmIfIdle(ref, ref.Now() + arm->b, *arm);
        }
    };

    for (size_t i = 0; i < n; ++i) {
        const Op& op = ops[i];
        switch (op.kind) {
          case Op::kOneShot: {
            const uint64_t token = real_ids.size();
            real_ids.push_back(
                q.ScheduleAfter(op.a, [fire, token] { fire(token); }));
            periods.push_back(0);
            arm_ops.push_back(nullptr);
            ref.Schedule(q.Now() + op.a, 0, token);
            break;
          }
          case Op::kPeriodic: {
            const uint64_t token = real_ids.size();
            real_ids.push_back(q.SchedulePeriodic(
                op.a, op.b, [fire, token] { fire(token); }));
            periods.push_back(op.a);
            arm_ops.push_back(nullptr);
            ref.Schedule(q.Now() + op.b, op.a, token);
            break;
          }
          case Op::kCancel: {
            if (real_ids.empty()) break;
            const uint64_t token = op.target % real_ids.size();
            q.Cancel(real_ids[token]);
            ref.Cancel(token);
            break;
          }
          case Op::kArm:
            real_lane.ArmIfIdle(q, q.Now() + op.a, op);
            ref_lane.ArmIfIdle(ref, ref.Now() + op.a, op);
            break;
          case Op::kArmFromEvent: {
            const uint64_t token = real_ids.size();
            const Op* arm = &op;
            real_ids.push_back(q.ScheduleAfter(op.a, [&, token, arm] {
                fire(token);
                real_lane.ArmIfIdle(q, q.Now() + arm->b, *arm);
            }));
            periods.push_back(0);
            arm_ops.push_back(&op);
            ref.Schedule(q.Now() + op.a, 0, token);
            break;
          }
          case Op::kRun:
            q.RunFor(op.a);
            ref.Run(q.Now(), /*inclusive=*/true, &want, hook);
            break;
          case Op::kRunBefore:
            q.RunUntilBefore(q.Now() + op.a);
            ref.Run(q.Now(), /*inclusive=*/false, &want, hook);
            if (stats != nullptr && ref.LaneArmedAt(q.Now())) {
                ++stats->lanes_left_at_until;
            }
            break;
        }
        if (q.Now() != ref.Now()) {
            return "clock divergence after op " + std::to_string(i);
        }
        if (got.size() != want.size() || got != want) {
            return "firing-log divergence after op " + std::to_string(i);
        }
        if (q.executed() != got.size()) {
            return "executed() " + std::to_string(q.executed()) + " != " +
                   std::to_string(got.size()) + " fired after op " +
                   std::to_string(i);
        }
        if (real_lane.armed != ref_lane.armed) {
            return "lane arm state divergence after op " + std::to_string(i);
        }
        if (stats != nullptr) {
            stats->peak_pending = std::max(stats->peak_pending, ref.pending());
            stats->max_distinct =
                std::max(stats->max_distinct, ref.DistinctWhens(6));
        }
    }

    // Cancel every periodic event, then drain: the heap must empty and
    // the O(1)-cancel backlog must be fully reclaimed.
    for (uint64_t token = 0; token < real_ids.size(); ++token) {
        if (periods[token] > 0) {
            q.Cancel(real_ids[token]);
            ref.Cancel(token);
        }
    }
    q.RunFor(Duration{1} << 20);
    ref.Run(q.Now(), /*inclusive=*/true, &want, hook);
    if (got != want) return "firing-log divergence after drain";
    if (q.executed() != got.size()) return "executed() diverged in drain";
    if (q.pending() != 0) {
        return "queue not drained: " + std::to_string(q.pending());
    }
    if (q.cancelled_backlog() != 0) {
        return "cancel bookkeeping leaked: " +
               std::to_string(q.cancelled_backlog());
    }
    if (q.pool_free() != q.pool_slots()) {
        // Every slab slot must be back on the free list once the heap
        // drains: a fired or cancelled event that never releases its
        // slot is a pool leak even when the firing log agrees.
        return "event pool leaked: " + std::to_string(q.pool_slots()) +
               " slots, " + std::to_string(q.pool_free()) + " free";
    }
    if (ref.pending() != 0) return "reference not drained";
    return "";
}

/** Shrinks a failing op count to the smallest failing prefix. */
size_t
Shrink(const std::vector<Op>& ops, size_t failing_n)
{
    size_t lo = 0, hi = failing_n;  // invariant: hi fails
    while (lo + 1 < hi) {
        const size_t mid = lo + (hi - lo) / 2;
        if (RunOps(ops, mid).empty()) {
            lo = mid;
        } else {
            hi = mid;
        }
    }
    return hi;
}

TEST(EventQueueStress, RandomInterleavingsMatchNaiveReference)
{
    constexpr size_t kOps = 400;
    RunStats stats;
    for (uint64_t seed = 1; seed <= 20; ++seed) {
        const std::vector<Op> ops = GenOps(seed, kOps);
        const std::string failure = RunOps(ops, ops.size(), &stats);
        if (!failure.empty()) {
            const size_t minimal = Shrink(ops, ops.size());
            FAIL() << failure << " (seed " << seed
                   << ", shrinks to first " << minimal << " of " << kOps
                   << " ops: rerun RunOps(GenOps(" << seed << ", " << kOps
                   << "), " << minimal << "))";
        }
    }
    // The mix reached both lane cases a heap-only test cannot.
    EXPECT_GT(stats.lane_fires, 0u);
    EXPECT_GT(stats.lanes_left_at_until, 0u);
}

TEST(EventQueueStress, TieStormMatchesNaiveReference)
{
    // Past 341 records a 4-ary heap is five levels deep; with every
    // pending event on one of four timestamps, each sift below that
    // depth orders equal-`when` records by insertion sequence alone.
    // 400 ops cannot hold a thousand pending events, hence the length.
    constexpr size_t kStormOps = 4000;
    for (uint64_t seed = 1; seed <= 20; ++seed) {
        const std::vector<Op> ops = GenTieStormOps(seed, kStormOps);
        RunStats stats;
        const std::string failure = RunOps(ops, ops.size(), &stats);
        if (!failure.empty()) {
            const size_t minimal = Shrink(ops, ops.size());
            FAIL() << failure << " (tie storm, seed " << seed
                   << ", shrinks to first " << minimal << " of " << kStormOps
                   << " ops: rerun RunOps(GenTieStormOps(" << seed << ", "
                   << kStormOps << "), " << minimal << "))";
        }
        EXPECT_GE(stats.peak_pending, 1000u) << "seed " << seed;
        EXPECT_LE(stats.max_distinct, 5u) << "seed " << seed;
        EXPECT_GT(stats.lane_fires, 0u) << "seed " << seed;
    }
}

TEST(EventQueueStress, SameSeedSameLog)
{
    // The harness itself must be deterministic, or a reported (seed,
    // prefix) pair would not reproduce.
    const std::vector<Op> a = GenOps(7, 200);
    const std::vector<Op> b = GenOps(7, 200);
    ASSERT_EQ(a.size(), b.size());
    for (size_t i = 0; i < a.size(); ++i) {
        EXPECT_EQ(a[i].kind, b[i].kind);
        EXPECT_EQ(a[i].a, b[i].a);
        EXPECT_EQ(a[i].b, b[i].b);
        EXPECT_EQ(a[i].target, b[i].target);
        EXPECT_EQ(a[i].rearms, b[i].rearms);
        EXPECT_EQ(a[i].gap, b[i].gap);
    }
}

TEST(EventQueueStress, CancelInsideCallbackIsCleanNoOp)
{
    // A one-shot cancelling itself mid-fire, and a periodic cancelled
    // from another callback at the same timestamp, leave no bookkeeping.
    EventQueue q;
    int fired = 0;
    EventQueue::EventId self = 0;
    self = q.ScheduleAfter(10, [&] {
        ++fired;
        q.Cancel(self);  // already fired: must be a no-op
    });
    EventQueue::EventId periodic =
        q.SchedulePeriodic(5, 0, [&] { ++fired; });
    q.ScheduleAfter(10, [&] { q.Cancel(periodic); });
    q.RunFor(100);
    // Periodic fires at t=0 and t=5; its t=10 occurrence was rescheduled
    // at t=5 so it sorts after the canceller at the same timestamp and is
    // dropped. The self-canceller fires once at t=10.
    EXPECT_EQ(fired, 3);
    EXPECT_EQ(q.pending(), 0u);
    EXPECT_EQ(q.cancelled_backlog(), 0u);
}

}  // namespace
}  // namespace heracles::sim
