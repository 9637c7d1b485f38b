/**
 * @file
 * Randomized stress test for sim::EventQueue.
 *
 * Seeded random interleavings of Schedule / SchedulePeriodic / Cancel /
 * RunFor are executed against both the real queue and a deliberately
 * naive reference implementation (a flat vector scanned for the minimum
 * (time, insertion-seq) on every pop). The firing logs must match token
 * for token and timestamp for timestamp — in particular across the O(1)
 * Cancel bookkeeping: cancelling pending, fired, periodic and
 * already-cancelled events must never change what else fires.
 *
 * A tie-storm mix piles more than a thousand events onto at most four
 * distinct timestamps, so the queue's 4-ary heap (depth 5 past 341
 * records) breaks almost every sift on insertion order alone.
 *
 * Failures shrink: the harness bisects the op sequence to the shortest
 * failing prefix and reports the seed plus that length, so a regression
 * reproduces from two integers.
 */
#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "sim/event_queue.h"
#include "sim/random.h"

namespace heracles::sim {
namespace {

// --------------------------------------------------------------------------
// Naive reference model

/** Mirrors EventQueue semantics with O(n) scans instead of a heap. */
class RefQueue
{
  public:
    void
    Schedule(SimTime when, Duration period, uint64_t token)
    {
        evs_.push_back(Ev{when, next_seq_++, token, period});
    }

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

    void
    RunUntil(SimTime until, std::vector<std::pair<uint64_t, SimTime>>* log)
    {
        for (;;) {
            size_t best = evs_.size();
            for (size_t i = 0; i < evs_.size(); ++i) {
                if (evs_[i].when > until) continue;
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
            if (e.period > 0) {
                Schedule(now_ + e.period, e.period, e.token);
            }
        }
        if (now_ < until) now_ = until;
    }

    SimTime now() const { return now_; }
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
    enum Kind { kOneShot, kPeriodic, kCancel, kRun } kind;
    Duration a = 0;       // delay / period / run span
    Duration b = 0;       // phase
    uint64_t target = 0;  // token picked for kCancel (modulo count so far)
};

std::vector<Op>
GenOps(uint64_t seed, size_t n)
{
    Rng rng(seed);
    std::vector<Op> ops;
    ops.reserve(n);
    for (size_t i = 0; i < n; ++i) {
        Op op;
        const uint64_t dice = rng.UniformInt(100);
        if (dice < 35) {
            op.kind = Op::kOneShot;
            op.a = static_cast<Duration>(rng.UniformInt(100));  // incl. 0
        } else if (dice < 50) {
            op.kind = Op::kPeriodic;
            op.a = static_cast<Duration>(1 + rng.UniformInt(20));
            op.b = static_cast<Duration>(rng.UniformInt(10));
        } else if (dice < 75) {
            op.kind = Op::kCancel;
            op.target = rng.Next64();  // resolved modulo live tokens
        } else {
            op.kind = Op::kRun;
            op.a = static_cast<Duration>(rng.UniformInt(50));  // incl. 0
        }
        ops.push_back(op);
    }
    return ops;
}

/**
 * A tie storm: every delay, phase and period is 1..4 and runs advance
 * the clock by 0 or 1, so all pending events sit on at most four
 * distinct timestamps; schedules far outnumber runs, so the backlog
 * passes a thousand events.
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
        if (dice < 50) {
            op.kind = Op::kOneShot;
            op.a = static_cast<Duration>(1 + rng.UniformInt(4));
        } else if (dice < 83) {
            op.kind = Op::kPeriodic;
            op.a = static_cast<Duration>(1 + rng.UniformInt(4));
            op.b = static_cast<Duration>(1 + rng.UniformInt(4));
        } else if (dice < 98) {
            op.kind = Op::kCancel;
            op.target = rng.Next64();
        } else {
            op.kind = Op::kRun;
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

    auto fire = [&got, &q](uint64_t token) {
        got.emplace_back(token, q.Now());
    };

    for (size_t i = 0; i < n; ++i) {
        const Op& op = ops[i];
        switch (op.kind) {
          case Op::kOneShot: {
            const uint64_t token = real_ids.size();
            real_ids.push_back(
                q.ScheduleAfter(op.a, [fire, token] { fire(token); }));
            periods.push_back(0);
            ref.Schedule(q.Now() + op.a, 0, token);
            break;
          }
          case Op::kPeriodic: {
            const uint64_t token = real_ids.size();
            real_ids.push_back(q.SchedulePeriodic(
                op.a, op.b, [fire, token] { fire(token); }));
            periods.push_back(op.a);
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
          case Op::kRun:
            q.RunFor(op.a);
            ref.RunUntil(q.Now(), &want);
            break;
        }
        if (q.Now() != ref.now()) {
            return "clock divergence after op " + std::to_string(i);
        }
        if (got.size() != want.size() || got != want) {
            return "firing-log divergence after op " + std::to_string(i);
        }
        if (stats != nullptr) {
            stats->peak_pending = std::max(stats->peak_pending, ref.pending());
            stats->max_distinct =
                std::max(stats->max_distinct, ref.DistinctWhens(5));
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
    ref.RunUntil(q.Now(), &want);
    if (got != want) return "firing-log divergence after drain";
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
    for (uint64_t seed = 1; seed <= 20; ++seed) {
        const std::vector<Op> ops = GenOps(seed, kOps);
        const std::string failure = RunOps(ops, ops.size());
        if (!failure.empty()) {
            const size_t minimal = Shrink(ops, ops.size());
            FAIL() << failure << " (seed " << seed
                   << ", shrinks to first " << minimal << " of " << kOps
                   << " ops: rerun RunOps(GenOps(" << seed << ", " << kOps
                   << "), " << minimal << "))";
        }
    }
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
        EXPECT_LE(stats.max_distinct, 4u) << "seed " << seed;
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
