/**
 * @file
 * Tests for the pooled event representation behind sim::EventQueue:
 * slab slots must be recycled through the free list after fire and
 * cancel (the pool stays as small as the peak pending count under
 * unbounded throughput), generation tags must turn stale EventIds into
 * no-ops even after their slot is reused, and the small-buffer callback
 * storage must hold captures up to its 48-byte limit (a larger one does
 * not compile; the inline_fn_oversized_capture_rejected ctest pins
 * that). The arrival lane beside the heap must cost no slot at all,
 * count every firing, and merge with heap events of the same instant by
 * arm order.
 */
#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "sim/event_queue.h"
#include "sim/inline_fn.h"

namespace heracles::sim {
namespace {

// --------------------------------------------------------------------------
// InlineFn storage

TEST(InlineFn, SmallCaptureStaysInline)
{
    int hits = 0;
    struct Cap {
        int* p;
        uint64_t pad[5];
    } cap{&hits, {}};
    InlineFn fn([cap] { ++*cap.p; });  // 48 bytes: exactly the buffer
    fn();
    EXPECT_EQ(hits, 1);
}

TEST(InlineFn, MoveTransfersAndEmptiesSource)
{
    int hits = 0;
    InlineFn a([&hits] { ++hits; });
    InlineFn b(std::move(a));
    EXPECT_FALSE(static_cast<bool>(a));  // NOLINT(bugprone-use-after-move)
    EXPECT_TRUE(static_cast<bool>(b));
    b();
    EXPECT_EQ(hits, 1);
}

TEST(InlineFn, DestroysCapturedResources)
{
    auto token = std::make_shared<int>(7);
    std::weak_ptr<int> watch = token;
    {
        InlineFn fn([token] { (void)*token; });
        token.reset();
        EXPECT_FALSE(watch.expired());  // the closure keeps it alive
    }
    EXPECT_TRUE(watch.expired());  // destroyed with the InlineFn
}

TEST(InlineFn, MoveAssignReleasesPreviousCallable)
{
    auto token = std::make_shared<int>(1);
    std::weak_ptr<int> watch = token;
    InlineFn fn([token] { (void)*token; });
    token.reset();
    fn = InlineFn([] {});
    EXPECT_TRUE(watch.expired());
}

// --------------------------------------------------------------------------
// Slot recycling

TEST(EventPool, SteadyChurnReusesOneSlot)
{
    // A self-rescheduling timer has exactly one pending event at any
    // moment; a million fires must keep reusing the same slot instead of
    // growing the slab.
    EventQueue q;
    uint64_t fired = 0;
    std::function<void()> tick = [&] {
        if (++fired < 100000) q.ScheduleAfter(1, tick);
    };
    q.ScheduleAfter(1, tick);
    q.RunFor(1 << 20);
    EXPECT_EQ(fired, 100000u);
    // tick itself is a std::function (32 bytes) plus the capture: still
    // one slot, reused throughout (a second slot may appear transiently
    // but the pool must stay O(peak pending), not O(throughput)).
    EXPECT_LE(q.pool_slots(), 2u);
}

TEST(EventPool, CancelledSlotsReturnToFreeList)
{
    EventQueue q;
    std::vector<EventQueue::EventId> ids;
    for (int i = 0; i < 64; ++i) {
        ids.push_back(q.ScheduleAt(10 + i, [] {}));
    }
    EXPECT_EQ(q.pool_slots(), 64u);
    EXPECT_EQ(q.pool_free(), 0u);
    for (auto id : ids) q.Cancel(id);
    EXPECT_EQ(q.cancelled_backlog(), 64u);
    q.RunFor(1000);  // pops the heap records, releasing the slots
    EXPECT_EQ(q.cancelled_backlog(), 0u);
    EXPECT_EQ(q.pool_free(), 64u);

    // The next burst must consume the free list, not extend the slab.
    for (int i = 0; i < 64; ++i) {
        q.ScheduleAfter(5, [] {});
    }
    EXPECT_EQ(q.pool_slots(), 64u);
    EXPECT_EQ(q.pool_free(), 0u);
    q.RunFor(1000);
    EXPECT_EQ(q.pool_free(), 64u);
}

/** Counts its own move constructions, copies and calls. */
struct MoveCounter {
    int* moves;
    int* copies;
    int* calls;

    MoveCounter(int* m, int* c, int* k) : moves(m), copies(c), calls(k) {}
    MoveCounter(const MoveCounter& o)
        : moves(o.moves), copies(o.copies), calls(o.calls)
    {
        ++*copies;
    }
    MoveCounter(MoveCounter&& o) noexcept
        : moves(o.moves), copies(o.copies), calls(o.calls)
    {
        ++*moves;
    }
    MoveCounter& operator=(const MoveCounter&) = delete;
    MoveCounter& operator=(MoveCounter&&) = delete;

    void operator()() { ++*calls; }
};

TEST(EventPool, OneShotCallableMovesIntoItsSlotAndOutOnce)
{
    // Built in its slot straight from the rvalue (one move), then moved
    // out before the call so the slot can be released (a second move).
    EventQueue q;
    int moves = 0, copies = 0, calls = 0;
    q.ScheduleAfter(5, MoveCounter(&moves, &copies, &calls));
    EXPECT_EQ(moves, 1);
    q.RunFor(10);
    EXPECT_EQ(moves, 2);
    EXPECT_EQ(copies, 0);
    EXPECT_EQ(calls, 1);
}

TEST(EventPool, PeriodicCallableRunsInItsSlot)
{
    EventQueue q;
    int moves = 0, copies = 0, calls = 0;
    const auto id =
        q.SchedulePeriodic(10, 10, MoveCounter(&moves, &copies, &calls));
    q.RunFor(50);
    q.Cancel(id);
    q.RunFor(20);
    EXPECT_EQ(moves, 1);  // into the slot; every fire runs it there
    EXPECT_EQ(copies, 0);
    EXPECT_EQ(calls, 5);
}

TEST(EventPool, FiredSlotIsImmediatelyReusableInsideCallback)
{
    // A one-shot's slot is released before its callback runs, so an
    // event scheduled from inside the callback reuses it: the pool never
    // grows past one slot for a fire-then-schedule chain.
    EventQueue q;
    int fired = 0;
    q.ScheduleAfter(1, [&] {
        ++fired;
        q.ScheduleAfter(1, [&] { ++fired; });
        EXPECT_EQ(q.pool_slots(), 1u);
    });
    q.RunFor(10);
    EXPECT_EQ(fired, 2);
}

// --------------------------------------------------------------------------
// Generation tags

TEST(EventPool, StaleIdAfterFireIsNoOp)
{
    EventQueue q;
    const auto id = q.ScheduleAt(10, [] {});
    q.RunFor(20);
    EXPECT_EQ(q.executed(), 1u);
    q.Cancel(id);  // fired: slot is free, id is stale
    EXPECT_EQ(q.cancelled_backlog(), 0u);
}

TEST(EventPool, StaleIdCannotCancelSlotReuser)
{
    EventQueue q;
    bool first = false, second = false;
    const auto stale = q.ScheduleAt(10, [&] { first = true; });
    q.RunFor(20);
    // The slot is recycled by the next event; its generation advanced.
    const auto fresh = q.ScheduleAt(30, [&] { second = true; });
    EXPECT_EQ(q.pool_slots(), 1u);  // same slot, reused
    q.Cancel(stale);                // must NOT kill the new occupant
    q.RunFor(40);
    EXPECT_TRUE(first);
    EXPECT_TRUE(second);
    (void)fresh;
}

TEST(EventPool, StaleIdAfterCancelAndReuseIsNoOp)
{
    EventQueue q;
    bool fired = false;
    const auto victim = q.ScheduleAt(10, [] {});
    q.Cancel(victim);
    q.Cancel(victim);  // double cancel: no-op
    q.RunFor(20);      // heap record pops, slot freed
    const auto fresh = q.ScheduleAt(30, [&] { fired = true; });
    q.Cancel(victim);  // three generations stale by now
    q.RunFor(40);
    EXPECT_TRUE(fired);
    (void)fresh;
}

TEST(EventPool, ZeroIdIsNeverValid)
{
    // Members holding a not-yet-scheduled EventId are zero-initialized
    // and cancelled in destructors; id 0 must never alias slot 0.
    EventQueue q;
    bool fired = false;
    q.ScheduleAt(10, [&] { fired = true; });  // lives in slot 0
    q.Cancel(0);
    q.RunFor(20);
    EXPECT_TRUE(fired);
}

TEST(EventPool, PeriodicSlotPersistsAcrossFires)
{
    EventQueue q;
    int count = 0;
    const auto id = q.SchedulePeriodic(10, 10, [&] { ++count; });
    q.RunFor(100);
    EXPECT_EQ(count, 10);
    EXPECT_EQ(q.pool_slots(), 1u);  // one slot for the periodic's lifetime
    q.Cancel(id);
    q.RunFor(20);  // final heap record pops and frees the slot
    EXPECT_EQ(q.pool_free(), 1u);
    EXPECT_EQ(count, 10);
}

// --------------------------------------------------------------------------
// Arrival lane

TEST(ArrivalLane, SelfReArmingLaneTakesNoSlot)
{
    // The lane is not a pooled event: 10k self-re-arming firings beside
    // a periodic tick leave the slab exactly as the tick alone made it,
    // and every firing counts as an executed event.
    EventQueue q;
    q.SchedulePeriodic(7, 0, [] {});
    q.RunFor(0);
    const size_t slots = q.pool_slots();
    const uint64_t executed = q.executed();
    uint64_t fired = 0;
    q.SetLane([&] {
        if (++fired < 10000) q.ArmLane(q.Now() + 1);
    });
    q.ArmLane(q.Now() + 1);
    q.RunFor(10000);
    EXPECT_EQ(fired, 10000u);
    EXPECT_EQ(q.pool_slots(), slots);
    // 10000 lane firings plus the tick's firings at t = 7, 14, ... 10000.
    EXPECT_EQ(q.executed() - executed, 10000u + 10000u / 7);
}

TEST(ArrivalLane, TiesFireInArmOrder)
{
    // At one instant the lane takes its place in insertion order: after
    // the one-shot scheduled before it was armed, before the one
    // scheduled after. Re-armed at Now() inside its own firing, it
    // still sorts behind what was already pending at that instant.
    EventQueue q;
    std::vector<int> order;
    int lane_fires = 0;
    q.SetLane([&] {
        order.push_back(100 + lane_fires);
        if (++lane_fires == 1) q.ArmLane(q.Now());
    });
    q.ScheduleAt(5, [&] { order.push_back(1); });
    q.ArmLane(5);
    q.ScheduleAt(5, [&] { order.push_back(2); });
    EXPECT_EQ(q.pending(), 3u);  // an armed lane counts as pending
    q.RunUntil(5);
    EXPECT_EQ(order, (std::vector<int>{1, 100, 2, 101}));
    EXPECT_EQ(q.pending(), 0u);
    EXPECT_EQ(q.executed(), 4u);
}

TEST(ArrivalLane, RunUntilBeforeLeavesLaneAtBoundPending)
{
    EventQueue q;
    int fired = 0;
    q.SetLane([&] { ++fired; });
    q.ArmLane(10);
    q.RunUntilBefore(10);
    EXPECT_EQ(fired, 0);
    EXPECT_EQ(q.Now(), 10);
    EXPECT_EQ(q.pending(), 1u);
    q.RunUntil(10);
    EXPECT_EQ(fired, 1);
    EXPECT_EQ(q.pending(), 0u);
}

TEST(ArrivalLane, ClearLaneDisarmsAndAllowsReinstall)
{
    EventQueue q;
    int first = 0, second = 0;
    q.SetLane([&] { ++first; });
    q.ArmLane(3);
    q.ClearLane();
    EXPECT_EQ(q.pending(), 0u);
    q.SetLane([&] { ++second; });
    q.ArmLane(4);
    q.RunFor(10);
    EXPECT_EQ(first, 0);
    EXPECT_EQ(second, 1);
}

TEST(ArrivalLaneDeath, SecondInstallAborts)
{
    EventQueue q;
    q.SetLane([] {});
    EXPECT_DEATH(q.SetLane([] {}), "installed twice");
}

TEST(ArrivalLaneDeath, ArmingAnArmedLaneAborts)
{
    EventQueue q;
    q.SetLane([] {});
    q.ArmLane(5);
    EXPECT_DEATH(q.ArmLane(6), "armed twice");
}

TEST(ArrivalLaneDeath, ArmingBeforeNowAborts)
{
    EventQueue q;
    q.SetLane([] {});
    q.RunUntil(50);
    EXPECT_DEATH(q.ArmLane(10), "past");
}

TEST(ArrivalLaneDeath, ArmingWithoutALaneAborts)
{
    EventQueue q;
    EXPECT_DEATH(q.ArmLane(1), "not installed");
}

}  // namespace
}  // namespace heracles::sim
