/**
 * @file
 * Tests for the pooled event representation behind sim::EventQueue:
 * slab slots must be recycled through the free list after fire and
 * cancel (the pool stays as small as the peak pending count under
 * unbounded throughput), generation tags must turn stale EventIds into
 * no-ops even after their slot is reused, and the small-buffer callback
 * storage must keep the hot path allocation-free while still accepting
 * over-sized captures through the heap fallback.
 */
#include <gtest/gtest.h>

#include <array>
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
        uint64_t pad[4];
    } cap{&hits, {}};
    InlineFn fn([cap] { ++*cap.p; });  // 40 bytes: fits the 48-byte buffer
    EXPECT_FALSE(fn.heap_allocated());
    fn();
    EXPECT_EQ(hits, 1);
}

TEST(InlineFn, OversizedCaptureFallsBackToHeap)
{
    int hits = 0;
    std::array<uint64_t, 16> big{};  // 128 bytes > kInlineBytes
    InlineFn fn([&hits, big] { hits += static_cast<int>(big[0]) + 1; });
    EXPECT_TRUE(fn.heap_allocated());
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

}  // namespace
}  // namespace heracles::sim
