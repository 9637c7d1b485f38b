/**
 * @file
 * Discrete-event simulation engine.
 *
 * The engine is a single global-order event queue: callbacks scheduled at
 * simulated times, executed in (time, insertion-order) order. All hardware
 * models, workloads and controllers in this library are driven by this
 * queue; nothing observes wall-clock time.
 *
 * Events live in a slab pool of fixed slots with free-list reuse: the
 * callback is constructed directly in its slot's small-buffer InlineFn
 * storage (zero heap traffic for the closures the simulation layers
 * schedule), a 4-ary min-heap orders plain 24-byte (time, seq, slot)
 * records, and EventIds carry a generation tag so Cancel is an O(1)
 * slot lookup with no side-table bookkeeping — a stale id (already
 * fired, already cancelled, or from a recycled slot) simply misses its
 * generation and is a no-op.
 *
 * Beside the heap sits one arrival lane: a single re-armable event for
 * the queue's open-loop request stream (an LcApp's Poisson arrivals, or
 * a cluster leaf's staged inbox). Its callable is installed once and
 * each arm takes a sequence number from the same counter as every
 * scheduled event, at the moment of the arm, so the lane and the heap
 * top merge by the one (time, seq) order and the firing order is what
 * it would be with each arrival on the heap. An arrival then costs no
 * slot, no callable construction and no heap push or pop: the heap
 * holds completions, periodic ticks and the rare one-shot events.
 */
#ifndef HERACLES_SIM_EVENT_QUEUE_H
#define HERACLES_SIM_EVENT_QUEUE_H

#include <cstdint>
#include <deque>
#include <utility>
#include <vector>

#include "sim/inline_fn.h"
#include "sim/log.h"
#include "sim/time.h"

namespace heracles::sim {

/**
 * Priority queue of timed events plus the simulated clock.
 *
 * Events with equal timestamps fire in insertion order, which makes
 * simulations deterministic for a fixed seed. Periodic events reschedule
 * themselves until cancelled.
 */
class EventQueue
{
  public:
    /**
     * Opaque handle used to cancel a scheduled or periodic event:
     * (generation << 32) | slot index. Generations start at 1, so the
     * zero-initialized id is never valid and cancelling it is a no-op.
     */
    using EventId = uint64_t;

    EventQueue() = default;
    EventQueue(const EventQueue&) = delete;
    EventQueue& operator=(const EventQueue&) = delete;

    /** Current simulated time. */
    SimTime Now() const { return now_; }

    /**
     * Schedules @p fn to run at absolute time @p when.
     * @pre when >= Now().
     * @return handle usable with Cancel().
     */
    template <typename Fn>
    EventId
    ScheduleAt(SimTime when, Fn&& fn)
    {
        HERACLES_CHECK_MSG(
            when >= now_,
            "scheduling into the past: " << when << " < " << now_);
        return Push(when, /*period=*/0, std::forward<Fn>(fn));
    }

    /** Schedules @p fn to run @p delay after the current time. */
    template <typename Fn>
    EventId
    ScheduleAfter(Duration delay, Fn&& fn)
    {
        HERACLES_CHECK_MSG(delay >= 0, "negative delay " << delay);
        return Push(now_ + delay, /*period=*/0, std::forward<Fn>(fn));
    }

    /**
     * Schedules @p fn every @p period, first firing at Now() + @p phase.
     * The callback keeps firing until the returned id is cancelled.
     */
    template <typename Fn>
    EventId
    SchedulePeriodic(Duration period, Duration phase, Fn&& fn)
    {
        HERACLES_CHECK_MSG(period > 0,
                           "period must be positive: " << period);
        HERACLES_CHECK(phase >= 0);
        return Push(now_ + phase, period, std::forward<Fn>(fn));
    }

    /**
     * Cancels a pending (or periodic) event in O(1). Cancelling twice,
     * cancelling an already-fired one-shot event, or cancelling with a
     * stale id from a recycled slot is a no-op and leaves no bookkeeping
     * behind.
     */
    void
    Cancel(EventId id)
    {
        const uint32_t idx = SlotOf(id);
        if (idx >= slots_.size()) return;
        Slot& s = slots_[idx];
        if (s.gen != GenOf(id) || s.state != Slot::kLive) return;
        // Only mark; the callable is destroyed when the slot is released
        // (a periodic cancelling itself mid-fire must not destroy the
        // closure it is currently executing).
        s.state = Slot::kCancelled;
        ++cancelled_;
    }

    /**
     * Installs the arrival lane's callable. The lane fires at most once
     * per arm; its callable may re-arm it.
     * @pre no lane installed (a second install aborts).
     */
    template <typename Fn>
    void
    SetLane(Fn&& fn)
    {
        HERACLES_CHECK_MSG(!lane_fn_, "arrival lane installed twice");
        lane_fn_.Emplace(std::forward<Fn>(fn));
    }

    /** Disarms the lane and destroys its callable (its owner is going
     *  away); the lane can then be installed again. */
    void
    ClearLane()
    {
        lane_fn_.Reset();
        lane_armed_ = false;
    }

    /**
     * Arms the lane to fire at @p when. Takes the next insertion
     * sequence number now, exactly as ScheduleAt would, so a lane
     * firing ties with heap events the way the equivalent one-shot
     * event would.
     * @pre a lane is installed, it is not armed, and when >= Now().
     */
    void
    ArmLane(SimTime when)
    {
        HERACLES_CHECK_MSG(static_cast<bool>(lane_fn_),
                           "arming an arrival lane that is not installed");
        HERACLES_CHECK_MSG(!lane_armed_, "arrival lane armed twice");
        HERACLES_CHECK_MSG(
            when >= now_,
            "arming the arrival lane in the past: " << when << " < " << now_);
        lane_ = HeapItem{when, next_seq_++, kNilSlot};
        lane_armed_ = true;
    }

    /** Runs events until the queue is empty or the clock reaches @p until. */
    void RunUntil(SimTime until);

    /**
     * Runs events strictly before @p until (when < until), then advances
     * the clock to @p until; events at exactly @p until stay pending and
     * fire on the next run. This is the epoch engine's leaf-stepping
     * primitive: on the old shared queue, root-side barrier work
     * (window close, scheduler tick, fault boundaries) was inserted
     * earlier and therefore fired *before* any leaf event carrying the
     * same timestamp — stopping each leaf short of the barrier instant
     * reproduces that order with per-leaf queues.
     */
    void RunUntilBefore(SimTime until);

    /** Runs events for @p span of simulated time from the current clock. */
    void RunFor(Duration span) { RunUntil(now_ + span); }

    /** Number of events executed so far (for micro-benchmarks and tests). */
    uint64_t executed() const { return executed_; }

    /** Events pending: the heap's records (live + cancelled) plus an
     *  armed lane. */
    size_t pending() const { return heap_.size() + (lane_armed_ ? 1 : 0); }

    /** Cancelled events not yet dropped from the heap (for tests). */
    size_t cancelled_backlog() const { return cancelled_; }

    /** Total slots ever created in the pool; bounded by the peak number
     *  of simultaneously pending events, not by throughput (for tests). */
    size_t pool_slots() const { return slots_.size(); }

    /** Slots currently on the free list awaiting reuse (for tests). */
    size_t
    pool_free() const
    {
        size_t n = 0;
        for (uint32_t i = free_head_; i != kNilSlot;
             i = slots_[i].next_free) {
            ++n;
        }
        return n;
    }

  private:
    static constexpr uint32_t kNilSlot = UINT32_MAX;

    /**
     * One pooled event. The slot index plus generation is the EventId;
     * the slot is recycled (generation bumped) as soon as its heap
     * record pops, so the pool stays as small as the peak pending count.
     */
    struct Slot {
        enum State : uint8_t {
            kFree,       ///< On the free list; fn is empty.
            kLive,       ///< Scheduled (or a periodic mid-fire).
            kCancelled,  ///< Cancelled; dropped when its record pops.
        };

        InlineFn fn;
        Duration period = 0;  ///< <= 0 for one-shot events.
        uint32_t gen = 0;     ///< Bumped on every acquire; 0 never issued.
        uint32_t next_free = kNilSlot;
        State state = kFree;
    };

    /** What the heap orders: plain data, no callback payload. */
    struct HeapItem {
        SimTime when;
        uint64_t seq;  ///< Tie-breaker: insertion order.
        uint32_t slot;

        /** Fires first: (when, seq) is a strict total order. */
        bool
        operator<(const HeapItem& o) const
        {
            if (when != o.when) return when < o.when;
            return seq < o.seq;
        }
    };

    static uint32_t SlotOf(EventId id) { return static_cast<uint32_t>(id); }
    static uint32_t GenOf(EventId id) { return static_cast<uint32_t>(id >> 32); }

    /** Acquires a slot, constructs the callable in it and queues it. */
    template <typename Fn>
    EventId
    Push(SimTime when, Duration period, Fn&& fn)
    {
        const uint32_t idx = AcquireSlot();
        Slot& s = slots_[idx];
        s.fn.Emplace(std::forward<Fn>(fn));
        s.period = period;
        HeapPush(HeapItem{when, next_seq_++, idx});
        return (static_cast<EventId>(s.gen) << 32) | idx;
    }

    uint32_t AcquireSlot();
    void ReleaseSlot(uint32_t idx);
    void RunLoop(SimTime until, bool inclusive);
    void HeapPush(HeapItem item);
    /** Removes heap_[0]. @pre !heap_.empty(). */
    void HeapPop();

    /** 4-ary min-heap on (when, seq): the children of i are 4i+1..4i+4.
     *  Half the depth of a binary heap, and a node's four children share
     *  one or two cache lines. */
    std::vector<HeapItem> heap_;
    /** Slab pool. std::deque: slot addresses stay stable while a firing
     *  callback schedules new events (which may extend the pool). */
    std::deque<Slot> slots_;
    uint32_t free_head_ = kNilSlot;
    /** The arrival lane: its callable and, while armed, its (when, seq)
     *  key (slot unused). */
    InlineFn lane_fn_;
    HeapItem lane_{};
    bool lane_armed_ = false;
    size_t cancelled_ = 0;  ///< Cancelled slots still referenced by heap_.
    SimTime now_ = 0;
    uint64_t next_seq_ = 0;
    uint64_t executed_ = 0;
};

}  // namespace heracles::sim

#endif  // HERACLES_SIM_EVENT_QUEUE_H
