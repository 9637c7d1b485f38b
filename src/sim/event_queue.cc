#include "sim/event_queue.h"

#include <algorithm>
#include <cstdio>

namespace heracles::sim {

std::string
FormatDuration(Duration d)
{
    char buf[64];
    const double ad = static_cast<double>(d < 0 ? -d : d);
    if (ad < 1e3) {
        std::snprintf(buf, sizeof buf, "%ldns", static_cast<long>(d));
    } else if (ad < 1e6) {
        std::snprintf(buf, sizeof buf, "%.1fus", d / 1e3);
    } else if (ad < 1e9) {
        std::snprintf(buf, sizeof buf, "%.1fms", d / 1e6);
    } else {
        std::snprintf(buf, sizeof buf, "%.2fs", d / 1e9);
    }
    return buf;
}

uint32_t
EventQueue::AcquireSlot()
{
    uint32_t idx;
    if (free_head_ != kNilSlot) {
        idx = free_head_;
        free_head_ = slots_[idx].next_free;
    } else {
        idx = static_cast<uint32_t>(slots_.size());
        HERACLES_CHECK_MSG(idx != kNilSlot, "event pool exhausted");
        slots_.emplace_back();
    }
    Slot& s = slots_[idx];
    // Generation 0 is never issued, so a zero-initialized EventId can
    // never match a live slot.
    if (++s.gen == 0) ++s.gen;
    s.state = Slot::kLive;
    return idx;
}

void
EventQueue::ReleaseSlot(uint32_t idx)
{
    Slot& s = slots_[idx];
    s.fn.Reset();
    s.period = 0;
    s.state = Slot::kFree;
    s.next_free = free_head_;
    free_head_ = idx;
}

void
EventQueue::HeapPush(HeapItem item)
{
    // Sift up: move parents down into the hole until item fits.
    size_t i = heap_.size();
    heap_.emplace_back();
    while (i > 0) {
        const size_t parent = (i - 1) / 4;
        if (!(item < heap_[parent])) break;
        heap_[i] = heap_[parent];
        i = parent;
    }
    heap_[i] = item;
}

void
EventQueue::HeapPop()
{
    // Sift the last record down from the root, moving the smallest child
    // up into the hole until it fits.
    const HeapItem last = heap_.back();
    heap_.pop_back();
    const size_t n = heap_.size();
    if (n == 0) return;
    size_t i = 0;
    for (;;) {
        const size_t first = 4 * i + 1;
        if (first >= n) break;
        const size_t end = std::min(first + 4, n);
        size_t best = first;
        for (size_t c = first + 1; c < end; ++c) {
            if (heap_[c] < heap_[best]) best = c;
        }
        if (!(heap_[best] < last)) break;
        heap_[i] = heap_[best];
        i = best;
    }
    heap_[i] = last;
}

void
EventQueue::RunUntil(SimTime until)
{
    RunLoop(until, /*inclusive=*/true);
}

void
EventQueue::RunUntilBefore(SimTime until)
{
    RunLoop(until, /*inclusive=*/false);
}

void
EventQueue::RunLoop(SimTime until, bool inclusive)
{
    for (;;) {
        const bool lane_first =
            lane_armed_ && (heap_.empty() || lane_ < heap_[0]);
        if (!lane_first && heap_.empty()) break;
        const SimTime next = lane_first ? lane_.when : heap_[0].when;
        if (inclusive ? next > until : next >= until) break;
        if (lane_first) {
            // Disarmed before the call, so the callable can re-arm it.
            lane_armed_ = false;
            now_ = lane_.when;
            ++executed_;
            lane_fn_();
            continue;
        }
        const HeapItem item = heap_[0];
        HeapPop();
        // The deque keeps slot addresses stable across callbacks, but a
        // reference would still dangle conceptually; re-index after fn().
        Slot& s = slots_[item.slot];
        if (s.state == Slot::kCancelled) {
            --cancelled_;
            ReleaseSlot(item.slot);
            continue;
        }
        now_ = item.when;
        ++executed_;
        if (s.period <= 0) {
            // One-shot: recycle the slot before the callback runs, so a
            // self-Cancel inside fn() misses (state kFree / stale gen)
            // and the slot is immediately reusable by whatever the
            // callback schedules.
            InlineFn fn = std::move(s.fn);
            ReleaseSlot(item.slot);
            fn();
        } else {
            s.fn();
            Slot& after = slots_[item.slot];
            if (after.state == Slot::kCancelled) {
                // The callback cancelled its own periodic event.
                --cancelled_;
                ReleaseSlot(item.slot);
            } else {
                HeapPush(
                    HeapItem{now_ + after.period, next_seq_++, item.slot});
            }
        }
    }
    if (now_ < until) now_ = until;
}

}  // namespace heracles::sim
