/**
 * @file
 * A compute-once memo for offline measurements.
 *
 * Some values are deterministic properties of their inputs but cost a
 * whole simulation to measure — a BE job's alone rate on a machine, an
 * LC workload's interference fingerprint on a machine shape. A
 * process-wide OnceCache measures each distinct key once and hands every
 * later caller the same value, so a cached read is bit-identical to a
 * fresh measurement.
 */
#ifndef HERACLES_SIM_ONCE_CACHE_H
#define HERACLES_SIM_ONCE_CACHE_H

#include <deque>
#include <mutex>

namespace heracles::sim {

/**
 * Thread-safe memo from Key (needs operator==) to Value. Concurrent
 * callers of one cold key wait for a single computation; distinct keys
 * compute in parallel, because the lock only guards the key lookup,
 * never a computation. Entries are never evicted. Meant for a handful
 * of keys: lookup is a linear scan.
 */
template <typename Key, typename Value>
class OnceCache
{
  public:
    /** Returns the value for @p key, running compute() on a miss. */
    template <typename Compute>
    const Value&
    Get(const Key& key, Compute&& compute)
    {
        Entry* entry = nullptr;
        {
            std::lock_guard<std::mutex> lock(mu_);
            for (Entry& e : entries_) {
                if (e.key == key) {
                    entry = &e;
                    break;
                }
            }
            if (entry == nullptr) entry = &entries_.emplace_back(key);
        }
        // std::deque never moves its elements on emplace_back, so the
        // entry outlives the lock; call_once publishes its value.
        std::call_once(entry->once, [&] { entry->value = compute(); });
        return entry->value;
    }

  private:
    struct Entry {
        explicit Entry(const Key& k) : key(k) {}
        const Key key;
        std::once_flag once;
        Value value{};
    };

    std::mutex mu_;
    std::deque<Entry> entries_;
};

}  // namespace heracles::sim

#endif  // HERACLES_SIM_ONCE_CACHE_H
