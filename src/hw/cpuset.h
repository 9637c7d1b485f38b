/**
 * @file
 * Logical-CPU sets and the machine topology mapping.
 *
 * Logical CPU ids are laid out socket-major, then physical core, then
 * hardware thread: cpu = socket * cpus_per_socket + core * threads + thread.
 * This mirrors how the library's cpuset "cgroup" actuator pins tasks.
 */
#ifndef HERACLES_HW_CPUSET_H
#define HERACLES_HW_CPUSET_H

#include <array>
#include <cstdint>
#include <vector>

#include "hw/config.h"
#include "sim/log.h"

namespace heracles::hw {

/** Maximum logical CPUs supported by CpuSet. */
constexpr int kMaxCpus = 256;

/** A set of logical CPUs (like a cgroup cpuset mask). */
class CpuSet
{
  public:
    CpuSet() = default;

    /** Builds a set from explicit cpu ids. */
    static CpuSet Of(const std::vector<int>& cpus);

    /** Builds the contiguous range [first, first + count). */
    static CpuSet Range(int first, int count);

    void
    Add(int cpu)
    {
        HERACLES_CHECK(cpu >= 0 && cpu < kMaxCpus);
        words_[WordOf(cpu)] |= BitOf(cpu);
    }
    void
    Remove(int cpu)
    {
        HERACLES_CHECK(cpu >= 0 && cpu < kMaxCpus);
        words_[WordOf(cpu)] &= ~BitOf(cpu);
    }
    bool
    Contains(int cpu) const
    {
        return cpu >= 0 && cpu < kMaxCpus &&
               (words_[WordOf(cpu)] & BitOf(cpu)) != 0;
    }

    int
    Count() const
    {
        int n = 0;
        for (uint64_t w : words_) n += __builtin_popcountll(w);
        return n;
    }
    bool
    Empty() const
    {
        for (uint64_t w : words_) {
            if (w != 0) return false;
        }
        return true;
    }

    /**
     * Calls @p fn(cpu) for every cpu in the set, ascending: a word scan
     * that jumps straight to each set bit, with no allocation.
     */
    template <typename Fn>
    void
    ForEach(Fn&& fn) const
    {
        for (int w = 0; w < kWords; ++w) {
            for (uint64_t bits = words_[w]; bits != 0; bits &= bits - 1) {
                fn(w * 64 + __builtin_ctzll(bits));
            }
        }
    }

    /** All cpu ids in the set, ascending. */
    std::vector<int> Cpus() const;

    CpuSet
    Union(const CpuSet& o) const
    {
        CpuSet r;
        for (int w = 0; w < kWords; ++w) r.words_[w] = words_[w] | o.words_[w];
        return r;
    }
    CpuSet
    Intersect(const CpuSet& o) const
    {
        CpuSet r;
        for (int w = 0; w < kWords; ++w) r.words_[w] = words_[w] & o.words_[w];
        return r;
    }
    CpuSet
    Minus(const CpuSet& o) const
    {
        CpuSet r;
        for (int w = 0; w < kWords; ++w) {
            r.words_[w] = words_[w] & ~o.words_[w];
        }
        return r;
    }
    bool Intersects(const CpuSet& o) const { return !Intersect(o).Empty(); }
    bool operator==(const CpuSet& o) const { return words_ == o.words_; }

  private:
    static constexpr int kWords = kMaxCpus / 64;
    static int WordOf(int cpu) { return cpu / 64; }
    static uint64_t BitOf(int cpu) { return uint64_t{1} << (cpu % 64); }

    std::array<uint64_t, kWords> words_{};
};

/** Maps logical cpu ids to (socket, physical core, thread) and back. */
class Topology
{
  public:
    /** Precomputes one cpu mask per socket; the shape must fit CpuSet. */
    explicit Topology(const MachineConfig& cfg);

    int SocketOf(int cpu) const { return cpu / cfg_.CpusPerSocket(); }

    /** Physical core id (machine-global) of a logical cpu. */
    int
    CoreOf(int cpu) const
    {
        const int local = cpu % cfg_.CpusPerSocket();
        return SocketOf(cpu) * cfg_.cores_per_socket +
               local / cfg_.threads_per_core;
    }

    int ThreadOf(int cpu) const {
        return (cpu % cfg_.CpusPerSocket()) % cfg_.threads_per_core;
    }

    /** Logical cpu for (socket-global core id, hardware thread). */
    int
    CpuOf(int core, int thread) const
    {
        const int socket = core / cfg_.cores_per_socket;
        const int local_core = core % cfg_.cores_per_socket;
        return socket * cfg_.CpusPerSocket() +
               local_core * cfg_.threads_per_core + thread;
    }

    /** The other hardware thread on the same physical core (or -1). */
    int
    SiblingOf(int cpu) const
    {
        if (cfg_.threads_per_core < 2) return -1;
        const int t = ThreadOf(cpu);
        return CpuOf(CoreOf(cpu), t == 0 ? 1 : 0);
    }

    /** Both hyperthreads of @p n physical cores starting at @p first_core. */
    CpuSet PhysicalCores(int first_core, int n) const;

    /**
     * Both hyperthreads of @p n physical cores spread evenly across
     * sockets (socket 0 core 0, socket 1 core 0, socket 0 core 1, ...),
     * the way a NUMA-interleaved latency-critical service is pinned.
     */
    CpuSet SpreadCores(int n) const;

    /** Every logical cpu of the machine. */
    CpuSet AllCpus() const;

    /** Thread @p thread of each of @p n cores starting at @p first_core. */
    CpuSet ThreadOfCores(int first_core, int n, int thread) const;

    /** Number of distinct physical cores covered by @p set. */
    int PhysicalCoreCount(const CpuSet& set) const;

    /** Cpus of @p set that live on @p socket (empty for a socket outside
     *  the machine). */
    CpuSet
    OnSocket(const CpuSet& set, int socket) const
    {
        if (socket < 0 || socket >= cfg_.sockets) return CpuSet{};
        return set.Intersect(socket_masks_[socket]);
    }

    const MachineConfig& config() const { return cfg_; }

  private:
    MachineConfig cfg_;
    std::vector<CpuSet> socket_masks_;  ///< Every cpu of each socket.
};

}  // namespace heracles::hw

#endif  // HERACLES_HW_CPUSET_H
