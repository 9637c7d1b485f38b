#include "hw/cpuset.h"

#include <sstream>

namespace heracles::hw {

CpuSet
CpuSet::Of(const std::vector<int>& cpus)
{
    CpuSet s;
    for (int c : cpus) s.Add(c);
    return s;
}

CpuSet
CpuSet::Range(int first, int count)
{
    CpuSet s;
    for (int c = first; c < first + count; ++c) s.Add(c);
    return s;
}

std::vector<int>
CpuSet::Cpus() const
{
    std::vector<int> out;
    out.reserve(static_cast<size_t>(Count()));
    ForEach([&out](int cpu) { out.push_back(cpu); });
    return out;
}

std::string
CpuSet::ToString() const
{
    std::ostringstream oss;
    bool first = true;
    int c = 0;
    while (c < kMaxCpus) {
        if (!Contains(c)) {
            ++c;
            continue;
        }
        int end = c;
        while (end + 1 < kMaxCpus && Contains(end + 1)) ++end;
        if (!first) oss << ",";
        first = false;
        if (end > c) {
            oss << c << "-" << end;
        } else {
            oss << c;
        }
        c = end + 1;
    }
    return oss.str();
}

Topology::Topology(const MachineConfig& cfg) : cfg_(cfg)
{
    for (int s = 0; s < cfg_.sockets; ++s) {
        socket_masks_.push_back(
            CpuSet::Range(s * cfg_.CpusPerSocket(), cfg_.CpusPerSocket()));
    }
}

CpuSet
Topology::PhysicalCores(int first_core, int n) const
{
    CpuSet s;
    for (int core = first_core; core < first_core + n; ++core) {
        for (int t = 0; t < cfg_.threads_per_core; ++t) {
            s.Add(CpuOf(core, t));
        }
    }
    return s;
}

CpuSet
Topology::SpreadCores(int n) const
{
    CpuSet s;
    int added = 0;
    for (int local = 0; local < cfg_.cores_per_socket && added < n;
         ++local) {
        for (int socket = 0; socket < cfg_.sockets && added < n; ++socket) {
            const int core = socket * cfg_.cores_per_socket + local;
            for (int t = 0; t < cfg_.threads_per_core; ++t) {
                s.Add(CpuOf(core, t));
            }
            ++added;
        }
    }
    return s;
}

CpuSet
Topology::AllCpus() const
{
    return CpuSet::Range(0, cfg_.LogicalCpus());
}

CpuSet
Topology::ThreadOfCores(int first_core, int n, int thread) const
{
    CpuSet s;
    for (int core = first_core; core < first_core + n; ++core) {
        s.Add(CpuOf(core, thread));
    }
    return s;
}

int
Topology::PhysicalCoreCount(const CpuSet& set) const
{
    // Ascending cpu ids give non-decreasing core ids, so each distinct
    // core is one run of equal ids.
    int count = 0;
    int last = -1;
    set.ForEach([&](int cpu) {
        const int core = CoreOf(cpu);
        if (core != last) ++count;
        last = core;
    });
    return count;
}

}  // namespace heracles::hw
