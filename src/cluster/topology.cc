#include "cluster/topology.h"

#include <algorithm>

#include "sim/log.h"

namespace heracles::cluster {
namespace {

/** SplitMix64 finalizer: a cheap, well-mixed pure hash. */
uint64_t
Mix64(uint64_t x)
{
    x += 0x9e3779b97f4a7c15ull;
    x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
    x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
    return x ^ (x >> 31);
}

}  // namespace

Topology::Topology(int leaves, int shards, int rack_size, uint64_t seed)
    : seed_(seed),
      hop_levels_(rack_size > 0 ? 2 : 1),
      name_(rack_size > 0 ? "hierarchical"
            : shards > 0  ? "sharded"
                          : "full-fanout")
{
    HERACLES_CHECK_MSG(shards <= 0 || rack_size <= 0,
                       "topology takes shards or rack_size, not both: got "
                           << shards << " shards and racks of "
                           << rack_size);
    HERACLES_CHECK_MSG(shards <= leaves,
                       "topology needs shards <= leaves, got "
                           << shards << " shards over " << leaves
                           << " leaves");
    const int rack = std::min(rack_size, leaves);
    // Every shape meets its groups in order of their first member.
    std::vector<std::vector<int>> table;
    for (int l = 0; l < leaves; ++l) {
        const size_t g = static_cast<size_t>(
            rack_size > 0 ? l / rack : shards > 0 ? l % shards : l);
        if (g == table.size()) table.emplace_back();
        table[g].push_back(l);
    }
    for (const std::vector<int>& group : table) {
        starts_.push_back(static_cast<int>(members_.size()));
        members_.insert(members_.end(), group.begin(), group.end());
    }
    starts_.push_back(static_cast<int>(members_.size()));
}

void
Topology::TouchedLeaves(uint64_t tag, std::vector<int>* out) const
{
    out->clear();
    for (size_t g = 0; g + 1 < starts_.size(); ++g) {
        const int size = starts_[g + 1] - starts_[g];
        int pick = 0;
        // A single-member group needs no hash: h % 1 == 0.
        if (size > 1) {
            const uint64_t h = Mix64(seed_ ^ (tag * 0x2545f4914f6cdd1dull) ^
                                     static_cast<uint64_t>(g) * 0x9e3779b9ull);
            pick = static_cast<int>(h % static_cast<uint64_t>(size));
        }
        out->push_back(members_[static_cast<size_t>(starts_[g] + pick)]);
    }
}

}  // namespace heracles::cluster
