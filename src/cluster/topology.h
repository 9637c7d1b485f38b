/**
 * @file
 * The root's query routing: replica groups plus hop levels.
 *
 * The paper's cluster fans every query out to all leaves and the root
 * reply is ready when the slowest leaf answers. A topology generalizes
 * that: the leaves are partitioned into replica groups, each holding
 * one copy of an index shard, and a query reads one member of every
 * group. Root latency is the maximum over the touched leaves plus one
 * request/response hop pair per hop level. The shape follows from two
 * ints:
 *  - rack_size > 0: hierarchical (leaf → rack → pod root). Contiguous
 *    racks of rack_size leaves (clamped to the leaf count; the last
 *    rack may be short), two hop levels.
 *  - else shards > 0: sharded. Leaf l is in group l % shards, one hop
 *    level; shards == leaves is full fan-out.
 *  - else: full fan-out (the paper). One single-member group per leaf.
 */
#ifndef HERACLES_CLUSTER_TOPOLOGY_H
#define HERACLES_CLUSTER_TOPOLOGY_H

#include <cstdint>
#include <vector>

namespace heracles::cluster {

/**
 * Maps a query to the set of leaves it touches: one member of each
 * replica group, chosen by a deterministic hash of (seed, tag, group).
 * No RNG stream is consumed, so a route is a pure function of the
 * construction parameters and the query tag and a cluster run stays
 * bit-reproducible from its seed regardless of event timing.
 */
class Topology
{
  public:
    /** Aborts when both @p shards and @p rack_size are set, or when
     *  @p shards exceeds @p leaves. */
    Topology(int leaves, int shards, int rack_size, uint64_t seed);

    /** Writes the touched leaf indices for query @p tag to @p out
     *  (cleared first), one per group in group order. */
    void TouchedLeaves(uint64_t tag, std::vector<int>* out) const;

    /** Aggregation levels between the root and a leaf. */
    int HopLevels() const { return hop_levels_; }

    /** "full-fanout", "sharded" or "hierarchical". */
    const char* Name() const { return name_; }

  private:
    /** Group g's members, ascending, are
     *  members_[starts_[g] .. starts_[g + 1]). */
    std::vector<int> members_;
    std::vector<int> starts_;
    uint64_t seed_;
    int hop_levels_;
    const char* name_;
};

}  // namespace heracles::cluster

#endif  // HERACLES_CLUSTER_TOPOLOGY_H
