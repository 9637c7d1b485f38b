/**
 * @file
 * Pluggable root fan-out topologies.
 *
 * The paper's cluster fans every query out to all leaves and the root
 * reply is ready when the slowest leaf answers. A topology generalizes
 * that: it decides, per query, which leaves are touched; root latency is
 * the maximum over the touched leaves plus the network hops. Full
 * fan-out reproduces the paper bit for bit; the sharded topology models
 * a replicated, partitioned index where each query reads one replica of
 * every shard, so a single slow leaf only hurts the queries routed to
 * it.
 */
#ifndef HERACLES_CLUSTER_TOPOLOGY_H
#define HERACLES_CLUSTER_TOPOLOGY_H

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

namespace heracles::cluster {

/** How the root spreads one query over the leaves. */
enum class TopologyKind {
    kFullFanout,    ///< Every query touches every leaf (the paper).
    kSharded,       ///< One replica per shard; partial fan-out.
    kHierarchical,  ///< leaf → rack → pod root; one leaf per rack.
};

/** Human-readable topology name ("full-fanout" / "sharded" / ...). */
std::string TopologyKindName(TopologyKind kind);

/**
 * Maps a query to the set of leaves it touches. Implementations must be
 * pure functions of (construction parameters, query tag) so a cluster
 * run stays bit-reproducible from its seed regardless of event timing.
 */
class Topology
{
  public:
    virtual ~Topology() = default;

    /** Appends the touched leaf indices for query @p tag to @p out
     *  (cleared first). Never empty. */
    virtual void TouchedLeaves(uint64_t tag,
                               std::vector<int>* out) const = 0;

    /** Leaves touched per query (constant per topology). */
    virtual int FanOut() const = 0;

    /** Aggregation levels between the root and a leaf: each level adds
     *  one request/response hop pair to root latency. Flat topologies
     *  have one level; the hierarchical tree has two (root → rack,
     *  rack → leaf). */
    virtual int HopLevels() const { return 1; }
};

/** The paper's topology: every query to every leaf. */
class FullFanoutTopology : public Topology
{
  public:
    explicit FullFanoutTopology(int leaves) : leaves_(leaves) {}

    void TouchedLeaves(uint64_t tag, std::vector<int>* out) const override;
    int FanOut() const override { return leaves_; }

  private:
    int leaves_;
};

/**
 * Partitioned/replicated topology: leaf l serves shard (l % shards), so
 * each shard has floor-or-ceil(leaves / shards) replicas. A query reads
 * one replica of every shard, chosen by a deterministic hash of
 * (seed, tag, shard) — no RNG stream is consumed, so adding sharding
 * never perturbs the arrival process. shards == leaves degenerates to
 * full fan-out.
 */
class ShardedTopology : public Topology
{
  public:
    /** @pre 1 <= shards <= leaves. */
    ShardedTopology(int leaves, int shards, uint64_t seed);

    void TouchedLeaves(uint64_t tag, std::vector<int>* out) const override;
    int FanOut() const override { return shards_; }

    /** Replica count of @p shard (leaf count is not always divisible). */
    int Replicas(int shard) const;

  private:
    int leaves_;
    int shards_;
    uint64_t seed_;
};

/**
 * Two-level fan-out tree: leaves are grouped into racks of @p rack_size
 * (the last rack may be short) and each rack holds one shard of the
 * index, replicated across its members. The pod root fans a query to
 * every rack; each rack root picks one member replica by a deterministic
 * hash of (seed, tag, rack) — no RNG stream is consumed. Fan-out is the
 * rack count, so the root's connection degree scales with racks, not
 * leaves, and latency pays two hop levels (root → rack → leaf).
 */
class HierarchicalTopology : public Topology
{
  public:
    /** @pre leaves >= 1, rack_size >= 1. */
    HierarchicalTopology(int leaves, int rack_size, uint64_t seed);

    void TouchedLeaves(uint64_t tag, std::vector<int>* out) const override;
    int FanOut() const override { return racks_; }
    int HopLevels() const override { return 2; }

    /** Member count of @p rack (the last rack may be short). */
    int RackMembers(int rack) const;

  private:
    int leaves_;
    int rack_size_;
    int racks_;
    uint64_t seed_;
};

/**
 * Builds the topology for a cluster of @p leaves. kSharded uses
 * @p shards (<= 0 picks one shard per leaf, i.e. full fan-out
 * degenerate); kHierarchical groups leaves into racks of @p rack_size
 * (clamped to the leaf count, so a small golden-scale cluster collapses
 * to one rack). Aborts when shards exceeds the leaf count.
 */
std::unique_ptr<Topology> MakeTopology(TopologyKind kind, int leaves,
                                       int shards, int rack_size,
                                       uint64_t seed);

}  // namespace heracles::cluster

#endif  // HERACLES_CLUSTER_TOPOLOGY_H
