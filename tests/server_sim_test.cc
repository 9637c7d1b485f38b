/**
 * @file
 * Tests for the shared server assembly: component wiring under every
 * PolicyKind, and the shared-bandwidth-model path used by cluster
 * leaves.
 */
#include <gtest/gtest.h>

#include "exp/server_sim.h"
#include "workloads/antagonists.h"

namespace heracles::exp {
namespace {

ServerSpec
BaseSpec(PolicyKind policy)
{
    ServerSpec spec;
    spec.machine.seed = 1234;
    spec.lc = workloads::Websearch();
    spec.lc_seed = 99;
    spec.be = workloads::Brain();
    spec.policy = policy;
    return spec;
}

TEST(ServerSim, NoColocationOmitsBeAndController)
{
    sim::EventQueue queue;
    ServerSim server(BaseSpec(PolicyKind::kNoColocation), queue);
    EXPECT_EQ(server.be(), nullptr);
    EXPECT_EQ(server.controller(), nullptr);
    EXPECT_FALSE(server.colocated());
    // Initial placement: every core belongs to the LC workload.
    EXPECT_EQ(server.machine().CpusOf(&server.lc()).Count(),
              server.machine().config().LogicalCpus());
}

TEST(ServerSim, HeraclesWiresControllerAndBe)
{
    sim::EventQueue queue;
    ServerSim server(BaseSpec(PolicyKind::kHeracles), queue);
    ASSERT_NE(server.be(), nullptr);
    ASSERT_NE(server.controller(), nullptr);
    EXPECT_TRUE(server.colocated());
    // Initial placement gives the LC workload the whole machine; the
    // controller then grows BE from zero.
    EXPECT_EQ(server.platform().BeCores(), 0);
    // The controller's loops were scheduled by assembly.
    EXPECT_GT(queue.pending(), 0u);
    server.StopController();
    server.StopController();  // idempotent
}

TEST(ServerSim, OsOnlySharesEveryCpu)
{
    sim::EventQueue queue;
    ServerSim server(BaseSpec(PolicyKind::kOsOnly), queue);
    ASSERT_NE(server.be(), nullptr);
    EXPECT_EQ(server.controller(), nullptr);
    const hw::CpuSet& lc_cpus = server.machine().CpusOf(&server.lc());
    const hw::CpuSet& be_cpus = server.machine().CpusOf(server.be());
    EXPECT_EQ(lc_cpus.Count(), be_cpus.Count());
    EXPECT_EQ(lc_cpus.Intersect(be_cpus).Count(), lc_cpus.Count());
}

TEST(ServerSim, StaticPartitionSplitsCoresAndCache)
{
    sim::EventQueue queue;
    ServerSpec spec = BaseSpec(PolicyKind::kStaticPartition);
    ServerSim server(spec, queue);
    ASSERT_NE(server.be(), nullptr);
    EXPECT_EQ(server.controller(), nullptr);
    const auto& topo = server.machine().topology();
    const int lc_cores = topo.PhysicalCoreCount(
        server.machine().CpusOf(&server.lc()));
    const int be_cores = topo.PhysicalCoreCount(
        server.machine().CpusOf(server.be()));
    const int total = spec.machine.TotalCores();
    EXPECT_EQ(lc_cores, total / 2);
    EXPECT_EQ(be_cores, total - total / 2);
    // Disjoint halves.
    EXPECT_TRUE(server.machine()
                    .CpusOf(&server.lc())
                    .Intersect(server.machine().CpusOf(server.be()))
                    .Empty());
}

TEST(ServerSim, BeProfileIgnoredWithoutColocation)
{
    sim::EventQueue queue;
    ServerSpec spec = BaseSpec(PolicyKind::kNoColocation);
    ASSERT_TRUE(spec.be.has_value());
    ServerSim server(spec, queue);
    EXPECT_EQ(server.be(), nullptr);
}

}  // namespace
}  // namespace heracles::exp
