/**
 * @file
 * Unit tests for the interference-fingerprint subsystem
 * (cluster/fingerprint.h): determinism of the measured fingerprints,
 * sanity of the analytic pressure model, and the ranking behavior the
 * predictive scheduler relies on.
 *
 * The measured-fingerprint tests shrink the rig windows so the suite
 * stays fast; the cached FingerprintFor path uses the production
 * windows: once for a repeated lookup (second lookup must be
 * bit-identical and instant by construction — same cache entry), and
 * once for concurrent cold lookups of two distinct keys.
 */
#include <gtest/gtest.h>

#include <string>
#include <thread>
#include <vector>

#include "cluster/fingerprint.h"
#include "scenarios/scenario.h"
#include "workloads/antagonists.h"
#include "workloads/lc_configs.h"

namespace heracles::cluster {
namespace {

hw::MachineConfig
DefaultMachine()
{
    return scenarios::MachineVariant("default");
}

void
ExpectBitwiseEqual(const LcFingerprint& a, const LcFingerprint& b)
{
    EXPECT_EQ(a.baseline, b.baseline);
    for (int i = 0; i < kFingerprintAxes; ++i) {
        EXPECT_EQ(a.sensitivity[i], b.sensitivity[i]) << "axis " << i;
    }
}

TEST(Fingerprint, MeasurementIsDeterministic)
{
    const hw::MachineConfig m = DefaultMachine();
    const workloads::LcParams lc = workloads::Websearch();
    const LcFingerprint a =
        MeasureLcFingerprint(m, lc, sim::Seconds(5), sim::Seconds(10));
    const LcFingerprint b =
        MeasureLcFingerprint(m, lc, sim::Seconds(5), sim::Seconds(10));
    ExpectBitwiseEqual(a, b);
}

TEST(Fingerprint, MachineSeedDoesNotChangeTheFingerprint)
{
    // Clusters stamp per-leaf seeds into the machine config; the
    // fingerprint is a property of the *shape* and must ignore them,
    // or every leaf of a uniform cluster would re-measure the grid.
    hw::MachineConfig a = DefaultMachine();
    hw::MachineConfig b = DefaultMachine();
    a.seed = 1;
    b.seed = 99999;
    const workloads::LcParams lc = workloads::Websearch();
    const LcFingerprint fa =
        MeasureLcFingerprint(a, lc, sim::Seconds(5), sim::Seconds(10));
    const LcFingerprint fb =
        MeasureLcFingerprint(b, lc, sim::Seconds(5), sim::Seconds(10));
    ExpectBitwiseEqual(fa, fb);
}

TEST(Fingerprint, SensitivitiesAreNonNegativeAndSomeAreReal)
{
    const LcFingerprint fp = MeasureLcFingerprint(
        DefaultMachine(), workloads::Websearch(), sim::Seconds(5),
        sim::Seconds(10));
    EXPECT_GT(fp.baseline, 0.0);
    double total = 0.0;
    for (int i = 0; i < kFingerprintAxes; ++i) {
        EXPECT_GE(fp.sensitivity[i], 0.0) << "axis " << i;
        total += fp.sensitivity[i];
    }
    // A workload that reacts to *nothing* would make every prediction a
    // constant and the predictive policy an expensive round-robin.
    EXPECT_GT(total, 0.0);
}

TEST(Fingerprint, CachedLookupIsStableAndMatchesPerLeafSeeds)
{
    const hw::MachineConfig m = DefaultMachine();
    const LcFingerprint a = FingerprintFor(m, "websearch");
    hw::MachineConfig leaf = m;
    leaf.seed = m.seed * 131ull + 7;  // what a cluster leaf carries
    const LcFingerprint b = FingerprintFor(leaf, "websearch");
    ExpectBitwiseEqual(a, b);
}

TEST(Fingerprint, ParallelCellsMatchSerial)
{
    // The cells fan out flat over the pool and are gathered in index
    // order: the thread count must not change a single bit.
    const hw::MachineConfig m = DefaultMachine();
    const workloads::LcParams lc = workloads::MlCluster();
    const LcFingerprint serial = MeasureLcFingerprint(
        m, lc, sim::Seconds(5), sim::Seconds(10), /*jobs=*/1);
    const LcFingerprint parallel = MeasureLcFingerprint(
        m, lc, sim::Seconds(5), sim::Seconds(10), /*jobs=*/4);
    ExpectBitwiseEqual(serial, parallel);
}

TEST(Fingerprint, ConcurrentColdLookups)
{
    // Two keys no other test looks up, so both start cold; they share
    // the LC and differ only in machine shape, so a key that lost the
    // shape would hand one key's fingerprint to the other. Eight threads
    // race on them, each with its own leaf seed, while each cold
    // measurement fans its cells over the pool: every answer must equal
    // a serial measurement of its key.
    const workloads::LcParams lc = workloads::MlCluster();
    const std::vector<hw::MachineConfig> keys = {
        scenarios::MachineVariant("small"),
        scenarios::MachineVariant("big"),
    };
    constexpr int kThreads = 8;
    std::vector<LcFingerprint> got(kThreads);
    std::vector<std::thread> threads;
    for (int t = 0; t < kThreads; ++t) {
        threads.emplace_back([&keys, &lc, &got, t] {
            hw::MachineConfig leaf = keys[t % keys.size()];
            leaf.seed = 1000 + t;
            got[t] = FingerprintFor(leaf, lc.name);
        });
    }
    for (std::thread& th : threads) th.join();

    for (size_t k = 0; k < keys.size(); ++k) {
        const LcFingerprint serial = MeasureLcFingerprint(keys[k], lc);
        for (int t = static_cast<int>(k); t < kThreads;
             t += static_cast<int>(keys.size())) {
            SCOPED_TRACE("thread " + std::to_string(t));
            ExpectBitwiseEqual(got[t], serial);
        }
    }
}

TEST(Fingerprint, PressureAxesMatchTheJobsCharacter)
{
    const hw::MachineConfig m = DefaultMachine();
    const BePressure brain = PressureOf(m, workloads::Brain());
    const BePressure sview = PressureOf(m, workloads::Streetview());
    const BePressure iperf = PressureOf(m, workloads::Iperf());
    const BePressure pwr = PressureOf(m, workloads::CpuPowerVirus());

    const int llc = static_cast<int>(FingerprintAxis::kLlc);
    const int dram = static_cast<int>(FingerprintAxis::kDram);
    const int ht = static_cast<int>(FingerprintAxis::kHyperThread);
    const int power = static_cast<int>(FingerprintAxis::kPower);
    const int net = static_cast<int>(FingerprintAxis::kNetwork);

    // brain: cache-hungry compute; streetview: DRAM streamer.
    EXPECT_GT(brain.pressure[llc], sview.pressure[llc]);
    EXPECT_GT(sview.pressure[dram], brain.pressure[dram]);
    // iperf is the only network antagonist here.
    EXPECT_GT(iperf.pressure[net], 0.9);
    EXPECT_EQ(brain.pressure[net], 0.0);
    // The power virus defines the top of the power axis.
    EXPECT_GE(pwr.pressure[power], brain.pressure[power]);
    EXPECT_GT(brain.pressure[ht], 0.0);

    for (const BePressure& p : {brain, sview, iperf, pwr}) {
        for (int a = 0; a < kFingerprintAxes; ++a) {
            EXPECT_GE(p.pressure[a], 0.0);
            EXPECT_LE(p.pressure[a], 1.0);
        }
    }
}

TEST(Fingerprint, PredictionIsBaselinePlusDotProduct)
{
    LcFingerprint fp;
    fp.baseline = 0.5;
    fp.sensitivity = {0.1, 0.2, 0.0, 0.0, 0.4};
    BePressure be;
    be.pressure = {1.0, 0.5, 1.0, 1.0, 0.25};
    EXPECT_DOUBLE_EQ(PredictTailFrac(fp, be), 0.5 + 0.1 + 0.1 + 0.1);
}

}  // namespace
}  // namespace heracles::cluster
