/**
 * @file
 * Golden-metrics regression harness over the scenario catalog.
 *
 * Every registered scenario runs at reduced scale (RunOptions::Golden())
 * and its canonical metrics record is pinned against a checked-in
 * baseline in tests/golden/<name>.json with per-metric tolerances. The
 * harness also asserts the catalog's structural guarantees: at least 12
 * scenarios spanning the workload/trace/policy/topology matrix, records
 * bit-identical between --jobs 1 and --jobs 4 fan-out, and exact
 * reproducibility from a seed.
 *
 * After an *intentional* behavior change, regenerate the baselines:
 *
 *   build/golden_test --update-golden
 *
 * and commit the tests/golden/ diff alongside the change. On an
 * unchanged tree, regeneration must produce zero diff.
 */
#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <map>
#include <set>
#include <sstream>

#include "scenarios/registry.h"
#include "scenarios/runner.h"

namespace heracles::scenarios {
namespace {

bool g_update_golden = false;

std::string
GoldenPath(const std::string& scenario)
{
    return std::string(HERACLES_GOLDEN_DIR) + "/" + scenario + ".json";
}

/**
 * The catalog's reduced-scale results for a given fan-out width, run
 * once per width and cached: the baseline comparison and the
 * jobs-invariance check share the same records. Target-defining runs are
 * memoized per process (ClusterExperiment::MemoizedTargetRun), so the
 * second width reuses the first width's; TargetMemo.* in
 * epoch_determinism_test compares memoized and fresh target runs.
 */
const std::vector<ScenarioMetrics>&
ResultsFor(int jobs)
{
    static std::map<int, std::vector<ScenarioMetrics>> cache;
    auto it = cache.find(jobs);
    if (it == cache.end()) {
        it = cache
                 .emplace(jobs, RunScenarios(AllScenarios(),
                                             RunOptions::Golden(), jobs))
                 .first;
    }
    return it->second;
}

TEST(Catalog, SpansTheEvaluationMatrix)
{
    const auto& all = AllScenarios();
    EXPECT_GE(all.size(), 12u);

    std::set<std::string> names, lcs, policies;
    std::set<Topology> topologies;
    std::set<TraceKind> traces;
    for (const auto& s : all) {
        EXPECT_TRUE(names.insert(s.name).second)
            << "duplicate scenario name: " << s.name;
        EXPECT_FALSE(s.description.empty()) << s.name;
        lcs.insert(s.lc);
        policies.insert(exp::PolicyName(s.policy));
        topologies.insert(s.topology);
        traces.insert(s.trace);
    }
    EXPECT_EQ(lcs.size(), 3u) << "catalog must cover all LC workloads";
    EXPECT_GE(policies.size(), 3u);
    EXPECT_EQ(topologies.size(), 2u)
        << "catalog must cover single-server and cluster";
    EXPECT_EQ(traces.size(), 4u)
        << "catalog must cover constant, step, diurnal and flash-crowd";

    // The chaos family: enough scenarios to cover actuator, telemetry,
    // interference and cluster-layer degradation, all carrying a plan.
    size_t chaos_scenarios = 0;
    for (const auto& s : all) {
        if (s.name.rfind("chaos_", 0) != 0) continue;
        ++chaos_scenarios;
        EXPECT_FALSE(s.faults.empty())
            << s.name << " must carry a fault plan";
    }
    EXPECT_GE(chaos_scenarios, 6u);
}

TEST(Catalog, ControllerIsSafeOnEveryScenario)
{
    // The invariant harness rides along on every Heracles run (clean
    // and chaotic alike); any recorded violation is a controller-safety
    // regression regardless of how the other metrics look.
    const auto& results = ResultsFor(4);
    for (const auto& m : results) {
        EXPECT_EQ(m.invariant_violations, 0.0) << m.scenario;
    }
}

TEST(Catalog, LookupByName)
{
    const ScenarioSpec* s = FindScenario("websearch_brain_heracles");
    ASSERT_NE(s, nullptr);
    EXPECT_EQ(s->lc, "websearch");
    EXPECT_EQ(FindScenario("no_such_scenario"), nullptr);
}

TEST(Golden, MatchesBaselines)
{
    const auto& results = ResultsFor(4);
    ASSERT_EQ(results.size(), AllScenarios().size());

    if (g_update_golden) {
        for (const auto& m : results) {
            std::ofstream out(GoldenPath(m.scenario));
            ASSERT_TRUE(out.good())
                << "cannot write " << GoldenPath(m.scenario);
            out << MetricsToJson(m);
            out.close();
            ASSERT_TRUE(out.good())
                << "cannot write " << GoldenPath(m.scenario);
        }
        std::printf("[golden] wrote %zu baselines to %s\n", results.size(),
                    HERACLES_GOLDEN_DIR);
        return;
    }

    for (const auto& m : results) {
        std::ifstream in(GoldenPath(m.scenario));
        ASSERT_TRUE(in.good())
            << "missing baseline " << GoldenPath(m.scenario)
            << " — run `golden_test --update-golden` and commit it";
        std::stringstream buf;
        buf << in.rdbuf();

        ScenarioMetrics golden;
        ASSERT_TRUE(MetricsFromJson(buf.str(), &golden))
            << "stale or malformed baseline " << GoldenPath(m.scenario)
            << " — regenerate with `golden_test --update-golden`";
        EXPECT_EQ(golden.scenario, m.scenario);

        std::vector<std::string> mismatches;
        if (!WithinTolerance(m, golden, &mismatches)) {
            for (const auto& line : mismatches) {
                ADD_FAILURE() << line;
            }
        }
    }
}

TEST(Golden, ParallelFanOutIsBitIdentical)
{
    const auto& serial = ResultsFor(1);
    const auto& parallel = ResultsFor(4);
    ASSERT_EQ(serial.size(), parallel.size());
    for (size_t i = 0; i < serial.size(); ++i) {
        EXPECT_TRUE(serial[i].ExactlyEquals(parallel[i]))
            << "jobs=4 diverged from jobs=1 for " << serial[i].scenario;
    }
}

TEST(Golden, SameSeedSameMetrics)
{
    // Any run is exactly reproducible from its command line: the same
    // (scenario, scale, seed) triple yields the same record bit for bit,
    // and a different seed yields a genuinely different simulation.
    const ScenarioSpec* spec = FindScenario("websearch_brain_heracles");
    ASSERT_NE(spec, nullptr);
    RunOptions opts = RunOptions::Golden();
    opts.seed = 1234;
    const ScenarioMetrics a = RunScenario(*spec, opts);
    const ScenarioMetrics b = RunScenario(*spec, opts);
    EXPECT_TRUE(a.ExactlyEquals(b));

    opts.seed = 4321;
    const ScenarioMetrics c = RunScenario(*spec, opts);
    EXPECT_FALSE(a.ExactlyEquals(c));
}

TEST(Golden, JsonRoundTripsExactly)
{
    const auto& results = ResultsFor(4);
    ASSERT_FALSE(results.empty());
    for (const auto& m : results) {
        ScenarioMetrics back;
        ASSERT_TRUE(MetricsFromJson(MetricsToJson(m), &back)) << m.scenario;
        EXPECT_TRUE(back.ExactlyEquals(m)) << m.scenario;
    }
}

TEST(Golden, BaselinesAreByteCanonical)
{
    // Every checked-in baseline is exactly what the writer emits for the
    // record it parses to: key order and number formatting are pinned
    // without running a simulation.
    size_t files = 0;
    for (const auto& entry :
         std::filesystem::directory_iterator(HERACLES_GOLDEN_DIR)) {
        if (entry.path().extension() != ".json") continue;
        ++files;
        std::ifstream in(entry.path());
        std::stringstream buf;
        buf << in.rdbuf();
        const std::string bytes = buf.str();
        ScenarioMetrics m;
        ASSERT_TRUE(MetricsFromJson(bytes, &m)) << entry.path();
        EXPECT_EQ(MetricsToJson(m), bytes) << entry.path();
    }
    EXPECT_EQ(files, AllScenarios().size());
}

using Field = double ScenarioMetrics::*;

/**
 * Perturbs @p field of a record (every other field equal) to just inside
 * and just outside @p allowed around @p base, on both sides.
 */
void
ExpectBoundary(Field field, double base, double allowed)
{
    ScenarioMetrics golden;
    golden.scenario = "boundary";
    golden.*field = base;
    const double outside = allowed > 0.0 ? 1.01 * allowed : 1e-6;
    for (const double sign : {1.0, -1.0}) {
        ScenarioMetrics got = golden;
        got.*field = base + sign * 0.99 * allowed;
        EXPECT_TRUE(WithinTolerance(got, golden))
            << "base " << base << " allowed " << allowed;
        got.*field = base + sign * outside;
        std::vector<std::string> mismatches;
        EXPECT_FALSE(WithinTolerance(got, golden, &mismatches))
            << "base " << base << " allowed " << allowed;
        EXPECT_EQ(mismatches.size(), 1u);
    }
}

TEST(Tolerance, EachClassHoldsAtItsBoundary)
{
    using M = ScenarioMetrics;
    // Verdicts: exact.
    for (Field f : {&M::slo_attained, &M::invariant_violations}) {
        ExpectBoundary(f, 1.0, 0.0);
    }
    // Degraded ops: +/- max(5, 15%).
    ExpectBoundary(&M::faulted_ops, 10.0, 5.0);
    ExpectBoundary(&M::faulted_ops, 100.0, 15.0);
    // Activity counts: +/- max(3, 15%).
    for (Field f : {&M::polls, &M::be_enables, &M::be_disables,
                    &M::core_shrinks, &M::act_set_cores, &M::act_set_ways,
                    &M::act_set_freq_cap, &M::act_set_net_ceil,
                    &M::be_placements, &M::be_migrations,
                    &M::be_would_placements, &M::be_would_migrations}) {
        ExpectBoundary(f, 10.0, 3.0);
        ExpectBoundary(f, 100.0, 15.0);
    }
    // Final allocations: +/- 2 absolute, however large.
    for (Field f : {&M::be_cores, &M::be_ways}) {
        ExpectBoundary(f, 4.0, 2.0);
        ExpectBoundary(f, 100.0, 2.0);
    }
    // Everything else is continuous: +/- max(0.02, 10%).
    for (Field f : {&M::tail_frac_slo, &M::worst_tail_ms, &M::p95_ms,
                    &M::p99_ms, &M::lc_throughput, &M::be_throughput,
                    &M::emu, &M::min_emu, &M::dram_frac, &M::cpu_util,
                    &M::power_frac_tdp, &M::root_target_ms,
                    &M::leaf_target_ms}) {
        ExpectBoundary(f, 0.1, 0.02);
        ExpectBoundary(f, 10.0, 1.0);
    }
}

}  // namespace
}  // namespace heracles::scenarios

int
main(int argc, char** argv)
{
    for (int i = 1; i < argc; ++i) {
        if (std::string(argv[i]) == "--update-golden") {
            heracles::scenarios::g_update_golden = true;
        }
    }
    ::testing::InitGoogleTest(&argc, argv);
    return RUN_ALL_TESTS();
}
