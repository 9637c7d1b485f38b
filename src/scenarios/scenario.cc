#include "scenarios/scenario.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <iterator>

#include "sim/json.h"
#include "sim/log.h"

namespace heracles::scenarios {

hw::MachineConfig
MachineVariant(const std::string& name)
{
    hw::MachineConfig m;  // "default": the paper's evaluation server.
    if (name == "default") return m;
    if (name == "small") {
        // Half-width edge box: fewer, slightly faster-clocked cores,
        // less cache and memory bandwidth behind them.
        m.cores_per_socket = 12;
        m.llc_mb_per_socket = 30.0;
        m.dram_gbps_per_socket = 40.0;
        m.tdp_w = 110.0;
        return m;
    }
    if (name == "big") {
        // High-memory wide server: more cores, cache and bandwidth.
        m.cores_per_socket = 24;
        m.llc_mb_per_socket = 60.0;
        m.dram_gbps_per_socket = 66.0;
        m.tdp_w = 180.0;
        return m;
    }
    HERACLES_FATAL("unknown machine variant: " << name
                                               << " (default|small|big)");
}

bool
ViolationExpected(const ScenarioSpec& spec, double time_scale)
{
    return time_scale >= spec.expect_violation_at_scale;
}

std::string
TopologyName(Topology t)
{
    switch (t) {
      case Topology::kSingleServer: return "single-server";
      case Topology::kCluster: return "cluster";
    }
    return "?";
}

std::string
TraceKindName(TraceKind k)
{
    switch (k) {
      case TraceKind::kConstant: return "constant";
      case TraceKind::kStep: return "step";
      case TraceKind::kDiurnal: return "diurnal";
      case TraceKind::kFlashCrowd: return "flash-crowd";
    }
    return "?";
}

namespace {

/** Per-metric comparison tolerance: pass when
 *  |got - golden| <= max(abs, rel * |golden|). */
struct Tolerance {
    double rel = 0.0;
    double abs = 0.0;
};

/** Verdicts (slo_attained, the invariant checker's count): exact. */
constexpr Tolerance kExact{0.0, 0.0};
/** Degraded-ops counts track controller poll counts. */
constexpr Tolerance kFaults{0.15, 5.0};
/** Activity counts: deterministic on one machine, but a couple of
 *  control decisions may flip across compilers/libms. */
constexpr Tolerance kCounts{0.15, 3.0};
/** Final allocations move in whole cores/ways. */
constexpr Tolerance kAlloc{0.0, 2.0};
/** Continuous measurements (latency, throughput, telemetry). */
constexpr Tolerance kContinuous{0.10, 0.02};

/** Metrics record layout version: 2 emits every kFields row. */
constexpr int kMetricsSchema = 2;

struct Field {
    const char* key;
    double ScenarioMetrics::*member;
    Tolerance tol;
};

using M = ScenarioMetrics;

/** Every metric in JSON (Kv) order; the one place a metric is named. */
constexpr Field kFields[] = {
    {"slo_attained", &M::slo_attained, kExact},
    {"tail_frac_slo", &M::tail_frac_slo, kContinuous},
    {"worst_tail_ms", &M::worst_tail_ms, kContinuous},
    {"p95_ms", &M::p95_ms, kContinuous},
    {"p99_ms", &M::p99_ms, kContinuous},
    {"lc_throughput", &M::lc_throughput, kContinuous},
    {"be_throughput", &M::be_throughput, kContinuous},
    {"emu", &M::emu, kContinuous},
    {"min_emu", &M::min_emu, kContinuous},
    {"dram_frac", &M::dram_frac, kContinuous},
    {"cpu_util", &M::cpu_util, kContinuous},
    {"power_frac_tdp", &M::power_frac_tdp, kContinuous},
    {"polls", &M::polls, kCounts},
    {"be_enables", &M::be_enables, kCounts},
    {"be_disables", &M::be_disables, kCounts},
    {"core_shrinks", &M::core_shrinks, kCounts},
    {"act_set_cores", &M::act_set_cores, kCounts},
    {"act_set_ways", &M::act_set_ways, kCounts},
    {"act_set_freq_cap", &M::act_set_freq_cap, kCounts},
    {"act_set_net_ceil", &M::act_set_net_ceil, kCounts},
    {"be_cores", &M::be_cores, kAlloc},
    {"be_ways", &M::be_ways, kAlloc},
    {"be_placements", &M::be_placements, kCounts},
    {"be_migrations", &M::be_migrations, kCounts},
    {"be_would_placements", &M::be_would_placements, kCounts},
    {"be_would_migrations", &M::be_would_migrations, kCounts},
    {"invariant_violations", &M::invariant_violations, kExact},
    {"faulted_ops", &M::faulted_ops, kFaults},
    {"root_target_ms", &M::root_target_ms, kContinuous},
    {"leaf_target_ms", &M::leaf_target_ms, kContinuous},
};

// A metric field added without a table row fails the build here.
static_assert(sizeof(ScenarioMetrics) ==
                  sizeof(std::string) + std::size(kFields) * sizeof(double),
              "every ScenarioMetrics field needs a kFields row");

}  // namespace

std::vector<std::pair<std::string, double>>
ScenarioMetrics::Kv() const
{
    std::vector<std::pair<std::string, double>> kv;
    kv.reserve(std::size(kFields));
    for (const Field& f : kFields) kv.emplace_back(f.key, this->*f.member);
    return kv;
}

bool
ScenarioMetrics::ExactlyEquals(const ScenarioMetrics& other) const
{
    return scenario == other.scenario && Kv() == other.Kv();
}

void
WriteMetricsMembers(sim::JsonWriter& w, const ScenarioMetrics& m)
{
    w.Key("schema").Int(kMetricsSchema);
    w.Key("scenario").String(m.scenario);
    w.Key("metrics").BeginObject();
    for (const Field& f : kFields) w.Key(f.key).Number(m.*f.member);
    w.EndObject();
}

std::string
MetricsToJson(const ScenarioMetrics& m)
{
    sim::JsonWriter w;
    w.BeginObject();
    WriteMetricsMembers(w, m);
    w.EndObject();
    return w.str();
}

bool
MetricsFromJson(const std::string& json, ScenarioMetrics* out)
{
    // The exact mirror of MetricsToJson: any other key, key order,
    // schema or trailing byte rejects the record.
    sim::JsonReader r(json);
    ScenarioMetrics m;
    r.BeginObject();
    r.Key("schema");
    const bool current = r.Number() == kMetricsSchema;
    r.Key("scenario");
    m.scenario = r.String();
    r.Key("metrics");
    r.BeginObject();
    for (const Field& f : kFields) {
        r.Key(f.key);
        m.*f.member = r.Number();
    }
    r.EndObject();
    r.EndObject();
    if (!r.Done() || !current) return false;
    *out = m;
    return true;
}

bool
WithinTolerance(const ScenarioMetrics& got, const ScenarioMetrics& golden,
                std::vector<std::string>* mismatches)
{
    bool ok = true;
    for (const Field& f : kFields) {
        const double have = got.*f.member;
        const double want = golden.*f.member;
        const double allowed =
            std::max(f.tol.abs, f.tol.rel * std::fabs(want));
        if (std::fabs(have - want) <= allowed) continue;
        ok = false;
        if (mismatches != nullptr) {
            char line[160];
            std::snprintf(line, sizeof line,
                          "%s.%s: got %.6g, golden %.6g (allowed +/-%.4g)",
                          got.scenario.c_str(), f.key, have, want,
                          allowed);
            mismatches->push_back(line);
        }
    }
    return ok;
}

}  // namespace heracles::scenarios
