#include "scenarios/scenario.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <iterator>
#include <sstream>

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
    if (spec.expect_slo_violation) return true;
    return spec.expect_violation_at_scale > 0.0 &&
           time_scale >= spec.expect_violation_at_scale;
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

/**
 * Omit-when-zero groups. Keys postdating the first frozen baselines are
 * structurally zero outside their family, so MetricsToJson drops a group
 * whose every field is zero and MetricsFromJson reads a missing key as
 * that zero: older baselines stay byte-identical under --update-golden.
 */
enum OmitGroup {
    kAlways = 0,  ///< Always emitted; a missing key is a stale baseline.
    kScheduler,   ///< Dynamic-scheduler cluster runs.
    kWouldHave,   ///< The predict_only monitoring ablation.
    kChaos,       ///< The chaos family (invariant checker, faults).
    kNumGroups,
};

struct Field {
    const char* key;
    double ScenarioMetrics::*member;
    Tolerance tol;
    OmitGroup group;
};

using M = ScenarioMetrics;

/** Every metric in JSON (Kv) order; the one place a metric is named. */
constexpr Field kFields[] = {
    {"slo_attained", &M::slo_attained, kExact, kAlways},
    {"tail_frac_slo", &M::tail_frac_slo, kContinuous, kAlways},
    {"worst_tail_ms", &M::worst_tail_ms, kContinuous, kAlways},
    {"p95_ms", &M::p95_ms, kContinuous, kAlways},
    {"p99_ms", &M::p99_ms, kContinuous, kAlways},
    {"lc_throughput", &M::lc_throughput, kContinuous, kAlways},
    {"be_throughput", &M::be_throughput, kContinuous, kAlways},
    {"emu", &M::emu, kContinuous, kAlways},
    {"min_emu", &M::min_emu, kContinuous, kAlways},
    {"dram_frac", &M::dram_frac, kContinuous, kAlways},
    {"cpu_util", &M::cpu_util, kContinuous, kAlways},
    {"power_frac_tdp", &M::power_frac_tdp, kContinuous, kAlways},
    {"polls", &M::polls, kCounts, kAlways},
    {"be_enables", &M::be_enables, kCounts, kAlways},
    {"be_disables", &M::be_disables, kCounts, kAlways},
    {"core_shrinks", &M::core_shrinks, kCounts, kAlways},
    {"act_set_cores", &M::act_set_cores, kCounts, kAlways},
    {"act_set_ways", &M::act_set_ways, kCounts, kAlways},
    {"act_set_freq_cap", &M::act_set_freq_cap, kCounts, kAlways},
    {"act_set_net_ceil", &M::act_set_net_ceil, kCounts, kAlways},
    {"be_cores", &M::be_cores, kAlloc, kAlways},
    {"be_ways", &M::be_ways, kAlloc, kAlways},
    {"be_placements", &M::be_placements, kCounts, kScheduler},
    {"be_migrations", &M::be_migrations, kCounts, kScheduler},
    {"be_would_placements", &M::be_would_placements, kCounts, kWouldHave},
    {"be_would_migrations", &M::be_would_migrations, kCounts, kWouldHave},
    {"invariant_violations", &M::invariant_violations, kExact, kChaos},
    {"faulted_ops", &M::faulted_ops, kFaults, kChaos},
    {"root_target_ms", &M::root_target_ms, kContinuous, kAlways},
    {"leaf_target_ms", &M::leaf_target_ms, kContinuous, kAlways},
};

// A metric field added without a table row fails the build here.
static_assert(sizeof(ScenarioMetrics) ==
                  sizeof(std::string) + std::size(kFields) * sizeof(double),
              "every ScenarioMetrics field needs a kFields row");

/** Shortest decimal form that parses back to exactly the same double. */
std::string
FormatExact(double v)
{
    char buf[64];
    std::snprintf(buf, sizeof buf, "%.17g", v);
    // Prefer the compact form when it round-trips (keeps files legible).
    char compact[64];
    std::snprintf(compact, sizeof compact, "%.9g", v);
    if (std::strtod(compact, nullptr) == v) return compact;
    return buf;
}

/** Extracts the string value of `"key": "..."`; empty when missing. */
std::string
FindStringValue(const std::string& json, const std::string& key)
{
    const std::string needle = "\"" + key + "\"";
    size_t pos = json.find(needle);
    if (pos == std::string::npos) return "";
    pos = json.find(':', pos + needle.size());
    if (pos == std::string::npos) return "";
    pos = json.find('"', pos);
    if (pos == std::string::npos) return "";
    const size_t end = json.find('"', pos + 1);
    if (end == std::string::npos) return "";
    return json.substr(pos + 1, end - pos - 1);
}

/** Extracts the numeric value of `"key": <number>`; false when absent. */
bool
FindNumberValue(const std::string& json, const std::string& key,
                double* out)
{
    const std::string needle = "\"" + key + "\"";
    size_t pos = json.find(needle);
    if (pos == std::string::npos) return false;
    pos = json.find(':', pos + needle.size());
    if (pos == std::string::npos) return false;
    const char* start = json.c_str() + pos + 1;
    char* end = nullptr;
    const double v = std::strtod(start, &end);
    if (end == start) return false;
    *out = v;
    return true;
}

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

std::string
MetricsToJson(const ScenarioMetrics& m)
{
    bool live[kNumGroups] = {true};  // kAlways is always emitted.
    for (const Field& f : kFields) live[f.group] |= m.*f.member != 0.0;
    std::vector<const Field*> rows;
    for (const Field& f : kFields) {
        if (live[f.group]) rows.push_back(&f);
    }
    std::ostringstream os;
    os << "{\n";
    os << "  \"schema\": 1,\n";
    os << "  \"scenario\": \"" << m.scenario << "\",\n";
    os << "  \"metrics\": {\n";
    for (size_t i = 0; i < rows.size(); ++i) {
        os << "    \"" << rows[i]->key
           << "\": " << FormatExact(m.*rows[i]->member)
           << (i + 1 < rows.size() ? "," : "") << "\n";
    }
    os << "  }\n";
    os << "}\n";
    return os.str();
}

bool
MetricsFromJson(const std::string& json, ScenarioMetrics* out)
{
    ScenarioMetrics m;
    m.scenario = FindStringValue(json, "scenario");
    if (m.scenario.empty()) return false;
    // Metric keys are unique across the whole document, so a flat scan
    // is unambiguous for the subset MetricsToJson emits. A missing key
    // is the zero of its omit-when-zero group; anywhere else it marks a
    // stale baseline that must be regenerated, not silently zero-filled.
    for (const Field& f : kFields) {
        if (!FindNumberValue(json, f.key, &(m.*f.member)) &&
            f.group == kAlways) {
            return false;
        }
    }
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
