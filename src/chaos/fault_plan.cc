#include "chaos/fault_plan.h"

#include <cctype>
#include <cmath>
#include <cstdlib>

#include "sim/log.h"

namespace heracles::chaos {

std::string
FaultKindName(FaultKind k)
{
    switch (k) {
      case FaultKind::kActuatorDrop: return "drop";
      case FaultKind::kFreeze: return "freeze";
      case FaultKind::kNoise: return "noise";
      case FaultKind::kBurst: return "burst";
      case FaultKind::kLeafCrash: return "crash";
      case FaultKind::kSlackFreeze: return "slackfreeze";
    }
    return "?";
}

std::string
ActuatorName(Actuator a)
{
    switch (a) {
      case Actuator::kCores: return "cores";
      case Actuator::kWays: return "ways";
      case Actuator::kFreqCap: return "freq";
      case Actuator::kNetCeil: return "net";
    }
    return "?";
}

std::string
MonitorName(Monitor m)
{
    switch (m) {
      case Monitor::kTail: return "tail";
      case Monitor::kFastTail: return "fast";
      case Monitor::kLoad: return "load";
      case Monitor::kDram: return "dram";
      case Monitor::kPower: return "power";
    }
    return "?";
}

namespace {

FaultSpec
Windowed(FaultKind kind, double begin, double end, int leaf)
{
    HERACLES_CHECK_MSG(begin >= 0.0 && end <= 1.0 && begin <= end,
                       "bad fault window [" << begin << ", " << end
                                            << ")");
    FaultSpec f;
    f.kind = kind;
    f.begin = begin;
    f.end = end;
    f.leaf = leaf;
    return f;
}

}  // namespace

FaultSpec
ActuatorDrop(Actuator a, double begin, double end, int leaf)
{
    FaultSpec f = Windowed(FaultKind::kActuatorDrop, begin, end, leaf);
    f.actuator = a;
    return f;
}

FaultSpec
Freeze(Monitor m, double begin, double end, int leaf)
{
    FaultSpec f = Windowed(FaultKind::kFreeze, begin, end, leaf);
    f.monitor = m;
    return f;
}

FaultSpec
Noise(Monitor m, double sigma, double begin, double end, int leaf)
{
    FaultSpec f = Windowed(FaultKind::kNoise, begin, end, leaf);
    f.monitor = m;
    f.magnitude = sigma;
    return f;
}

FaultSpec
Burst(double scale, double begin, double end, int leaf)
{
    FaultSpec f = Windowed(FaultKind::kBurst, begin, end, leaf);
    f.magnitude = scale;
    return f;
}

FaultSpec
LeafCrash(int leaf, double begin, double end)
{
    HERACLES_CHECK_MSG(leaf >= 0, "crash needs a leaf index");
    return Windowed(FaultKind::kLeafCrash, begin, end, leaf);
}

FaultSpec
SlackFreeze(int leaf, double begin, double end)
{
    HERACLES_CHECK_MSG(leaf >= 0, "slackfreeze needs a leaf index");
    return Windowed(FaultKind::kSlackFreeze, begin, end, leaf);
}

namespace {

bool
ParseMonitor(const std::string& name, Monitor* out)
{
    for (Monitor m : {Monitor::kTail, Monitor::kFastTail, Monitor::kLoad,
                      Monitor::kDram, Monitor::kPower}) {
        if (MonitorName(m) == name) {
            *out = m;
            return true;
        }
    }
    return false;
}

bool
ParseActuator(const std::string& name, Actuator* out)
{
    for (Actuator a : {Actuator::kCores, Actuator::kWays,
                       Actuator::kFreqCap, Actuator::kNetCeil}) {
        if (ActuatorName(a) == name) {
            *out = a;
            return true;
        }
    }
    return false;
}

/**
 * Parses a strictly-formed finite double; false on leading whitespace,
 * trailing garbage, nan or inf (a NaN window slips past every range
 * comparison, a NaN magnitude poisons the run).
 */
bool
ParseDouble(const std::string& text, double* out)
{
    if (text.empty() || std::isspace(static_cast<unsigned char>(text[0]))) {
        return false;
    }
    char* end = nullptr;
    *out = std::strtod(text.c_str(), &end);
    return end == text.c_str() + text.size() && std::isfinite(*out);
}

/** Parses one `kind:channel[*mag]@B-E` clause into @p out. */
bool
ParseClause(const std::string& clause, FaultSpec* out, std::string* error)
{
    const size_t at = clause.rfind('@');
    if (at == std::string::npos) {
        *error = "missing '@window' in '" + clause + "'";
        return false;
    }
    const std::string window = clause.substr(at + 1);
    const size_t dash = window.find('-');
    double begin = 0.0, end = 0.0;
    if (dash == std::string::npos ||
        !ParseDouble(window.substr(0, dash), &begin) ||
        !ParseDouble(window.substr(dash + 1), &end) || begin < 0.0 ||
        end > 1.0 || begin > end) {
        *error = "bad window '" + window +
                 "' in '" + clause + "' (want B-E fractions in [0,1])";
        return false;
    }

    std::string head = clause.substr(0, at);
    double magnitude = 0.0;
    bool has_magnitude = false;
    if (const size_t star = head.rfind('*'); star != std::string::npos) {
        if (!ParseDouble(head.substr(star + 1), &magnitude) ||
            magnitude <= 0.0) {
            *error = "bad magnitude in '" + clause + "'";
            return false;
        }
        has_magnitude = true;
        head = head.substr(0, star);
    }

    std::string kind = head, channel;
    if (const size_t colon = head.find(':'); colon != std::string::npos) {
        kind = head.substr(0, colon);
        channel = head.substr(colon + 1);
    }

    auto leaf_of = [&](int* leaf) {
        // Strict digits only: "leaf1.9" or "leaf1e1" must be rejected,
        // not silently truncated onto a different leaf.
        if (channel.rfind("leaf", 0) != 0 || channel.size() <= 4 ||
            channel.size() > 9) {
            return false;
        }
        int idx = 0;
        for (size_t i = 4; i < channel.size(); ++i) {
            if (channel[i] < '0' || channel[i] > '9') return false;
            idx = idx * 10 + (channel[i] - '0');
        }
        *leaf = idx;
        return true;
    };

    if (kind == "drop") {
        Actuator a;
        if (!ParseActuator(channel, &a)) {
            *error = "unknown actuator '" + channel +
                     "' (cores|ways|freq|net)";
            return false;
        }
        *out = ActuatorDrop(a, begin, end);
        return true;
    }
    if (kind == "freeze" || kind == "noise") {
        Monitor m;
        if (!ParseMonitor(channel, &m)) {
            *error = "unknown monitor '" + channel +
                     "' (tail|fast|load|dram|power)";
            return false;
        }
        if (kind == "noise") {
            if (!has_magnitude) {
                *error = "noise needs '*SIGMA' in '" + clause + "'";
                return false;
            }
            *out = Noise(m, magnitude, begin, end);
        } else {
            *out = Freeze(m, begin, end);
        }
        return true;
    }
    if (kind == "burst") {
        if (!has_magnitude) {
            *error = "burst needs '*SCALE' in '" + clause + "'";
            return false;
        }
        *out = Burst(magnitude, begin, end);
        return true;
    }
    if (kind == "crash" || kind == "slackfreeze") {
        int leaf = -1;
        if (!leaf_of(&leaf)) {
            *error = kind + " needs a 'leafN' target in '" + clause + "'";
            return false;
        }
        *out = kind == "crash" ? LeafCrash(leaf, begin, end)
                               : SlackFreeze(leaf, begin, end);
        return true;
    }
    *error = "unknown fault kind '" + kind +
             "' (drop|freeze|noise|burst|crash|slackfreeze)";
    return false;
}

}  // namespace

bool
ParseFaultPlan(const std::string& text, FaultPlan* out, std::string* error)
{
    FaultPlan plan;
    size_t pos = 0;
    while (pos <= text.size()) {
        size_t next = text.find(',', pos);
        if (next == std::string::npos) next = text.size();
        const std::string clause = text.substr(pos, next - pos);
        if (clause.empty()) {
            *error = "empty fault clause";
            return false;
        }
        FaultSpec f;
        if (!ParseClause(clause, &f, error)) return false;
        plan.faults.push_back(f);
        pos = next + 1;
        if (next == text.size()) break;
    }
    if (plan.empty()) {
        *error = "empty fault plan";
        return false;
    }
    *out = plan;
    return true;
}

TimedFault
ResolveWindow(const FaultSpec& spec, sim::Duration total)
{
    TimedFault t;
    t.kind = spec.kind;
    t.actuator = spec.actuator;
    t.monitor = spec.monitor;
    t.begin = static_cast<sim::SimTime>(
        spec.begin * static_cast<double>(total));
    t.end =
        static_cast<sim::SimTime>(spec.end * static_cast<double>(total));
    t.magnitude = spec.magnitude;
    t.leaf = spec.leaf;
    return t;
}

ResolvedFaultPlan
ResolvedFaultPlan::For(const FaultPlan& plan, sim::Duration total, int leaf)
{
    ResolvedFaultPlan r;
    r.seed = plan.seed;
    for (const FaultSpec& f : plan.faults) {
        if (f.kind == FaultKind::kLeafCrash ||
            f.kind == FaultKind::kSlackFreeze) {
            continue;  // resolved by the cluster experiment, not here
        }
        // Leaf-scoped platform faults bind to one leaf; unscoped ones
        // apply to the single server and to every cluster leaf alike.
        if (f.leaf >= 0 && f.leaf != leaf) continue;
        const TimedFault t = ResolveWindow(f, total);
        if (t.end > t.begin) r.faults.push_back(t);
    }
    return r;
}

bool
ResolvedFaultPlan::HasBurst() const
{
    for (const TimedFault& f : faults) {
        if (f.kind == FaultKind::kBurst) return true;
    }
    return false;
}

}  // namespace heracles::chaos
