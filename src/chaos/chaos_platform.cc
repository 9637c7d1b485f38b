#include "chaos/chaos_platform.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <limits>
#include <sstream>

namespace heracles::chaos {

namespace {
constexpr double kUncaptured = std::numeric_limits<double>::quiet_NaN();
}

ChaosPlatform::ChaosPlatform(platform::Platform& inner,
                             ResolvedFaultPlan plan,
                             const ctl::HeraclesConfig& cfg)
    : inner_(inner),
      plan_(std::move(plan)),
      top_period_(cfg.top_period),
      noise_(plan_.seed ^ 0xFA517ull),
      frozen_(plan_.faults.size(), kUncaptured)
{
}

// --- Faults ------------------------------------------------------------------

int
ChaosPlatform::ActiveFault(FaultKind kind, int channel)
{
    const sim::SimTime now = inner_.queue().Now();
    for (size_t i = 0; i < plan_.faults.size(); ++i) {
        const TimedFault& f = plan_.faults[i];
        if (f.kind != kind || !f.ActiveAt(now)) continue;
        const int ch = kind == FaultKind::kActuatorDrop
                           ? static_cast<int>(f.actuator)
                           : static_cast<int>(f.monitor);
        if (ch == channel) return static_cast<int>(i);
    }
    return -1;
}

bool
ChaosPlatform::Dropped(Actuator a)
{
    if (ActiveFault(FaultKind::kActuatorDrop, static_cast<int>(a)) < 0) {
        return false;
    }
    ++faulted_ops_;
    return true;
}

template <typename ReadFn>
double
ChaosPlatform::Degrade(Monitor mon, ReadFn read)
{
    if (plan_.empty()) return read();
    const int channel = static_cast<int>(mon);
    if (const int i = ActiveFault(FaultKind::kFreeze, channel); i >= 0) {
        ++faulted_ops_;
        // Capture on the first in-window read; the plant is not read
        // again while frozen, so a wedged noisy counter (DRAM, power)
        // also stops drawing measurement noise — exactly what a stuck
        // IMC/RAPL read path does.
        if (std::isnan(frozen_[static_cast<size_t>(i)])) {
            frozen_[static_cast<size_t>(i)] = read();
        }
        return frozen_[static_cast<size_t>(i)];
    }
    const double raw = read();
    if (const int i = ActiveFault(FaultKind::kNoise, channel); i >= 0) {
        ++faulted_ops_;
        const double sigma =
            plan_.faults[static_cast<size_t>(i)].magnitude;
        return std::max(0.0, raw * (1.0 + noise_.Normal(0.0, sigma)));
    }
    return raw;
}

// --- Judge -------------------------------------------------------------------

void
ChaosPlatform::Record(const char* invariant, const std::string& detail)
{
    Violation v;
    v.when = inner_.queue().Now();
    v.invariant = invariant;
    v.detail = detail;
    if (violations_.size() < 8) {
        std::fprintf(stderr, "[invariant] %s violated at t=%.1fs: %s\n",
                     invariant, sim::ToSeconds(v.when), detail.c_str());
    }
    violations_.push_back(std::move(v));
}

bool
ChaosPlatform::Fresh(sim::SimTime read_at) const
{
    if (read_at < 0) return false;
    return inner_.queue().Now() - read_at < top_period_;
}

void
ChaosPlatform::CheckDeadline()
{
    if (disable_deadline_ < 0) return;
    if (inner_.queue().Now() <= disable_deadline_) return;
    if (commanded_cores_ > 0) {
        std::ostringstream os;
        os << "tail over SLO observed at t="
           << sim::ToSeconds(disable_deadline_ - top_period_) << "s but "
           << commanded_cores_
           << " BE cores still commanded one control interval later";
        Record("safeguard-disable", os.str());
    }
    // Disarm either way; a still-dangerous poll re-arms it.
    disable_deadline_ = -1;
}

// --- Monitors ----------------------------------------------------------------

sim::Duration
ChaosPlatform::LcTailLatency()
{
    CheckDeadline();
    const auto v = static_cast<sim::Duration>(Degrade(Monitor::kTail, [this] {
        return static_cast<double>(inner_.LcTailLatency());
    }));
    if (v > 0) {
        tail_read_at_ = inner_.queue().Now();
        tail_over_ = v > inner_.LcSlo();
        if (tail_over_ && commanded_cores_ > 0 && disable_deadline_ < 0) {
            disable_deadline_ = tail_read_at_ + top_period_;
        }
    }
    return v;
}

sim::Duration
ChaosPlatform::LcFastTailLatency()
{
    CheckDeadline();
    const auto v =
        static_cast<sim::Duration>(Degrade(Monitor::kFastTail, [this] {
            return static_cast<double>(inner_.LcFastTailLatency());
        }));
    if (v > 0) {
        fast_read_at_ = inner_.queue().Now();
        fast_over_ = v > inner_.LcSlo();
    }
    return v;
}

double
ChaosPlatform::LcLoad()
{
    return Degrade(Monitor::kLoad, [this] { return inner_.LcLoad(); });
}

double
ChaosPlatform::MeasuredDramGbps()
{
    return Degrade(Monitor::kDram,
                   [this] { return inner_.MeasuredDramGbps(); });
}

double
ChaosPlatform::SocketPowerW(int socket)
{
    CheckDeadline();
    const double v = Degrade(Monitor::kPower, [this, socket] {
        return inner_.SocketPowerW(socket);
    });
    const double tdp = facts().tdp_w;
    const double frac = tdp > 0.0 ? v / tdp : 0.0;
    const sim::SimTime now = inner_.queue().Now();
    // The power subcontroller reads every socket within one tick and
    // acts on the worst; track the same worst-of-this-timestamp view.
    if (now != power_read_at_) {
        power_read_at_ = now;
        power_frac_ = frac;
    } else {
        power_frac_ = std::max(power_frac_, frac);
    }
    return v;
}

// --- Actuators ---------------------------------------------------------------

void
ChaosPlatform::SetBeCores(int cores)
{
    CheckDeadline();
    const int total = facts().total_phys_cores;
    if (cores < 0 || cores > total - 1) {
        std::ostringstream os;
        os << "commanded " << cores << " BE cores of " << total
           << " total (LC must keep at least one)";
        Record("alloc-bounded", os.str());
    }
    if (cores > commanded_cores_) {
        const bool danger = (tail_over_ && Fresh(tail_read_at_)) ||
                            (fast_over_ && Fresh(fast_read_at_));
        if (danger) {
            std::ostringstream os;
            os << "BE cores grown " << commanded_cores_ << " -> " << cores
               << " while a fresh latency observation exceeds the SLO";
            Record("no-grow-under-danger", os.str());
        }
    }
    commanded_cores_ = cores;
    if (commanded_cores_ == 0) disable_deadline_ = -1;
    if (Dropped(Actuator::kCores)) return;
    inner_.SetBeCores(cores);
}

void
ChaosPlatform::SetBeWays(int ways)
{
    CheckDeadline();
    const int total = facts().total_llc_ways;
    if (ways < 0 || ways > total - 1) {
        std::ostringstream os;
        os << "commanded " << ways << " BE ways of " << total
           << " total (LC must keep at least one)";
        Record("alloc-bounded", os.str());
    }
    if (Dropped(Actuator::kWays)) return;
    inner_.SetBeWays(ways);
}

void
ChaosPlatform::SetBeFreqCapGhz(double ghz)
{
    CheckDeadline();
    const double min_ghz = facts().min_ghz;
    const double max_ghz = facts().max_ghz;
    if (ghz != 0.0 && (ghz < min_ghz - 1e-6 || ghz > max_ghz + 1e-6)) {
        std::ostringstream os;
        os << "commanded BE DVFS cap " << ghz << " GHz outside ["
           << min_ghz << ", " << max_ghz << "]";
        Record("power-cap-respected", os.str());
    }
    // 0 = uncapped, i.e. the highest possible effective cap.
    const double effective = ghz == 0.0 ? max_ghz : ghz;
    const double prev = commanded_cap_ == 0.0 ? max_ghz : commanded_cap_;
    const bool raise = effective > prev + 1e-9;
    if (raise && commanded_cores_ > 0 && Fresh(power_read_at_) &&
        power_frac_ > ctl::kTdpThreshold + 1e-9) {
        std::ostringstream os;
        os << "BE frequency cap raised " << prev << " -> " << effective
           << " GHz while observed package power is at "
           << power_frac_ * 100.0 << "% of TDP";
        Record("power-cap-respected", os.str());
    }
    commanded_cap_ = ghz;
    if (Dropped(Actuator::kFreqCap)) return;
    inner_.SetBeFreqCapGhz(ghz);
}

void
ChaosPlatform::SetBeNetCeilGbps(double gbps)
{
    CheckDeadline();
    const double link = facts().link_rate_gbps;
    if (gbps < -1e-9 || gbps > link + 1e-9) {
        std::ostringstream os;
        os << "commanded BE egress ceiling " << gbps << " Gb/s outside [0, "
           << link << "]";
        Record("net-ceil-bounded", os.str());
    }
    if (Dropped(Actuator::kNetCeil)) return;
    inner_.SetBeNetCeilGbps(gbps);
}

}  // namespace heracles::chaos
