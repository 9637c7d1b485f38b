#include "chaos/faulty_platform.h"

#include <algorithm>
#include <cmath>
#include <limits>

namespace heracles::chaos {

namespace {
constexpr double kUncaptured = std::numeric_limits<double>::quiet_NaN();
}

FaultyPlatform::FaultyPlatform(platform::Platform& inner,
                               ResolvedFaultPlan plan)
    : inner_(inner),
      plan_(std::move(plan)),
      noise_(plan_.seed ^ 0xFA517ull),
      frozen_(plan_.faults.size(), kUncaptured)
{
}

int
FaultyPlatform::ActiveFault(FaultKind kind, int channel)
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
FaultyPlatform::Dropped(Actuator a)
{
    if (ActiveFault(FaultKind::kActuatorDrop, static_cast<int>(a)) < 0) {
        return false;
    }
    ++faulted_ops_;
    return true;
}

template <typename ReadFn>
double
FaultyPlatform::Degrade(Monitor mon, ReadFn read)
{
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

sim::Duration
FaultyPlatform::LcTailLatency()
{
    if (plan_.empty()) return inner_.LcTailLatency();
    return static_cast<sim::Duration>(Degrade(Monitor::kTail, [this] {
        return static_cast<double>(inner_.LcTailLatency());
    }));
}

sim::Duration
FaultyPlatform::LcFastTailLatency()
{
    if (plan_.empty()) return inner_.LcFastTailLatency();
    return static_cast<sim::Duration>(
        Degrade(Monitor::kFastTail, [this] {
            return static_cast<double>(inner_.LcFastTailLatency());
        }));
}

double
FaultyPlatform::LcLoad()
{
    if (plan_.empty()) return inner_.LcLoad();
    return Degrade(Monitor::kLoad, [this] { return inner_.LcLoad(); });
}

double
FaultyPlatform::MeasuredDramGbps()
{
    if (plan_.empty()) return inner_.MeasuredDramGbps();
    return Degrade(Monitor::kDram,
                   [this] { return inner_.MeasuredDramGbps(); });
}

double
FaultyPlatform::SocketPowerW(int socket)
{
    if (plan_.empty()) return inner_.SocketPowerW(socket);
    return Degrade(Monitor::kPower, [this, socket] {
        return inner_.SocketPowerW(socket);
    });
}

void
FaultyPlatform::SetBeCores(int cores)
{
    commanded_cores_ = cores;
    if (Dropped(Actuator::kCores)) return;
    inner_.SetBeCores(cores);
}

void
FaultyPlatform::SetBeWays(int ways)
{
    if (Dropped(Actuator::kWays)) return;
    inner_.SetBeWays(ways);
}

void
FaultyPlatform::SetBeFreqCapGhz(double ghz)
{
    if (Dropped(Actuator::kFreqCap)) return;
    inner_.SetBeFreqCapGhz(ghz);
}

void
FaultyPlatform::SetBeNetCeilGbps(double gbps)
{
    if (Dropped(Actuator::kNetCeil)) return;
    inner_.SetBeNetCeilGbps(gbps);
}

}  // namespace heracles::chaos
