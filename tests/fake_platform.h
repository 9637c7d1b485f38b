/**
 * @file
 * A scriptable Platform implementation for controller unit tests: every
 * monitor reading and fixed fact is a settable field, every actuator
 * call is recorded.
 */
#ifndef HERACLES_TESTS_FAKE_PLATFORM_H
#define HERACLES_TESTS_FAKE_PLATFORM_H

#include <algorithm>

#include "platform/iface.h"

namespace heracles::testing {

class FakePlatform : public platform::Platform
{
  public:
    // Fixed facts: a two-socket, 36-core, 20-way server.
    platform::Facts fixed = [] {
        platform::Facts f;
        f.sockets = 2;
        f.total_phys_cores = 36;
        f.total_llc_ways = 20;
        f.dram_peak_gbps = 100.0;
        f.tdp_w = 145.0;
        f.min_ghz = 1.2;
        f.max_ghz = 3.6;
        f.freq_step_ghz = 0.1;
        f.link_rate_gbps = 10.0;
        f.guaranteed_lc_freq_ghz = 2.5;
        return f;
    }();

    // Monitor values (fields are the test's script).
    sim::Duration tail = sim::Millis(6);
    sim::Duration fast_tail = sim::Millis(6);
    sim::Duration slo = sim::Millis(12);
    double load = 0.4;
    double lc_cpu_util = 0.4;
    double dram_gbps = 20.0;
    double be_dram = 5.0;
    double socket_power[2] = {80.0, 80.0};
    double lc_freq = 2.5;
    double lc_tx = 1.0;
    double be_rate = 10.0;
    bool has_be = true;

    // Actuator state.
    int be_cores = 0;
    int be_ways = 0;
    double be_freq_cap = 0.0;
    double be_net_ceil = -1.0;

    // Call counters.
    int set_cores_calls = 0;
    int set_ways_calls = 0;
    int set_cap_calls = 0;
    int set_ceil_calls = 0;

    // Optional hooks applied on actuation (simulate plant response).
    std::function<void(int)> on_set_cores;
    std::function<void(int)> on_set_ways;

    sim::EventQueue& queue() override { return queue_; }
    const platform::Facts& facts() override { return fixed; }

    sim::Duration LcTailLatency() override { return tail; }
    sim::Duration LcFastTailLatency() override { return fast_tail; }
    sim::Duration LcSlo() override { return slo; }
    double LcLoad() override { return load; }
    double LcCpuUtilization() override { return lc_cpu_util; }

    double MeasuredDramGbps() override { return dram_gbps; }
    double BeDramEstimateGbps() override { return be_dram; }

    double SocketPowerW(int s) override { return socket_power[s]; }
    double LcFreqGhz() override { return lc_freq; }
    double BeFreqCapGhz() override { return be_freq_cap; }
    void
    SetBeFreqCapGhz(double ghz) override
    {
        be_freq_cap = ghz;
        ++set_cap_calls;
    }

    double LcTxGbps() override { return lc_tx; }
    void
    SetBeNetCeilGbps(double gbps) override
    {
        be_net_ceil = gbps;
        ++set_ceil_calls;
    }

    int BeCores() override { return be_cores; }
    void
    SetBeCores(int cores) override
    {
        be_cores = std::clamp(cores, 0, fixed.total_phys_cores - 1);
        ++set_cores_calls;
        if (on_set_cores) on_set_cores(be_cores);
    }
    int BeWays() override { return be_ways; }
    void
    SetBeWays(int ways) override
    {
        be_ways = std::clamp(ways, 0, fixed.total_llc_ways - 4);
        ++set_ways_calls;
        if (on_set_ways) on_set_ways(be_ways);
    }

    bool HasBeJob() override { return has_be; }
    double BeRate() override { return be_rate; }

  private:
    sim::EventQueue queue_;
};

}  // namespace heracles::testing

#endif  // HERACLES_TESTS_FAKE_PLATFORM_H
