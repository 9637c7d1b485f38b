#include "workloads/lc_configs.h"

#include <utility>

#include "sim/log.h"

namespace heracles::workloads {

LcParams
Websearch()
{
    LcParams p;
    p.name = "websearch";
    p.slo_percentile = 0.99;
    p.slo_latency = sim::Millis(12.5);
    p.peak_qps = 11500.0;
    p.mean_service = sim::Millis(4);
    p.service_sigma = 0.35;
    p.mem_frac = 0.25;

    p.cache.instr_mb = 5.0;
    p.cache.data_base_mb = 10.0;
    p.cache.data_slope_mb = 8.0;
    p.cache.footprint_load_exp = 1.0;
    p.cache.instr_miss_penalty = 2.8;
    p.cache.mem_miss_ceil = 3.0;

    p.peak_dram_frac = 0.40;
    p.bw_load_exp = 1.0;
    p.access_weight_scale = 150.0;

    p.resp_bytes = 8192.0;
    p.power_intensity = 1.0;
    p.ht_self_penalty = 1.4;
    p.ht_aggression = 1.3;
    p.batch = 1;
    return p;
}

LcParams
MlCluster()
{
    LcParams p;
    p.name = "ml_cluster";
    p.slo_percentile = 0.95;
    p.slo_latency = sim::Millis(11);
    p.peak_qps = 9600.0;
    p.mean_service = sim::Millis(5);
    p.service_sigma = 0.30;
    p.mem_frac = 0.35;

    p.cache.instr_mb = 2.0;
    p.cache.data_base_mb = 2.0;
    p.cache.data_slope_mb = 30.0;
    p.cache.footprint_load_exp = 1.3;
    p.cache.instr_miss_penalty = 1.5;
    p.cache.mem_miss_ceil = 2.8;

    p.peak_dram_frac = 0.60;
    p.bw_load_exp = 1.6;
    p.access_weight_scale = 120.0;

    p.resp_bytes = 4096.0;
    p.power_intensity = 0.8;
    p.ht_self_penalty = 1.35;
    p.ht_aggression = 1.25;
    p.batch = 1;
    return p;
}

LcParams
Memkeyval()
{
    LcParams p;
    p.name = "memkeyval";
    p.slo_percentile = 0.99;
    p.slo_latency = sim::Micros(800);
    p.peak_qps = 300000.0;
    p.mean_service = sim::Micros(90);
    p.service_sigma = 0.45;
    p.mem_frac = 0.15;

    p.cache.instr_mb = 3.0;
    p.cache.data_base_mb = 1.0;
    p.cache.data_slope_mb = 14.0;
    p.cache.footprint_load_exp = 1.0;
    p.cache.instr_miss_penalty = 2.2;
    p.cache.mem_miss_ceil = 2.5;

    p.peak_dram_frac = 0.20;
    p.bw_load_exp = 1.0;
    p.access_weight_scale = 110.0;

    // 300 kQPS x 4.1 KB x 8 bits ~ 9.9 Gb/s: network limited at peak.
    p.resp_bytes = 4115.0;
    p.power_intensity = 0.9;
    p.ht_self_penalty = 1.3;
    p.ht_aggression = 1.2;
    // One simulated arrival = a 3-key multi-get batch.
    p.batch = 3;
    return p;
}

std::vector<LcParams>
AllLcWorkloads()
{
    return {Websearch(), MlCluster(), Memkeyval()};
}

std::optional<LcParams>
FindLcWorkload(const std::string& name)
{
    for (LcParams& p : AllLcWorkloads()) {
        if (p.name == name) return std::move(p);
    }
    return std::nullopt;
}

LcParams
LcWorkloadByName(const std::string& name)
{
    std::optional<LcParams> p = FindLcWorkload(name);
    if (!p.has_value()) HERACLES_FATAL("unknown LC workload: " << name);
    return *std::move(p);
}

LcParams
WithWindows(LcParams p, sim::Duration report_window, sim::Duration ctl_window)
{
    p.report_window = report_window;
    p.ctl_window = ctl_window;
    return p;
}

}  // namespace heracles::workloads
