#include "workloads/antagonists.h"

#include <utility>

#include "sim/log.h"

namespace heracles::workloads {
namespace {

BeProfile
StreamOfSize(const std::string& name, double footprint_mb)
{
    BeProfile p;
    p.name = name;
    p.footprint_mb = footprint_mb;
    // Streaming pressure: weight grows with footprint and core count.
    p.weight_per_core = footprint_mb * 1.5;
    p.dram_per_core_gbps = 6.0;
    p.dram_compulsory_frac = 0.05;
    p.power_intensity = 0.9;
    p.ht_aggression = 1.35;
    p.cache_rate_floor = 0.4;  // it runs faster when its array fits
    p.freq_sensitivity = 0.3;  // mostly memory bound
    return p;
}

}  // namespace

BeProfile
Spinloop()
{
    BeProfile p;
    p.name = "spinloop";
    p.power_intensity = 0.6;
    // Competes only for instruction issue bandwidth: the smallest
    // possible HT antagonist.
    p.ht_aggression = 1.12;
    p.freq_sensitivity = 1.0;
    return p;
}

BeProfile
StreamLlcSmall(const hw::MachineConfig& cfg)
{
    return StreamOfSize("stream-llc-small", 0.25 * cfg.llc_mb_per_socket);
}

BeProfile
StreamLlcMedium(const hw::MachineConfig& cfg)
{
    return StreamOfSize("stream-llc", 0.5 * cfg.llc_mb_per_socket);
}

BeProfile
StreamLlcBig(const hw::MachineConfig& cfg)
{
    return StreamOfSize("stream-llc-big", 0.96 * cfg.llc_mb_per_socket);
}

BeProfile
StreamDram()
{
    BeProfile p = StreamOfSize("stream-dram", 1024.0);
    p.dram_per_core_gbps = 6.5;
    p.ht_aggression = 1.4;
    p.memory_bound = true;
    return p;
}

BeProfile
CpuPowerVirus()
{
    BeProfile p;
    p.name = "cpu_pwr";
    p.footprint_mb = 0.5;
    p.power_intensity = 2.1;
    p.ht_aggression = 1.5;
    p.freq_sensitivity = 1.0;
    return p;
}

BeProfile
Iperf()
{
    BeProfile p;
    p.name = "iperf";
    p.net_demand_gbps = 20.0;  // "as much as the link allows"
    p.power_intensity = 0.5;
    p.ht_aggression = 1.1;
    p.network_bound = true;
    return p;
}

BeProfile
Brain()
{
    BeProfile p;
    p.name = "brain";
    p.footprint_mb = 24.0;
    p.weight_per_core = 24.0 * 1.2;
    p.dram_per_core_gbps = 2.2;
    p.dram_compulsory_frac = 0.40;  // high bandwidth even when cached
    p.power_intensity = 1.25;       // very computationally intensive
    p.ht_aggression = 1.5;
    p.cache_rate_floor = 0.55;      // sensitive to LLC size
    p.freq_sensitivity = 1.0;
    return p;
}

BeProfile
Streetview()
{
    BeProfile p;
    p.name = "streetview";
    p.footprint_mb = 4.0;
    p.weight_per_core = 4.0;
    p.dram_per_core_gbps = 8.0;  // highly demanding on DRAM
    p.dram_compulsory_frac = 0.85;
    p.power_intensity = 0.85;
    p.ht_aggression = 1.35;
    p.memory_bound = true;
    return p;
}

std::vector<BeProfile>
EvaluationBeSet(const hw::MachineConfig& cfg)
{
    return {StreamLlcMedium(cfg), StreamDram(), CpuPowerVirus(),
            Brain(),              Streetview(), Iperf()};
}

std::optional<BeProfile>
FindBeProfile(const hw::MachineConfig& cfg, const std::string& name)
{
    if (name == "spinloop") return Spinloop();
    if (name == "stream-llc-small") return StreamLlcSmall(cfg);
    if (name == "stream-llc" || name == "stream-llc-medium") {
        return StreamLlcMedium(cfg);
    }
    if (name == "stream-llc-big") return StreamLlcBig(cfg);
    if (name == "stream-dram") return StreamDram();
    if (name == "cpu_pwr") return CpuPowerVirus();
    if (name == "iperf") return Iperf();
    if (name == "brain") return Brain();
    if (name == "streetview") return Streetview();
    return std::nullopt;
}

BeProfile
BeProfileByName(const hw::MachineConfig& cfg, const std::string& name)
{
    std::optional<BeProfile> p = FindBeProfile(cfg, name);
    if (!p.has_value()) HERACLES_FATAL("unknown BE profile: " << name);
    return *std::move(p);
}

}  // namespace heracles::workloads
