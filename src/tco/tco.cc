#include "tco/tco.h"

#include <algorithm>

#include "sim/log.h"

namespace heracles::tco {

TcoModel::TcoModel(const TcoParams& params) : params_(params)
{
    HERACLES_CHECK(params_.peak_power_w >= params_.idle_power_w);
    HERACLES_CHECK(params_.server_amortization_months > 0);
}

double
TcoModel::ServerPowerW(double utilization) const
{
    utilization = std::clamp(utilization, 0.0, 1.0);
    return params_.idle_power_w +
           (params_.peak_power_w - params_.idle_power_w) * utilization;
}

double
TcoModel::EnergyCostMonth(double utilization) const
{
    const double kwh = ServerPowerW(utilization) * params_.pue *
                       params_.hours_per_month / 1000.0;
    return kwh * params_.electricity_usd_kwh;
}

double
TcoModel::MonthlyTcoPerServer(double utilization) const
{
    const double server_capex =
        params_.server_cost_usd / params_.server_amortization_months;
    return server_capex + params_.facility_fixed_usd_month +
           EnergyCostMonth(utilization);
}

double
TcoModel::ThroughputPerTco(double utilization) const
{
    return utilization / MonthlyTcoPerServer(utilization);
}

double
TcoModel::GainFromUtilization(double base_util, double new_util) const
{
    return ThroughputPerTco(new_util) / ThroughputPerTco(base_util) - 1.0;
}

double
TcoModel::EnergyProportionalityGain(double utilization) const
{
    // Ideal proportionality: power scales linearly through the origin.
    const double prop_power =
        params_.peak_power_w * std::clamp(utilization, 0.0, 1.0);
    const double prop_energy = prop_power * params_.pue *
                               params_.hours_per_month / 1000.0 *
                               params_.electricity_usd_kwh;
    const double server_capex =
        params_.server_cost_usd / params_.server_amortization_months;
    const double prop_tco =
        server_capex + params_.facility_fixed_usd_month + prop_energy;
    return MonthlyTcoPerServer(utilization) / prop_tco - 1.0;
}

}  // namespace heracles::tco
