/**
 * @file
 * Total-cost-of-ownership model (Section 5.3).
 *
 * Reimplements the spirit of the Barroso et al. TCO calculator with the
 * paper's case-study parameters: $2,000 servers, PUE 2.0, 500 W peak
 * draw, $0.10/kWh, 10,000 servers. Monthly per-server TCO splits into a
 * utilization-independent part (server + facility capital amortization
 * and fixed opex) and energy, which grows with utilization. Raising
 * utilization via colocation therefore raises throughput/TCO almost
 * proportionally, paying only for the extra energy.
 */
#ifndef HERACLES_TCO_TCO_H
#define HERACLES_TCO_TCO_H

namespace heracles::tco {

/** Parameters of the datacenter cost model. */
struct TcoParams {
    int servers = 10000;
    double server_cost_usd = 2000.0;
    double server_amortization_months = 36.0;
    /** Facility capital + fixed opex per server-month (power delivery,
     *  cooling, space, staff), fitted to the paper's case study. */
    double facility_fixed_usd_month = 116.0;
    double peak_power_w = 500.0;
    double idle_power_w = 150.0;
    double pue = 2.0;
    double electricity_usd_kwh = 0.10;
    /** Hours in an average month. */
    double hours_per_month = 730.0;
};

/** Barroso-style TCO calculator. */
class TcoModel
{
  public:
    explicit TcoModel(const TcoParams& params = TcoParams());

    /** Average wall power of one server at @p utilization (W, pre-PUE). */
    double ServerPowerW(double utilization) const;

    /** Monthly energy cost for one server at @p utilization. */
    double EnergyCostMonth(double utilization) const;

    /** Monthly per-server TCO at @p utilization. */
    double MonthlyTcoPerServer(double utilization) const;

    /** Throughput per dollar, normalized units (throughput = util). */
    double ThroughputPerTco(double utilization) const;

    /**
     * Relative throughput/TCO gain from raising utilization (e.g.
     * Heracles raising a 20%-utilized cluster to 90% -> ~3x).
     */
    double GainFromUtilization(double base_util, double new_util) const;

    /**
     * Throughput/TCO gain from ideal energy proportionality alone at
     * @p utilization (no throughput change, lower energy) — the paper's
     * comparison point of roughly 3-7%.
     */
    double EnergyProportionalityGain(double utilization) const;

    const TcoParams& params() const { return params_; }

  private:
    TcoParams params_;
};

}  // namespace heracles::tco

#endif  // HERACLES_TCO_TCO_H
