#include "heracles/net_ctl.h"

#include <algorithm>

namespace heracles::ctl {
namespace {

/** Algorithm 4's headroom:
 *  max(link_frac * LinkRate, lc_frac * LCBandwidth). */
constexpr double kHeadroomLinkFrac = 0.05;
constexpr double kHeadroomLcFrac = 0.10;

}  // namespace

NetworkController::NetworkController(platform::Platform& platform)
    : platform_(platform)
{
}

void
NetworkController::Tick()
{
    const double link = platform_.facts().link_rate_gbps;
    const double lc_bw = platform_.LcTxGbps();
    const double headroom =
        std::max(kHeadroomLinkFrac * link, kHeadroomLcFrac * lc_bw);
    const double be_bw = std::max(0.0, link - lc_bw - headroom);
    platform_.SetBeNetCeilGbps(be_bw);
}

}  // namespace heracles::ctl
