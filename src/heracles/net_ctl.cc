#include "heracles/net_ctl.h"

#include <algorithm>

namespace heracles::ctl {

NetworkController::NetworkController(platform::Platform& platform,
                                     const HeraclesConfig& cfg)
    : platform_(platform), cfg_(cfg)
{
}

void
NetworkController::Tick()
{
    const double link = platform_.facts().link_rate_gbps;
    const double lc_bw = platform_.LcTxGbps();
    const double headroom = std::max(cfg_.net_headroom_link_frac * link,
                                     cfg_.net_headroom_lc_frac * lc_bw);
    const double be_bw = std::max(0.0, link - lc_bw - headroom);
    platform_.SetBeNetCeilGbps(be_bw);
}

}  // namespace heracles::ctl
