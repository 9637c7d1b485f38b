/**
 * @file
 * Network subcontroller (Algorithm 4).
 *
 * Prevents saturation of the egress link: measures the LC workload's
 * transmit bandwidth and sets the HTB ceil of the BE traffic class to
 *
 *   LinkRate - LCBandwidth - max(0.05 * LinkRate, 0.10 * LCBandwidth)
 *
 * reserving a small headroom for LC traffic spikes. The LC class is
 * never limited.
 */
#ifndef HERACLES_HERACLES_NET_CTL_H
#define HERACLES_HERACLES_NET_CTL_H

#include "platform/iface.h"

namespace heracles::ctl {

/** HTB-based egress bandwidth subcontroller. */
class NetworkController
{
  public:
    explicit NetworkController(platform::Platform& platform);

    /** One 1-second control step. */
    void Tick();

  private:
    platform::Platform& platform_;
};

}  // namespace heracles::ctl

#endif  // HERACLES_HERACLES_NET_CTL_H
