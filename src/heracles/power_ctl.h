/**
 * @file
 * CPU power subcontroller (Algorithm 3).
 *
 * Ensures there is enough power headroom for the LC workload to run at
 * its guaranteed frequency (the frequency it sustains running alone at
 * full load). When the package is near TDP *and* the LC cores are below
 * guaranteed frequency, the subcontroller lowers the per-core DVFS cap of
 * BE cores, shifting power budget to the LC cores; with headroom and a
 * healthy LC frequency it raises the BE cap to maximize BE performance.
 * Both conditions must hold to avoid confusion when LC cores enter
 * active-idle states (which also lowers frequency readings).
 */
#ifndef HERACLES_HERACLES_POWER_CTL_H
#define HERACLES_HERACLES_POWER_CTL_H

#include "platform/iface.h"

namespace heracles::ctl {

/** DVFS-based power-shifting subcontroller. */
class PowerController
{
  public:
    explicit PowerController(platform::Platform& platform);

    /** One 2-second control step. */
    void Tick();

  private:
    platform::Platform& platform_;
};

}  // namespace heracles::ctl

#endif  // HERACLES_HERACLES_POWER_CTL_H
