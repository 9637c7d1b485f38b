/**
 * @file
 * Profiles for the paper's antagonists (Section 3.2) and production
 * best-effort workloads (Section 5.1).
 */
#ifndef HERACLES_WORKLOADS_ANTAGONISTS_H
#define HERACLES_WORKLOADS_ANTAGONISTS_H

#include <optional>
#include <string>
#include <vector>

#include "hw/config.h"
#include "workloads/be_task.h"

namespace heracles::workloads {

/** Tight spinloop on HyperThread siblings: the *lower bound* of HT
 *  interference (registers only, no cache or memory traffic). */
BeProfile Spinloop();

/** Streams through an array sized to a quarter of the LLC. */
BeProfile StreamLlcSmall(const hw::MachineConfig& cfg);

/** Streams through an array sized to half of the LLC ("stream-LLC"). */
BeProfile StreamLlcMedium(const hw::MachineConfig& cfg);

/** Streams through an array sized to nearly the whole LLC. */
BeProfile StreamLlcBig(const hw::MachineConfig& cfg);

/** Streams through a far-larger-than-LLC array ("stream-DRAM"). */
BeProfile StreamDram();

/** CPU power virus: maximizes per-core activity and power draw. */
BeProfile CpuPowerVirus();

/** iperf: many low-bandwidth "mice" flows saturating the egress link. */
BeProfile Iperf();

/** Deep-learning batch job (compute heavy, cache and bandwidth hungry). */
BeProfile Brain();

/** Street View panorama stitching (DRAM-bandwidth bound). */
BeProfile Streetview();

/** The BE set used in the paper's Heracles evaluation (Section 5.1). */
std::vector<BeProfile> EvaluationBeSet(const hw::MachineConfig& cfg);

/** Profile by name ("brain", "stream-dram", ...); nullopt if unknown. */
std::optional<BeProfile> FindBeProfile(const hw::MachineConfig& cfg,
                                       const std::string& name);

/** FindBeProfile that aborts with a named diagnostic when unknown. */
BeProfile BeProfileByName(const hw::MachineConfig& cfg,
                          const std::string& name);

}  // namespace heracles::workloads

#endif  // HERACLES_WORKLOADS_ANTAGONISTS_H
