//===- perfbench/src/Probes.h - Per-layer probes of the run path --------===//
//
// Part of the PARMONC reproduction library's end-to-end benchmark.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Each probe times one public entry point of a run-path module (rng,
/// stats, mpsim, core, support, ckpt, obs) at the workload's own shape,
/// backend, transport, processor count and WorkDir filesystem, and
/// reports the median of several repetitions. Probes run only in traced
/// invocations, after the traced run has finished.
///
//===----------------------------------------------------------------------===//

#ifndef PERFBENCH_PROBES_H
#define PERFBENCH_PROBES_H

#include "Json.h"
#include "Workloads.h"

#include <string>

namespace perfbench {

/// Runs every layer probe for \p W and adds one key per metric to \p Out.
/// \p ScratchDir must exist; probes create and fill subdirectories of it.
void runLayerProbes(const Workload &W, uint64_t Seed,
                    const std::string &ScratchDir, JsonLine &Out);

/// Median microseconds of fsyncFile on a freshly rewritten 4 KiB file in
/// \p Dir: the durability floor under every save point.
double fsyncFloorMicros(const std::string &Dir);

} // namespace perfbench

#endif // PERFBENCH_PROBES_H
