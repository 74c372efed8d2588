//===- parmonc/parmonc.h - Umbrella header --------------------------------===//
//
// Part of the PARMONC reproduction library.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Convenience umbrella: pulls in the whole public API. Fine for
/// applications and examples; library code should include the specific
/// headers it uses (LLVM "include as little as possible").
///
//===----------------------------------------------------------------------===//

#ifndef PARMONC_PARMONC_H
#define PARMONC_PARMONC_H

#include "parmonc/ckpt/BackgroundWriter.h"
#include "parmonc/ckpt/CheckpointStore.h"
#include "parmonc/ckpt/Manifest.h"
#include "parmonc/core/CApi.h"
#include "parmonc/core/CheckpointBridge.h"
#include "parmonc/core/ResultsStore.h"
#include "parmonc/core/RunConfig.h"
#include "parmonc/core/Runner.h"
#include "parmonc/int128/UInt128.h"
#include "parmonc/mpsim/Communicator.h"
#include "parmonc/mpsim/Engine.h"
#include "parmonc/mpsim/Serialize.h"
#include "parmonc/mpsim/SocketTransport.h"
#include "parmonc/mpsim/Transport.h"
#include "parmonc/mpsim/VirtualCluster.h"
#include "parmonc/mpsim/Wire.h"
#include "parmonc/obs/Metrics.h"
#include "parmonc/obs/Stopwatch.h"
#include "parmonc/obs/Trace.h"
#include "parmonc/rng/Baselines.h"
#include "parmonc/rng/Lcg128.h"
#include "parmonc/rng/LcgPow2.h"
#include "parmonc/rng/RandomSource.h"
#include "parmonc/rng/StdAdapter.h"
#include "parmonc/rng/StreamHierarchy.h"
#include "parmonc/sde/Distributions.h"
#include "parmonc/sde/EulerMaruyama.h"
#include "parmonc/spectral/BigInt.h"
#include "parmonc/spectral/SpectralTest.h"
#include "parmonc/statest/SpecialFunctions.h"
#include "parmonc/statest/Tests.h"
#include "parmonc/stats/Confidence.h"
#include "parmonc/stats/EstimatorMatrix.h"
#include "parmonc/stats/RunningStat.h"
#include "parmonc/support/Clock.h"
#include "parmonc/support/Status.h"
#include "parmonc/support/Text.h"
#include "parmonc/vr/VarianceReduction.h"

#endif // PARMONC_PARMONC_H
