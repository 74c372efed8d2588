//===- perfbench/src/Workloads.h - The benchmark's fixed workloads -------===//
//
// Part of the PARMONC reproduction library's end-to-end benchmark.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The four workloads the benchmark drives through runSimulation: each is
/// a RunConfig template, a realization body and the closed-form means the
/// correctness gate compares func.dat against. See perfbench/README.md
/// for why each one exists.
///
//===----------------------------------------------------------------------===//

#ifndef PERFBENCH_WORKLOADS_H
#define PERFBENCH_WORKLOADS_H

#include "parmonc/core/RunConfig.h"
#include "parmonc/rng/RandomSource.h"

#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

/// Which realization body a workload runs.
enum class BodyKind {
  /// PaperDiffusionProblem::simulateRealization: 1000 x 2, mesh StepSize.
  PaperDiffusion,
  /// Four nextUniform() draws into a 1 x 3 matrix (u1, u2 + u3, u4^2).
  TinyDraws,
};

struct Workload {
  std::string Name;
  BodyKind Body = BodyKind::TinyDraws;
  /// Euler mesh h of the paper body.
  double StepSize = 0.0;
  /// Sample volume of one timed run.
  int64_t Volume = 0;
  /// Everything except WorkDir, SequenceNumber and MaxSampleVolume.
  parmonc::RunConfig Config;
};

/// The named workload, or nullptr.
const Workload *findWorkload(const std::string &Name);

/// Every workload, in BENCHMARK.json order.
const std::vector<Workload> &allWorkloads();

/// The full run configuration for one run of \p W.
parmonc::RunConfig makeRunConfig(const Workload &W, uint64_t Seed,
                                 int64_t Volume, const std::string &WorkDir);

/// Runs the workload's body once.
void runBody(const Workload &W, parmonc::RandomSource &Source, double *Out);

/// Number of entries of the realization matrix.
size_t entryCount(const Workload &W);

/// Exact expectation and variance of entry \p Index (row-major).
double exactMean(const Workload &W, size_t Index);
double exactVariance(const Workload &W, size_t Index);

/// The first uniform rank 0 draws in its first realization at experiment
/// subsequence \p Seed: the fingerprint that tells the benchmark's routine
/// it is running as rank 0 (ranks are not visible to a RealizationFn).
double rankZeroFirstUniform(const Workload &W, uint64_t Seed);

} // namespace perfbench

#endif // PERFBENCH_WORKLOADS_H
