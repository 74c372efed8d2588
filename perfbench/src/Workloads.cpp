//===- perfbench/src/Workloads.cpp - The benchmark's fixed workloads -----===//
//
// Part of the PARMONC reproduction library's end-to-end benchmark.
//
//===----------------------------------------------------------------------===//

#include "Workloads.h"

#include "parmonc/rng/Lcg128.h"
#include "parmonc/rng/Philox.h"
#include "parmonc/rng/StreamHierarchy.h"
#include "parmonc/sde/EulerMaruyama.h"

using namespace parmonc;

namespace perfbench {

namespace {

constexpr int64_t Millis = 1'000'000;

Workload paperDiffusion() {
  Workload W;
  W.Name = "paper-diffusion";
  W.Body = BodyKind::PaperDiffusion;
  W.StepSize = 2e-3;
  W.Volume = 400;
  W.Config.Rows = PaperDiffusionProblem::OutputCount;
  W.Config.Columns = PaperDiffusionProblem::Dimension;
  W.Config.ProcessorCount = 3;
  W.Config.PassPeriodNanos = 0;
  W.Config.AveragePeriodNanos = 100 * Millis;
  W.Config.DeterministicSchedule = true;
  return W;
}

Workload diffusionPhilox() {
  Workload W = paperDiffusion();
  W.Name = "diffusion-philox";
  W.Config.RngBackend = RngBackendKind::Philox;
  return W;
}

Workload strictTiny() {
  Workload W;
  W.Name = "strict-tiny";
  W.Body = BodyKind::TinyDraws;
  W.Volume = 400'000;
  W.Config.Rows = 1;
  W.Config.Columns = 3;
  W.Config.ProcessorCount = 3;
  W.Config.Transport = TransportKind::Processes;
  W.Config.PassPeriodNanos = 0;
  W.Config.AveragePeriodNanos = 100 * Millis;
  W.Config.DeterministicSchedule = true;
  return W;
}

Workload saveDefault() {
  // RunConfig{} defaults on purpose: M = 1, pass and save at every poll,
  // legacy checkpoint.dat. Only shape, volume and WorkDir are set.
  Workload W;
  W.Name = "save-default";
  W.Body = BodyKind::TinyDraws;
  W.Volume = 400;
  W.Config.Rows = 1;
  W.Config.Columns = 3;
  return W;
}

} // namespace

const std::vector<Workload> &allWorkloads() {
  static const std::vector<Workload> All = {paperDiffusion(),
                                            diffusionPhilox(), strictTiny(),
                                            saveDefault()};
  return All;
}

const Workload *findWorkload(const std::string &Name) {
  for (const Workload &W : allWorkloads())
    if (W.Name == Name)
      return &W;
  return nullptr;
}

RunConfig makeRunConfig(const Workload &W, uint64_t Seed, int64_t Volume,
                        const std::string &WorkDir) {
  RunConfig Config = W.Config;
  Config.MaxSampleVolume = Volume;
  Config.WorkDir = WorkDir;
  // The seed selects the §3.2 experiment subsequence; the default leap
  // configuration has room for 2^11 of them.
  Config.SequenceNumber =
      Seed % (uint64_t(1) << LeapConfig().maxExperimentsLog2());
  return Config;
}

void runBody(const Workload &W, RandomSource &Source, double *Out) {
  if (W.Body == BodyKind::PaperDiffusion) {
    PaperDiffusionProblem::simulateRealization(Source, W.StepSize, Out);
    return;
  }
  const double U1 = Source.nextUniform();
  const double U2 = Source.nextUniform();
  const double U3 = Source.nextUniform();
  const double U4 = Source.nextUniform();
  Out[0] = U1;
  Out[1] = U2 + U3;
  Out[2] = U4 * U4;
}

size_t entryCount(const Workload &W) {
  return W.Config.Rows * W.Config.Columns;
}

double exactMean(const Workload &W, size_t Index) {
  if (W.Body == BodyKind::PaperDiffusion) {
    static const LinearSdeSystem System = PaperDiffusionProblem::makeSystem();
    const double Time = double(Index / W.Config.Columns + 1) * 0.1;
    return System.exactMean(Index % W.Config.Columns, Time);
  }
  static constexpr double Means[3] = {0.5, 1.0, 1.0 / 3.0};
  return Means[Index];
}

double exactVariance(const Workload &W, size_t Index) {
  if (W.Body == BodyKind::PaperDiffusion) {
    static const LinearSdeSystem System = PaperDiffusionProblem::makeSystem();
    const double Time = double(Index / W.Config.Columns + 1) * 0.1;
    return System.exactVariance(Index % W.Config.Columns, Time);
  }
  static constexpr double Variances[3] = {1.0 / 12.0, 1.0 / 6.0,
                                          1.0 / 5.0 - 1.0 / 9.0};
  return Variances[Index];
}

double rankZeroFirstUniform(const Workload &W, uint64_t Seed) {
  const RunConfig Config = makeRunConfig(W, Seed, 1, ".");
  const StreamCoordinates Origin{Config.SequenceNumber, 0, 0};
  if (Config.RngBackend == RngBackendKind::Philox)
    return Philox::streamFor(Origin).nextUniform();
  return StreamHierarchy(LeapTable()).makeStream(Origin).nextUniform();
}

} // namespace perfbench
