//===- sde/EulerMaruyama.cpp - SDE integration (eq. 9) -------------------===//
//
// Part of the PARMONC reproduction library.
//
//===----------------------------------------------------------------------===//

#include "parmonc/sde/EulerMaruyama.h"

#include <algorithm>
#include <cmath>

namespace parmonc {

SdeSystem LinearSdeSystem::toSystem() const {
  assert(!InitialState.empty() && "linear system has no state");
  assert(DriftVector.size() == dimension() && "drift dimension mismatch");
  assert(DiffusionMatrix.size() == dimension() * NoiseDimension &&
         "diffusion shape mismatch");
  SdeSystem System;
  System.Dimension = dimension();
  System.NoiseDimension = NoiseDimension;
  // Copy the coefficient vectors into the closures: the SdeSystem must not
  // dangle if the LinearSdeSystem goes out of scope.
  std::vector<double> Drift = DriftVector;
  System.Drift = [Drift](double, const double *, double *DriftOut) {
    std::copy(Drift.begin(), Drift.end(), DriftOut);
  };
  std::vector<double> Diffusion = DiffusionMatrix;
  System.Diffusion = [Diffusion](double, const double *,
                                 double *DiffusionOut) {
    std::copy(Diffusion.begin(), Diffusion.end(), DiffusionOut);
  };
  System.ConstantCoefficients = true;
  return System;
}

double LinearSdeSystem::exactMean(size_t Component, double Time) const {
  assert(Component < dimension() && "component out of range");
  return InitialState[Component] + DriftVector[Component] * Time;
}

double LinearSdeSystem::exactVariance(size_t Component, double Time) const {
  assert(Component < dimension() && "component out of range");
  double RowNormSquared = 0.0;
  for (size_t Noise = 0; Noise < NoiseDimension; ++Noise) {
    const double Entry = DiffusionMatrix[Component * NoiseDimension + Noise];
    RowNormSquared += Entry * Entry;
  }
  return RowNormSquared * Time;
}

EulerMaruyama::EulerMaruyama(SdeSystem System, double StepSize)
    : System(std::move(System)), StepSize(StepSize) {
  assert(StepSize > 0.0 && "mesh size must be positive");
  assert(this->System.Dimension >= 1 && "system has no state");
  assert(this->System.NoiseDimension >= 1 && "system has no noise");
  assert(this->System.Drift && this->System.Diffusion &&
         "system callbacks must be set");
}

/// Steps whose uniforms one RandomSource::fillUniforms call draws: large
/// enough to amortize the virtual call and fill the batch kernels' lanes,
/// small enough that the block stays in L1 for low noise dimensions.
static constexpr int64_t BlockSteps = 256;

/// The number of mesh steps integration takes. Stepping stops at the
/// first mesh point that has reached every output time (or at
/// \p StepCount), and only that many steps' uniforms may be drawn.
/// Mesh times double(k) * StepSize grow with k, so that point is the
/// first one reaching the largest emission threshold.
static int64_t stepsToLastOutput(const std::vector<double> &OutputTimes,
                                 double StepSize, int64_t StepCount) {
  if (OutputTimes.empty() || StepCount <= 0)
    return 0;
  double Reach = -HUGE_VAL;
  for (double OutputTime : OutputTimes) {
    const double Threshold = OutputTime - 1e-12;
    // A NaN time is never reached: every step runs.
    if (std::isnan(Threshold))
      return StepCount;
    Reach = std::max(Reach, Threshold);
  }
  const double Estimate = std::ceil(Reach / StepSize);
  int64_t Steps = Estimate < 1.0                 ? 1
                  : Estimate >= double(StepCount) ? StepCount
                                                  : int64_t(Estimate);
  // The quotient may round either way; settle on the exact first step.
  while (Steps > 1 && double(Steps - 1) * StepSize >= Reach)
    --Steps;
  while (Steps < StepCount && double(Steps) * StepSize < Reach)
    ++Steps;
  return Steps;
}

void EulerMaruyama::simulateTrajectory(
    RandomSource &Source, const double *InitialState, double EndTime,
    const std::vector<double> &OutputTimes, double *Samples) const {
  assert(EndTime > 0.0 && "end time must be positive");
  assert(Samples && InitialState);

  const size_t Dimension = System.Dimension;
  const size_t NoiseDimension = System.NoiseDimension;
  // Each Box–Muller pair takes two uniforms; an odd noise dimension uses
  // the first normal of its last pair and discards the second.
  const size_t PairCount = (NoiseDimension + 1) / 2;
  const size_t UniformsPerStep = 2 * PairCount;
  const double SqrtStep = std::sqrt(StepSize);

  std::vector<double> State(InitialState, InitialState + Dimension);
  // h·a and √h·b: the increment below is h·a + Σ (√h·b)·ξ, the same
  // association as evaluating it term by term, so pre-scaling is exact.
  std::vector<double> ScaledDrift(Dimension);
  std::vector<double> ScaledDiffusion(Dimension * NoiseDimension);
  std::vector<double> Noise(UniformsPerStep);
  std::vector<double> Block(size_t(BlockSteps) * UniformsPerStep);

  auto evaluateCoefficients = [&](double Time) {
    System.Drift(Time, State.data(), ScaledDrift.data());
    System.Diffusion(Time, State.data(), ScaledDiffusion.data());
    for (double &Drift : ScaledDrift)
      Drift *= StepSize;
    for (double &Diffusion : ScaledDiffusion)
      Diffusion *= SqrtStep;
  };
  if (System.ConstantCoefficients)
    evaluateCoefficients(0.0);

  size_t NextOutput = 0;
  const size_t OutputCount = OutputTimes.size();
  double Time = 0.0;
  const int64_t StepsTaken = stepsToLastOutput(
      OutputTimes, StepSize, int64_t(std::ceil(EndTime / StepSize - 1e-9)));

  size_t BlockCursor = 0, BlockFilled = 0;
  for (int64_t Step = 0; Step < StepsTaken; ++Step) {
    if (BlockCursor == BlockFilled) {
      BlockFilled =
          size_t(std::min(BlockSteps, StepsTaken - Step)) * UniformsPerStep;
      Source.fillUniforms(Block.data(), BlockFilled);
      BlockCursor = 0;
    }
    for (size_t Pair = 0; Pair < PairCount; ++Pair) {
      const NormalPair Normals =
          boxMuller(Block[BlockCursor], Block[BlockCursor + 1]);
      Noise[2 * Pair] = Normals.First;
      Noise[2 * Pair + 1] = Normals.Second;
      BlockCursor += 2;
    }

    if (!System.ConstantCoefficients)
      evaluateCoefficients(Time);
    for (size_t Component = 0; Component < Dimension; ++Component) {
      double Increment = ScaledDrift[Component];
      const double *DiffusionRow =
          &ScaledDiffusion[Component * NoiseDimension];
      for (size_t NoiseComponent = 0; NoiseComponent < NoiseDimension;
           ++NoiseComponent)
        Increment += DiffusionRow[NoiseComponent] * Noise[NoiseComponent];
      State[Component] += Increment;
    }
    Time = double(Step + 1) * StepSize;

    // Emit every output time that this mesh point has reached.
    while (NextOutput < OutputCount &&
           Time >= OutputTimes[NextOutput] - 1e-12) {
      std::copy(State.begin(), State.end(),
                Samples + NextOutput * Dimension);
      ++NextOutput;
    }
  }

  // Requested times beyond the integration horizon get the final state.
  while (NextOutput < OutputCount) {
    std::copy(State.begin(), State.end(), Samples + NextOutput * Dimension);
    ++NextOutput;
  }
}

std::vector<double> EulerMaruyama::simulateToEnd(
    RandomSource &Source, const std::vector<double> &InitialState,
    double EndTime) const {
  assert(InitialState.size() == System.Dimension &&
         "initial state has wrong dimension");
  std::vector<double> Sample(System.Dimension);
  std::vector<double> OutputTimes{EndTime};
  simulateTrajectory(Source, InitialState.data(), EndTime, OutputTimes,
                     Sample.data());
  return Sample;
}

LinearSdeSystem PaperDiffusionProblem::makeSystem() {
  LinearSdeSystem System;
  System.InitialState = {1.0, -1.0};
  System.DriftVector = {1.0, -0.5};
  System.DiffusionMatrix = {1.0, 0.2, //
                            0.2, 1.0};
  System.NoiseDimension = 2;
  return System;
}

std::vector<double> PaperDiffusionProblem::outputTimes() {
  std::vector<double> Times(OutputCount);
  for (size_t Index = 0; Index < OutputCount; ++Index)
    Times[Index] = double(Index + 1) * 0.1;
  return Times;
}

void PaperDiffusionProblem::simulateRealization(RandomSource &Source,
                                                double StepSize,
                                                double *Out) {
  static const LinearSdeSystem Linear = makeSystem();
  static const std::vector<double> Times = outputTimes();
  const EulerMaruyama Integrator(Linear.toSystem(), StepSize);
  Integrator.simulateTrajectory(Source, Linear.InitialState.data(), EndTime,
                                Times, Out);
}

} // namespace parmonc
