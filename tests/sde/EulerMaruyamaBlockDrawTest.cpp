//===- tests/sde/EulerMaruyamaBlockDrawTest.cpp - Block-draw differential -===//
//
// Part of the PARMONC reproduction library.
//
//===----------------------------------------------------------------------===//
//
// The block-draw integrator contract: EulerMaruyama::simulateTrajectory,
// which draws its uniforms through RandomSource::fillUniforms and may
// evaluate constant coefficients once, must be *bit-equal* to the
// step-by-step loop — same samples, same final stream position — on
// every kernel backend. The oracle below is that loop: one scalar
// sampleStandardNormalPair per pair and both callbacks on every step.
//
//===----------------------------------------------------------------------===//

#include "parmonc/sde/EulerMaruyama.h"

#include "parmonc/rng/Lcg128.h"
#include "parmonc/rng/Philox.h"
#include "parmonc/vr/VarianceReduction.h"

#include <gtest/gtest.h>

// mclint: allow-file(R6): these tests drive raw generators deliberately,
// comparing two integrators on the same stream.

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <memory>
#include <vector>

namespace parmonc {
namespace {

/// The per-step Euler–Maruyama loop the block-draw integrator replaced,
/// kept here as the reference.
void simulateStepByStep(const SdeSystem &System, double StepSize,
                        RandomSource &Source, const double *InitialState,
                        double EndTime, const std::vector<double> &OutputTimes,
                        double *Samples) {
  const size_t Dimension = System.Dimension;
  const size_t NoiseDimension = System.NoiseDimension;
  const double SqrtStep = std::sqrt(StepSize);

  std::vector<double> State(InitialState, InitialState + Dimension);
  std::vector<double> Drift(Dimension);
  std::vector<double> Diffusion(Dimension * NoiseDimension);
  std::vector<double> Noise(NoiseDimension);

  size_t NextOutput = 0;
  const size_t OutputCount = OutputTimes.size();
  double Time = 0.0;
  const int64_t StepCount = int64_t(std::ceil(EndTime / StepSize - 1e-9));

  for (int64_t Step = 0; Step < StepCount && NextOutput < OutputCount;
       ++Step) {
    size_t NoiseIndex = 0;
    while (NoiseIndex + 1 < NoiseDimension) {
      NormalPair Pair = sampleStandardNormalPair(Source);
      Noise[NoiseIndex++] = Pair.First;
      Noise[NoiseIndex++] = Pair.Second;
    }
    if (NoiseIndex < NoiseDimension)
      Noise[NoiseIndex] = sampleStandardNormal(Source);

    System.Drift(Time, State.data(), Drift.data());
    System.Diffusion(Time, State.data(), Diffusion.data());
    for (size_t Component = 0; Component < Dimension; ++Component) {
      double Increment = StepSize * Drift[Component];
      const double *DiffusionRow = &Diffusion[Component * NoiseDimension];
      for (size_t NoiseComponent = 0; NoiseComponent < NoiseDimension;
           ++NoiseComponent)
        Increment += SqrtStep * DiffusionRow[NoiseComponent] *
                     Noise[NoiseComponent];
      State[Component] += Increment;
    }
    Time = double(Step + 1) * StepSize;

    while (NextOutput < OutputCount &&
           Time >= OutputTimes[NextOutput] - 1e-12) {
      std::copy(State.begin(), State.end(),
                Samples + NextOutput * Dimension);
      ++NextOutput;
    }
  }
  while (NextOutput < OutputCount) {
    std::copy(State.begin(), State.end(), Samples + NextOutput * Dimension);
    ++NextOutput;
  }
}

/// One differential case: a system, a mesh, a horizon and output times.
struct Case {
  SdeSystem System;
  std::vector<double> InitialState;
  double StepSize;
  double EndTime;
  std::vector<double> OutputTimes;
};

std::vector<double> gridTimes(size_t Count, double Spacing) {
  std::vector<double> Times(Count);
  for (size_t Index = 0; Index < Count; ++Index)
    Times[Index] = double(Index + 1) * Spacing;
  return Times;
}

Case paperCase() {
  const LinearSdeSystem Linear = PaperDiffusionProblem::makeSystem();
  // The paper problem on a coarse mesh: 10 steps per output, 10^4 steps.
  return {Linear.toSystem(), Linear.InitialState, 1e-2,
          PaperDiffusionProblem::EndTime,
          PaperDiffusionProblem::outputTimes()};
}

Case oddNoiseCase() {
  LinearSdeSystem Linear;
  Linear.InitialState = {0.5, -1.0};
  Linear.DriftVector = {0.25, 1.5};
  Linear.DiffusionMatrix = {1.0, 0.3, -0.2, //
                            0.1, 0.7, 0.4};
  Linear.NoiseDimension = 3;
  return {Linear.toSystem(), Linear.InitialState, 1e-3, 3.0,
          gridTimes(30, 0.1)};
}

Case nonlinearCase() {
  // A time- and state-dependent system: mean-reverting drift with a
  // periodic forcing, state-scaled diffusion over m = 2.
  SdeSystem System;
  System.Dimension = 2;
  System.NoiseDimension = 2;
  System.Drift = [](double Time, const double *State, double *Out) {
    Out[0] = -1.5 * State[0] + std::sin(Time);
    Out[1] = 0.3 * State[0] - 0.8 * State[1];
  };
  System.Diffusion = [](double Time, const double *State, double *Out) {
    Out[0] = 0.4 + 0.1 * std::cos(State[0]);
    Out[1] = 0.05 * Time;
    Out[2] = 0.2;
    Out[3] = 0.3 / (1.0 + State[1] * State[1]);
  };
  return {System, {1.0, -0.5}, 1e-3, 2.0, gridTimes(20, 0.1)};
}

Case earlyStopCase(double LastOutput) {
  // Output times end well before the horizon of 5: the loop stops early
  // and must not have drawn the uniforms of the steps it skips.
  Case Shape = oddNoiseCase();
  Shape.EndTime = 5.0;
  Shape.OutputTimes = {LastOutput / 3, LastOutput / 2, LastOutput};
  return Shape;
}

Case offMeshEndCase() {
  // EndTime = 1.2345 is not a multiple of h = 1e-3; the last step
  // overshoots it and an output at the horizon takes that step's state.
  Case Shape = paperCase();
  Shape.StepSize = 1e-3;
  Shape.EndTime = 1.2345;
  Shape.OutputTimes = {0.5, 1.0, 1.2345};
  return Shape;
}

/// Runs \p Test through the oracle and the integrator on two copies of
/// one stream, then asserts bit-equal samples and stream positions.
void expectBitEqual(const Case &Test, RandomSource &Reference,
                    RandomSource &Candidate) {
  const size_t Width = Test.OutputTimes.size() * Test.System.Dimension;
  std::vector<double> Expected(Width, -1.0), Actual(Width, -2.0);
  simulateStepByStep(Test.System, Test.StepSize, Reference,
                     Test.InitialState.data(), Test.EndTime, Test.OutputTimes,
                     Expected.data());
  const EulerMaruyama Integrator(Test.System, Test.StepSize);
  Integrator.simulateTrajectory(Candidate, Test.InitialState.data(),
                                Test.EndTime, Test.OutputTimes,
                                Actual.data());
  for (size_t Index = 0; Index < Width; ++Index)
    ASSERT_EQ(Expected[Index], Actual[Index]) << "sample " << Index;
  EXPECT_EQ(Reference.nextUniform(), Candidate.nextUniform())
      << "stream position after the trajectory differs";
}

std::vector<Case> allCases() {
  // The early stops sit where (t - 1e-12) / h rounds across an integer:
  // reached exactly at mesh point 1001 while the quotient rounds up past
  // it, and one ulp past mesh point 11 while the quotient rounds down to
  // it.
  return {paperCase(),
          oddNoiseCase(),
          nonlinearCase(),
          earlyStopCase(0.7),
          earlyStopCase(double(1001) * 1e-3 + 1e-12),
          earlyStopCase(0.011000000001000002),
          offMeshEndCase()};
}

TEST(EulerMaruyamaBlockDraw, MatchesStepLoopOnLcg128) {
  for (const Case &Test : allCases()) {
    Lcg128 Reference, Candidate;
    expectBitEqual(Test, Reference, Candidate);
  }
}

TEST(EulerMaruyamaBlockDraw, MatchesStepLoopOnPhilox) {
  for (const Case &Test : allCases()) {
    // Start at an odd position so block draws enter mid-counter-block.
    Philox Reference(7), Candidate(7);
    Reference.seek(UInt128(3));
    Candidate.seek(UInt128(3));
    expectBitEqual(Test, Reference, Candidate);
  }
}

TEST(EulerMaruyamaBlockDraw, MatchesStepLoopThroughDefaultFillPath) {
  // MirroredSource does not override fillUniforms, so the integrator goes
  // through the interface's nextUniform loop.
  for (const Case &Test : allCases()) {
    Lcg128 ReferenceBase, CandidateBase;
    MirroredSource Reference(ReferenceBase, true);
    MirroredSource Candidate(CandidateBase, true);
    expectBitEqual(Test, Reference, Candidate);
  }
}

TEST(EulerMaruyamaBlockDraw, ConstantSystemEvaluatesCoefficientsOnce) {
  const LinearSdeSystem Linear = PaperDiffusionProblem::makeSystem();
  SdeSystem System = Linear.toSystem();
  ASSERT_TRUE(System.ConstantCoefficients);
  auto Calls = std::make_shared<int>(0);
  System.Drift = [Calls, Inner = System.Drift](double Time,
                                               const double *State,
                                               double *Out) {
    ++*Calls;
    Inner(Time, State, Out);
  };
  const EulerMaruyama Integrator(System, 1e-2);
  Lcg128 Source;
  std::vector<double> Sample =
      Integrator.simulateToEnd(Source, Linear.InitialState, 5.0);
  EXPECT_EQ(*Calls, 1);
  EXPECT_TRUE(std::isfinite(Sample[0]) && std::isfinite(Sample[1]));
}

/// Forwards to a base source and counts how it is called.
class CountingSource final : public RandomSource {
public:
  explicit CountingSource(RandomSource &Base) : Base(Base) {}

  double nextUniform() override {
    ++UniformCalls;
    return Base.nextUniform();
  }
  uint64_t nextBits64() override { return Base.nextBits64(); }
  void fillUniforms(double *Out, size_t Count) override {
    ++FillCalls;
    FilledUniforms += Count;
    Base.fillUniforms(Out, Count);
  }
  const char *name() const override { return "counting"; }

  int64_t UniformCalls = 0;
  int64_t FillCalls = 0;
  int64_t FilledUniforms = 0;

private:
  RandomSource &Base;
};

TEST(EulerMaruyamaBlockDraw, DrawsOnlyThroughBlockFills) {
  // Block size: 256 steps per fillUniforms call.
  constexpr int64_t BlockSteps = 256;
  for (const Case &Test : allCases()) {
    Lcg128 ReferenceBase, CandidateBase;
    CountingSource Reference(ReferenceBase), Candidate(CandidateBase);
    std::vector<double> Samples(Test.OutputTimes.size() *
                                Test.System.Dimension);
    simulateStepByStep(Test.System, Test.StepSize, Reference,
                       Test.InitialState.data(), Test.EndTime,
                       Test.OutputTimes, Samples.data());
    const EulerMaruyama Integrator(Test.System, Test.StepSize);
    Integrator.simulateTrajectory(Candidate, Test.InitialState.data(),
                                  Test.EndTime, Test.OutputTimes,
                                  Samples.data());
    const int64_t UniformsPerStep =
        2 * int64_t((Test.System.NoiseDimension + 1) / 2);
    const int64_t Steps = Reference.UniformCalls / UniformsPerStep;
    EXPECT_EQ(Candidate.UniformCalls, 0);
    EXPECT_EQ(Candidate.FilledUniforms, Reference.UniformCalls);
    EXPECT_LE(Candidate.FillCalls, (Steps + BlockSteps - 1) / BlockSteps);
  }
}

} // namespace
} // namespace parmonc
