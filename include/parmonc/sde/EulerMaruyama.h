//===- parmonc/sde/EulerMaruyama.h - SDE integration (eq. 9) --------------===//
//
// Part of the PARMONC reproduction library.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The "generalized Euler method" of §4, eq. (9): for the d-dimensional
/// system  dy(t) = a(t,y) dt + b(t,y) dw(t)  the scheme is
///
///   y^{(n+1)} = y^{(n)} + h a(t_n, y^{(n)}) + sqrt(h) b(t_n, y^{(n)}) ξ^{(n)}
///
/// with ξ^{(n)} i.i.d. standard normal vectors. The paper's performance
/// test uses the constant-coefficient case dy = C dt + D dw, for which the
/// scheme is exact in expectation (E y(t_i) = y(0) + C t_i) — that exactness
/// is what the integration tests pin down.
///
//===----------------------------------------------------------------------===//

#ifndef PARMONC_SDE_EULERMARUYAMA_H
#define PARMONC_SDE_EULERMARUYAMA_H

#include "parmonc/rng/RandomSource.h"
#include "parmonc/sde/Distributions.h"

#include <cassert>
#include <cstdint>
#include <functional>
#include <vector>

namespace parmonc {

/// Coefficients of a general (possibly nonlinear, time-dependent) SDE
/// system. Both callbacks fill caller-provided buffers.
struct SdeSystem {
  /// State dimension d.
  size_t Dimension = 0;
  /// Driving-noise dimension m (columns of the diffusion matrix).
  size_t NoiseDimension = 0;
  /// Drift a(t, y): writes d values into \p DriftOut.
  std::function<void(double Time, const double *State, double *DriftOut)>
      Drift;
  /// Diffusion b(t, y): writes the d x m matrix (row-major) into
  /// \p DiffusionOut.
  std::function<void(double Time, const double *State, double *DiffusionOut)>
      Diffusion;
  /// True when a(t, y) and b(t, y) depend on neither time nor state — a
  /// property of the model, such as the dy = C dt + D dw of
  /// LinearSdeSystem. The integrator then evaluates both callbacks once
  /// per trajectory instead of once per step; results are bit-identical.
  bool ConstantCoefficients = false;
};

/// A constant-coefficient linear system dy = C dt + D dw (the paper's §4
/// test problem shape). Exact moments: E y(t) = y0 + C t and
/// Cov y(t) = D Dᵀ t — used by the validation tests.
struct LinearSdeSystem {
  std::vector<double> InitialState;   ///< y(0), length d
  std::vector<double> DriftVector;    ///< C, length d
  std::vector<double> DiffusionMatrix; ///< D, d x m row-major
  size_t NoiseDimension = 0;          ///< m

  size_t dimension() const { return InitialState.size(); }

  /// Wraps the constant coefficients in the generic callback form, with
  /// SdeSystem::ConstantCoefficients set.
  SdeSystem toSystem() const;

  /// E y_j(t) = y0_j + C_j t.
  double exactMean(size_t Component, double Time) const;

  /// Var y_j(t) = (D Dᵀ)_jj t.
  double exactVariance(size_t Component, double Time) const;
};

/// Euler–Maruyama integrator. Stateless across trajectories; every
/// trajectory consumes randomness only from the RandomSource passed in,
/// which is what lets the run engine hand each realization its own stream.
class EulerMaruyama {
public:
  /// \p StepSize is the mesh h > 0 of eq. (9).
  EulerMaruyama(SdeSystem System, double StepSize);

  /// Integrates one trajectory from \p InitialState (length d) at time 0 to
  /// time \p EndTime, sampling the state at each time in \p OutputTimes
  /// (strictly increasing, within (0, EndTime]). Writes the samples
  /// row-major into \p Samples: OutputTimes.size() rows x d columns.
  /// Sampling happens at the first mesh point >= the requested time.
  /// Uniforms are drawn in blocks through RandomSource::fillUniforms, and
  /// exactly as many as a step-by-step Box–Muller loop would draw: the
  /// samples and the final stream position do not depend on the blocking.
  void simulateTrajectory(RandomSource &Source, const double *InitialState,
                          double EndTime,
                          const std::vector<double> &OutputTimes,
                          double *Samples) const;

  /// Single trajectory, final state only.
  std::vector<double> simulateToEnd(RandomSource &Source,
                                    const std::vector<double> &InitialState,
                                    double EndTime) const;

  double stepSize() const { return StepSize; }
  const SdeSystem &system() const { return System; }

private:
  SdeSystem System;
  double StepSize;
};

/// The PARMONC performance-test problem (§4): a 2-D linear SDE on [0,100]
/// whose component expectations are evaluated at the 1000 output times
/// t_i = i/10. The paper's scanned coefficient values are not legible, so
/// this reproduction fixes documented stand-ins (see DESIGN.md §2); the
/// experiment's behaviour depends only on the per-realization *cost*, which
/// is set by the mesh, not by the coefficient values.
struct PaperDiffusionProblem {
  /// Number of output times (rows of the realization matrix): 1000.
  static constexpr size_t OutputCount = 1000;
  /// Matrix columns: the 2 components of the solution.
  static constexpr size_t Dimension = 2;
  /// End of the time interval: 100.
  static constexpr double EndTime = 100.0;

  /// The system: y(0) = (1, -1), C = (1.0, -0.5),
  /// D = [[1.0, 0.2], [0.2, 1.0]].
  static LinearSdeSystem makeSystem();

  /// Output times t_i = i * 0.1, i = 1..1000.
  static std::vector<double> outputTimes();

  /// Simulates one realization of the 1000 x 2 matrix [ζ_ij] = y_j(t_i)
  /// using mesh \p StepSize; writes row-major into \p Out (2000 doubles).
  /// The paper uses h = 1e-6 (1e8 steps, τ ≈ 7.7 s on 2011 hardware);
  /// tests and thread-scaling benches pass coarser meshes.
  static void simulateRealization(RandomSource &Source, double StepSize,
                                  double *Out);
};

} // namespace parmonc

#endif // PARMONC_SDE_EULERMARUYAMA_H
