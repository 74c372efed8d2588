//===- parmonc/sde/Distributions.h - Samplers over a RandomSource ---------===//
//
// Part of the PARMONC reproduction library.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Distribution samplers built on the base random numbers of eq. (2):
/// every complex variable is a function of uniforms drawn from a
/// RandomSource, so all samplers here take the source as an argument and
/// contain no generator state of their own (except the documented
/// Box–Muller spare). That keeps them usable inside PARMONC realization
/// routines, where the engine supplies a per-realization stream.
///
//===----------------------------------------------------------------------===//

#ifndef PARMONC_SDE_DISTRIBUTIONS_H
#define PARMONC_SDE_DISTRIBUTIONS_H

#include "parmonc/rng/RandomSource.h"
#include "parmonc/support/Status.h"

#include <cassert>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <vector>

namespace parmonc {

/// Uniform on [Low, High).
double sampleUniform(RandomSource &Source, double Low, double High);

/// Standard normal via Box–Muller (two uniforms -> two normals; the second
/// is *not* cached — realization independence forbids state that survives
/// across realization boundaries).
double sampleStandardNormal(RandomSource &Source);

/// Normal with the given mean and standard deviation (>= 0).
double sampleNormal(RandomSource &Source, double Mean, double StdDev);

/// A pair of independent standard normals from one Box–Muller transform —
/// use this in inner loops that need normals in bulk (e.g. SDE steps) to
/// avoid discarding half of the transform.
struct NormalPair {
  double First;
  double Second;
};
NormalPair sampleStandardNormalPair(RandomSource &Source);

/// The Box–Muller transform behind sampleStandardNormalPair, for callers
/// that draw their uniforms in bulk. \p U1 and \p U2 must lie in (0,1).
inline NormalPair boxMuller(double U1, double U2) {
  const double Radius = std::sqrt(-2.0 * std::log(U1));
  const double Angle = 2.0 * M_PI * U2;
  return {Radius * std::cos(Angle), Radius * std::sin(Angle)};
}

/// Exponential with rate \p Rate > 0 (mean 1/Rate), by inversion.
double sampleExponential(RandomSource &Source, double Rate);

/// Bernoulli with success probability \p Probability in [0,1].
bool sampleBernoulli(RandomSource &Source, double Probability);

/// Poisson with mean \p Mean > 0. Knuth's product method for small means,
/// the PTRD-style transformed-rejection for large ones; O(1) expected time
/// for large means.
int64_t samplePoisson(RandomSource &Source, double Mean);

/// Geometric: number of Bernoulli(p) failures before the first success.
int64_t sampleGeometric(RandomSource &Source, double Probability);

/// Gamma with shape \p Shape > 0 and scale \p Scale > 0 (mean
/// Shape*Scale). Marsaglia–Tsang squeeze for Shape >= 1, with the
/// standard boosting transform for Shape < 1.
double sampleGamma(RandomSource &Source, double Shape, double Scale = 1.0);

/// Beta(α, β) via two gammas.
double sampleBeta(RandomSource &Source, double Alpha, double Beta);

/// Binomial(n, p) by direct Bernoulli summation for small n and by the
/// beta-splitting recursion (BTPE-free, exact) for large n; O(min(n, ~30))
/// expected work.
int64_t sampleBinomial(RandomSource &Source, int64_t Trials,
                       double Probability);

/// Chi-square with \p DegreesOfFreedom > 0: Gamma(k/2, 2).
double sampleChiSquare(RandomSource &Source, double DegreesOfFreedom);

/// Student-t with \p DegreesOfFreedom > 0: normal / sqrt(chi2/ν).
double sampleStudentT(RandomSource &Source, double DegreesOfFreedom);

/// Lognormal: exp(Normal(MeanLog, SdLog)).
double sampleLognormal(RandomSource &Source, double MeanLog, double SdLog);

/// In-place lower Cholesky factor of a symmetric positive-definite matrix
/// (row-major d x d). Fails on non-positive-definite input. The strict
/// upper triangle of the output is zeroed.
[[nodiscard]] Status choleskyFactor(std::vector<double> &Matrix,
                                    size_t Dimension);

/// Correlated normal vectors: X = Mean + L Z with L a lower-triangular
/// factor (e.g. from choleskyFactor) and Z i.i.d. standard normal. The
/// factor is validated once at construction; sampling is allocation-free.
class MultivariateNormal {
public:
  /// \p Covariance is row-major d x d SPD; factored internally.
  /// Construction fails (asserts in debug, produces a degenerate sampler
  /// flagged by isValid() in release) on non-SPD input.
  MultivariateNormal(std::vector<double> Mean,
                     std::vector<double> Covariance);

  bool isValid() const { return Valid; }
  size_t dimension() const { return Mean.size(); }

  /// Draws one vector into \p Out (length dimension()).
  void sample(RandomSource &Source, double *Out) const;

  /// The lower Cholesky factor (row-major), for tests.
  const std::vector<double> &factor() const { return Factor; }

private:
  std::vector<double> Mean;
  std::vector<double> Factor;
  bool Valid = false;
};

/// Walker alias table: O(1) sampling from a fixed discrete distribution.
/// Build cost is O(n); the table is immutable afterwards and safe to share
/// across threads.
class AliasTable {
public:
  /// \p Weights must be non-empty, non-negative, with a positive sum; they
  /// are normalized internally.
  explicit AliasTable(const std::vector<double> &Weights);

  /// Draws an index in [0, size()) with probability proportional to its
  /// weight. Consumes exactly one base random number.
  size_t sample(RandomSource &Source) const;

  size_t size() const { return Probability.size(); }

  /// Normalized probability of outcome \p Index (for tests).
  double probabilityOf(size_t Index) const;

private:
  std::vector<double> Probability; ///< acceptance threshold per cell
  std::vector<size_t> Alias;       ///< fallback outcome per cell
  std::vector<double> Normalized;  ///< original normalized weights
};

} // namespace parmonc

#endif // PARMONC_SDE_DISTRIBUTIONS_H
