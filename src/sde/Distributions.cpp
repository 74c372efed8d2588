//===- sde/Distributions.cpp - Samplers over a RandomSource --------------===//
//
// Part of the PARMONC reproduction library.
//
//===----------------------------------------------------------------------===//

#include "parmonc/sde/Distributions.h"

#include <cmath>
#include <numeric>

namespace parmonc {

double sampleUniform(RandomSource &Source, double Low, double High) {
  assert(Low < High && "empty uniform range");
  return Low + (High - Low) * Source.nextUniform();
}

NormalPair sampleStandardNormalPair(RandomSource &Source) {
  // Box–Muller. Both uniforms are strictly inside (0,1), so the logarithm
  // is finite and the radius positive.
  const double U1 = Source.nextUniform();
  const double U2 = Source.nextUniform();
  return boxMuller(U1, U2);
}

double sampleStandardNormal(RandomSource &Source) {
  return sampleStandardNormalPair(Source).First;
}

double sampleNormal(RandomSource &Source, double Mean, double StdDev) {
  assert(StdDev >= 0.0 && "negative standard deviation");
  return Mean + StdDev * sampleStandardNormal(Source);
}

double sampleExponential(RandomSource &Source, double Rate) {
  assert(Rate > 0.0 && "exponential rate must be positive");
  return -std::log(Source.nextUniform()) / Rate;
}

bool sampleBernoulli(RandomSource &Source, double Probability) {
  assert(Probability >= 0.0 && Probability <= 1.0 &&
         "probability out of [0,1]");
  return Source.nextUniform() < Probability;
}

static int64_t samplePoissonKnuth(RandomSource &Source, double Mean) {
  // Product of uniforms against e^-Mean; O(Mean) draws.
  const double Threshold = std::exp(-Mean);
  int64_t Count = 0;
  double Product = Source.nextUniform();
  while (Product > Threshold) {
    ++Count;
    Product *= Source.nextUniform();
  }
  return Count;
}

static double logFactorial(double K) {
  return std::lgamma(K + 1.0);
}

static int64_t samplePoissonRejection(RandomSource &Source, double Mean) {
  // Atkinson's rejection from a logistic envelope (the standard method for
  // large means; expected O(1) uniforms per sample).
  const double Beta = M_PI / std::sqrt(3.0 * Mean);
  const double Alpha = Beta * Mean;
  const double K = std::log(0.767 - 3.36 / Mean) - Mean - std::log(Beta);
  for (;;) {
    const double U = Source.nextUniform();
    const double X = (Alpha - std::log((1.0 - U) / U)) / Beta;
    const double N = std::floor(X + 0.5);
    if (N < 0.0)
      continue;
    const double V = Source.nextUniform();
    const double Y = Alpha - Beta * X;
    const double Temp = 1.0 + std::exp(Y);
    const double Lhs = Y + std::log(V / (Temp * Temp));
    const double Rhs = K + N * std::log(Mean) - logFactorial(N);
    if (Lhs <= Rhs)
      return int64_t(N);
  }
}

int64_t samplePoisson(RandomSource &Source, double Mean) {
  assert(Mean > 0.0 && "Poisson mean must be positive");
  return Mean < 30.0 ? samplePoissonKnuth(Source, Mean)
                     : samplePoissonRejection(Source, Mean);
}

int64_t sampleGeometric(RandomSource &Source, double Probability) {
  assert(Probability > 0.0 && Probability <= 1.0 &&
         "geometric success probability must be in (0,1]");
  if (Probability == 1.0)
    return 0;
  // Inversion: floor(log(U)/log(1-p)).
  return int64_t(std::floor(std::log(Source.nextUniform()) /
                            std::log(1.0 - Probability)));
}

double sampleGamma(RandomSource &Source, double Shape, double Scale) {
  assert(Shape > 0.0 && Scale > 0.0 && "gamma parameters must be positive");
  if (Shape < 1.0) {
    // Boosting: G(a) = G(a+1) * U^{1/a}.
    const double Boosted = sampleGamma(Source, Shape + 1.0, 1.0);
    return Scale * Boosted *
           std::pow(Source.nextUniform(), 1.0 / Shape);
  }
  // Marsaglia & Tsang (2000): squeeze around (1 + x/sqrt(9d))³.
  const double D = Shape - 1.0 / 3.0;
  const double C = 1.0 / std::sqrt(9.0 * D);
  for (;;) {
    double X, V;
    do {
      X = sampleStandardNormal(Source);
      V = 1.0 + C * X;
    } while (V <= 0.0);
    V = V * V * V;
    const double U = Source.nextUniform();
    const double XSquared = X * X;
    if (U < 1.0 - 0.0331 * XSquared * XSquared)
      return Scale * D * V;
    if (std::log(U) < 0.5 * XSquared + D * (1.0 - V + std::log(V)))
      return Scale * D * V;
  }
}

double sampleBeta(RandomSource &Source, double Alpha, double Beta) {
  assert(Alpha > 0.0 && Beta > 0.0 && "beta parameters must be positive");
  const double X = sampleGamma(Source, Alpha, 1.0);
  const double Y = sampleGamma(Source, Beta, 1.0);
  return X / (X + Y);
}

int64_t sampleBinomial(RandomSource &Source, int64_t Trials,
                       double Probability) {
  assert(Trials >= 0 && "negative trial count");
  assert(Probability >= 0.0 && Probability <= 1.0 &&
         "probability out of [0,1]");
  if (Trials == 0 || Probability == 0.0)
    return 0;
  if (Probability == 1.0)
    return Trials;
  // Symmetry: work with p <= 1/2 so the recursion terminates fast.
  if (Probability > 0.5)
    return Trials - sampleBinomial(Source, Trials, 1.0 - Probability);

  if (Trials <= 64) {
    int64_t Successes = 0;
    for (int64_t Trial = 0; Trial < Trials; ++Trial)
      Successes += sampleBernoulli(Source, Probability);
    return Successes;
  }

  // Beta-splitting (Knuth/Devroye): the k-th order statistic of n
  // uniforms is Beta(k, n+1-k); condition on it to halve n per step.
  const int64_t Split = Trials / 2 + 1;
  const double Pivot =
      sampleBeta(Source, double(Split), double(Trials + 1 - Split));
  if (Pivot <= Probability)
    return Split +
           sampleBinomial(Source, Trials - Split,
                          (Probability - Pivot) / (1.0 - Pivot));
  return sampleBinomial(Source, Split - 1, Probability / Pivot);
}

double sampleChiSquare(RandomSource &Source, double DegreesOfFreedom) {
  assert(DegreesOfFreedom > 0.0 && "degrees of freedom must be positive");
  return sampleGamma(Source, DegreesOfFreedom / 2.0, 2.0);
}

double sampleStudentT(RandomSource &Source, double DegreesOfFreedom) {
  assert(DegreesOfFreedom > 0.0 && "degrees of freedom must be positive");
  const double Normal = sampleStandardNormal(Source);
  const double ChiSquare = sampleChiSquare(Source, DegreesOfFreedom);
  return Normal / std::sqrt(ChiSquare / DegreesOfFreedom);
}

double sampleLognormal(RandomSource &Source, double MeanLog, double SdLog) {
  return std::exp(sampleNormal(Source, MeanLog, SdLog));
}

Status choleskyFactor(std::vector<double> &Matrix, size_t Dimension) {
  if (Matrix.size() != Dimension * Dimension)
    return invalidArgument("matrix size does not match dimension");
  for (size_t Row = 0; Row < Dimension; ++Row) {
    for (size_t Column = 0; Column <= Row; ++Column) {
      double Sum = Matrix[Row * Dimension + Column];
      for (size_t Inner = 0; Inner < Column; ++Inner)
        Sum -= Matrix[Row * Dimension + Inner] *
               Matrix[Column * Dimension + Inner];
      if (Row == Column) {
        if (Sum <= 0.0)
          return invalidArgument(
              "matrix is not positive definite (pivot " +
              std::to_string(Row) + ")");
        Matrix[Row * Dimension + Column] = std::sqrt(Sum);
      } else {
        Matrix[Row * Dimension + Column] =
            Sum / Matrix[Column * Dimension + Column];
      }
    }
    // Zero the strict upper triangle for a clean factor.
    for (size_t Column = Row + 1; Column < Dimension; ++Column)
      Matrix[Row * Dimension + Column] = 0.0;
  }
  return Status::ok();
}

MultivariateNormal::MultivariateNormal(std::vector<double> Mean,
                                       std::vector<double> Covariance)
    : Mean(std::move(Mean)), Factor(std::move(Covariance)) {
  const size_t Dimension = this->Mean.size();
  Status Factored = choleskyFactor(Factor, Dimension);
  assert(Factored.isOk() && "covariance must be symmetric positive definite");
  Valid = Factored.isOk();
}

void MultivariateNormal::sample(RandomSource &Source, double *Out) const {
  assert(Valid && "sampling from an invalid MultivariateNormal");
  assert(Out && "null output");
  const size_t Dimension = Mean.size();
  // Draw Z pairwise, then Out = Mean + L Z computed in place: iterate rows
  // from the bottom so each row only reads Z values not yet overwritten.
  // Simpler: stage Z in Out, then transform downward from the last row.
  size_t Index = 0;
  while (Index + 1 < Dimension) {
    const NormalPair Pair = sampleStandardNormalPair(Source);
    Out[Index++] = Pair.First;
    Out[Index++] = Pair.Second;
  }
  if (Index < Dimension)
    Out[Index] = sampleStandardNormal(Source);

  for (size_t Row = Dimension; Row-- > 0;) {
    double Sum = Mean[Row];
    for (size_t Column = 0; Column <= Row; ++Column)
      Sum += Factor[Row * Dimension + Column] * Out[Column];
    Out[Row] = Sum;
  }
}

AliasTable::AliasTable(const std::vector<double> &Weights) {
  assert(!Weights.empty() && "alias table needs at least one outcome");
  const size_t Count = Weights.size();
  double Total = 0.0;
  for (double Weight : Weights) {
    assert(Weight >= 0.0 && "negative weight");
    Total += Weight;
  }
  assert(Total > 0.0 && "weights must not all be zero");

  Normalized.resize(Count);
  for (size_t Index = 0; Index < Count; ++Index)
    Normalized[Index] = Weights[Index] / Total;

  // Vose's stable construction: split outcomes into small/large piles by
  // scaled probability, pair each small cell with a large donor.
  Probability.assign(Count, 0.0);
  Alias.assign(Count, 0);
  std::vector<double> Scaled(Count);
  std::vector<size_t> Small, Large;
  for (size_t Index = 0; Index < Count; ++Index) {
    Scaled[Index] = Normalized[Index] * double(Count);
    (Scaled[Index] < 1.0 ? Small : Large).push_back(Index);
  }
  while (!Small.empty() && !Large.empty()) {
    size_t Less = Small.back();
    Small.pop_back();
    size_t More = Large.back();
    Large.pop_back();
    Probability[Less] = Scaled[Less];
    Alias[Less] = More;
    Scaled[More] = (Scaled[More] + Scaled[Less]) - 1.0;
    (Scaled[More] < 1.0 ? Small : Large).push_back(More);
  }
  for (size_t Index : Large)
    Probability[Index] = 1.0;
  for (size_t Index : Small)
    Probability[Index] = 1.0; // numerical leftovers
}

size_t AliasTable::sample(RandomSource &Source) const {
  // One uniform supplies both the cell choice and the accept/alias draw.
  const double Value = Source.nextUniform() * double(Probability.size());
  size_t Cell = size_t(Value);
  if (Cell >= Probability.size()) // guard the Value == size() edge
    Cell = Probability.size() - 1;
  const double Fraction = Value - double(Cell);
  return Fraction < Probability[Cell] ? Cell : Alias[Cell];
}

double AliasTable::probabilityOf(size_t Index) const {
  assert(Index < Normalized.size() && "outcome index out of range");
  return Normalized[Index];
}

} // namespace parmonc
