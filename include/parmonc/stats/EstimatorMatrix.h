//===- parmonc/stats/EstimatorMatrix.h - Matrix moment accumulation -------===//
//
// Part of the PARMONC reproduction library.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The estimator algebra of §2.1–2.2. A realization of the random object is
/// an n_row x n_col matrix [ζ_ij]; the library accumulates raw moment sums
///
///   S_ij = Σ ζ_ij,   Q_ij = Σ ζ_ij²,   volume l,
///
/// from which it derives the matrices PARMONC saves: sample means ζ̄_ij,
/// sample variances σ²_ij = ξ̄_ij - ζ̄²_ij, absolute errors
/// ε_ij = γ σ_ij l^-1/2 and relative errors ρ_ij = ε_ij/|ζ̄_ij|·100%, plus
/// their maxima. Keeping *sums* (not means) makes the cross-processor merge
/// of eq. (5) and run resumption exact: both are plain additions.
///
//===----------------------------------------------------------------------===//

#ifndef PARMONC_STATS_ESTIMATORMATRIX_H
#define PARMONC_STATS_ESTIMATORMATRIX_H

#include "parmonc/stats/Confidence.h"
#include "parmonc/support/Status.h"

#include <cassert>
#include <cstdint>
#include <vector>

namespace parmonc {

/// Derived per-entry statistics at a given moment of the simulation.
struct EntryStatistics {
  double Mean = 0.0;          ///< ζ̄_ij
  double Variance = 0.0;      ///< σ²_ij (clamped at 0 against rounding)
  double AbsoluteError = 0.0; ///< ε_ij = γ σ l^-1/2
  double RelativeError = 0.0; ///< ρ_ij in percent; +inf when the mean is 0
};

/// Upper bounds over all matrix entries (the ε_max, ρ_max, σ²_max of §2.1).
struct ErrorBounds {
  double MaxAbsoluteError = 0.0;
  double MaxRelativeError = 0.0;
  double MaxVariance = 0.0;
};

/// Accumulates realizations of a matrix-valued random object and produces
/// the derived statistic matrices. Row-major storage.
class EstimatorMatrix {
public:
  /// An empty accumulator for \p Rows x \p Columns objects (both >= 1).
  EstimatorMatrix(size_t Rows, size_t Columns);

  /// Default-constructs a 1x1 accumulator (scalar estimators).
  EstimatorMatrix() : EstimatorMatrix(1, 1) {}

  size_t rows() const { return Rows; }
  size_t columns() const { return Columns; }
  size_t entryCount() const { return Rows * Columns; }

  /// Total number of accumulated realizations l.
  int64_t sampleVolume() const { return Volume; }

  /// Adds one realization. \p Realization is row-major with entryCount()
  /// elements.
  void accumulate(const double *Realization);
  void accumulate(const std::vector<double> &Realization) {
    assert(Realization.size() == entryCount() &&
           "realization has wrong shape");
    accumulate(Realization.data());
  }

  /// Adds another accumulator's raw sums into this one — eq. (5), used both
  /// for collecting processor subtotals on rank 0 and for resumption.
  /// Shapes must match.
  [[nodiscard]] Status merge(const EstimatorMatrix &Other);

  /// Raw moment sums (needed by the checkpoint format).
  const std::vector<double> &valueSums() const { return SumValues; }
  const std::vector<double> &squareSums() const { return SumSquares; }

  /// Rebuilds an accumulator from checkpointed raw sums.
  [[nodiscard]] static Result<EstimatorMatrix>
  fromRawSums(size_t Rows, size_t Columns, std::vector<double> ValueSums,
              std::vector<double> SquareSums, int64_t Volume);

  /// Derived statistics of entry (\p Row, \p Column). Requires a positive
  /// sample volume. \p ErrorMultiplier is γ(λ); the default is the paper's
  /// γ = 3 (λ = 0.997).
  EntryStatistics entryStatistics(
      size_t Row, size_t Column,
      double ErrorMultiplier = DefaultErrorMultiplier) const;

  /// Full derived matrices, row-major. Each output vector is resized to
  /// entryCount(). Any pointer may be null to skip that matrix.
  void computeMatrices(std::vector<double> *Means,
                       std::vector<double> *AbsoluteErrors,
                       std::vector<double> *RelativeErrors,
                       std::vector<double> *Variances,
                       double ErrorMultiplier = DefaultErrorMultiplier) const;

  /// ε_max, ρ_max, σ²_max over all entries. Entries with zero mean are
  /// excluded from ρ_max (their relative error is undefined), matching
  /// what a user can meaningfully bound.
  ErrorBounds errorBounds(
      double ErrorMultiplier = DefaultErrorMultiplier) const;

  /// Forgets all accumulated data.
  void reset();

private:
  size_t Rows;
  size_t Columns;
  int64_t Volume = 0;
  std::vector<double> SumValues;
  std::vector<double> SumSquares;
};

} // namespace parmonc

#endif // PARMONC_STATS_ESTIMATORMATRIX_H
