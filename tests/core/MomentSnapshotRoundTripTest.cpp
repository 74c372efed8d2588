//===- tests/core/MomentSnapshotRoundTripTest.cpp - Serialization property ===//
//
// Part of the PARMONC reproduction library.
//
//===----------------------------------------------------------------------===//
//
// Property test: MomentSnapshot survives both serializations — the text
// checkpoint format and the binary mailbox format — *bit-exactly*, for
// randomized shapes and for the nastiest double values (±DBL_MAX,
// subnormals, negative zero). Bit-exactness is not pedantry here: the
// paper's resumption (§3.2) and manaver recovery (§3.4) re-merge saved raw
// sums with live ones, so any rounding in the save/load cycle would make a
// resumed run diverge from an uninterrupted one.
//
//===----------------------------------------------------------------------===//

#include "parmonc/core/ResultsStore.h"
#include "parmonc/rng/Baselines.h"

#include <gtest/gtest.h>

#include <cfloat>
#include <cmath>
#include <cstring>

using namespace parmonc;

namespace {

/// Bitwise equality: distinguishes -0.0 from 0.0 and compares NaN-free
/// payloads exactly.
bool sameBits(double A, double B) {
  uint64_t BitsA, BitsB;
  std::memcpy(&BitsA, &A, sizeof BitsA);
  std::memcpy(&BitsB, &B, sizeof BitsB);
  return BitsA == BitsB;
}

/// A hostile-but-valid double: mixes magnitudes from subnormal to DBL_MAX,
/// both signs, and exact zeros of both signs.
double hostileDouble(SplitMix64 &Rng) {
  switch (Rng.nextBits64() % 8) {
  case 0:
    return 0.0;
  case 1:
    return -0.0;
  case 2:
    return DBL_MAX;
  case 3:
    return -DBL_MAX;
  case 4:
    return DBL_MIN / 4.0; // subnormal
  case 5:
    return -DBL_TRUE_MIN; // smallest subnormal, negative
  default: {
    // Random finite double via random bits with a bounded exponent.
    const uint64_t Mantissa = Rng.nextBits64() & ((uint64_t(1) << 52) - 1);
    const uint64_t Exponent = 1 + Rng.nextBits64() % 2045; // avoid inf/nan
    const uint64_t Sign = (Rng.nextBits64() & 1) << 63;
    const uint64_t Bits = Sign | (Exponent << 52) | Mantissa;
    double Value;
    std::memcpy(&Value, &Bits, sizeof Value);
    return Value;
  }
  }
}

MomentSnapshot randomSnapshot(SplitMix64 &Rng, bool WithHistograms) {
  const size_t Rows = 1 + Rng.nextBits64() % 4;
  const size_t Columns = 1 + Rng.nextBits64() % 5;
  const int64_t Volume = int64_t(Rng.nextBits64() % 1'000'000);

  std::vector<double> Sums, Squares;
  for (size_t Index = 0; Index < Rows * Columns; ++Index) {
    Sums.push_back(hostileDouble(Rng));
    // Square sums must be non-negative (enforced by fromRawSums).
    Squares.push_back(std::fabs(hostileDouble(Rng)));
  }

  Result<EstimatorMatrix> Moments = EstimatorMatrix::fromRawSums(
      Rows, Columns, std::move(Sums), std::move(Squares), Volume);
  EXPECT_TRUE(Moments.isOk()) << Moments.status().toString();

  MomentSnapshot Snapshot;
  Snapshot.SequenceNumber = Rng.nextBits64();
  Snapshot.ComputeSeconds = std::fabs(hostileDouble(Rng));
  Snapshot.Moments = std::move(Moments).value();
  if (WithHistograms) {
    const size_t HistogramCount = 1 + Rng.nextBits64() % 3;
    for (size_t Index = 0; Index < HistogramCount; ++Index) {
      HistogramEstimator Histogram(-2.0, 3.0, 1 + Rng.nextBits64() % 32);
      const size_t SampleCount = Rng.nextBits64() % 200;
      for (size_t Sample = 0; Sample < SampleCount; ++Sample)
        Histogram.add(-4.0 + double(Rng.nextBits64() % 1000) / 125.0);
      Snapshot.Histograms.push_back(std::move(Histogram));
    }
  }
  return Snapshot;
}

void expectBitIdentical(const MomentSnapshot &Original,
                        const MomentSnapshot &Restored) {
  EXPECT_EQ(Original.SequenceNumber, Restored.SequenceNumber);
  EXPECT_TRUE(sameBits(Original.ComputeSeconds, Restored.ComputeSeconds))
      << Original.ComputeSeconds << " vs " << Restored.ComputeSeconds;
  ASSERT_EQ(Original.Moments.rows(), Restored.Moments.rows());
  ASSERT_EQ(Original.Moments.columns(), Restored.Moments.columns());
  EXPECT_EQ(Original.Moments.sampleVolume(), Restored.Moments.sampleVolume());
  for (size_t Index = 0; Index < Original.Moments.valueSums().size();
       ++Index) {
    EXPECT_TRUE(sameBits(Original.Moments.valueSums()[Index],
                         Restored.Moments.valueSums()[Index]))
        << "sum " << Index;
    EXPECT_TRUE(sameBits(Original.Moments.squareSums()[Index],
                         Restored.Moments.squareSums()[Index]))
        << "square " << Index;
  }
  ASSERT_EQ(Original.Histograms.size(), Restored.Histograms.size());
  for (size_t Index = 0; Index < Original.Histograms.size(); ++Index) {
    const HistogramEstimator &Before = Original.Histograms[Index];
    const HistogramEstimator &After = Restored.Histograms[Index];
    EXPECT_TRUE(sameBits(Before.low(), After.low()));
    EXPECT_TRUE(sameBits(Before.high(), After.high()));
    ASSERT_EQ(Before.binCount(), After.binCount());
    EXPECT_EQ(Before.underflowCount(), After.underflowCount());
    EXPECT_EQ(Before.overflowCount(), After.overflowCount());
    for (size_t Bin = 0; Bin < Before.binCount(); ++Bin)
      EXPECT_EQ(Before.countOf(Bin), After.countOf(Bin)) << "bin " << Bin;
  }
}

TEST(MomentSnapshotRoundTrip, TextFormatIsBitExact) {
  SplitMix64 Rng(0xC0FFEEull);
  for (int Trial = 0; Trial < 50; ++Trial) {
    const MomentSnapshot Original = randomSnapshot(Rng, Trial % 2 == 0);
    Result<MomentSnapshot> Restored =
        MomentSnapshot::fromFileContents(Original.toFileContents());
    ASSERT_TRUE(Restored.isOk())
        << "trial " << Trial << ": " << Restored.status().toString();
    expectBitIdentical(Original, Restored.value());
  }
}

TEST(MomentSnapshotRoundTrip, BinaryFormatIsBitExact) {
  SplitMix64 Rng(0xBADC0DEull);
  for (int Trial = 0; Trial < 50; ++Trial) {
    const MomentSnapshot Original = randomSnapshot(Rng, Trial % 2 == 1);
    Result<MomentSnapshot> Restored =
        MomentSnapshot::fromBytes(Original.toBytes());
    ASSERT_TRUE(Restored.isOk())
        << "trial " << Trial << ": " << Restored.status().toString();
    expectBitIdentical(Original, Restored.value());
  }
}

TEST(MomentSnapshotRoundTrip, TextSerializationIsStable) {
  // Serializing the restored snapshot reproduces the original text byte
  // for byte — the stronger form of round-trip stability that makes
  // checkpoint files diffable across save/load cycles.
  SplitMix64 Rng(0x5EEDull);
  for (int Trial = 0; Trial < 20; ++Trial) {
    const MomentSnapshot Original = randomSnapshot(Rng, true);
    const std::string FirstText = Original.toFileContents();
    Result<MomentSnapshot> Restored =
        MomentSnapshot::fromFileContents(FirstText);
    ASSERT_TRUE(Restored.isOk()) << Restored.status().toString();
    EXPECT_EQ(FirstText, Restored.value().toFileContents());
  }
}

} // namespace
