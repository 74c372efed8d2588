//===- tests/core/SnapshotPayloadTest.cpp - Binary snapshot message form --===//
//
// Part of the PARMONC reproduction library.
//
//===----------------------------------------------------------------------===//
//
// The binary form every subtotal crosses the transports in: its layout
// pinned byte for byte, and the collector's receipt-time check held to the
// verdicts of the full decoder.
//
//===----------------------------------------------------------------------===//

#include "parmonc/core/ResultsStore.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

namespace parmonc {
namespace {

std::string hexOf(const std::vector<uint8_t> &Bytes) {
  std::string Hex;
  char Digits[3];
  for (uint8_t Byte : Bytes) {
    std::snprintf(Digits, sizeof(Digits), "%02x", Byte);
    Hex += Digits;
  }
  return Hex;
}

/// A fixed 2x2 snapshot of two realizations with one histogram.
MomentSnapshot fixedSnapshot() {
  MomentSnapshot Snapshot;
  Snapshot.SequenceNumber = 5;
  Snapshot.ComputeSeconds = 0.25;
  Snapshot.Moments = EstimatorMatrix(2, 2);
  const double First[4] = {1.0, -2.5, 0.125, 3.0};
  const double Second[4] = {0.5, 4.0, -1.0, 0.0};
  Snapshot.Moments.accumulate(First);
  Snapshot.Moments.accumulate(Second);
  Snapshot.Histograms.emplace_back(0.0, 2.0, 4);
  Snapshot.Histograms[0].add(0.25);
  Snapshot.Histograms[0].add(1.5);
  Snapshot.Histograms[0].add(3.0);
  return Snapshot;
}

TEST(SnapshotPayload, BinaryLayoutIsFixed) {
  EXPECT_EQ(
      hexOf(fixedSnapshot().toBytes()),
      // seqnum 5, rows 2, columns 2, volume 2, compute seconds 0.25
      "0500000000000000"
      "0200000000000000"
      "0200000000000000"
      "0200000000000000"
      "000000000000d03f"
      // value sums: count 4, then 1.5 1.5 -0.875 3.0
      "0400000000000000"
      "000000000000f83f"
      "000000000000f83f"
      "000000000000ecbf"
      "0000000000000840"
      // square sums: count 4, then 1.25 22.25 1.015625 9.0
      "0400000000000000"
      "000000000000f43f"
      "0000000000403640"
      "000000000040f03f"
      "0000000000002240"
      // one histogram, as length-prefixed text
      "0100000000000000"
      "7700000000000000"
      "23205041524d4f4e4320686973746f6772616d0a72616e67"
      "6520302e3030303030303030303030303030303030652b303020322e30303030"
      "30303030303030303030303030652b30300a62696e7320340a756e646572666c"
      "6f7720300a6f766572666c6f7720310a636f756e747320312030203020310a");
}

/// Overwrites the little-endian u64 at \p Offset.
void patchU64(std::vector<uint8_t> &Bytes, size_t Offset, uint64_t Value) {
  for (int Byte = 0; Byte < 8; ++Byte)
    Bytes[Offset + size_t(Byte)] = uint8_t(Value >> (8 * Byte));
}

void patchDouble(std::vector<uint8_t> &Bytes, size_t Offset, double Value) {
  uint64_t Bits;
  std::memcpy(&Bits, &Value, sizeof(Bits));
  patchU64(Bytes, Offset, Bits);
}

// Offsets into fixedSnapshot()'s payload.
constexpr size_t VolumeOffset = 24;
constexpr size_t SquaresOffset = 80; // the square-sum count
constexpr size_t HistogramsOffset = 120;

/// checkBytes must reject \p Bytes with the error kind fromBytes gives.
void expectRejectedLikeFromBytes(const std::vector<uint8_t> &Bytes) {
  Result<MomentSnapshot> Decoded = MomentSnapshot::fromBytes(Bytes);
  Result<int64_t> Checked = MomentSnapshot::checkBytes(Bytes, 2, 2);
  ASSERT_FALSE(Decoded);
  ASSERT_FALSE(Checked);
  EXPECT_EQ(Checked.status().code(), Decoded.status().code())
      << "check: " << Checked.status().toString()
      << "\ndecode: " << Decoded.status().toString();
}

TEST(SnapshotPayload, CheckAcceptsWhatDecodesAndReturnsTheVolume) {
  Result<int64_t> Volume =
      MomentSnapshot::checkBytes(fixedSnapshot().toBytes(), 2, 2);
  ASSERT_TRUE(Volume) << Volume.status().toString();
  EXPECT_EQ(Volume.value(), 2);
}

TEST(SnapshotPayload, CheckRejectsEveryTruncation) {
  const std::vector<uint8_t> Whole = fixedSnapshot().toBytes();
  for (size_t Kept = 0; Kept < Whole.size(); ++Kept)
    expectRejectedLikeFromBytes(std::vector<uint8_t>(
        Whole.begin(), Whole.begin() + std::ptrdiff_t(Kept)));
}

TEST(SnapshotPayload, CheckRejectsAShapeMismatch) {
  // Two sums for a 2x2 matrix: the sections disagree with the header.
  std::vector<uint8_t> Short = fixedSnapshot().toBytes();
  patchU64(Short, 40, 2);
  Short.erase(Short.begin() + 64, Short.begin() + 80);
  expectRejectedLikeFromBytes(Short);

  // A well-formed payload of another run's shape decodes, but the
  // collector must not merge it into this run's 2x2 sums.
  MomentSnapshot Other;
  Other.Moments = EstimatorMatrix(1, 3);
  Result<int64_t> Checked =
      MomentSnapshot::checkBytes(Other.toBytes(), 2, 2);
  ASSERT_FALSE(Checked);
  EXPECT_EQ(Checked.status().code(), StatusCode::InvalidArgument);
}

TEST(SnapshotPayload, CheckRejectsANegativeVolume) {
  std::vector<uint8_t> Bytes = fixedSnapshot().toBytes();
  patchU64(Bytes, VolumeOffset, uint64_t(-1));
  expectRejectedLikeFromBytes(Bytes);
}

TEST(SnapshotPayload, CheckRejectsANegativeSquareSum) {
  std::vector<uint8_t> Bytes = fixedSnapshot().toBytes();
  patchDouble(Bytes, SquaresOffset + 8 + 3 * 8, -1.0);
  expectRejectedLikeFromBytes(Bytes);
}

TEST(SnapshotPayload, CheckRejectsTrailingBytes) {
  std::vector<uint8_t> Bytes = fixedSnapshot().toBytes();
  Bytes.push_back(0);
  expectRejectedLikeFromBytes(Bytes);
}

TEST(SnapshotPayload, CheckLeavesHistogramTextToTheDecoder) {
  // A corrupt histogram body is caught when the payload is decoded at a
  // save point, not at receipt.
  std::vector<uint8_t> Bytes = fixedSnapshot().toBytes();
  Bytes[HistogramsOffset + 16] = '!';
  EXPECT_TRUE(MomentSnapshot::checkBytes(Bytes, 2, 2));
  EXPECT_FALSE(MomentSnapshot::fromBytes(Bytes));
}

} // namespace
} // namespace parmonc
