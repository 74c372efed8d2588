//===- tests/rng/PhiloxWideTest.cpp - Wide Philox fill differentials ------===//
//
// Part of the PARMONC reproduction library.
//
//===----------------------------------------------------------------------===//
//
// The wide Philox fill's bit-equality contract (docs/RNG.md#philox-backend):
// Philox::fillUniforms, which routes whole lane groups of counter blocks
// through rngsimd::fillPhiloxWide, must emit exactly the bytes of per-draw
// nextUniform() and leave exactly the same position — at every length,
// from even and odd entry positions, across the block counter's carries
// out of each 32-bit word, and across its wrap at 2^127 (the block index
// of a 128-bit draw position). The scalar block function philox4x32Block
// is the oracle.
//
//===----------------------------------------------------------------------===//

#include "parmonc/rng/Philox.h"

#include "parmonc/rng/SimdKernels.h"

#include <gtest/gtest.h>

#include <array>
#include <cstring>
#include <string>
#include <vector>

namespace parmonc {
namespace {

constexpr size_t Lanes = rngsimd::PhiloxLaneCount;

const uint64_t Keys[] = {0, 42, 0xdeadbeefcafebabeull};

// 0, 1, 2, the integrator's 512-draw block, a large odd count, and the
// lane count ±1 in draws and in blocks (with and without a trailing odd
// draw).
std::vector<size_t> lengths() {
  std::vector<size_t> Result = {0, 1, 2, 512, 10001};
  for (size_t Near : {Lanes - 1, Lanes, Lanes + 1}) {
    Result.push_back(Near);
    Result.push_back(2 * Near);
    Result.push_back(2 * Near + 1);
  }
  return Result;
}

// Entry positions, even and odd: the origin, then draw positions whose
// block index carries out of the counter's first, second and third 32-bit
// words mid lane group, and the wrap of the block index at 2^127 (draw
// position 2^128 − 101, so the fill wraps to position 0).
std::vector<UInt128> entryPositions() {
  std::vector<UInt128> Positions = {UInt128(0), UInt128(1)};
  for (unsigned CarryBit : {33u, 65u, 97u}) {
    const UInt128 Carry = UInt128::powerOfTwo(CarryBit);
    Positions.push_back(Carry - UInt128(40));
    Positions.push_back(Carry - UInt128(41));
  }
  const UInt128 Wrap = UInt128(0) - UInt128(101);
  Positions.push_back(Wrap);
  Positions.push_back(Wrap + UInt128(1));
  return Positions;
}

std::string describe(uint64_t Key, UInt128 Position, size_t Count) {
  return "key " + std::to_string(Key) + " position " +
         Position.toHexString() + " count " + std::to_string(Count);
}

TEST(PhiloxWide, FillMatchesPerDrawAtEveryShape) {
  for (uint64_t Key : Keys) {
    for (UInt128 Start : entryPositions()) {
      for (size_t Count : lengths()) {
        Philox Batched(Key), Scalar(Key);
        Batched.seek(Start);
        Scalar.seek(Start);
        std::vector<double> Got(Count + 1, -1.0), Want(Count + 1, -1.0);
        Batched.fillUniforms(Got.data(), Count);
        for (size_t Index = 0; Index < Count; ++Index)
          Want[Index] = Scalar.nextUniform();
        const std::string Where = describe(Key, Start, Count);
        // The sentinel past the end must survive too.
        ASSERT_EQ(0, std::memcmp(Got.data(), Want.data(),
                                 (Count + 1) * sizeof(double)))
            << Where;
        ASSERT_EQ(Batched.position(), Scalar.position()) << Where;
        ASSERT_EQ(Batched.nextBits64(), Scalar.nextBits64()) << Where;
      }
    }
  }
}

TEST(PhiloxWide, SeekBackAfterAFillRedrawsTheSameStream) {
  // A scalar draw caches a block, the fill moves past it through the
  // kernel, and seeking back re-enters that cached block: the second fill
  // and the draws after it must still match the oracle, so no cached block
  // is ever served for the wrong position.
  for (uint64_t Key : Keys) {
    for (UInt128 Start : entryPositions()) {
      constexpr size_t Count = 4 * Lanes + 5;
      Philox Generator(Key), Oracle(Key);
      Generator.seek(Start);
      Oracle.seek(Start);
      std::vector<double> Want(Count + 1);
      for (double &Value : Want)
        Value = Oracle.nextUniform();

      std::vector<double> First(Count), Second(Count);
      const double Lead = Generator.nextUniform();
      ASSERT_EQ(0, std::memcmp(&Lead, Want.data(), sizeof(double)));
      Generator.fillUniforms(First.data(), Count);
      Generator.seek(Start + UInt128(1));
      Generator.fillUniforms(Second.data(), Count);
      const std::string Where = describe(Key, Start, Count);
      ASSERT_EQ(0, std::memcmp(First.data(), Want.data() + 1,
                               Count * sizeof(double)))
          << Where;
      ASSERT_EQ(0, std::memcmp(Second.data(), Want.data() + 1,
                               Count * sizeof(double)))
          << Where;
      ASSERT_EQ(Generator.position(), Oracle.position()) << Where;
      ASSERT_EQ(Generator.nextBits64(), Oracle.nextBits64()) << Where;

      // Back into the middle of the kernel-filled range, scalar draws.
      Generator.seek(Start + UInt128(2 * Lanes + 3));
      Philox Probe(Key);
      Probe.seek(Start + UInt128(2 * Lanes + 3));
      for (int Draw = 0; Draw < 3; ++Draw)
        ASSERT_EQ(Generator.nextBits64(), Probe.nextBits64()) << Where;
    }
  }
}

TEST(PhiloxWide, KernelMatchesScalarBlockFunction) {
  // The kernel alone against philox4x32Block, with the first block swept
  // across each carry point so that every lane, including the last, is
  // the one that carries — and across the 2^127 wrap.
  if (!rngsimd::runtimeSupportsCompiledBackend())
    GTEST_SKIP() << "compiled SIMD backend not executable on this host";
  const UInt128 BlockMask = UInt128::powerOfTwo(127) - UInt128(1);
  for (uint64_t Key : Keys) {
    const uint32_t KeyLo = uint32_t(Key), KeyHi = uint32_t(Key >> 32);
    for (unsigned CarryBit : {32u, 64u, 96u, 127u}) {
      for (size_t Back = 0; Back <= Lanes + 1; ++Back) {
        const UInt128 First =
            (UInt128::powerOfTwo(CarryBit) - UInt128(Back)) & BlockMask;
        constexpr size_t Blocks = 2 * Lanes;
        std::vector<double> Got(2 * Blocks + 1, -1.0);
        std::vector<double> Want(2 * Blocks + 1, -1.0);
        rngsimd::fillPhiloxWide(KeyLo, KeyHi, First, Got.data(), Blocks);
        UInt128 Block = First;
        for (size_t Index = 0; Index < Blocks; ++Index) {
          const std::array<uint64_t, 2> Draws =
              philox4x32Block(KeyLo, KeyHi, Block);
          Want[2 * Index] = bitsToUnitOpen(Draws[0]);
          Want[2 * Index + 1] = bitsToUnitOpen(Draws[1]);
          Block = (Block + UInt128(1)) & BlockMask;
        }
        ASSERT_EQ(0, std::memcmp(Got.data(), Want.data(),
                                 Got.size() * sizeof(double)))
            << describe(Key, First, Blocks);
      }
    }
  }
}

} // namespace
} // namespace parmonc
