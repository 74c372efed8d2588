//===- rng/Philox.cpp - Counter-based production generator ----------------===//
//
// Part of the PARMONC reproduction library.
//
//===----------------------------------------------------------------------===//

#include "parmonc/rng/Philox.h"

#include "parmonc/rng/SimdKernels.h"
#include "parmonc/support/Contract.h"

#include <algorithm>

namespace parmonc {

std::array<uint64_t, 2> philox4x32Block(uint32_t KeyLo, uint32_t KeyHi,
                                        UInt128 Counter) {
  using namespace philox4x32;
  uint32_t X0 = uint32_t(Counter.low());
  uint32_t X1 = uint32_t(Counter.low() >> 32);
  uint32_t X2 = uint32_t(Counter.high());
  uint32_t X3 = uint32_t(Counter.high() >> 32);
  uint32_t K0 = KeyLo, K1 = KeyHi;
  for (unsigned Round = 0; Round < Rounds; ++Round) {
    const uint64_t ProductA = uint64_t(MultiplierA) * X0;
    const uint64_t ProductB = uint64_t(MultiplierB) * X2;
    X0 = uint32_t(ProductB >> 32) ^ X1 ^ K0;
    X1 = uint32_t(ProductB);
    X2 = uint32_t(ProductA >> 32) ^ X3 ^ K1;
    X3 = uint32_t(ProductA);
    K0 += KeyBumpA;
    K1 += KeyBumpB;
  }
  return {(uint64_t(X1) << 32) | X0, (uint64_t(X3) << 32) | X2};
}

void Philox::computeBlock(UInt128 BlockIndex) {
  Cached = philox4x32Block(KeyLo, KeyHi, BlockIndex);
  CachedBlock = BlockIndex;
  CacheValid = true;
}

uint64_t Philox::nextBits64() {
  const UInt128 Block = Position >> 1;
  const unsigned Word = unsigned(Position.low() & 1);
  if (!CacheValid || CachedBlock != Block)
    computeBlock(Block);
  Position += UInt128(1);
  return Cached[Word];
}

void Philox::fillUniforms(double *Out, size_t Count) {
  size_t Index = 0;
  // Enter at a block boundary: at most one scalar draw.
  while (Index < Count && (Position.low() & 1) != 0)
    Out[Index++] = nextUniform();
  // Whole lane groups through the wide kernel. Its block counter starts at
  // Position >> 1 and wraps at 2^127 exactly as that index does, so the
  // stream is bit-identical to the scalar path below.
  const size_t Blocks = (Count - Index) / DrawsPerBlock;
  const size_t WideBlocks = Blocks - Blocks % rngsimd::PhiloxLaneCount;
  if (WideBlocks > 0 && rngsimd::runtimeSupportsCompiledBackend()) {
    rngsimd::fillPhiloxWide(KeyLo, KeyHi, Position >> 1, Out + Index,
                            WideBlocks);
    Position += UInt128(WideBlocks * DrawsPerBlock);
    Index += WideBlocks * DrawsPerBlock;
  }
  // The sub-group tail (or everything, on a host that cannot run the
  // kernel): whole blocks straight into the output, then at most one draw.
  while (Index + DrawsPerBlock <= Count) {
    computeBlock(Position >> 1);
    Out[Index + 0] = bitsToUnitOpen(Cached[0]);
    Out[Index + 1] = bitsToUnitOpen(Cached[1]);
    Position += UInt128(DrawsPerBlock);
    Index += DrawsPerBlock;
  }
  while (Index < Count)
    Out[Index++] = nextUniform();
}

void Philox::seek(UInt128 DrawIndex) {
  Position = DrawIndex;
  // The cache stays valid: nextBits64 re-derives block/word from the
  // position and recomputes on mismatch.
}

Philox Philox::streamFor(const StreamCoordinates &Where,
                         const LeapConfig &Config, uint64_t Key) {
  PARMONC_ASSERT(Config.validate().isOk(), "invalid leap configuration");
  // The same always-on capacity contracts as StreamHierarchy: an index
  // past its level's capacity would land inside a sibling's counter
  // interval, silently correlating "independent" streams.
  PARMONC_ASSERT(Where.Experiment <
                     (uint64_t(1)
                      << std::min(Config.maxExperimentsLog2(), 63u)),
                 "experiment index exceeds hierarchy capacity");
  PARMONC_ASSERT(Where.Processor <
                     (uint64_t(1)
                      << std::min(Config.maxProcessorsLog2(), 63u)),
                 "processor index exceeds hierarchy capacity");
  PARMONC_ASSERT(Where.Realization <
                     (uint64_t(1)
                      << std::min(Config.maxRealizationsLog2(), 63u)),
                 "realization index exceeds hierarchy capacity");
  Philox Stream(Key);
  Stream.seek((UInt128(Where.Experiment) << Config.ExperimentLog2) +
              (UInt128(Where.Processor) << Config.ProcessorLog2) +
              (UInt128(Where.Realization) << Config.RealizationLog2));
  return Stream;
}

} // namespace parmonc
