//===- rng/Baselines.cpp - Comparison generators --------------------------===//
//
// Part of the PARMONC reproduction library.
//
//===----------------------------------------------------------------------===//

#include "parmonc/rng/Baselines.h"

#include "parmonc/rng/Philox.h"

namespace parmonc {

Xoshiro256StarStar::Xoshiro256StarStar(uint64_t Seed) {
  SplitMix64 Seeder(Seed);
  for (uint64_t &Word : State)
    Word = Seeder.nextBits64();
}

uint64_t Philox4x32::nextBits64() {
  if (NextDraw == Block.size()) {
    Block = philox4x32Block(KeyLo, KeyHi, Counter);
    Counter += UInt128(1);
    NextDraw = 0;
  }
  return Block[NextDraw++];
}

void Philox4x32::seekToBlock(uint64_t BlockIndex) {
  Counter = UInt128(BlockIndex);
  NextDraw = unsigned(Block.size());
}

} // namespace parmonc
