//===- rng/Lcg128.cpp - The paper's 128-bit congruential RNG -------------===//
//
// Part of the PARMONC reproduction library.
//
//===----------------------------------------------------------------------===//

#include "parmonc/rng/Lcg128.h"
#include "parmonc/rng/LcgPow2.h"
#include "parmonc/rng/LeapWindow.h"
#include "parmonc/rng/SimdKernels.h"

namespace parmonc {

UInt128 Lcg128::defaultMultiplier() {
  // A = 5^101 (mod 2^128). The odd exponent makes A ≡ 5 (mod 8), the
  // maximal-period class; computed once on first use.
  static const UInt128 Multiplier =
      UInt128::powModPow2(UInt128(5), UInt128(101), 128);
  return Multiplier;
}

namespace {

/// Below this batch size the wide kernel's lane setup (eleven scalar
/// 128-bit multiplies) is not worth amortizing; the four-lane path wins.
constexpr size_t WideBatchThreshold = 2 * rngsimd::LaneCount;

/// The step constants of the four-lane interleave, derived once per batch
/// (or once per block-leap call — deriving them per block was the
/// re-interleave penalty BENCH_rng.json used to show).
struct FourLaneStep {
  UInt128 Squared;
  UInt128 Fourth;
  explicit FourLaneStep(UInt128 Multiplier)
      : Squared(Multiplier * Multiplier), Fourth(Squared * Squared) {}
};

/// The shared four-lane batch kernel. Emits u_{k+1} .. u_{k+Count} through
/// \p Emit(index, state) and leaves \p State at u_{k+Count}. Lane j holds
/// u_{k+1+4t+j} and steps by A^4, so the four 128-bit multiply chains are
/// independent and overlap in the pipeline; outputs are emitted in
/// sequence order, bit-equal to the scalar recurrence.
template <typename EmitFn>
void runBatchKernel(UInt128 &State, UInt128 Multiplier,
                    const FourLaneStep &Step, size_t Count, EmitFn &&Emit) {
  size_t Index = 0;
  if (Count >= 4) {
    UInt128 Lane0 = State * Multiplier;
    UInt128 Lane1 = State * Step.Squared;
    UInt128 Lane2 = Lane0 * Step.Squared;
    UInt128 Lane3 = State * Step.Fourth;
    for (;;) {
      Emit(Index + 0, Lane0);
      Emit(Index + 1, Lane1);
      Emit(Index + 2, Lane2);
      Emit(Index + 3, Lane3);
      Index += 4;
      if (Index + 4 > Count)
        break;
      Lane0 = Lane0 * Step.Fourth;
      Lane1 = Lane1 * Step.Fourth;
      Lane2 = Lane2 * Step.Fourth;
      Lane3 = Lane3 * Step.Fourth;
    }
    State = Lane3; // u_{k+Index}: the last full-quad output
  }
  for (; Index < Count; ++Index) {
    State = State * Multiplier;
    Emit(Index, State);
  }
}

} // namespace

void Lcg128::skip(UInt128 Steps) {
  if (Multiplier == defaultMultiplier()) {
    // Shared across all default-multiplier generators; function-local
    // statics are initialized thread-safely and pow() is read-only.
    static const PowerWindow DefaultWindow(defaultMultiplier(), 128);
    State = State * DefaultWindow.pow(Steps);
    return;
  }
  State = State * UInt128::powModPow2(Multiplier, Steps, 128);
}

const char *Lcg128::batchKernelName() {
  if (!rngsimd::runtimeSupportsCompiledBackend())
    return "four-lane";
  if (rngsimd::CompiledBackend == rngsimd::Backend::Scalar)
    return "scalar-wide";
  return rngsimd::backendName(rngsimd::CompiledBackend);
}

void Lcg128::fillBatch(double *Out, size_t Count) {
  if (Count >= WideBatchThreshold &&
      rngsimd::runtimeSupportsCompiledBackend()) {
    UInt128 Current = state();
    rngsimd::fillBatchWide(Current, multiplier(), Out, Count);
    setState(Current);
    return;
  }
  fillBatchFourLane(Out, Count);
}

void Lcg128::fillBatchBits64(uint64_t *Out, size_t Count) {
  if (Count >= WideBatchThreshold &&
      rngsimd::runtimeSupportsCompiledBackend()) {
    UInt128 Current = state();
    rngsimd::fillBatchBits64Wide(Current, multiplier(), Out, Count);
    setState(Current);
    return;
  }
  fillBatchBits64FourLane(Out, Count);
}

void Lcg128::fillBlockLeap(double *Out, size_t BlockCount,
                           size_t DrawsPerBlock, UInt128 LeapMultiplier) {
  PARMONC_ASSERT(LeapMultiplier.bit(0),
                 "block-leap multiplier must be odd (a power of A)");
  if (BlockCount >= rngsimd::LaneCount && DrawsPerBlock > 0 &&
      rngsimd::runtimeSupportsCompiledBackend()) {
    UInt128 Current = state();
    rngsimd::fillBlockLeapWide(Current, multiplier(), Out, BlockCount,
                               DrawsPerBlock, LeapMultiplier);
    setState(Current);
    return;
  }
  fillBlockLeapFourLane(Out, BlockCount, DrawsPerBlock, LeapMultiplier);
}

void Lcg128::fillBatchFourLane(double *Out, size_t Count) {
  UInt128 Current = state();
  const FourLaneStep Step(multiplier());
  runBatchKernel(Current, multiplier(), Step, Count,
                 [Out](size_t Index, UInt128 Value) {
                   Out[Index] = bitsToUnitOpen(Value.high());
                 });
  setState(Current);
}

void Lcg128::fillBatchBits64FourLane(uint64_t *Out, size_t Count) {
  UInt128 Current = state();
  const FourLaneStep Step(multiplier());
  runBatchKernel(Current, multiplier(), Step, Count,
                 [Out](size_t Index, UInt128 Value) {
                   Out[Index] = Value.high();
                 });
  setState(Current);
}

void Lcg128::fillBlockLeapFourLane(double *Out, size_t BlockCount,
                                   size_t DrawsPerBlock,
                                   UInt128 LeapMultiplier) {
  // The auxiliary generator û_{m+1} = û_m * A(n) walks the block starts;
  // each block then runs the base recurrence from its own start, exactly
  // as a RealizationCursor + fillBatch pair would. The interleave
  // constants are hoisted out of the block loop.
  PARMONC_ASSERT(LeapMultiplier.bit(0),
                 "block-leap multiplier must be odd (a power of A)");
  UInt128 BlockStart = state();
  const FourLaneStep Step(multiplier());
  for (size_t Block = 0; Block < BlockCount; ++Block) {
    UInt128 Current = BlockStart;
    runBatchKernel(Current, multiplier(), Step, DrawsPerBlock,
                   [Out, Block, DrawsPerBlock](size_t Index, UInt128 Value) {
                     Out[Block * DrawsPerBlock + Index] =
                         bitsToUnitOpen(Value.high());
                   });
    BlockStart = BlockStart * LeapMultiplier;
  }
  setState(BlockStart);
}

LcgPow2 LcgPow2::makeClassic40() {
  return LcgPow2(40, UInt128::powModPow2(UInt128(5), UInt128(17), 40));
}

} // namespace parmonc
