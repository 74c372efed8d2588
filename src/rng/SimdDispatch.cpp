//===- rng/SimdDispatch.cpp - Host probing for the SIMD kernel TU ---------===//
//
// Part of the PARMONC reproduction library.
//
// Compiled with the project's default flags, never with the PARMONC_SIMD
// target flags — everything here must be executable on any host so that
// Lcg128 can decide whether the kernels in SimdKernels.cpp are safe to
// call. CompiledBackend itself is data (constant-initialized in the
// kernel TU), so reading it here executes no kernel-TU code.
//
//===----------------------------------------------------------------------===//

#include "parmonc/rng/SimdKernels.h"

namespace parmonc {
namespace rngsimd {

const char *backendName(Backend Which) {
  switch (Which) {
  case Backend::Avx512:
    return "avx512";
  case Backend::Avx2:
    return "avx2";
  case Backend::Scalar:
    return "scalar";
  }
  return "unknown";
}

namespace {

bool probeCompiledBackend() {
  switch (CompiledBackend) {
  case Backend::Scalar:
    return true;
  case Backend::Avx2:
#if defined(__x86_64__) || defined(__i386__)
    return __builtin_cpu_supports("avx2") != 0;
#else
    return false;
#endif
  case Backend::Avx512:
#if defined(__x86_64__) || defined(__i386__)
    return __builtin_cpu_supports("avx512f") != 0 &&
           __builtin_cpu_supports("avx512dq") != 0;
#else
    return false;
#endif
  }
  return false;
}

} // namespace

bool runtimeSupportsCompiledBackend() {
  static const bool Supported = probeCompiledBackend();
  return Supported;
}

} // namespace rngsimd
} // namespace parmonc
