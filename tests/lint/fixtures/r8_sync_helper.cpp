// mclint fixture: a helper TU hiding raw synchronization behind a
// function boundary. Its definitions taint calls made from core/ (R8);
// the raw primitives themselves are direct R8 findings.
#include <mutex> // expect: R8

namespace parmonc {

void fixtureSpinHelper(int *Flag) {
  std::mutex FixtureLock; // expect: R8
  *Flag = 1;
}

} // namespace parmonc
