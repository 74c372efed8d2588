// mclint fixture: R10 — waivers naming rule ids mclint does not have.
#include <ctime>

namespace parmonc {

long fixtureRetiredWaivers(int Count) {
  int Total = Count * 2; // mclint: allow(R99): no such rule - expect: R10
  return Total + time(nullptr); // mclint: allow(R2, R1): retired - expect: R10
}

} // namespace parmonc
