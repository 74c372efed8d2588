// mclint fixture: R8 direct raw synchronization inside core/, where the
// call-taint check applies too. Never compiled — linted only.
#include <condition_variable> // expect: R8

namespace parmonc {

struct FixtureGate {
  std::condition_variable Ready; // expect: R8
  int Guarded = 0;
};

} // namespace parmonc
