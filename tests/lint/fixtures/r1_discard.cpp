// mclint fixture: R11 must-check, the discarded-call half: a bare call
// into the fallible-API set drops its Status, in any function body the CFG
// builder parses. Never compiled — linted only.
#include "parmonc/support/Text.h"

[[nodiscard]] int mightFail();

namespace parmonc {

void fixtureBody() {
  writeFileAtomic("ledger.dat", "x"); // expect: R11
  mightFail();                        // expect: R11
  (void)writeFileAtomic("ledger.dat", "x");
  Status Saved = writeFileAtomic("ledger.dat", "x");
  if (!Saved)
    return;
  // mclint: allow(R11): fixture demonstrates the waiver escape hatch
  writeFileAtomic("waived.dat", "x");
}

} // namespace parmonc
