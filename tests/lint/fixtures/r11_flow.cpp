// mclint fixture: R11 must-check, the flow-sensitive half.
// A Status/Result local must be consumed on EVERY path before scope exit;
// the CFG makes "checked on one branch only" visible where a
// statement-at-a-time check could not see it. Never compiled — linted only.

namespace parmonc {

// Positive: consumed on the then-branch, leaks on the else path.
int fixtureBranchLeak(bool Flag) {
  Status First = writeFileAtomic("a.dat", "x"); // expect: R11
  if (Flag)
    return First.isOk() ? 1 : 0;
  return 2;
}

// Positive: the early return exits before the check is reached.
int fixtureEarlyReturnLeak(bool Flag) {
  Status Saved = writeFileAtomic("b.dat", "y"); // expect: R11
  if (Flag)
    return 0;
  return Saved.isOk();
}

// Positive: no default — the fall-through past the switch never consumes.
int fixtureSwitchLeak(int Kind) {
  Status Wrote = writeFileAtomic("c.dat", "z"); // expect: R11
  switch (Kind) {
  case 0:
    return Wrote.isOk();
  }
  return 0;
}

// Negative: the loop may check, and the final return always does.
int fixtureLoopConsumes(int Count) {
  Status Sum = writeFileAtomic("d.dat", "w");
  for (int I = 0; I < Count; ++I) {
    if (!Sum.isOk())
      return I;
  }
  return Sum.isOk() ? 1 : 0;
}

// Negative: every switch section consumes, fallthrough included, and the
// default seals the remaining paths.
int fixtureSwitchConsumes(int Kind) {
  Status Other = writeFileAtomic("e.dat", "v");
  switch (Kind) {
  case 0:
  case 1:
    return Other.isOk() ? 1 : 0;
  default:
    return Other.isOk() ? 2 : 3;
  }
}

} // namespace parmonc
