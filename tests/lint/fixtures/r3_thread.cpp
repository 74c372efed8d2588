// mclint fixture: R8 raw concurrency outside core/. Never compiled.
#include <mutex> // expect: R8
#include <vector>

struct FixtureQueue {
  std::mutex Lock; // expect: R8
  // mclint: allow(R8): fixture demonstrates the waiver escape hatch
  std::atomic<int> Waived{0};
};
