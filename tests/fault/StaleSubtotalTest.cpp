//===- tests/fault/StaleSubtotalTest.cpp - Late deliveries never shrink ---===//
//
// Part of the PARMONC reproduction library.
//
//===----------------------------------------------------------------------===//
//
// A delayed subtotal can reach the collector after its rank's final
// snapshot. Subtotals are cumulative, so such a straggler is older than
// the final and must not replace it: the reported volume has to stay at
// maxsv. The schedule below is staged on a frozen clock so stragglers
// always land behind the final, whatever the thread interleaving.
//
//===----------------------------------------------------------------------===//

#include "parmonc/core/Runner.h"
#include "parmonc/fault/FaultPlan.h"

#include <gtest/gtest.h>

#include <filesystem>

#include <unistd.h>

namespace parmonc {
namespace {

class ScratchDir {
public:
  ScratchDir() {
    Path = (std::filesystem::temp_directory_path() /
            ("parmonc_stale_subtotal_" + std::to_string(::getpid())))
               .string();
    std::filesystem::remove_all(Path);
    std::filesystem::create_directories(Path);
  }
  ~ScratchDir() { std::filesystem::remove_all(Path); }
  const std::string &path() const { return Path; }

private:
  std::string Path;
};

/// The first seed at which \p Plan delays one of rank 1's first
/// \p Count - 1 subtotals but delivers its last one directly.
uint64_t seedDelayingAnEarlySubtotalOnly(fault::FaultPlan Plan, int Count) {
  for (Plan.Seed = 1;; ++Plan.Seed) {
    fault::FaultInjector Injector(Plan);
    bool DelayedEarly = false;
    for (int Send = 1; Send < Count; ++Send)
      DelayedEarly |= Injector.onSendAttempt(1, 0, TagSubtotal).Action ==
                      fault::MessageAction::Delay;
    if (DelayedEarly && Injector.onSendAttempt(1, 0, TagSubtotal).Action ==
                            fault::MessageAction::Deliver)
      return Plan.Seed;
  }
}

TEST(StaleSubtotal, DelayedSubtotalAfterTheFinalDoesNotShrinkTheResult) {
  constexpr int64_t PerRank = 6;
  constexpr int64_t DelayNanos = 1'000'000'000;
  fault::FaultPlan Plan;
  Plan.DelayProbability = 0.5;
  Plan.DelayNanos = DelayNanos;
  Plan.ExemptTags = {TagFinal};
  Plan.Seed = seedDelayingAnEarlySubtotalOnly(Plan, int(PerRank));

  ScratchDir Dir;
  ManualClock Frozen(1'000'000);
  obs::MetricsRegistry Registry;
  obs::Counter &SubtotalsSent = Registry.counter("runner.subtotals_sent");

  // Rank 0 knows itself from its first save point on (the callback runs
  // on its thread). Its second realization holds it until rank 1 has sent
  // every subtotal and its exempt final, then releases the delayed
  // subtotals; rank 0's next send pumps them into its own inbox behind
  // rank 1's final.
  static thread_local bool IsRank0 = false;
  bool Staged = false; // rank 0's thread only
  auto Realization = [&](RandomSource &Source, double *Out) {
    Out[0] = Source.nextUniform();
    if (!IsRank0 || Staged)
      return;
    Staged = true;
    const WallClock Wall;
    const int64_t GiveUp = Wall.nowNanos() + 60'000'000'000;
    while (SubtotalsSent.value() < 1 + PerRank + 1 &&
           Wall.nowNanos() < GiveUp)
      Wall.sleepNanos(1'000'000);
    Frozen.advanceNanos(DelayNanos);
  };

  RunConfig Config;
  Config.WorkDir = Dir.path();
  Config.ProcessorCount = 2;
  Config.MaxSampleVolume = 2 * PerRank;
  Config.DeterministicSchedule = true;
  Config.PassPeriodNanos = 0;    // a subtotal after every realization
  Config.AveragePeriodNanos = 0; // a save point at every poll
  Config.Metrics = &Registry;
  Config.Faults = &Plan;
  Config.OnSavePoint = [](const RunProgress &) { IsRank0 = true; };

  Result<RunReport> Report = runSimulation(Realization, Config, &Frozen);
  ASSERT_TRUE(Report.isOk()) << Report.status().toString();
  ASSERT_TRUE(Staged) << "the staged schedule did not run";
  EXPECT_GT(*Report.value().Metrics.counterValue("fault.msgs_delayed"), 0);
  EXPECT_EQ(Report.value().TotalSampleVolume, 2 * PerRank);
  EXPECT_EQ(Report.value().PerProcessorVolumes,
            (std::vector<int64_t>{PerRank, PerRank}));
}

} // namespace
} // namespace parmonc
