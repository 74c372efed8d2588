//===- tests/fault/FaultTraceTest.cpp - Faults in the observability layer -===//
//
// Part of the PARMONC reproduction library.
//
//===----------------------------------------------------------------------===//
//
// Injected faults must be *visible*: every fault becomes a fault.* counter
// and a trace instant on the faulting rank's lane. And they must be
// visible *deterministically* — under a frozen clock a faulted run renders
// the same trace bytes every time, so a trace diff localizes a regression
// instead of drowning it in timing noise.
//
//===----------------------------------------------------------------------===//

#include "parmonc/core/Runner.h"
#include "parmonc/fault/FaultPlan.h"
#include "parmonc/support/Text.h"

#include <gtest/gtest.h>

#include <filesystem>

namespace parmonc {
namespace {

class ScratchDir {
public:
  explicit ScratchDir(const std::string &Name) {
    Path = (std::filesystem::temp_directory_path() /
            ("parmonc_faulttrace_" + Name + "_" + std::to_string(Counter++)))
               .string();
    std::filesystem::remove_all(Path);
    std::filesystem::create_directories(Path);
  }
  ~ScratchDir() { std::filesystem::remove_all(Path); }
  const std::string &path() const { return Path; }

private:
  static inline int Counter = 0;
  std::string Path;
};

void uniformRealization(RandomSource &Source, double *Out) {
  Out[0] = Source.nextUniform();
}

struct TracedRun {
  std::string TraceJson;
  std::string MeansFile;
  std::string MetricsFile;
  RunReport Report;
};

/// One fully instrumented run under a frozen clock.
TracedRun runTraced(const std::string &WorkDir, const RunConfig &Template,
                    const fault::FaultPlan &Plan) {
  ManualClock Frozen(1'000'000);
  obs::MetricsRegistry Registry;
  obs::TraceWriter Trace(&Frozen);
  RunConfig Config = Template;
  Config.WorkDir = WorkDir;
  Config.Metrics = &Registry;
  Config.Trace = &Trace;
  Config.Faults = &Plan;
  Result<RunReport> Report =
      runSimulation(uniformRealization, Config, &Frozen);
  EXPECT_TRUE(Report.isOk()) << Report.status().toString();
  TracedRun Run;
  Run.TraceJson = Trace.toJson();
  ResultsStore Store(WorkDir);
  Run.MeansFile = readFileToString(Store.meansPath()).valueOr("");
  Run.MetricsFile = readFileToString(Store.metricsPath()).valueOr("");
  Run.Report = Report.valueOr(RunReport{});
  return Run;
}

TEST(FaultTrace, SingleRankFaultedRunRendersIdenticalBytes) {
  // A single-rank run is fully sequential, so with an injected collector
  // crash and a scheduled file corruption, *everything* — trace, metrics
  // file, results — must be byte-identical across executions.
  RunConfig Template;
  Template.MaxSampleVolume = 40;
  Template.ProcessorCount = 1;
  Template.WorkDir = "."; // overridden per run
  Template.AveragePeriodNanos = 0; // save at every poll

  fault::FaultPlan Plan;
  fault::FileCorruptionSpec Corruption;
  Corruption.PathSubstring = "checkpoint";
  Corruption.WriteIndex = 0; // damage the very first checkpoint write
  Corruption.Action = fault::FileCorruptionSpec::Mode::Truncate;
  Corruption.KeepFraction = 0.25;
  Plan.FileCorruptions.push_back(Corruption);
  Plan.CollectorCrash.AtSavePoint = 30;

  ScratchDir First("bytes_a"), Second("bytes_b");
  const TracedRun RunA = runTraced(First.path(), Template, Plan);
  const TracedRun RunB = runTraced(Second.path(), Template, Plan);

  ASSERT_FALSE(RunA.TraceJson.empty());
  EXPECT_EQ(RunA.TraceJson, RunB.TraceJson);
  EXPECT_EQ(RunA.MetricsFile, RunB.MetricsFile);
  EXPECT_EQ(RunA.MeansFile, RunB.MeansFile);
  EXPECT_TRUE(RunA.Report.SimulatedCrash);

  // The fault events are on the trace timeline...
  EXPECT_NE(RunA.TraceJson.find("\"name\":\"fault.write_corrupted\""),
            std::string::npos);
  EXPECT_NE(RunA.TraceJson.find("\"name\":\"fault.collector_crash\""),
            std::string::npos);
  // ...and in the metrics file next to the engine's own counters.
  EXPECT_NE(RunA.MetricsFile.find("fault.writes_corrupted"),
            std::string::npos);
  EXPECT_NE(RunA.MetricsFile.find("fault.collector_crashes"),
            std::string::npos);
}

TEST(FaultTrace, CorruptedCheckpointWriteIsHealedByTheNextRotation) {
  // The corrupted first checkpoint generation is overwritten by the next
  // save and the final checkpoint must load cleanly — the injected damage
  // stayed contained to the generation it hit.
  RunConfig Template;
  Template.MaxSampleVolume = 40;
  Template.ProcessorCount = 1;
  Template.AveragePeriodNanos = 0;

  fault::FaultPlan Plan;
  fault::FileCorruptionSpec Corruption;
  Corruption.PathSubstring = "checkpoint";
  Corruption.WriteIndex = 0;
  Plan.FileCorruptions.push_back(Corruption);

  ScratchDir Dir("healed");
  const TracedRun Run = runTraced(Dir.path(), Template, Plan);
  EXPECT_FALSE(Run.Report.SimulatedCrash);
  EXPECT_EQ(Run.Report.TotalSampleVolume, 40);
  ResultsStore Store(Dir.path());
  Result<MomentSnapshot> Final =
      // mclint: allow(R7): asserting on the sealed generation directly
      Store.readSnapshot(Store.checkpointPath());
  ASSERT_TRUE(Final.isOk()) << Final.status().toString();
  EXPECT_EQ(Final.value().Moments.sampleVolume(), 40);
}

TEST(FaultTrace, LossyMultiRankRunsReplayWithEqualCountersAndInstants) {
  // With several ranks the trace's lane-0 byte layout can legitimately
  // vary (workers persist their subtotal files on lane 0), but the fault
  // *content* may not: counters, per-lane fault instants and the result
  // bytes must replay exactly.
  RunConfig Template;
  Template.MaxSampleVolume = 80;
  Template.ProcessorCount = 2;
  Template.DeterministicSchedule = true;
  Template.AveragePeriodNanos = 3'600'000'000'000;

  fault::FaultPlan Plan;
  Plan.Seed = 11;
  Plan.DropProbability = 0.5;
  Plan.ExemptTags = {TagFinal};

  ScratchDir First("lossy_a"), Second("lossy_b");
  const TracedRun RunA = runTraced(First.path(), Template, Plan);
  const TracedRun RunB = runTraced(Second.path(), Template, Plan);

  EXPECT_EQ(RunA.MeansFile, RunB.MeansFile);
  const int64_t *DropsA =
      RunA.Report.Metrics.counterValue("fault.msgs_dropped");
  const int64_t *DropsB =
      RunB.Report.Metrics.counterValue("fault.msgs_dropped");
  ASSERT_NE(DropsA, nullptr);
  ASSERT_NE(DropsB, nullptr);
  EXPECT_GT(*DropsA, 0);
  EXPECT_EQ(*DropsA, *DropsB);

  // Every drop left an instant on the sender's lane.
  auto countInstants = [](const std::string &Json) {
    size_t Count = 0;
    for (size_t At = Json.find("\"name\":\"fault.msg_drop\"");
         At != std::string::npos;
         At = Json.find("\"name\":\"fault.msg_drop\"", At + 1))
      ++Count;
    return Count;
  };
  EXPECT_EQ(countInstants(RunA.TraceJson), size_t(*DropsA));
  EXPECT_EQ(countInstants(RunB.TraceJson), size_t(*DropsB));
}

} // namespace
} // namespace parmonc
