//===- tests/obs/DeterministicRunTraceTest.cpp - Fake-clock trace harness -===//
//
// Part of the PARMONC reproduction library.
//
//===----------------------------------------------------------------------===//
//
// The tentpole acceptance test of the observability layer: a full engine
// run under an injected ManualClock produces a *byte-identical* Chrome
// trace and metrics file on every execution. Every probe takes its time
// from the injected clock and toJson() orders events deterministically, so
// a frozen clock plus a deterministic workload leaves nothing for the
// bytes to vary on. The same harness verifies that attaching observability
// does not perturb the simulation results themselves.
//
//===----------------------------------------------------------------------===//

#include "parmonc/core/Runner.h"
#include "parmonc/support/Text.h"

#include <gtest/gtest.h>

#include <filesystem>

namespace parmonc {
namespace {

class ScratchDir {
public:
  explicit ScratchDir(const std::string &Name) {
    Path = (std::filesystem::temp_directory_path() /
            ("parmonc_obs_" + Name + "_" + std::to_string(Counter++)))
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

/// One instrumented single-rank run under a frozen ManualClock. Returns
/// (trace JSON, metrics file bytes, func.dat bytes).
struct InstrumentedRun {
  std::string TraceJson;
  std::string MetricsFile;
  std::string MeansFile;
  RunReport Report;
};

InstrumentedRun runInstrumented(const std::string &WorkDir) {
  ManualClock Frozen(1'000'000); // arbitrary fixed epoch, never advanced
  obs::MetricsRegistry Registry;
  obs::TraceWriter Trace(&Frozen);

  RunConfig Config;
  Config.Rows = 1;
  Config.Columns = 1;
  Config.MaxSampleVolume = 64;
  Config.ProcessorCount = 1;
  Config.WorkDir = WorkDir;
  Config.Metrics = &Registry;
  Config.Trace = &Trace;

  Result<RunReport> Outcome =
      runSimulation(uniformRealization, Config, &Frozen);
  EXPECT_TRUE(Outcome.isOk()) << Outcome.status().toString();

  InstrumentedRun Run;
  Run.TraceJson = Trace.toJson();
  ResultsStore Store(WorkDir);
  Run.MetricsFile = readFileToString(Store.metricsPath()).valueOr("");
  Run.MeansFile = readFileToString(Store.meansPath()).valueOr("");
  Run.Report = Outcome.valueOr(RunReport{});
  return Run;
}

TEST(DeterministicRunTrace, TraceBytesAreIdenticalAcrossRuns) {
  ScratchDir First("trace_a"), Second("trace_b");
  const InstrumentedRun RunA = runInstrumented(First.path());
  const InstrumentedRun RunB = runInstrumented(Second.path());

  ASSERT_FALSE(RunA.TraceJson.empty());
  EXPECT_EQ(RunA.TraceJson, RunB.TraceJson);
  EXPECT_EQ(RunA.MetricsFile, RunB.MetricsFile);
  EXPECT_EQ(RunA.MeansFile, RunB.MeansFile);
}

TEST(DeterministicRunTrace, TraceFileOnDiskMatchesTheWriter) {
  ScratchDir Dir("trace_file");
  const InstrumentedRun Run = runInstrumented(Dir.path());
  ResultsStore Store(Dir.path());
  Result<std::string> OnDisk = readFileToString(Store.tracePath());
  ASSERT_TRUE(OnDisk.isOk()) << OnDisk.status().toString();
  EXPECT_EQ(OnDisk.value(), Run.TraceJson);
}

TEST(DeterministicRunTrace, TraceCoversTheEnginePhases) {
  ScratchDir Dir("trace_phases");
  const InstrumentedRun Run = runInstrumented(Dir.path());
  for (const char *Name :
       {"rng.leap_setup", "runner.realization", "runner.subtotal_send",
        "runner.subtotal_merge", "runner.save_point",
        "store.snapshot_write"})
    EXPECT_NE(Run.TraceJson.find(std::string("\"name\":\"") + Name + "\""),
              std::string::npos)
        << "trace is missing " << Name << " spans";
}

TEST(DeterministicRunTrace, MetricsAccountForEveryRealization) {
  ScratchDir Dir("metrics");
  const InstrumentedRun Run = runInstrumented(Dir.path());
  Result<obs::MetricsSnapshot> Snapshot =
      obs::MetricsSnapshot::fromFileContents(Run.MetricsFile);
  ASSERT_TRUE(Snapshot.isOk()) << Snapshot.status().toString();

  const int64_t *Realizations =
      Snapshot.value().counterValue("runner.realizations");
  ASSERT_NE(Realizations, nullptr);
  EXPECT_EQ(*Realizations, Run.Report.TotalSampleVolume);
  const int64_t *Rank0 =
      Snapshot.value().counterValue("runner.rank0.realizations");
  ASSERT_NE(Rank0, nullptr);
  EXPECT_EQ(*Rank0, Run.Report.TotalSampleVolume);
  const int64_t *Streams =
      Snapshot.value().counterValue("rng.streams_issued");
  ASSERT_NE(Streams, nullptr);
  EXPECT_EQ(*Streams, Run.Report.TotalSampleVolume);

  // Every realization's duration went into the latency histogram, and the
  // in-memory report snapshot matches the file.
  const obs::LatencySummary *Latency =
      Snapshot.value().latencySummary("runner.realization");
  ASSERT_NE(Latency, nullptr);
  EXPECT_EQ(Latency->Count, Run.Report.TotalSampleVolume);
  EXPECT_EQ(Run.Report.Metrics.toFileContents(), Run.MetricsFile);
}

TEST(DeterministicRunTrace, ObservabilityDoesNotPerturbResults) {
  // A plain run and an instrumented run over the same deterministic
  // workload must produce byte-identical result files: probes read clocks
  // and bump atomics, never anything that feeds the estimators.
  ScratchDir Plain("plain"), Probed("probed");

  RunConfig Config;
  Config.Rows = 1;
  Config.Columns = 1;
  Config.MaxSampleVolume = 64;
  Config.ProcessorCount = 1;

  ManualClock FrozenA(1'000'000);
  Config.WorkDir = Plain.path();
  Result<RunReport> Bare =
      runSimulation(uniformRealization, Config, &FrozenA);
  ASSERT_TRUE(Bare.isOk()) << Bare.status().toString();

  ManualClock FrozenB(1'000'000);
  obs::MetricsRegistry Registry;
  obs::TraceWriter Trace(&FrozenB);
  Config.WorkDir = Probed.path();
  Config.Metrics = &Registry;
  Config.Trace = &Trace;
  Result<RunReport> Instrumented =
      runSimulation(uniformRealization, Config, &FrozenB);
  ASSERT_TRUE(Instrumented.isOk()) << Instrumented.status().toString();

  ResultsStore PlainStore(Plain.path()), ProbedStore(Probed.path());
  EXPECT_EQ(readFileToString(PlainStore.meansPath()).valueOr("A"),
            readFileToString(ProbedStore.meansPath()).valueOr("B"));
  EXPECT_EQ(readFileToString(PlainStore.confidencePath()).valueOr("A"),
            readFileToString(ProbedStore.confidencePath()).valueOr("B"));
  EXPECT_EQ(Bare.value().TotalSampleVolume,
            Instrumented.value().TotalSampleVolume);
}

} // namespace
} // namespace parmonc
