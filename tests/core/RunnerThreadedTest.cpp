//===- tests/core/RunnerThreadedTest.cpp - Threaded engine equality -------===//
//
// Part of the PARMONC reproduction library.
//
//===----------------------------------------------------------------------===//
//
// The threaded realization engine's contract: with a fixed stream
// assignment (DeterministicSchedule), running N worker threads per rank
// consumes exactly the substreams the serial engine would, and — because
// the workloads here produce integer-valued observables whose sums are
// exact in double precision — the merged moment sums are bit-identical to
// the serial run, thread count and scheduling notwithstanding.
//
//===----------------------------------------------------------------------===//

#include "parmonc/core/Runner.h"

#include "parmonc/fault/FaultPlan.h"
#include "parmonc/support/Text.h"

#include <gtest/gtest.h>

#include <chrono>
#include <cmath>
#include <filesystem>
#include <string>
#include <thread> // mclint: allow(R8): sleep helper only
#include <vector>

namespace parmonc {
namespace {

class ScratchDir {
public:
  explicit ScratchDir(const std::string &Name) {
    Path = (std::filesystem::temp_directory_path() /
            ("parmonc_threaded_" + Name + "_" + std::to_string(Counter++)))
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

/// Integer-valued 1x2 realization: [indicator(u < 1/2), floor(16 u)].
/// Every accumulated sum (values and squares) is an integer well inside
/// 2^53, so floating-point addition over them is exact and associative —
/// merge order cannot change the sums.
void integerRealization(RandomSource &Source, double *Out) {
  const double Draw = Source.nextUniform();
  Out[0] = Draw < 0.5 ? 1.0 : 0.0;
  Out[1] = std::floor(Draw * 16.0);
}

RunConfig threadedConfig(const std::string &WorkDir, int Threads) {
  RunConfig Config;
  Config.Rows = 1;
  Config.Columns = 2;
  Config.MaxSampleVolume = 203; // odd on purpose: uneven quota remainders
  Config.ProcessorCount = 2;
  Config.WorkerThreadsPerRank = Threads;
  Config.DeterministicSchedule = true;
  Config.PassPeriodNanos = 1'000'000;
  Config.AveragePeriodNanos = 2'000'000;
  Config.WorkDir = WorkDir;
  return Config;
}

/// Runs to completion and returns the final checkpoint snapshot.
MomentSnapshot runAndLoad(const RunConfig &Config, RunReport *ReportOut) {
  Result<RunReport> Outcome = runSimulation(integerRealization, Config);
  EXPECT_TRUE(Outcome.isOk()) << Outcome.status().toString();
  if (ReportOut)
    *ReportOut = Outcome.value();
  ResultsStore Store(Config.WorkDir);
  Result<MomentSnapshot> Snapshot =
      // mclint: allow(R7): asserting on the sealed generation directly
      Store.readSnapshot(Store.checkpointPath());
  EXPECT_TRUE(Snapshot.isOk()) << Snapshot.status().toString();
  return std::move(Snapshot).value();
}

void expectIdenticalSums(const MomentSnapshot &A, const MomentSnapshot &B) {
  ASSERT_EQ(A.Moments.sampleVolume(), B.Moments.sampleVolume());
  ASSERT_EQ(A.Moments.valueSums().size(), B.Moments.valueSums().size());
  for (size_t Index = 0; Index < A.Moments.valueSums().size(); ++Index) {
    EXPECT_EQ(A.Moments.valueSums()[Index], B.Moments.valueSums()[Index])
        << "value sum " << Index;
    EXPECT_EQ(A.Moments.squareSums()[Index], B.Moments.squareSums()[Index])
        << "square sum " << Index;
  }
}

TEST(RunnerThreaded, FourThreadsMatchSerialMomentSumsBitExactly) {
  ScratchDir SerialDir("serial"), ThreadedDir("threads4");
  RunReport SerialReport, ThreadedReport;
  const MomentSnapshot Serial =
      runAndLoad(threadedConfig(SerialDir.path(), 1), &SerialReport);
  const MomentSnapshot Threaded =
      runAndLoad(threadedConfig(ThreadedDir.path(), 4), &ThreadedReport);

  expectIdenticalSums(Serial, Threaded);
  EXPECT_EQ(SerialReport.TotalSampleVolume, ThreadedReport.TotalSampleVolume);
  EXPECT_EQ(SerialReport.PerProcessorVolumes,
            ThreadedReport.PerProcessorVolumes);
  // Identical sums over identical volumes: the published errors match too.
  EXPECT_EQ(SerialReport.MaxAbsoluteError, ThreadedReport.MaxAbsoluteError);
}

TEST(RunnerThreaded, EveryThreadCountAgrees) {
  ScratchDir BaseDir("base");
  const MomentSnapshot Serial =
      runAndLoad(threadedConfig(BaseDir.path(), 1), nullptr);
  for (int Threads : {2, 3, 5, 8}) {
    ScratchDir Dir("t" + std::to_string(Threads));
    const MomentSnapshot Threaded =
        runAndLoad(threadedConfig(Dir.path(), Threads), nullptr);
    expectIdenticalSums(Serial, Threaded);
  }
}

TEST(RunnerThreaded, RepeatedThreadedRunsAreDeterministic) {
  ScratchDir FirstDir("rep1"), SecondDir("rep2");
  const MomentSnapshot First =
      runAndLoad(threadedConfig(FirstDir.path(), 4), nullptr);
  const MomentSnapshot Second =
      runAndLoad(threadedConfig(SecondDir.path(), 4), nullptr);
  expectIdenticalSums(First, Second);
}

TEST(RunnerThreaded, DynamicScheduleReachesFullVolume) {
  // Without the deterministic quota split, threads claim from the shared
  // counter; the total volume must still land exactly on maxsv.
  ScratchDir Dir("dynamic");
  RunConfig Config = threadedConfig(Dir.path(), 4);
  Config.DeterministicSchedule = false;
  RunReport Report;
  (void)runAndLoad(Config, &Report);
  EXPECT_EQ(Report.TotalSampleVolume, Config.MaxSampleVolume);
}

TEST(RunnerThreaded, ThreadedRunResumesLikeSerial) {
  // Checkpoint interop: a serial run can resume a threaded run's
  // checkpoint and vice versa — snapshots carry no thread-count imprint.
  ScratchDir Dir("resume");
  RunConfig First = threadedConfig(Dir.path(), 4);
  (void)runAndLoad(First, nullptr);

  RunConfig Second = threadedConfig(Dir.path(), 1);
  Second.Resume = true;
  Second.SequenceNumber = 1; // a resumed run must switch experiments
  RunReport Report;
  const MomentSnapshot Merged = runAndLoad(Second, &Report);
  EXPECT_EQ(Merged.Moments.sampleVolume(), 2 * First.MaxSampleVolume);
  EXPECT_EQ(Report.NewSampleVolume, Second.MaxSampleVolume);
}

TEST(RunnerThreaded, ValidateRejectsBadThreadCounts) {
  ScratchDir Dir("validate");
  RunConfig Config = threadedConfig(Dir.path(), 0);
  EXPECT_FALSE(Config.validate().isOk());
  Config.WorkerThreadsPerRank = -3;
  EXPECT_FALSE(Config.validate().isOk());
  Config.WorkerThreadsPerRank = 1;
  EXPECT_TRUE(Config.validate().isOk());
}

TEST(RunnerThreaded, ValidateRejectsWorkerCrashesWithThreads) {
  // Injected worker crashes model whole-rank death; combining them with
  // intra-rank threading is rejected up front rather than half-supported.
  ScratchDir Dir("faults");
  fault::FaultPlan Plan;
  fault::WorkerCrashSpec Crash;
  Crash.Rank = 1;
  Crash.AfterRealizations = 5;
  Plan.WorkerCrashes.push_back(Crash);

  RunConfig Config = threadedConfig(Dir.path(), 4);
  Config.Faults = &Plan;
  EXPECT_FALSE(Config.validate().isOk());
  Config.WorkerThreadsPerRank = 1;
  EXPECT_TRUE(Config.validate().isOk());
}

TEST(RunnerThreaded, MoreThreadsThanQuotaStillCompletes) {
  // 3 realizations over 8 threads on 1 rank: most threads have a zero
  // quota and must still hand in an (empty) final so the rank terminates.
  ScratchDir Dir("tiny");
  RunConfig Config = threadedConfig(Dir.path(), 8);
  Config.ProcessorCount = 1;
  Config.MaxSampleVolume = 3;
  RunReport Report;
  (void)runAndLoad(Config, &Report);
  EXPECT_EQ(Report.TotalSampleVolume, 3);
}

/// Real-valued 1x2 realization: sums of these are order-sensitive in
/// floating point, so byte-equal results prove an identical merge order.
void uniformRealization(RandomSource &Source, double *Out) {
  Out[0] = Source.nextUniform();
  Out[1] = Out[0] * Source.nextUniform();
}

std::string fileBytes(const std::string &Path) {
  Result<std::string> Bytes = readFileToString(Path);
  EXPECT_TRUE(Bytes.isOk()) << Path << ": " << Bytes.status().toString();
  return Bytes.valueOr("");
}

TEST(RunnerThreaded, HistogramFilesMatchSerialByteForByte) {
  ScratchDir SerialDir("hist1"), ThreadedDir("hist4");
  const std::vector<HistogramSpec> Specs = {{0, 0, 0.0, 2.0, 2},
                                            {0, 1, 0.0, 16.0, 16}};
  for (const auto &[Dir, Threads] :
       {std::pair{&SerialDir, 1}, std::pair{&ThreadedDir, 4}}) {
    RunConfig Config = threadedConfig(Dir->path(), Threads);
    Config.Histograms = Specs;
    (void)runAndLoad(Config, nullptr);
  }
  const ResultsStore Serial(SerialDir.path()), Threaded(ThreadedDir.path());
  for (const HistogramSpec &Spec : Specs) {
    const std::string Expected =
        fileBytes(histogramPath(Serial, Spec.Row, Spec.Column));
    EXPECT_FALSE(Expected.empty());
    EXPECT_EQ(fileBytes(histogramPath(Threaded, Spec.Row, Spec.Column)),
              Expected)
        << "histogram of entry (" << Spec.Row << ", " << Spec.Column << ")";
  }
}

TEST(RunnerThreaded, TimeLimitStopsAnUnreachableVolume) {
  ScratchDir Dir("timelimit");
  RunConfig Config = threadedConfig(Dir.path(), 4);
  Config.MaxSampleVolume = int64_t(1) << 50;
  Config.TimeLimitNanos = 50'000'000;
  RunReport Report;
  (void)runAndLoad(Config, &Report);
  EXPECT_TRUE(Report.StoppedOnTimeLimit);
  EXPECT_GT(Report.TotalSampleVolume, 0);
  EXPECT_LT(Report.TotalSampleVolume, Config.MaxSampleVolume);
}

TEST(RunnerThreaded, ProcessTransportMatchesThreadTransportByteForByte) {
  ScratchDir ThreadsDir("fabric"), ProcessesDir("procs");
  RunConfig Config = threadedConfig(ThreadsDir.path(), 2);
  ASSERT_TRUE(runSimulation(uniformRealization, Config).isOk());
  Config.WorkDir = ProcessesDir.path();
  Config.Transport = TransportKind::Processes;
  Result<RunReport> Wire = runSimulation(uniformRealization, Config);
  ASSERT_TRUE(Wire.isOk()) << Wire.status().toString();
  EXPECT_EQ(Wire.value().TotalSampleVolume, Config.MaxSampleVolume);
  const std::string Expected =
      fileBytes(ResultsStore(ThreadsDir.path()).meansPath());
  EXPECT_FALSE(Expected.empty());
  EXPECT_EQ(fileBytes(ResultsStore(ProcessesDir.path()).meansPath()),
            Expected);
}

TEST(RunnerThreaded, IdleRankSendsNoRepeatedSubtotals) {
  // A slow body leaves the rank thread waking idle many times per
  // realization; only a new thread partial may trigger a subtotal send.
  ScratchDir Dir("idle");
  RunConfig Config = threadedConfig(Dir.path(), 2);
  Config.ProcessorCount = 1;
  Config.MaxSampleVolume = 10;
  Config.PassPeriodNanos = 0;
  auto SlowRealization = [](RandomSource &Source, double *Out) {
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    integerRealization(Source, Out);
  };
  Result<RunReport> Outcome = runSimulation(SlowRealization, Config);
  ASSERT_TRUE(Outcome.isOk()) << Outcome.status().toString();
  const int64_t *Sent =
      Outcome.value().Metrics.counterValue("runner.subtotals_sent");
  ASSERT_NE(Sent, nullptr);
  EXPECT_LE(*Sent, Config.MaxSampleVolume + Config.WorkerThreadsPerRank + 1);
  EXPECT_EQ(Outcome.value().TotalSampleVolume, Config.MaxSampleVolume);
}

} // namespace
} // namespace parmonc
