//===- tests/core/RunnerHistogramTest.cpp - Engine histogram observables --===//
//
// Part of the PARMONC reproduction library.
//
//===----------------------------------------------------------------------===//

#include "parmonc/core/Runner.h"

#include "parmonc/sde/Distributions.h"
#include "parmonc/support/Text.h"

#include <gtest/gtest.h>

#include <cmath>
#include <filesystem>
#include <string>
#include <vector>

namespace parmonc {
namespace {

class ScratchDir {
public:
  explicit ScratchDir(const std::string &Name) {
    Path = (std::filesystem::temp_directory_path() /
            ("parmonc_hist_" + Name + "_" + std::to_string(Counter++)))
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

/// 1x2 realization: [uniform, standard normal].
void mixedRealization(RandomSource &Source, double *Out) {
  Out[0] = Source.nextUniform();
  Out[1] = sampleStandardNormal(Source);
}

RunConfig histogramConfig(const std::string &WorkDir) {
  RunConfig Config;
  Config.Rows = 1;
  Config.Columns = 2;
  Config.MaxSampleVolume = 20000;
  Config.WorkDir = WorkDir;
  Config.Histograms.push_back({0, 0, 0.0, 1.0, 20});
  Config.Histograms.push_back({0, 1, -4.0, 4.0, 32});
  return Config;
}

TEST(RunnerHistogram, ValidatesSpecs) {
  ScratchDir Dir("validate");
  RunConfig Config = histogramConfig(Dir.path());
  Config.Histograms.push_back({5, 0, 0.0, 1.0, 8}); // row out of range
  EXPECT_FALSE(runSimulation(mixedRealization, Config).isOk());

  Config = histogramConfig(Dir.path());
  Config.Histograms[0].High = Config.Histograms[0].Low;
  EXPECT_FALSE(runSimulation(mixedRealization, Config).isOk());

  Config = histogramConfig(Dir.path());
  Config.Histograms[0].BinCount = 0;
  EXPECT_FALSE(runSimulation(mixedRealization, Config).isOk());
}

TEST(RunnerHistogram, WritesHistogramFilesWithFullVolume) {
  ScratchDir Dir("files");
  RunConfig Config = histogramConfig(Dir.path());
  Result<RunReport> Report = runSimulation(mixedRealization, Config);
  ASSERT_TRUE(Report.isOk()) << Report.status().toString();

  ResultsStore Store(Dir.path());
  for (const HistogramSpec &Spec : Config.Histograms) {
    const std::string Path = histogramPath(Store, Spec.Row, Spec.Column);
    ASSERT_TRUE(fileExists(Path)) << Path;
    Result<HistogramEstimator> Histogram =
        HistogramEstimator::fromFileContents(
            readFileToString(Path).value());
    ASSERT_TRUE(Histogram.isOk());
    EXPECT_EQ(Histogram.value().totalCount(), 20000);
  }
}

TEST(RunnerHistogram, UniformObservableIsFlat) {
  ScratchDir Dir("flat");
  RunConfig Config = histogramConfig(Dir.path());
  ASSERT_TRUE(runSimulation(mixedRealization, Config).isOk());
  ResultsStore Store(Dir.path());
  Result<HistogramEstimator> Histogram =
      HistogramEstimator::fromFileContents(
          readFileToString(histogramPath(Store, 0, 0)).value());
  ASSERT_TRUE(Histogram.isOk());
  for (size_t Bin = 0; Bin < Histogram.value().binCount(); ++Bin)
    EXPECT_NEAR(Histogram.value().massOf(Bin), 0.05,
                Histogram.value().massErrorOf(Bin) + 1e-9)
        << "bin " << Bin;
  EXPECT_EQ(Histogram.value().underflowCount(), 0);
  EXPECT_EQ(Histogram.value().overflowCount(), 0);
}

TEST(RunnerHistogram, NormalObservableIsBellShaped) {
  ScratchDir Dir("bell");
  RunConfig Config = histogramConfig(Dir.path());
  ASSERT_TRUE(runSimulation(mixedRealization, Config).isOk());
  ResultsStore Store(Dir.path());
  Result<HistogramEstimator> Histogram =
      HistogramEstimator::fromFileContents(
          readFileToString(histogramPath(Store, 0, 1)).value());
  ASSERT_TRUE(Histogram.isOk());
  // Central bin mass >> edge bin mass.
  const size_t Center = Histogram.value().binCount() / 2;
  EXPECT_GT(Histogram.value().massOf(Center),
            10.0 * (Histogram.value().massOf(0) + 1e-6));
  // Roughly 68% within one sigma.
  const double WithinOneSigma = Histogram.value().cdfAt(1.0) -
                                Histogram.value().cdfAt(-1.0);
  EXPECT_NEAR(WithinOneSigma, 0.6827, 0.03);
}

TEST(RunnerHistogram, MultiProcessorCountsAreExact) {
  ScratchDir Dir("multi");
  RunConfig Config = histogramConfig(Dir.path());
  Config.ProcessorCount = 4;
  Config.MaxSampleVolume = 12000;
  ASSERT_TRUE(runSimulation(mixedRealization, Config).isOk());
  ResultsStore Store(Dir.path());
  Result<HistogramEstimator> Histogram =
      HistogramEstimator::fromFileContents(
          readFileToString(histogramPath(Store, 0, 0)).value());
  ASSERT_TRUE(Histogram.isOk());
  // Exact merge: every one of the 12000 observations is in exactly one bin.
  EXPECT_EQ(Histogram.value().totalCount(), 12000);
}

TEST(RunnerHistogram, ResumeAccumulatesCounts) {
  ScratchDir Dir("resume");
  RunConfig First = histogramConfig(Dir.path());
  First.MaxSampleVolume = 5000;
  ASSERT_TRUE(runSimulation(mixedRealization, First).isOk());

  RunConfig Second = histogramConfig(Dir.path());
  Second.MaxSampleVolume = 3000;
  Second.Resume = true;
  Second.SequenceNumber = 1;
  ASSERT_TRUE(runSimulation(mixedRealization, Second).isOk());

  ResultsStore Store(Dir.path());
  Result<HistogramEstimator> Histogram =
      HistogramEstimator::fromFileContents(
          readFileToString(histogramPath(Store, 0, 0)).value());
  ASSERT_TRUE(Histogram.isOk());
  EXPECT_EQ(Histogram.value().totalCount(), 8000);
}

TEST(RunnerHistogram, ResumeRejectsGeometryChange) {
  ScratchDir Dir("resume_geom");
  RunConfig First = histogramConfig(Dir.path());
  First.MaxSampleVolume = 1000;
  ASSERT_TRUE(runSimulation(mixedRealization, First).isOk());

  RunConfig Second = histogramConfig(Dir.path());
  Second.Resume = true;
  Second.SequenceNumber = 1;
  Second.Histograms[0].BinCount = 10; // was 20
  Result<RunReport> Report = runSimulation(mixedRealization, Second);
  ASSERT_FALSE(Report.isOk());
  EXPECT_EQ(Report.status().code(), StatusCode::FailedPrecondition);

  // Dropping the histograms entirely is also a mismatch.
  RunConfig Third = histogramConfig(Dir.path());
  Third.Resume = true;
  Third.SequenceNumber = 1;
  Third.Histograms.clear();
  EXPECT_FALSE(runSimulation(mixedRealization, Third).isOk());
}

/// The histograms of \p Store's merged checkpoint, serialized.
std::vector<std::string> checkpointHistograms(const ResultsStore &Store) {
  std::vector<std::string> Files;
  Result<ResultsStore::RecoveredSnapshot> Checkpoint =
      Store.readSnapshotWithFallback(Store.checkpointPath());
  EXPECT_TRUE(Checkpoint.isOk()) << Checkpoint.status().toString();
  if (Checkpoint)
    for (const HistogramEstimator &Histogram :
         Checkpoint.value().Snapshot.Histograms)
      Files.push_back(Histogram.toFileContents());
  return Files;
}

TEST(RunnerHistogram, ManaverRebuildsCheckpointHistogramsExactly) {
  // §3.4 manaver over the per-rank subtotal files rebuilds the completed
  // run's checkpointed histograms byte for byte: on top of the base.dat a
  // resumed run started from, and without a base.dat, where the first
  // subtotal defines the histogram set.
  for (const bool WithBase : {false, true}) {
    ScratchDir Dir(WithBase ? "manaver_base" : "manaver_nobase");
    RunConfig Config = histogramConfig(Dir.path());
    Config.ProcessorCount = 3;
    Config.MaxSampleVolume = 3000;
    Config.AveragePeriodNanos = 50'000'000;
    ASSERT_TRUE(runSimulation(mixedRealization, Config).isOk());
    if (WithBase) {
      Config.Resume = true;
      Config.SequenceNumber = 1;
      Config.MaxSampleVolume = 2000;
      ASSERT_TRUE(runSimulation(mixedRealization, Config).isOk());
    }
    ResultsStore Store(Dir.path());
    if (!WithBase) {
      std::filesystem::remove(Store.basePath());
      std::filesystem::remove(ResultsStore::backupPath(Store.basePath()));
    }
    ASSERT_EQ(fileExists(Store.basePath()), WithBase);
    const std::vector<std::string> Expected = checkpointHistograms(Store);
    ASSERT_EQ(Expected.size(), 2u);

    Result<MomentSnapshot> Merged = runManualAverage(Store);
    ASSERT_TRUE(Merged.isOk()) << Merged.status().toString();
    EXPECT_EQ(Merged.value().Moments.sampleVolume(), WithBase ? 5000 : 3000);
    ASSERT_EQ(Merged.value().Histograms.size(), Expected.size());
    for (size_t Index = 0; Index < Expected.size(); ++Index)
      EXPECT_EQ(Merged.value().Histograms[Index].toFileContents(),
                Expected[Index])
          << "histogram " << Index << (WithBase ? " with" : " without")
          << " base.dat";
  }
}

TEST(RunnerHistogram, SnapshotRoundTripKeepsHistograms) {
  // Snapshot formats carry histograms bit-exactly (text and bytes).
  MomentSnapshot Snapshot;
  Snapshot.Moments = EstimatorMatrix(1, 1);
  Snapshot.Moments.accumulate(std::vector<double>{0.25});
  Snapshot.Histograms.emplace_back(0.0, 1.0, 4);
  Snapshot.Histograms[0].add(0.25);
  Snapshot.Histograms[0].add(0.9);
  Snapshot.Histograms[0].add(7.0); // overflow

  Result<MomentSnapshot> FromText =
      MomentSnapshot::fromFileContents(Snapshot.toFileContents());
  ASSERT_TRUE(FromText.isOk()) << FromText.status().toString();
  ASSERT_EQ(FromText.value().Histograms.size(), 1u);
  EXPECT_EQ(FromText.value().Histograms[0].countOf(1), 1);
  EXPECT_EQ(FromText.value().Histograms[0].countOf(3), 1);
  EXPECT_EQ(FromText.value().Histograms[0].overflowCount(), 1);

  Result<MomentSnapshot> FromBytes =
      MomentSnapshot::fromBytes(Snapshot.toBytes());
  ASSERT_TRUE(FromBytes.isOk());
  ASSERT_EQ(FromBytes.value().Histograms.size(), 1u);
  EXPECT_EQ(FromBytes.value().Histograms[0].totalCount(), 3);
}

} // namespace
} // namespace parmonc
