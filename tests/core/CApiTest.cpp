//===- tests/core/CApiTest.cpp - Paper-signature C API tests --------------===//
//
// Part of the PARMONC reproduction library.
//
//===----------------------------------------------------------------------===//

#include "parmonc/core/CApi.h"

#include "parmonc/core/ResultsStore.h"
#include "parmonc/rng/Lcg128.h"

#include <gtest/gtest.h>

// mclint: allow-file(R6): these tests exercise the raw generator
// deliberately, validating the stream algebra itself.

#include <cstdlib>
#include <filesystem>

namespace parmonc {
namespace {

class ScratchDir {
public:
  explicit ScratchDir(const std::string &Name) {
    Path = (std::filesystem::temp_directory_path() /
            ("parmonc_capi_" + Name + "_" + std::to_string(Counter++)))
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

/// A realization routine written exactly as the paper shows: it only calls
/// rnd128() and fills the output buffer.
extern "C" void scalarRealization(double *Out) { Out[0] = rnd128(); }

extern "C" void pairRealization(double *Out) {
  const double U = rnd128();
  Out[0] = U;
  Out[1] = U * U;
}

TEST(CApi, Rnd128StandaloneMatchesLcg128) {
  // Outside a parmoncc run, rnd128() is the plain general sequence.
  // (The fallback stream is thread-local and already consumed by other
  // tests in this binary, so compare increments, not absolutes: draw two
  // values and check both are in (0,1) and distinct.)
  const double First = rnd128();
  const double Second = rnd128();
  EXPECT_GT(First, 0.0);
  EXPECT_LT(First, 1.0);
  EXPECT_NE(First, Second);
}

TEST(CApi, SetThreadRandomSourceRedirectsRnd128) {
  Lcg128 Stream;
  Lcg128 Reference;
  setThreadRandomSource(&Stream);
  EXPECT_DOUBLE_EQ(rnd128(), Reference.nextUniform());
  EXPECT_DOUBLE_EQ(rnd128(), Reference.nextUniform());
  setThreadRandomSource(nullptr);
}

TEST(CApi, ParmonccRejectsNullAndBadArguments) {
  int NRow = 1, NCol = 1, Res = 0, SeqNum = 0, PerPass = 0, PerAver = 0;
  long long MaxSv = 10;
  EXPECT_NE(parmoncc(nullptr, &NRow, &NCol, &MaxSv, &Res, &SeqNum, &PerPass,
                     &PerAver),
            0);
  EXPECT_NE(parmoncc(scalarRealization, nullptr, &NCol, &MaxSv, &Res,
                     &SeqNum, &PerPass, &PerAver),
            0);
  int BadRow = 0;
  EXPECT_NE(parmoncc(scalarRealization, &BadRow, &NCol, &MaxSv, &Res,
                     &SeqNum, &PerPass, &PerAver),
            0);
  long long BadMax = 0;
  EXPECT_NE(parmoncc(scalarRealization, &NRow, &NCol, &BadMax, &Res,
                     &SeqNum, &PerPass, &PerAver),
            0);
}

TEST(CApi, ParmonccRunsTheScalarExample) {
  ScratchDir Dir("scalar");
  setenv("PARMONC_WORKDIR", Dir.path().c_str(), 1);
  setenv("PARMONC_NP", "2", 1);

  int NRow = 1, NCol = 1, Res = 0, SeqNum = 0, PerPass = 0, PerAver = 0;
  long long MaxSv = 4000;
  ASSERT_EQ(parmoncc(scalarRealization, &NRow, &NCol, &MaxSv, &Res, &SeqNum,
                     &PerPass, &PerAver),
            0);

  ResultsStore Store(Dir.path());
  Result<std::vector<double>> Means = Store.readMeans(1, 1);
  ASSERT_TRUE(Means.isOk());
  EXPECT_NEAR(Means.value()[0], 0.5, 0.02);

  unsetenv("PARMONC_WORKDIR");
  unsetenv("PARMONC_NP");
}

TEST(CApi, ParmonccMatrixAndResumeFlow) {
  // The paper's §4 calling pattern: first a fresh run with seqnum=0, then
  // a resumed run with res=1 and a different seqnum.
  ScratchDir Dir("resume");
  setenv("PARMONC_WORKDIR", Dir.path().c_str(), 1);
  setenv("PARMONC_NP", "2", 1);

  int NRow = 1, NCol = 2, Res = 0, SeqNum = 0, PerPass = 0, PerAver = 0;
  long long MaxSv = 2000;
  ASSERT_EQ(parmoncc(pairRealization, &NRow, &NCol, &MaxSv, &Res, &SeqNum,
                     &PerPass, &PerAver),
            0);

  Res = 1;
  SeqNum = 2; // as in the paper's example
  ASSERT_EQ(parmoncc(pairRealization, &NRow, &NCol, &MaxSv, &Res, &SeqNum,
                     &PerPass, &PerAver),
            0);

  ResultsStore Store(Dir.path());
  Result<MomentSnapshot> Checkpoint =
      // mclint: allow(R7): asserting on the sealed generation directly
      Store.readSnapshot(Store.checkpointPath());
  ASSERT_TRUE(Checkpoint.isOk());
  EXPECT_EQ(Checkpoint.value().Moments.sampleVolume(), 4000);
  Result<std::vector<double>> Means = Store.readMeans(1, 2);
  ASSERT_TRUE(Means.isOk());
  EXPECT_NEAR(Means.value()[0], 0.5, 0.02);
  EXPECT_NEAR(Means.value()[1], 1.0 / 3.0, 0.02);

  // Resuming with the same seqnum must fail, per §3.2.
  EXPECT_NE(parmoncc(pairRealization, &NRow, &NCol, &MaxSv, &Res, &SeqNum,
                     &PerPass, &PerAver),
            0);

  unsetenv("PARMONC_WORKDIR");
  unsetenv("PARMONC_NP");
}

TEST(CApi, FortranBindingMatchesCBinding) {
  // parmoncf_ is the same engine behind the gfortran-mangled symbol.
  ScratchDir Dir("fortran");
  setenv("PARMONC_WORKDIR", Dir.path().c_str(), 1);
  setenv("PARMONC_NP", "1", 1);

  int NRow = 1, NCol = 1, Res = 0, SeqNum = 0, PerPass = 0, PerAver = 0;
  long long MaxSv = 1000;
  ASSERT_EQ(parmoncf_(scalarRealization, &NRow, &NCol, &MaxSv, &Res,
                      &SeqNum, &PerPass, &PerAver),
            0);
  ResultsStore Store(Dir.path());
  EXPECT_NEAR(Store.readMeans(1, 1).value()[0], 0.5, 0.05);

  unsetenv("PARMONC_WORKDIR");
  unsetenv("PARMONC_NP");
}

TEST(CApi, FortranRnd128AliasProducesUniforms) {
  const double Value = rnd128_();
  EXPECT_GT(Value, 0.0);
  EXPECT_LT(Value, 1.0);
}

} // namespace
} // namespace parmonc
