//===- tests/lint/FixTest.cpp - autofix and file-identity tests -----------===//
//
// Part of the PARMONC reproduction library.
//
//===----------------------------------------------------------------------===//
//
// End-to-end tests of the analyzer against small synthetic trees in a temp
// directory: the `--fix` path (R4 guard/include rewrites, R10 waiver
// removal), and file identity — a file named under several spellings is
// analyzed, reported and fixed once.
//
//===----------------------------------------------------------------------===//

#include "parmonc/lint/Analyzer.h"
#include "parmonc/support/Text.h"

#include <gtest/gtest.h>

#include <filesystem>
#include <string>
#include <vector>

namespace parmonc {
namespace lint {
namespace {

namespace fs = std::filesystem;

/// A fresh scratch tree under the gtest temp dir; removed first so reruns
/// are deterministic.
std::string scratchTree(const std::string &Name) {
  const fs::path Root = fs::path(::testing::TempDir()) / ("mclint_" + Name);
  fs::remove_all(Root);
  fs::create_directories(Root);
  return Root.generic_string();
}

void writeAt(const std::string &Root, const std::string &Rel,
             const std::string &Contents) {
  const fs::path Full = fs::path(Root) / Rel;
  fs::create_directories(Full.parent_path());
  Status Written = writeFileAtomic(Full.generic_string(), Contents);
  ASSERT_TRUE(Written) << Written.message();
}

LintReport runPaths(std::vector<std::string> Paths,
                    std::vector<std::string> RuleIds = {},
                    bool ComputeFixes = false) {
  AnalyzerOptions Options;
  Options.Paths = std::move(Paths);
  Options.RuleIds = std::move(RuleIds);
  Options.ComputeFixes = ComputeFixes;
  Result<LintReport> Report = runAnalyzer(Options);
  EXPECT_TRUE(Report) << Report.status().message();
  return Report ? Report.value() : LintReport{};
}

LintReport runTree(const std::string &Root,
                   std::vector<std::string> RuleIds = {},
                   bool ComputeFixes = false) {
  return runPaths({Root}, std::move(RuleIds), ComputeFixes);
}

//===----------------------------------------------------------------------===//
// Autofixes.
//===----------------------------------------------------------------------===//

TEST(LintFixTest, RewritesGuardAndIncludeStyle) {
  const std::string Root = scratchTree("fix_r4");
  const std::string Rel = "include/parmonc/foo/Bar.h";
  writeAt(Root, Rel,
          "#ifndef WRONG_H\n"
          "#define WRONG_H\n"
          "\n"
          "#include <parmonc/support/Status.h>\n"
          "\n"
          "struct FixtureBar {\n"
          "  int Value;\n"
          "};\n"
          "\n"
          "#endif // WRONG_H\n");

  LintReport Report = runTree(Root, {"R4"}, /*ComputeFixes=*/true);
  ASSERT_EQ(Report.Diagnostics.size(), 2u);
  Result<size_t> Fixed = applyFixes(Report.Diagnostics);
  ASSERT_TRUE(Fixed) << Fixed.status().message();
  EXPECT_EQ(Fixed.value(), 1u);

  Result<std::string> After =
      readFileToString((fs::path(Root) / Rel).generic_string());
  ASSERT_TRUE(After) << After.status().message();
  EXPECT_NE(After.value().find("#ifndef PARMONC_FOO_BAR_H\n"),
            std::string::npos);
  EXPECT_NE(After.value().find("#define PARMONC_FOO_BAR_H\n"),
            std::string::npos);
  EXPECT_NE(After.value().find("#endif // PARMONC_FOO_BAR_H"),
            std::string::npos);
  EXPECT_NE(After.value().find("#include \"parmonc/support/Status.h\"\n"),
            std::string::npos);

  LintReport Clean = runTree(Root, {"R4"});
  EXPECT_TRUE(Clean.Diagnostics.empty());
}

TEST(LintFixTest, RemovesStaleWaivers) {
  const std::string Root = scratchTree("fix_r10");
  writeAt(Root, "a.cpp",
          "namespace parmonc {\n"
          "\n"
          "long fixtureValue() {\n"
          "  // mclint: allow(R2): stale standalone\n"
          "  return 7;\n"
          "}\n"
          "\n"
          "long fixtureOther() { return 8; } // mclint: allow(R2): stale\n"
          "\n"
          "} // namespace parmonc\n");

  LintReport Report = runTree(Root, {}, /*ComputeFixes=*/true);
  ASSERT_EQ(Report.Diagnostics.size(), 2u);
  EXPECT_EQ(Report.Diagnostics[0].RuleId, "R10");
  Result<size_t> Fixed = applyFixes(Report.Diagnostics);
  ASSERT_TRUE(Fixed) << Fixed.status().message();
  EXPECT_EQ(Fixed.value(), 1u);

  Result<std::string> After =
      readFileToString((fs::path(Root) / "a.cpp").generic_string());
  ASSERT_TRUE(After) << After.status().message();
  EXPECT_EQ(After.value().find("mclint:"), std::string::npos);
  EXPECT_NE(After.value().find("long fixtureOther() { return 8; }\n"),
            std::string::npos);
  EXPECT_NE(After.value().find("  return 7;\n"), std::string::npos);

  LintReport Clean = runTree(Root);
  EXPECT_TRUE(Clean.Diagnostics.empty());
}

TEST(LintFixTest, FileNamedTwiceIsFixedOnce) {
  // Analyzing each spelling as its own file would attach the same line
  // deletion twice, and the second would remove the next, innocent line.
  const std::string Root = scratchTree("fix_twice");
  const std::string Original =
      "// mclint fixture: R10, a file-scope waiver the file no longer earns.\n"
      "// mclint: allow-file(R8): legacy sweep, nothing left\n"
      "\n"
      "namespace parmonc {\n"
      "\n"
      "int fixtureIdleEngine() { return 0; }\n"
      "\n"
      "} // namespace parmonc\n";
  writeAt(Root, "a.cpp", Original);

  LintReport Report = runPaths({Root + "/a.cpp", Root + "/./a.cpp"}, {},
                               /*ComputeFixes=*/true);
  EXPECT_EQ(Report.FileCount, 1u);
  ASSERT_EQ(Report.Diagnostics.size(), 1u);
  EXPECT_EQ(Report.Diagnostics[0].RuleId, "R10");
  Result<size_t> Fixed = applyFixes(Report.Diagnostics);
  ASSERT_TRUE(Fixed) << Fixed.status().message();
  EXPECT_EQ(Fixed.value(), 1u);

  Result<std::string> After =
      readFileToString((fs::path(Root) / "a.cpp").generic_string());
  ASSERT_TRUE(After) << After.status().message();
  std::string Expected = Original;
  const std::string Waiver =
      "// mclint: allow-file(R8): legacy sweep, nothing left\n";
  Expected.erase(Expected.find(Waiver), Waiver.size());
  EXPECT_EQ(After.value(), Expected);
}

//===----------------------------------------------------------------------===//
// File identity.
//===----------------------------------------------------------------------===//

TEST(LintFileIdentityTest, EverySpellingOfOneFileIsAnalyzedOnce) {
  const std::string Root = scratchTree("identity");
  writeAt(Root, "a.cpp",
          "namespace parmonc {\n"
          "\n"
          "long fixtureStamp() {\n"
          "  return time(nullptr);\n"
          "}\n"
          "\n"
          "} // namespace parmonc\n");
  fs::create_directories(fs::path(Root) / "sub");
  const std::string Plain = Root + "/a.cpp";

  const LintReport Once = runPaths({Plain});
  ASSERT_EQ(Once.FileCount, 1u);
  ASSERT_EQ(Once.Diagnostics.size(), 1u);
  EXPECT_EQ(Once.Diagnostics[0].RuleId, "R2");

  const std::string Relative =
      fs::relative(fs::path(Plain), fs::current_path()).generic_string();
  const LintReport Many =
      runPaths({Plain, Root + "/./a.cpp", Root + "/sub/../a.cpp", Relative,
                Root});
  EXPECT_EQ(Many.FileCount, 1u);
  ASSERT_EQ(Many.Diagnostics.size(), 1u);
  // The surviving spelling is the one collected first.
  EXPECT_EQ(formatDiagnostic(Many.Diagnostics[0], false),
            formatDiagnostic(Once.Diagnostics[0], false));
}

} // namespace
} // namespace lint
} // namespace parmonc
