//===- tests/lint/CacheTest.cpp - cache, baseline and autofix tests -------===//
//
// Part of the PARMONC reproduction library.
//
//===----------------------------------------------------------------------===//
//
// End-to-end tests of the analyzer's persistence features against small
// synthetic trees in a temp directory: the incremental cache (content and
// context invalidation, malformed-file recovery), the accepted-findings
// baseline (round trip, multiset consumption, strict parsing), and the
// `--fix` path (R4 guard/include rewrites, R10 waiver removal).
//
//===----------------------------------------------------------------------===//

#include "parmonc/lint/Analyzer.h"
#include "parmonc/lint/Baseline.h"
#include "parmonc/lint/Cache.h"
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

/// A TU with one R2 finding (the wall-clock read).
std::string stampedSource(const std::string &Suffix) {
  return "namespace parmonc {\n"
         "\n"
         "long fixtureStamp" +
         Suffix +
         "() {\n"
         "  return time(nullptr);\n"
         "}\n"
         "\n"
         "} // namespace parmonc\n";
}

/// A TU with no findings.
std::string quietSource(const std::string &Suffix) {
  return "namespace parmonc {\n"
         "\n"
         "int fixtureQuiet" +
         Suffix +
         "() {\n"
         "  return 7;\n"
         "}\n"
         "\n"
         "} // namespace parmonc\n";
}

LintReport runTree(const std::string &Root, const std::string &CachePath,
                   std::vector<std::string> RuleIds = {},
                   const std::string &BaselinePath = {},
                   bool ComputeFixes = false) {
  AnalyzerOptions Options;
  Options.Paths = {Root};
  Options.RuleIds = std::move(RuleIds);
  Options.CachePath = CachePath;
  Options.BaselinePath = BaselinePath;
  Options.ComputeFixes = ComputeFixes;
  Result<LintReport> Report = runAnalyzer(Options);
  EXPECT_TRUE(Report) << Report.status().message();
  return Report ? Report.value() : LintReport{};
}

std::vector<std::string> renderedDiags(const LintReport &Report) {
  std::vector<std::string> Out;
  for (const Diagnostic &Diag : Report.Diagnostics)
    Out.push_back(formatDiagnostic(Diag, false));
  return Out;
}

//===----------------------------------------------------------------------===//
// Incremental cache.
//===----------------------------------------------------------------------===//

TEST(LintCacheTest, WarmRunReusesEverythingAndAgreesWithCold) {
  const std::string Root = scratchTree("warm");
  const std::string CachePath = Root + "/cache.txt";
  writeAt(Root, "a.cpp", stampedSource("A"));
  writeAt(Root, "b.cpp", quietSource("B"));
  writeAt(Root, "c.cpp", quietSource("C"));

  LintReport Cold = runTree(Root, CachePath);
  EXPECT_EQ(Cold.FileCount, 3u);
  EXPECT_EQ(Cold.CacheHits, 0u);
  EXPECT_EQ(Cold.CacheMisses, 3u);
  ASSERT_EQ(Cold.Diagnostics.size(), 1u);
  EXPECT_EQ(Cold.Diagnostics[0].RuleId, "R2");

  LintReport Warm = runTree(Root, CachePath);
  EXPECT_EQ(Warm.CacheHits, 3u);
  EXPECT_EQ(Warm.CacheMisses, 0u);
  EXPECT_EQ(renderedDiags(Warm), renderedDiags(Cold));
}

TEST(LintCacheTest, ContentChangeInvalidatesOnlyThatFile) {
  const std::string Root = scratchTree("content");
  const std::string CachePath = Root + "/cache.txt";
  writeAt(Root, "a.cpp", stampedSource("A"));
  writeAt(Root, "b.cpp", quietSource("B"));
  writeAt(Root, "c.cpp", quietSource("C"));
  (void)runTree(Root, CachePath);

  // Same defined-function name (so the cross-file context is unchanged),
  // new body with a finding: only b.cpp's cache entry goes stale.
  writeAt(Root, "b.cpp",
          "namespace parmonc {\n"
          "\n"
          "int fixtureQuietB() {\n"
          "  return (int)time(nullptr);\n"
          "}\n"
          "\n"
          "} // namespace parmonc\n");
  LintReport Report = runTree(Root, CachePath);
  EXPECT_EQ(Report.CacheHits, 2u);
  EXPECT_EQ(Report.CacheMisses, 1u);
  ASSERT_EQ(Report.Diagnostics.size(), 2u);
}

TEST(LintCacheTest, CrossFileContextChangeInvalidatesCachedDiags) {
  const std::string Root = scratchTree("context");
  const std::string CachePath = Root + "/cache.txt";
  writeAt(Root, "a.cpp", stampedSource("A"));
  writeAt(Root, "b.cpp", quietSource("B"));
  (void)runTree(Root, CachePath);

  // A new [[nodiscard]] declaration anywhere changes the cross-file
  // context, so every cached diagnostic list is stale even though the
  // other files' contents (and their cached facts) are unchanged.
  writeAt(Root, "api.h",
          "#ifndef PARMONC_API_H\n"
          "#define PARMONC_API_H\n"
          "namespace parmonc {\n"
          "[[nodiscard]] int fixtureNewApi();\n"
          "}\n"
          "#endif // PARMONC_API_H\n");
  LintReport Report = runTree(Root, CachePath);
  EXPECT_EQ(Report.CacheHits, 0u);
  EXPECT_EQ(Report.CacheMisses, 3u);
}

TEST(LintCacheTest, CalleeSummaryChangeInvalidatesOnlyDependents) {
  // The cache-v5 dependency fingerprint: a semantic change to a leaf
  // function re-analyzes exactly the files whose summaries can see it
  // through the call graph — the unrelated file stays cached.
  const std::string Root = scratchTree("deps");
  const std::string CachePath = Root + "/cache.txt";
  writeAt(Root, "leaf.cpp",
          "namespace parmonc {\n"
          "double fixtureLeafKnob() {\n"
          "  return 1.0;\n"
          "}\n"
          "} // namespace parmonc\n");
  writeAt(Root, "mid.cpp",
          "namespace parmonc {\n"
          "double fixtureMidRelay() {\n"
          "  return fixtureLeafKnob();\n"
          "}\n"
          "} // namespace parmonc\n");
  writeAt(Root, "user.cpp",
          "namespace parmonc {\n"
          "void fixtureUserFold(EstimatorMatrix &Est) {\n"
          "  const double V = fixtureMidRelay();\n"
          "  Est.accumulate(&V);\n"
          "}\n"
          "} // namespace parmonc\n");
  writeAt(Root, "other.cpp", quietSource("Other"));

  LintReport Cold = runTree(Root, CachePath);
  EXPECT_EQ(Cold.FileCount, 4u);
  EXPECT_EQ(Cold.CacheMisses, 4u);
  EXPECT_TRUE(Cold.Diagnostics.empty());

  // The leaf turns into an environment read: its summary fingerprint
  // changes, so mid.cpp and user.cpp (transitive dependents) go stale
  // alongside the edited file itself — but other.cpp does not.
  writeAt(Root, "leaf.cpp",
          "namespace parmonc {\n"
          "double fixtureLeafKnob() {\n"
          "  return getenv(\"PARMONC_KNOB\") ? 2.0 : 1.0;\n"
          "}\n"
          "} // namespace parmonc\n");
  LintReport Warm = runTree(Root, CachePath);
  EXPECT_EQ(Warm.CacheHits, 1u);
  EXPECT_EQ(Warm.CacheMisses, 3u);
  // The re-analysis surfaces the new cross-file R14 finding, identical to
  // a from-scratch run.
  LintReport Fresh = runTree(Root, Root + "/fresh-cache.txt");
  EXPECT_EQ(renderedDiags(Warm), renderedDiags(Fresh));
  ASSERT_EQ(Warm.Diagnostics.size(), 1u);
  EXPECT_EQ(Warm.Diagnostics[0].RuleId, "R14");
  EXPECT_NE(Warm.Diagnostics[0].Path.find("user.cpp"), std::string::npos);
}

TEST(LintCacheTest, MalformedCacheIsDiscardedAndRebuilt) {
  const std::string Root = scratchTree("malformed");
  const std::string CachePath = Root + "/cache.txt";
  writeAt(Root, "a.cpp", stampedSource("A"));
  (void)runTree(Root, CachePath);

  Status Corrupted = writeFileAtomic(CachePath, "mclint-cache 3\ngarbage\n");
  ASSERT_TRUE(Corrupted) << Corrupted.message();
  LintReport Rebuilt = runTree(Root, CachePath);
  EXPECT_EQ(Rebuilt.CacheHits, 0u);
  EXPECT_EQ(Rebuilt.CacheMisses, 1u);
  ASSERT_EQ(Rebuilt.Diagnostics.size(), 1u);

  LintReport Warm = runTree(Root, CachePath);
  EXPECT_EQ(Warm.CacheHits, 1u);
}

TEST(LintCacheTest, CacheUnderAnotherConfigStampIsAllMisses) {
  // A rule can change meaning under an unchanged id: R8 once scanned raw
  // synchronization in core/ only, so an engine=4 `--rule=R8` cache holds
  // no finding for this vr/ file. Saved under that older stamp, the cache
  // must replay nothing.
  const std::string Root = scratchTree("stamp");
  const std::string CachePath = Root + "/cache.txt";
  writeAt(Root, "vr/a.cpp",
          "namespace parmonc {\n"
          "std::mutex FixtureLock;\n"
          "} // namespace parmonc\n");
  LintReport Fresh = runTree(Root, CachePath, {"R8"});
  ASSERT_EQ(Fresh.Diagnostics.size(), 1u);

  LintCache Stale;
  Stale.load(CachePath, cacheConfigStamp({"R8"}));
  ASSERT_EQ(Stale.size(), 1u);
  CacheEntry Entry = *Stale.lookup(Fresh.Diagnostics[0].Path);
  Entry.Diags.clear();
  Stale.update(Fresh.Diagnostics[0].Path, std::move(Entry));
  Status Saved = Stale.save(CachePath, "config engine=4 cfg=1 rules=R8");
  ASSERT_TRUE(Saved) << Saved.message();

  LintReport Report = runTree(Root, CachePath, {"R8"});
  EXPECT_EQ(Report.CacheHits, 0u);
  EXPECT_EQ(Report.CacheMisses, 1u);
  EXPECT_EQ(renderedDiags(Report), renderedDiags(Fresh));
}

//===----------------------------------------------------------------------===//
// Baselines.
//===----------------------------------------------------------------------===//

TEST(LintBaselineTest, RoundTripSuppressesOldDebtOnly) {
  const std::string Root = scratchTree("baseline");
  const std::string BaselinePath = Root + "/accepted.baseline";
  writeAt(Root, "a.cpp", stampedSource("A"));
  writeAt(Root, "b.cpp", stampedSource("B"));

  LintReport Before = runTree(Root, "");
  ASSERT_EQ(Before.Diagnostics.size(), 2u);
  const std::string Serialized = formatBaseline(
      Before.Diagnostics, [&](const Diagnostic &Diag) -> std::string_view {
        for (size_t I = 0; I < Before.Diagnostics.size(); ++I)
          if (&Before.Diagnostics[I] == &Diag)
            return Before.DiagnosticLineText[I];
        return {};
      });
  Status Written = writeFileAtomic(BaselinePath, Serialized);
  ASSERT_TRUE(Written) << Written.message();

  LintReport Suppressed = runTree(Root, "", {}, BaselinePath);
  EXPECT_TRUE(Suppressed.Diagnostics.empty());
  EXPECT_EQ(Suppressed.BaselineSuppressed, 2u);

  // New debt is not covered by the old record.
  writeAt(Root, "c.cpp", stampedSource("C"));
  LintReport WithNew = runTree(Root, "", {}, BaselinePath);
  ASSERT_EQ(WithNew.Diagnostics.size(), 1u);
  EXPECT_NE(WithNew.Diagnostics[0].Path.find("c.cpp"), std::string::npos);
  EXPECT_EQ(WithNew.BaselineSuppressed, 2u);
}

TEST(LintBaselineTest, EntriesAreConsumedMultisetStyle) {
  // Two byte-identical findings, one baseline entry: exactly one of the
  // two is suppressed and the other survives.
  std::vector<Diagnostic> Diags = {
      {"a.cpp", 3, "R2", "nondeterminism", "call to 'time()'", {}},
      {"a.cpp", 9, "R2", "nondeterminism", "call to 'time()'", {}}};
  const auto LineTextOf = [](const Diagnostic &) -> std::string_view {
    return "  return time(nullptr);";
  };
  std::vector<Diagnostic> One = {Diags[0]};
  const std::string Serialized = formatBaseline(One, LineTextOf);
  Result<std::vector<BaselineEntry>> Entries = [&] {
    const std::string Path =
        scratchTree("baseline_multiset") + "/one.baseline";
    Status Written = writeFileAtomic(Path, Serialized);
    EXPECT_TRUE(Written) << Written.message();
    return loadBaseline(Path);
  }();
  ASSERT_TRUE(Entries) << Entries.status().message();
  EXPECT_EQ(applyBaseline(Entries.value(), LineTextOf, Diags), 1u);
  ASSERT_EQ(Diags.size(), 1u);
  EXPECT_EQ(Diags[0].Line, 9u);
}

TEST(LintBaselineTest, MalformedBaselineIsAnError) {
  const std::string Root = scratchTree("baseline_bad");
  const std::string BaselinePath = Root + "/bad.baseline";
  Status Written =
      writeFileAtomic(BaselinePath, "# comment is fine\nR2 nothex a.cpp\n");
  ASSERT_TRUE(Written) << Written.message();
  Result<std::vector<BaselineEntry>> Entries = loadBaseline(BaselinePath);
  ASSERT_FALSE(Entries);
  EXPECT_NE(Entries.status().message().find("malformed baseline entry"),
            std::string::npos);
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

  LintReport Report = runTree(Root, "", {"R4"}, "", /*ComputeFixes=*/true);
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

  LintReport Clean = runTree(Root, "", {"R4"});
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

  LintReport Report = runTree(Root, "", {}, "", /*ComputeFixes=*/true);
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

  LintReport Clean = runTree(Root, "");
  EXPECT_TRUE(Clean.Diagnostics.empty());
}

TEST(LintFixTest, FixesAreByteIdenticalAtAnyJobCount) {
  // Two copies of the same fixable tree: several headers with wrong guards
  // and angle includes, plus TUs with stale waivers, so the fix set spans
  // many files and many edits per file.
  const auto Populate = [](const std::string &Root) {
    for (char Letter : {'a', 'b', 'c', 'd'}) {
      const std::string Name(1, Letter);
      const std::string Upper(1, char(Letter - 'a' + 'A'));
      writeAt(Root, "include/parmonc/fix/" + Upper + ".h",
              "#ifndef WRONG_" + Upper +
                  "_H\n"
                  "#define WRONG_" +
                  Upper +
                  "_H\n"
                  "\n"
                  "#include <parmonc/support/Status.h>\n"
                  "#include <parmonc/support/Text.h>\n"
                  "\n"
                  "struct Fixture" +
                  Upper +
                  " {\n"
                  "  int Value;\n"
                  "};\n"
                  "\n"
                  "#endif // WRONG_" +
                  Upper + "_H\n");
      writeAt(Root, "src/" + Name + ".cpp",
              "namespace parmonc {\n"
              "\n"
              "long fixtureWaived" +
                  Upper +
                  "() {\n"
                  "  // mclint: allow(R2): stale standalone\n"
                  "  return 7;\n"
                  "}\n"
                  "\n"
                  "long fixtureTail" +
                  Upper + "() { return 8; } // mclint: allow(R2): stale\n"
                          "\n"
                          "} // namespace parmonc\n");
    }
  };

  const std::string Serial = scratchTree("fix_jobs1");
  const std::string Parallel = scratchTree("fix_jobs8");
  Populate(Serial);
  Populate(Parallel);

  const auto FixTree = [](const std::string &Root, unsigned Jobs) {
    AnalyzerOptions Options;
    Options.Paths = {Root};
    Options.ComputeFixes = true;
    Options.Jobs = Jobs;
    Result<LintReport> Report = runAnalyzer(Options);
    EXPECT_TRUE(Report) << Report.status().message();
    std::vector<std::string> Rendered;
    if (Report) {
      for (const Diagnostic &Diag : Report.value().Diagnostics) {
        std::string Line = formatDiagnostic(Diag, false);
        // Strip the tree root so the two transcripts are comparable.
        const size_t At = Line.find(Root);
        if (At != std::string::npos)
          Line.erase(At, Root.size());
        Rendered.push_back(Line);
      }
      Result<size_t> Fixed = applyFixes(Report.value().Diagnostics);
      EXPECT_TRUE(Fixed) << Fixed.status().message();
      EXPECT_EQ(Fixed.value(), 8u);
    }
    return Rendered;
  };

  const std::vector<std::string> SerialDiags = FixTree(Serial, 1);
  const std::vector<std::string> ParallelDiags = FixTree(Parallel, 8);
  ASSERT_FALSE(SerialDiags.empty());
  EXPECT_EQ(SerialDiags, ParallelDiags);

  // Every rewritten file must be byte-for-byte identical across job counts.
  size_t Compared = 0;
  for (const auto &Entry : fs::recursive_directory_iterator(Serial)) {
    if (!Entry.is_regular_file())
      continue;
    const std::string Rel =
        fs::relative(Entry.path(), Serial).generic_string();
    Result<std::string> Ours = readFileToString(Entry.path().generic_string());
    Result<std::string> Theirs =
        readFileToString((fs::path(Parallel) / Rel).generic_string());
    ASSERT_TRUE(Ours) << Ours.status().message();
    ASSERT_TRUE(Theirs) << Rel << ": " << Theirs.status().message();
    EXPECT_EQ(Ours.value(), Theirs.value()) << Rel;
    ++Compared;
  }
  EXPECT_EQ(Compared, 8u);

  // And the serial tree must actually be clean after the rewrite.
  LintReport Clean = runTree(Serial, "");
  EXPECT_TRUE(Clean.Diagnostics.empty());
}

} // namespace
} // namespace lint
} // namespace parmonc
