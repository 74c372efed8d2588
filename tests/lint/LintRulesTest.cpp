//===- tests/lint/LintRulesTest.cpp - mclint engine tests -----------------===//
//
// Part of the PARMONC reproduction library.
//
//===----------------------------------------------------------------------===//
//
// Exercises the mclint analyzer against the fixture tree under
// tests/lint/fixtures/ (each file deliberately violates exactly one rule,
// plus a clean pair) and the SourceFile lexer against synthetic buffers.
// The fixture tests assert exact (file, line, rule-id) triples so any
// change to a rule's matching behavior is visible in review.
//
//===----------------------------------------------------------------------===//

#include "parmonc/lint/Analyzer.h"
#include "parmonc/lint/Rules.h"
#include "parmonc/lint/SourceFile.h"
#include "parmonc/support/Text.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cctype>
#include <filesystem>
#include <map>
#include <set>
#include <string>
#include <tuple>
#include <vector>

namespace parmonc {
namespace lint {
namespace {

std::string fixturePath(const std::string &Name) {
  return std::string(PARMONC_LINT_FIXTURE_DIR) + "/" + Name;
}

/// Runs the analyzer over the given roots with the given rule subset and
/// asserts environmental success.
LintReport runOn(std::vector<std::string> Paths,
                 std::vector<std::string> RuleIds = {}) {
  AnalyzerOptions Options;
  Options.Paths = std::move(Paths);
  Options.RuleIds = std::move(RuleIds);
  Result<LintReport> Report = runAnalyzer(Options);
  EXPECT_TRUE(Report) << Report.status().message();
  return Report ? Report.value() : LintReport{};
}

/// The (line, rule-id) pairs of a report, in output order.
std::vector<std::pair<unsigned, std::string>>
lineRulePairs(const LintReport &Report) {
  std::vector<std::pair<unsigned, std::string>> Pairs;
  for (const Diagnostic &Diag : Report.Diagnostics)
    Pairs.emplace_back(Diag.Line, Diag.RuleId);
  return Pairs;
}

using Pairs = std::vector<std::pair<unsigned, std::string>>;

/// \p Path relative to the fixture tree root (forward slashes).
std::string fixtureRel(std::string_view Path) {
  std::string Normal(Path);
  std::replace(Normal.begin(), Normal.end(), '\\', '/');
  const size_t At = Normal.rfind("fixtures/");
  return At == std::string::npos ? Normal : Normal.substr(At + 9);
}

//===----------------------------------------------------------------------===//
// Fixture tests: one file per rule, exact (file, line, rule-id) output.
//===----------------------------------------------------------------------===//

TEST(LintRulesTest, R11FlagsDiscardedFallibleCalls) {
  const std::string Path = fixturePath("r1_discard.cpp");
  LintReport Report = runOn({Path}, {"R11"});
  ASSERT_EQ(Report.FileCount, 1u);
  EXPECT_EQ(lineRulePairs(Report), (Pairs{{11, "R11"}, {12, "R11"}}));
  for (const Diagnostic &Diag : Report.Diagnostics) {
    EXPECT_EQ(Diag.Path, Path);
    EXPECT_EQ(Diag.RuleName, "must-check");
  }
  // Line 11 discards a builtin fallible API; line 12 discards a function
  // the analyzer harvested from the fixture's own [[nodiscard]] declaration.
  ASSERT_EQ(Report.Diagnostics.size(), 2u);
  EXPECT_NE(Report.Diagnostics[0].Message.find("writeFileAtomic"),
            std::string::npos);
  EXPECT_NE(Report.Diagnostics[1].Message.find("mightFail"),
            std::string::npos);
}

TEST(LintRulesTest, R2FlagsNondeterminismSources) {
  const std::string Path = fixturePath("r2_nondet.cpp");
  LintReport Report = runOn({Path}, {"R2"});
  EXPECT_EQ(lineRulePairs(Report),
            (Pairs{{7, "R2"}, {8, "R2"}, {9, "R2"}}));
  ASSERT_EQ(Report.Diagnostics.size(), 3u);
  EXPECT_NE(Report.Diagnostics[0].Message.find("std::random_device"),
            std::string::npos);
  EXPECT_NE(Report.Diagnostics[1].Message.find("std::chrono::system_clock"),
            std::string::npos);
  EXPECT_NE(Report.Diagnostics[2].Message.find("'time()'"),
            std::string::npos);
}

TEST(LintRulesTest, R8FlagsRawConcurrencyAndHonorsWaiver) {
  const std::string Path = fixturePath("r3_thread.cpp");
  LintReport Report = runOn({Path}, {"R8"});
  // Line 2: banned include. Line 6: std::mutex member. Line 8 would be a
  // std::atomic finding but is waived by the stand-alone comment above it.
  EXPECT_EQ(lineRulePairs(Report), (Pairs{{2, "R8"}, {6, "R8"}}));
  for (const Diagnostic &Diag : Report.Diagnostics)
    EXPECT_EQ(Diag.RuleName, "mailbox-discipline");
}

TEST(LintRulesTest, R4FlagsIncludeAndGuardViolations) {
  const std::string Path = fixturePath("r4_bad_guard.h");
  LintReport Report = runOn({Path}, {"R4"});
  // 1: non-PARMONC guard macro; 4: quoted non-project include; 5: <bits/>;
  // 6: project header via <>; 8: using-namespace in a header.
  EXPECT_EQ(lineRulePairs(Report),
            (Pairs{{1, "R4"}, {4, "R4"}, {5, "R4"}, {6, "R4"}, {8, "R4"}}));
  ASSERT_EQ(Report.Diagnostics.size(), 5u);
  EXPECT_NE(Report.Diagnostics[0].Message.find("WRONG_GUARD_H"),
            std::string::npos);
  EXPECT_NE(Report.Diagnostics[4].Message.find("using-namespace"),
            std::string::npos);
}

TEST(LintRulesTest, R5FlagsFloatInEstimatorPaths) {
  const std::string Path = fixturePath("stats/r5_float.cpp");
  LintReport Report = runOn({Path}, {"R5"});
  EXPECT_EQ(lineRulePairs(Report),
            (Pairs{{3, "R5"}, {4, "R5"}, {7, "R5"}}));
  ASSERT_EQ(Report.Diagnostics.size(), 3u);
  // Line 7 has no 'float' token — only the 1.0f literal.
  EXPECT_NE(Report.Diagnostics[2].Message.find("float literal"),
            std::string::npos);
}

TEST(LintRulesTest, R5IgnoresFloatOutsideEstimatorPaths) {
  // The same rule run against a non-stats/, non-core/ file stays silent.
  LintReport Report = runOn({fixturePath("r2_nondet.cpp")}, {"R5"});
  EXPECT_TRUE(Report.Diagnostics.empty());
}

TEST(LintRulesTest, R6FlagsRawStreamsOutsideRng) {
  const std::string Path = fixturePath("r6_raw_stream.cpp");
  LintReport Report = runOn({Path}, {"R6"});
  EXPECT_EQ(lineRulePairs(Report),
            (Pairs{{6, "R6"}, {7, "R6"}, {8, "R6"}, {9, "R6"}}));
  ASSERT_EQ(Report.Diagnostics.size(), 4u);
  EXPECT_NE(Report.Diagnostics[0].Message.find("default-seeds"),
            std::string::npos);
  EXPECT_NE(Report.Diagnostics[1].Message.find("hand-seeds"),
            std::string::npos);
  EXPECT_NE(Report.Diagnostics[2].Message.find("copied"),
            std::string::npos);
  EXPECT_NE(Report.Diagnostics[3].Message.find("nextRaw"),
            std::string::npos);
}

TEST(LintRulesTest, R6AllowsCursorStreamsAndRngInternals) {
  LintReport Report = runOn({fixturePath("r6_cursor_ok.cpp"),
                             fixturePath("rng/r6_inside_rng.cpp")},
                            {"R6"});
  EXPECT_EQ(Report.FileCount, 2u);
  EXPECT_TRUE(Report.Diagnostics.empty());
}

TEST(LintRulesTest, R7FlagsUncheckedSnapshotLoads) {
  LintReport Report = runOn({fixturePath("core/r7_unchecked_load.cpp"),
                             fixturePath("r7_unchecked_root.cpp")},
                            {"R7"});
  EXPECT_EQ(lineRulePairs(Report),
            (Pairs{{7, "R7"}, {7, "R7"}, {8, "R7"}}));
  for (const Diagnostic &Diag : Report.Diagnostics) {
    EXPECT_EQ(Diag.RuleName, "unchecked-snapshot");
    EXPECT_NE(Diag.Message.find(".prev"), std::string::npos);
  }
}

TEST(LintRulesTest, R7SilencedByFallbackEvidence) {
  LintReport Report =
      runOn({fixturePath("core/r7_fallback_ok.cpp")}, {"R7"});
  EXPECT_TRUE(Report.Diagnostics.empty());
}

TEST(LintRulesTest, R7FlagsUncheckedManifestLoads) {
  LintReport Report =
      runOn({fixturePath("core/r7_manifest_unchecked.cpp")}, {"R7"});
  EXPECT_EQ(lineRulePairs(Report), (Pairs{{7, "R7"}}));
  ASSERT_EQ(Report.Diagnostics.size(), 1u);
  EXPECT_NE(Report.Diagnostics[0].Message.find("manifest"),
            std::string::npos);
  EXPECT_NE(Report.Diagnostics[0].Message.find(".prev"), std::string::npos);
}

TEST(LintRulesTest, R7ManifestLoadsSilencedByLadderEvidence) {
  // restoreWithFallback() in the TU is evidence the fallback ladder is
  // reachable; and inside the ckpt component — the ladder's implementation
  // — direct manifest reads are exempt entirely.
  LintReport Report =
      runOn({fixturePath("core/r7_manifest_fallback_ok.cpp"),
             fixturePath("ckpt/r7_manifest_inside_ckpt.cpp")},
            {"R7"});
  EXPECT_EQ(Report.FileCount, 2u);
  EXPECT_TRUE(Report.Diagnostics.empty());
}

TEST(LintRulesTest, R8FlagsDirectSyncAndTaintedCalls) {
  // The taint set comes from the project index, so R8 runs over the whole
  // fixture tree: the raw-sync helper at the root taints its definition,
  // and the core/ caller picks up the edge.
  LintReport Report =
      runOn({std::string(PARMONC_LINT_FIXTURE_DIR)}, {"R8"});
  std::vector<std::string> Got;
  for (const Diagnostic &Diag : Report.Diagnostics)
    Got.push_back(fixtureRel(Diag.Path) + ":" + std::to_string(Diag.Line));
  EXPECT_EQ(Got, (std::vector<std::string>{"core/r8_direct_sync.cpp:3",
                                           "core/r8_direct_sync.cpp:8",
                                           "core/r8_raw_socket.cpp:3",
                                           "core/r8_raw_socket.cpp:9",
                                           "core/r8_tainted_call.cpp:7",
                                           "r3_thread.cpp:2",
                                           "r3_thread.cpp:6",
                                           "r8_sync_helper.cpp:4",
                                           "r8_sync_helper.cpp:9"}));
  ASSERT_EQ(Report.Diagnostics.size(), 9u);
  EXPECT_NE(Report.Diagnostics[2].Message.find("<sys/socket.h>"),
            std::string::npos);
  EXPECT_NE(Report.Diagnostics[3].Message.find("socketpair"),
            std::string::npos);
  EXPECT_NE(Report.Diagnostics[4].Message.find("fixtureSpinHelper"),
            std::string::npos);
  // core/r8_mailbox_ok.cpp (blessed-layer calls) and the mpsim/ socket
  // fixture (the blessed home of the wire) contributed nothing.
}

TEST(LintRulesTest, R9FlagsUpwardIncludesAndCycles) {
  LintReport Report =
      runOn({std::string(PARMONC_LINT_FIXTURE_DIR)}, {"R9"});
  ASSERT_EQ(Report.Diagnostics.size(), 2u);
  EXPECT_EQ(fixtureRel(Report.Diagnostics[0].Path), "r9_cycle_a.h");
  EXPECT_EQ(Report.Diagnostics[0].Line, 4u);
  EXPECT_NE(Report.Diagnostics[0].Message.find("include cycle:"),
            std::string::npos);
  EXPECT_NE(Report.Diagnostics[0].Message.find("r9_cycle_b.h"),
            std::string::npos);
  EXPECT_EQ(fixtureRel(Report.Diagnostics[1].Path), "rng/r9_upward.h");
  EXPECT_EQ(Report.Diagnostics[1].Line, 4u);
  EXPECT_NE(Report.Diagnostics[1].Message.find("couples rng/ to core/"),
            std::string::npos);
}

TEST(LintRulesTest, R10FlagsStaleWaivers) {
  // All rules active: the only findings in these files are the audits of
  // their dead waivers (one trailing, one file-scope).
  LintReport Report = runOn({fixturePath("r10_stale_waiver.cpp"),
                             fixturePath("core/r10_stale_file_waiver.cpp")});
  EXPECT_EQ(lineRulePairs(Report), (Pairs{{2, "R10"}, {6, "R10"}}));
  ASSERT_EQ(Report.Diagnostics.size(), 2u);
  EXPECT_NE(Report.Diagnostics[0].Message.find("'allow-file(R8)'"),
            std::string::npos);
  EXPECT_NE(Report.Diagnostics[1].Message.find("suppresses no finding"),
            std::string::npos);
}

TEST(LintRulesTest, R10FlagsWaiversNamingUnknownRules) {
  // A waiver for a rule id mclint does not have can never suppress
  // anything. It is flagged in full and rule-filtered runs alike, also when
  // it shares its directive with a live waiver.
  const std::string Path = fixturePath("r10_unknown_rule.cpp");
  for (const std::vector<std::string> &RuleIds :
       {std::vector<std::string>{}, {"R10"}, {"R2", "R10"}}) {
    LintReport Report = runOn({Path}, RuleIds);
    EXPECT_EQ(lineRulePairs(Report), (Pairs{{7, "R10"}, {8, "R10"}}));
    ASSERT_EQ(Report.Diagnostics.size(), 2u);
    EXPECT_NE(Report.Diagnostics[0].Message.find("names no mclint rule (R99)"),
              std::string::npos);
    EXPECT_NE(Report.Diagnostics[1].Message.find("'allow(R2,R1)'"),
              std::string::npos);
    EXPECT_NE(Report.Diagnostics[1].Message.find("names no mclint rule (R1)"),
              std::string::npos);
  }
}

TEST(LintRulesTest, R10IgnoresUsedWaivers) {
  LintReport Report = runOn({fixturePath("r10_used_waiver.cpp")});
  EXPECT_TRUE(Report.Diagnostics.empty());
}

TEST(LintRulesTest, CleanFixturesProduceNoFindings) {
  LintReport Report =
      runOn({fixturePath("clean.cpp"), fixturePath("clean.h")});
  EXPECT_EQ(Report.FileCount, 2u);
  EXPECT_TRUE(Report.Diagnostics.empty())
      << formatDiagnostic(Report.Diagnostics.front(), false);
}

//===----------------------------------------------------------------------===//
// Self-describing fixture driver: every fixture carries its expected
// findings as `// expect: Rn [Rm ...]` annotations on the flagged line,
// and the full-rule run over the tree must match them exactly. Adding a
// fixture therefore needs no test edit — and a rule regression shows up
// as a readable diff of "<file>:<line> <rule>" strings.
//===----------------------------------------------------------------------===//

TEST(LintRulesTest, FixtureExpectationsMatch) {
  namespace fs = std::filesystem;
  std::vector<std::string> Expected;
  for (const auto &Entry : fs::recursive_directory_iterator(
           std::string(PARMONC_LINT_FIXTURE_DIR))) {
    if (!Entry.is_regular_file())
      continue;
    const std::string Path = Entry.path().generic_string();
    Result<std::string> Contents = readFileToString(Path);
    ASSERT_TRUE(Contents) << Contents.status().message();
    unsigned LineNo = 0;
    for (std::string_view Line : splitChar(Contents.value(), '\n')) {
      ++LineNo;
      const size_t At = Line.find("expect:");
      if (At == std::string_view::npos)
        continue;
      for (std::string_view Id : splitWhitespace(Line.substr(At + 7))) {
        ASSERT_TRUE(Id.size() >= 2 && Id[0] == 'R' &&
                    Id.find_first_not_of("0123456789", 1) ==
                        std::string_view::npos)
            << "malformed expect annotation in " << Path << ":" << LineNo;
        Expected.push_back(fixtureRel(Path) + ":" + std::to_string(LineNo) +
                           " " + std::string(Id));
      }
    }
  }
  ASSERT_FALSE(Expected.empty());

  LintReport Report = runOn({std::string(PARMONC_LINT_FIXTURE_DIR)});
  // Deterministic ordering: sorted by (path, line, rule id).
  EXPECT_TRUE(std::is_sorted(
      Report.Diagnostics.begin(), Report.Diagnostics.end(),
      [](const Diagnostic &A, const Diagnostic &B) {
        return std::tie(A.Path, A.Line, A.RuleId) <
               std::tie(B.Path, B.Line, B.RuleId);
      }));
  std::vector<std::string> Actual;
  for (const Diagnostic &Diag : Report.Diagnostics)
    Actual.push_back(fixtureRel(Diag.Path) + ":" +
                     std::to_string(Diag.Line) + " " + Diag.RuleId);
  std::sort(Expected.begin(), Expected.end());
  std::sort(Actual.begin(), Actual.end());
  EXPECT_EQ(Expected, Actual);
}

//===----------------------------------------------------------------------===//
// Interprocedural rules (R14-R16): the witness path follows the call
// chain across translation units, so these run over the multi-file
// fixture set under inter/ and assert the cross-file steps explicitly.
//===----------------------------------------------------------------------===//

TEST(LintRulesTest, R14WitnessWalksTheTaintChainAcrossFiles) {
  LintReport Report = runOn({fixturePath("inter/r14_source.cpp"),
                             fixturePath("inter/r14_relay.cpp"),
                             fixturePath("inter/r14_sink.cpp")},
                            {"R14"});
  ASSERT_EQ(Report.Diagnostics.size(), 1u);
  const Diagnostic &Diag = Report.Diagnostics.front();
  EXPECT_EQ(Diag.Path, fixturePath("inter/r14_sink.cpp"));
  EXPECT_EQ(Diag.Line, 10u);
  EXPECT_NE(Diag.Message.find("environment variable read"),
            std::string::npos);
  EXPECT_NE(Diag.Message.find("estimator accumulation"), std::string::npos);
  // Bind step (own file), one step per chain hop, then the sink step.
  ASSERT_EQ(Diag.Flow.size(), 4u);
  EXPECT_TRUE(Diag.Flow[0].Path.empty());
  EXPECT_NE(Diag.Flow[0].Message.find("'Noisy' is bound here"),
            std::string::npos);
  EXPECT_EQ(Diag.Flow[1].Path, fixturePath("inter/r14_relay.cpp"));
  EXPECT_EQ(Diag.Flow[1].Line, 8u);
  EXPECT_NE(
      Diag.Flow[1].Message.find("'fixtureRelayKnob' carries it through"),
      std::string::npos);
  EXPECT_EQ(Diag.Flow[2].Path, fixturePath("inter/r14_source.cpp"));
  EXPECT_EQ(Diag.Flow[2].Line, 8u);
  EXPECT_NE(Diag.Flow[2].Message.find(
                "originates in 'fixtureReadTuningKnob' here"),
            std::string::npos);
  EXPECT_TRUE(Diag.Flow[3].Path.empty());
  EXPECT_EQ(Diag.Flow[3].Line, 10u);
}

TEST(LintRulesTest, R14StandsDownWithoutTheChain) {
  // The sink file alone: fixtureRelayKnob has no definition in the index,
  // so no taint reaches the sink and R14 stays quiet.
  LintReport Report = runOn({fixturePath("inter/r14_sink.cpp")}, {"R14"});
  EXPECT_TRUE(Report.Diagnostics.empty());
}

TEST(LintRulesTest, R15SummariesDecideLockConsistency) {
  LintReport Report =
      runOn({fixturePath("inter/mpsim/r15_field.cpp")}, {"R15"});
  // fixtureBareBump's bare write is flagged; fixtureCountDrainLocked's is
  // not, because every call site holds the lock (CalledUnderLock closure).
  ASSERT_EQ(Report.Diagnostics.size(), 1u);
  EXPECT_EQ(Report.Diagnostics[0].Line, 21u);
  EXPECT_NE(Report.Diagnostics[0].Message.find("'Pending'"),
            std::string::npos);
  ASSERT_EQ(Report.Diagnostics[0].Flow.size(), 2u);
}

TEST(LintRulesTest, R16WitnessWalksTheForwardingChainAcrossFiles) {
  LintReport Report = runOn({fixturePath("inter/r16_deep.cpp"),
                             fixturePath("inter/r16_relay.cpp"),
                             fixturePath("inter/r16_caller.cpp")},
                            {"R16"});
  ASSERT_EQ(Report.Diagnostics.size(), 1u);
  const Diagnostic &Diag = Report.Diagnostics.front();
  EXPECT_EQ(Diag.Path, fixturePath("inter/r16_caller.cpp"));
  EXPECT_EQ(Diag.Line, 9u);
  EXPECT_NE(Diag.Message.find("forwarded from 'fixtureDeepSave'"),
            std::string::npos);
  ASSERT_EQ(Diag.Flow.size(), 3u);
  EXPECT_TRUE(Diag.Flow[0].Path.empty());
  EXPECT_EQ(Diag.Flow[1].Path, fixturePath("inter/r16_relay.cpp"));
  EXPECT_EQ(Diag.Flow[1].Line, 8u);
  EXPECT_NE(Diag.Flow[1].Message.find("forwards the result of"),
            std::string::npos);
  EXPECT_EQ(Diag.Flow[2].Path, fixturePath("inter/r16_deep.cpp"));
  EXPECT_EQ(Diag.Flow[2].Line, 6u);
  EXPECT_NE(Diag.Flow[2].Message.find("declared fallible"),
            std::string::npos);
}

TEST(LintRulesTest, RulesSelectableByName) {
  LintReport Report =
      runOn({fixturePath("r2_nondet.cpp")}, {"nondeterminism"});
  EXPECT_EQ(Report.Diagnostics.size(), 3u);
}

//===----------------------------------------------------------------------===//
// Diagnostic rendering.
//===----------------------------------------------------------------------===//

TEST(LintRulesTest, FormatDiagnosticIsByteStable) {
  Diagnostic Diag;
  Diag.Path = "src/core/Runner.cpp";
  Diag.Line = 42;
  Diag.RuleId = "R3";
  Diag.RuleName = "raw-concurrency";
  Diag.Message = "'std::mutex' outside mpsim/ and obs/";
  EXPECT_EQ(formatDiagnostic(Diag, false),
            "src/core/Runner.cpp:42: warning: 'std::mutex' outside mpsim/ "
            "and obs/ [R3:raw-concurrency]");
  EXPECT_EQ(formatDiagnostic(Diag, true),
            "src/core/Runner.cpp:42: error: 'std::mutex' outside mpsim/ "
            "and obs/ [R3:raw-concurrency]");
}

//===----------------------------------------------------------------------===//
// SourceFile lexing: scrubbing and waivers on synthetic buffers.
//===----------------------------------------------------------------------===//

TEST(SourceFileTest, ScrubsCommentsAndLiterals) {
  SourceFile File("x.cpp",
                  "int A = 1; // std::thread in a comment\n"
                  "const char *S = \"rand() in a string\";\n"
                  "/* block\n"
                  "   std::mutex */ int B = 2;\n"
                  "char C = 'x';\n"
                  "long D = 1'000'000; // digit separator survives\n");
  ASSERT_EQ(File.lineCount(), 6u);
  EXPECT_EQ(File.scrubbedLine(0).find("std::thread"),
            std::string_view::npos);
  EXPECT_EQ(File.scrubbedLine(1).find("rand"), std::string_view::npos);
  EXPECT_NE(File.scrubbedLine(1).find("const char *S"),
            std::string_view::npos);
  EXPECT_EQ(File.scrubbedLine(3).find("std::mutex"),
            std::string_view::npos);
  EXPECT_NE(File.scrubbedLine(3).find("int B = 2;"),
            std::string_view::npos);
  EXPECT_EQ(File.scrubbedLine(4).find('x'), std::string_view::npos);
  EXPECT_NE(File.scrubbedLine(5).find("1'000'000"),
            std::string_view::npos);
  // Columns are preserved: scrubbed lines are exactly as long as raw ones.
  for (size_t I = 0; I < File.lineCount(); ++I)
    EXPECT_EQ(File.scrubbedLine(I).size(), File.rawLine(I).size());
}

TEST(SourceFileTest, ScrubsRawStringLiterals) {
  SourceFile File("x.cpp",
                  "auto S = R\"(std::thread\n"
                  "rand())\"; int After = 1;\n");
  EXPECT_EQ(File.scrubbedLine(0).find("std::thread"),
            std::string_view::npos);
  EXPECT_EQ(File.scrubbedLine(1).find("rand"), std::string_view::npos);
  EXPECT_NE(File.scrubbedLine(1).find("int After = 1;"),
            std::string_view::npos);
}

TEST(SourceFileTest, WaiverScopes) {
  SourceFile File("x.cpp",
                  "std::mutex A; // mclint: allow(R3): reviewed\n"
                  "// mclint: allow(R2,R3): next-line waiver\n"
                  "std::mutex B;\n"
                  "std::mutex C;\n");
  EXPECT_TRUE(File.isWaived(0, "R3"));
  EXPECT_FALSE(File.isWaived(0, "R2"));
  EXPECT_TRUE(File.isWaived(2, "R3")); // from the stand-alone comment
  EXPECT_TRUE(File.isWaived(2, "R2"));
  EXPECT_FALSE(File.isWaived(3, "R3"));
}

TEST(SourceFileTest, WaiverInsideRawStringIsNotHonored) {
  // A directive spelled inside a raw string literal is data, not a
  // waiver: the scrubbing bug this guards against parsed it as one.
  SourceFile File("x.cpp",
                  "const char *S = R\"(// mclint: allow-file(R2))\";\n"
                  "long T = time(nullptr);\n");
  EXPECT_TRUE(File.waivers().empty());
  EXPECT_FALSE(File.isWaived(1, "R2"));
}

TEST(SourceFileTest, SplicedLineCommentWaiverIsHonored) {
  // A backslash-newline splice continues a line comment; a directive on
  // the continuation line is still inside the comment token.
  SourceFile File("x.cpp",
                  "// spliced \\\n"
                  "   mclint: allow(R2): continuation\n"
                  "long T = time(nullptr);\n");
  ASSERT_EQ(File.waivers().size(), 1u);
  EXPECT_TRUE(File.isWaived(2, "R2"));
}

TEST(SourceFileTest, StandaloneWaiverSkipsCommentLinesToCode) {
  // A stand-alone directive may sit on top of further prose comment
  // lines; it covers the first code line after them.
  SourceFile File("x.cpp",
                  "// mclint: allow(R2): reviewed\n"
                  "// because the fixture wants wall-clock time here.\n"
                  "\n"
                  "long T = time(nullptr);\n"
                  "long U = time(nullptr);\n");
  EXPECT_TRUE(File.isWaived(3, "R2"));
  EXPECT_FALSE(File.isWaived(4, "R2"));
}

TEST(SourceFileTest, FileWaiverCoversEveryLine) {
  SourceFile File("x.cpp",
                  "// mclint: allow-file(R3): engine-internal atomics\n"
                  "std::mutex A;\n"
                  "std::mutex B;\n");
  EXPECT_TRUE(File.isWaived(1, "R3"));
  EXPECT_TRUE(File.isWaived(2, "R3"));
  EXPECT_FALSE(File.isWaived(1, "R1"));
}

TEST(SourceFileTest, HeaderDetection) {
  EXPECT_TRUE(SourceFile("a/b.h", "").isHeader());
  EXPECT_TRUE(SourceFile("a/b.hpp", "").isHeader());
  EXPECT_FALSE(SourceFile("a/b.cpp", "").isHeader());
}

//===----------------------------------------------------------------------===//
// Nodiscard harvesting.
//===----------------------------------------------------------------------===//

TEST(LintRulesTest, HarvestFindsAnnotatedFunctions) {
  SourceFile File("x.h",
                  "[[nodiscard]] Status saveAll(int X);\n"
                  "[[nodiscard]] Result<int>\n"
                  "parseThing(std::string_view Text);\n"
                  "[[nodiscard]] class Status {\n"
                  "public:\n"
                  "  bool ok() const;\n"
                  "};\n");
  std::set<std::string, std::less<>> Names;
  harvestNodiscardFunctions(File, Names);
  EXPECT_TRUE(Names.count("saveAll"));
  EXPECT_TRUE(Names.count("parseThing")); // declaration spans two lines
  // The class-level [[nodiscard]] on Status must not harvest ok() or
  // anything else.
  EXPECT_FALSE(Names.count("ok"));
  EXPECT_FALSE(Names.count("Status"));
}

TEST(LintRulesTest, BuiltinListMatchesHeaders) {
  // Every name in the builtin fallible-function seed list must actually be
  // declared [[nodiscard]] somewhere under include/ — otherwise the list
  // has gone stale against an API rename.
  std::set<std::string, std::less<>> Harvested;
  namespace fs = std::filesystem;
  for (const auto &Entry : fs::recursive_directory_iterator(
           std::string(PARMONC_LINT_INCLUDE_DIR))) {
    if (!Entry.is_regular_file())
      continue;
    const std::string Ext = Entry.path().extension().string();
    if (Ext != ".h" && Ext != ".hpp")
      continue;
    Result<std::string> Contents =
        readFileToString(Entry.path().generic_string());
    ASSERT_TRUE(Contents) << Contents.status().message();
    SourceFile File(Entry.path().generic_string(), Contents.value());
    harvestNodiscardFunctions(File, Harvested);
  }
  for (const std::string &Name : builtinFallibleFunctions())
    EXPECT_TRUE(Harvested.count(Name))
        << "builtin fallible function '" << Name
        << "' is not declared [[nodiscard]] under include/";
}

TEST(LintRulesTest, RulesDocDocumentsExactlyTheRegisteredRules) {
  // SARIF links every rule to the "#r<n>-<name>" anchor of its
  // "## R<n>: <name>" heading in docs/LINT_RULES.md; a rule without one
  // ships a dead link, and a heading without a rule documents a ghost.
  Result<std::string> Doc = readFileToString(PARMONC_LINT_RULES_DOC);
  ASSERT_TRUE(Doc) << Doc.status().message();
  std::set<std::string> Headings;
  for (std::string_view Line : splitChar(Doc.value(), '\n'))
    if (startsWith(Line, "## R") && Line.size() > 4 &&
        std::isdigit(static_cast<unsigned char>(Line[4])))
      Headings.emplace(trim(Line.substr(3)));
  std::set<std::string> Registered;
  for (const auto &RulePtr : makeAllRules())
    Registered.insert(std::string(RulePtr->id()) + ": " +
                      std::string(RulePtr->name()));
  EXPECT_EQ(Headings, Registered);
}

//===----------------------------------------------------------------------===//
// Analyzer error handling.
//===----------------------------------------------------------------------===//

TEST(LintRulesTest, UnknownRuleIsAnError) {
  AnalyzerOptions Options;
  Options.Paths = {fixturePath("clean.cpp")};
  Options.RuleIds = {"R99"};
  Result<LintReport> Report = runAnalyzer(Options);
  ASSERT_FALSE(Report);
  EXPECT_NE(Report.status().message().find("unknown lint rule"),
            std::string::npos);
}

TEST(LintRulesTest, MissingPathIsAnError) {
  AnalyzerOptions Options;
  Options.Paths = {fixturePath("no_such_file.cpp")};
  Result<LintReport> Report = runAnalyzer(Options);
  EXPECT_FALSE(Report);
}

TEST(LintRulesTest, EmptyPathListIsAnError) {
  AnalyzerOptions Options;
  Result<LintReport> Report = runAnalyzer(Options);
  ASSERT_FALSE(Report);
  EXPECT_NE(Report.status().message().find("no paths"), std::string::npos);
}

TEST(LintRulesTest, BareCallCalleeSeesOnlyWholeCallStatements) {
  // The statement shape R11's discard check and R16 share.
  const SourceFile File("bare.cpp", "void f() {\n"
                                    "  save();\n"
                                    "  /* lead */ Store.flush(Path);\n"
                                    "  ns::Obj->write();\n"
                                    "  (void)save();\n"
                                    "  Slot() = save();\n"
                                    "  Status S = save();\n"
                                    "  static_assert(true);\n"
                                    "  return save();\n"
                                    "}\n");
  std::map<uint32_t, std::string> CalleeByLine;
  for (const FunctionCfg &Cfg : File.functions())
    for (const CfgStatement &Stmt : Cfg.Statements) {
      size_t OpenParen = 0;
      const std::string_view Callee =
          bareCallCallee(File.tokens(), Stmt, OpenParen);
      if (!Callee.empty()) {
        EXPECT_EQ(File.tokens()[OpenParen].Text, "(");
      }
      CalleeByLine[Stmt.Line] = std::string(Callee);
    }
  const std::map<uint32_t, std::string> Expected = {
      {1, "save"}, {2, "flush"}, {3, "write"}, {4, ""},
      {5, ""},     {6, ""},      {7, ""},      {8, ""}};
  EXPECT_EQ(CalleeByLine, Expected);
}

} // namespace
} // namespace lint
} // namespace parmonc
