//===- tests/lint/SarifTest.cpp - SARIF emitter tests ---------------------===//
//
// Part of the PARMONC reproduction library.
//
//===----------------------------------------------------------------------===//
//
// Validates the hand-rolled SARIF 2.1.0 emitter: RFC 8259 string escaping,
// JSON well-formedness (a small recursive-descent parser — no JSON library
// is available, and the emitter must not depend on one), and the
// structural shape the 2.1.0 schema requires of a code-scanning upload:
// $schema/version, tool.driver with rule metadata, one result per finding
// with location and stable fingerprint.
//
//===----------------------------------------------------------------------===//

#include "parmonc/lint/Analyzer.h"
#include "parmonc/lint/Rules.h"
#include "parmonc/lint/Sarif.h"

#include <gtest/gtest.h>

#include <cctype>
#include <memory>
#include <string>
#include <vector>

namespace parmonc {
namespace lint {
namespace {

//===----------------------------------------------------------------------===//
// A minimal JSON well-formedness checker (values are not materialized).
//===----------------------------------------------------------------------===//

class JsonScanner {
public:
  explicit JsonScanner(std::string_view Text) : Text(Text) {}

  /// True when the whole input is exactly one valid JSON value.
  bool valid() {
    skipSpace();
    if (!value())
      return false;
    skipSpace();
    return Pos == Text.size();
  }

private:
  bool value() {
    if (Pos >= Text.size())
      return false;
    switch (Text[Pos]) {
    case '{':
      return object();
    case '[':
      return array();
    case '"':
      return string();
    case 't':
      return literal("true");
    case 'f':
      return literal("false");
    case 'n':
      return literal("null");
    default:
      return number();
    }
  }

  bool object() {
    ++Pos; // '{'
    skipSpace();
    if (peek() == '}')
      return ++Pos, true;
    while (true) {
      skipSpace();
      if (!string())
        return false;
      skipSpace();
      if (peek() != ':')
        return false;
      ++Pos;
      skipSpace();
      if (!value())
        return false;
      skipSpace();
      if (peek() == ',') {
        ++Pos;
        continue;
      }
      if (peek() == '}')
        return ++Pos, true;
      return false;
    }
  }

  bool array() {
    ++Pos; // '['
    skipSpace();
    if (peek() == ']')
      return ++Pos, true;
    while (true) {
      skipSpace();
      if (!value())
        return false;
      skipSpace();
      if (peek() == ',') {
        ++Pos;
        continue;
      }
      if (peek() == ']')
        return ++Pos, true;
      return false;
    }
  }

  bool string() {
    if (peek() != '"')
      return false;
    ++Pos;
    while (Pos < Text.size()) {
      const char C = Text[Pos];
      if (C == '"')
        return ++Pos, true;
      if (static_cast<unsigned char>(C) < 0x20)
        return false; // raw control character — must be escaped
      if (C == '\\') {
        ++Pos;
        if (Pos >= Text.size())
          return false;
        const char E = Text[Pos];
        if (E == 'u') {
          for (int I = 0; I < 4; ++I)
            if (++Pos >= Text.size() ||
                !std::isxdigit(static_cast<unsigned char>(Text[Pos])))
              return false;
        } else if (std::string_view("\"\\/bfnrt").find(E) ==
                   std::string_view::npos) {
          return false;
        }
      }
      ++Pos;
    }
    return false;
  }

  bool number() {
    const size_t Begin = Pos;
    if (peek() == '-')
      ++Pos;
    while (Pos < Text.size() &&
           (std::isdigit(static_cast<unsigned char>(Text[Pos])) ||
            std::string_view(".eE+-").find(Text[Pos]) !=
                std::string_view::npos))
      ++Pos;
    return Pos > Begin;
  }

  bool literal(std::string_view Word) {
    if (Text.substr(Pos, Word.size()) != Word)
      return false;
    Pos += Word.size();
    return true;
  }

  char peek() const { return Pos < Text.size() ? Text[Pos] : '\0'; }

  void skipSpace() {
    while (Pos < Text.size() &&
           (Text[Pos] == ' ' || Text[Pos] == '\t' || Text[Pos] == '\n' ||
            Text[Pos] == '\r'))
      ++Pos;
  }

  std::string_view Text;
  size_t Pos = 0;
};

//===----------------------------------------------------------------------===//
// Fixtures: a two-finding report rendered through the real rule set.
//===----------------------------------------------------------------------===//

std::vector<Diagnostic> sampleDiags() {
  return {{"src/core/Runner.cpp", 42, "R3", "raw-concurrency",
           "'std::mutex' outside mpsim/ and obs/", {}},
          {"include/parmonc/rng/Lcg128.h", 7, "R6", "stream-discipline",
           "'Lcg128' default-seeds a raw stream \"quoted\"", {}}};
}

std::string renderSample(bool AsError) {
  const std::vector<std::unique_ptr<Rule>> Rules = makeAllRules();
  std::vector<const Rule *> RulePtrs;
  for (const auto &R : Rules)
    RulePtrs.push_back(R.get());
  return formatSarif(sampleDiags(), RulePtrs, AsError,
                     [](const Diagnostic &) -> std::string_view {
                       return "  std::mutex M;";
                     });
}

TEST(SarifTest, EscapesJsonStrings) {
  EXPECT_EQ(jsonEscape("plain"), "plain");
  EXPECT_EQ(jsonEscape("a\"b"), "a\\\"b");
  EXPECT_EQ(jsonEscape("a\\b"), "a\\\\b");
  EXPECT_EQ(jsonEscape("a\nb\tc"), "a\\nb\\tc");
  EXPECT_EQ(jsonEscape(std::string_view("a\x01z", 3)), "a\\u0001z");
}

TEST(SarifTest, DocumentIsWellFormedJson) {
  const std::string Doc = renderSample(false);
  EXPECT_TRUE(JsonScanner(Doc).valid()) << Doc;
}

TEST(SarifTest, MatchesSchemaShape) {
  // The structural requirements of the sarif-schema-2.1.0 contract for a
  // code-scanning upload, asserted as mandatory substrings of a document
  // we already know is well-formed JSON.
  const std::string Doc = renderSample(false);
  for (const char *Required :
       {"\"$schema\": "
        "\"https://raw.githubusercontent.com/oasis-tcs/sarif-spec/master/"
        "Schemata/sarif-schema-2.1.0.json\"",
        "\"version\": \"2.1.0\"", "\"runs\": [", "\"tool\": {",
        "\"driver\": {", "\"name\": \"mclint\"", "\"rules\": [",
        "\"results\": [", "\"ruleId\": \"R3\"", "\"ruleId\": \"R6\"",
        "\"level\": \"warning\"", "\"message\": {",
        "\"locations\": [", "\"physicalLocation\": {",
        "\"artifactLocation\": {", "\"uri\": \"src/core/Runner.cpp\"",
        "\"region\": { \"startLine\": 42 }",
        "\"partialFingerprints\": {", "\"mclintLine/v1\": \"R3:"})
    EXPECT_NE(Doc.find(Required), std::string::npos)
        << "missing: " << Required;
}

TEST(SarifTest, RuleMetadataCarriesHelpUris) {
  const std::string Doc = renderSample(false);
  // Every rule in the driver metadata links into docs/LINT_RULES.md at
  // its own anchor.
  for (const char *Anchor :
       {"docs/LINT_RULES.md#r2-nondeterminism",
        "docs/LINT_RULES.md#r6-stream-discipline",
        "docs/LINT_RULES.md#r10-stale-waiver",
        "docs/LINT_RULES.md#r11-must-check",
        "docs/LINT_RULES.md#r12-stream-lifecycle",
        "docs/LINT_RULES.md#r13-wire-protocol",
        "docs/LINT_RULES.md#r14-determinism-taint",
        "docs/LINT_RULES.md#r15-lock-discipline",
        "docs/LINT_RULES.md#r16-deep-must-check"})
    EXPECT_NE(Doc.find(Anchor), std::string::npos) << Anchor;
}

TEST(SarifTest, WerrorMapsToErrorLevel) {
  const std::string Doc = renderSample(true);
  EXPECT_NE(Doc.find("\"level\": \"error\""), std::string::npos);
  EXPECT_EQ(Doc.find("\"level\": \"warning\""), std::string::npos);
}

TEST(SarifTest, CodeFlowRendersEveryStepInOrder) {
  // A synthetic flow-sensitive finding: the region gains a startColumn and
  // the witness path renders as one codeFlow/threadFlow with a location
  // and message per step.
  Diagnostic Diag;
  Diag.Path = "src/core/Runner.cpp";
  Diag.Line = 12;
  Diag.Column = 3;
  Diag.RuleId = "R11";
  Diag.RuleName = "must-check";
  Diag.Message = "fallible value 'Saved' is not checked on every path";
  Diag.Flow = {{10, 3, "'Saved' declared here"},
               {11, 7, "the else path skips the check"},
               {13, 1, "scope exits with 'Saved' unchecked"}};
  const std::vector<std::unique_ptr<Rule>> Rules = makeAllRules();
  std::vector<const Rule *> RulePtrs;
  for (const auto &R : Rules)
    RulePtrs.push_back(R.get());
  const std::string Doc =
      formatSarif({Diag}, RulePtrs, false,
                  [](const Diagnostic &) -> std::string_view {
                    return "  Status Saved = save();";
                  });
  EXPECT_TRUE(JsonScanner(Doc).valid()) << Doc;
  EXPECT_NE(Doc.find("\"region\": { \"startLine\": 12, \"startColumn\": 3 }"),
            std::string::npos);
  EXPECT_NE(Doc.find("\"codeFlows\": ["), std::string::npos);
  EXPECT_NE(Doc.find("\"threadFlows\": ["), std::string::npos);
  // Steps appear in witness order.
  const size_t Step1 = Doc.find("'Saved' declared here");
  const size_t Step2 = Doc.find("the else path skips the check");
  const size_t Step3 = Doc.find("scope exits with 'Saved' unchecked");
  ASSERT_NE(Step1, std::string::npos);
  ASSERT_NE(Step2, std::string::npos);
  ASSERT_NE(Step3, std::string::npos);
  EXPECT_LT(Step1, Step2);
  EXPECT_LT(Step2, Step3);
  EXPECT_NE(Doc.find("\"startLine\": 11, \"startColumn\": 7"),
            std::string::npos);
}

TEST(SarifTest, TokenLevelRegionIsUnchangedWithoutColumn) {
  // Token-level findings (Column 0) must keep the exact pre-flow region
  // spelling — downstream fingerprint consumers diff on it.
  const std::string Doc = renderSample(false);
  EXPECT_NE(Doc.find("\"region\": { \"startLine\": 42 }"),
            std::string::npos);
  EXPECT_EQ(Doc.find("codeFlows"), std::string::npos);
  EXPECT_EQ(Doc.find("startColumn"), std::string::npos);
}

TEST(SarifTest, AnalyzerDataflowFindingHasMultiStepCodeFlow) {
  // End to end: run the real analyzer over the R11 fixture and render its
  // findings — at least one must carry a multi-step witness path that
  // survives into the SARIF codeFlow.
  AnalyzerOptions Options;
  Options.Paths = {std::string(PARMONC_LINT_FIXTURE_DIR) + "/r11_flow.cpp"};
  Result<LintReport> Report = runAnalyzer(Options);
  ASSERT_TRUE(Report) << Report.status().message();
  const LintReport &R = Report.value();
  ASSERT_FALSE(R.Diagnostics.empty());
  size_t FlowSteps = 0;
  for (const Diagnostic &Diag : R.Diagnostics)
    if (Diag.RuleId == "R11")
      FlowSteps = std::max(FlowSteps, Diag.Flow.size());
  EXPECT_GE(FlowSteps, 2u);

  const std::vector<std::unique_ptr<Rule>> Rules = makeAllRules();
  std::vector<const Rule *> RulePtrs;
  for (const auto &R2 : Rules)
    RulePtrs.push_back(R2.get());
  const auto LineTextOf =
      [&](const Diagnostic &Diag) -> std::string_view {
    for (size_t I = 0; I < R.Diagnostics.size(); ++I)
      if (&R.Diagnostics[I] == &Diag)
        return R.DiagnosticLineText[I];
    return {};
  };
  const std::string Doc =
      formatSarif(R.Diagnostics, RulePtrs, true, LineTextOf);
  EXPECT_TRUE(JsonScanner(Doc).valid()) << Doc;
  EXPECT_NE(Doc.find("\"codeFlows\": ["), std::string::npos);
  EXPECT_NE(Doc.find("\"threadFlows\": ["), std::string::npos);
  EXPECT_NE(Doc.find("docs/LINT_RULES.md#r11-must-check"),
            std::string::npos);
}

TEST(SarifTest, InterproceduralCodeFlowSpansFiles) {
  // End to end over the R16 chain fixtures: the one finding's witness
  // path crosses three translation units, and each SARIF code-flow step
  // must carry its own artifact uri — the caller, the forwarding relay
  // and the declaring file all appear inside the codeFlows block.
  const std::string Base = std::string(PARMONC_LINT_FIXTURE_DIR) + "/inter";
  AnalyzerOptions Options;
  Options.Paths = {Base + "/r16_deep.cpp", Base + "/r16_relay.cpp",
                   Base + "/r16_caller.cpp"};
  Options.RuleIds = {"R16"};
  Result<LintReport> Report = runAnalyzer(Options);
  ASSERT_TRUE(Report) << Report.status().message();
  ASSERT_EQ(Report.value().Diagnostics.size(), 1u);

  const std::vector<std::unique_ptr<Rule>> Rules = makeAllRules();
  std::vector<const Rule *> RulePtrs;
  for (const auto &R : Rules)
    RulePtrs.push_back(R.get());
  const std::string Doc =
      formatSarif(Report.value().Diagnostics, RulePtrs, false,
                  [](const Diagnostic &) -> std::string_view {
                    return "  fixtureRelaySave(Path);";
                  });
  EXPECT_TRUE(JsonScanner(Doc).valid()) << Doc;
  const size_t Flows = Doc.find("\"codeFlows\": [");
  ASSERT_NE(Flows, std::string::npos);
  for (const char *Uri :
       {"inter/r16_caller.cpp", "inter/r16_relay.cpp",
        "inter/r16_deep.cpp"})
    EXPECT_NE(Doc.find(Uri, Flows), std::string::npos)
        << "step uri missing from code flow: " << Uri;
  // Step order mirrors the chain: discard, forward, declaration.
  const size_t Discard = Doc.find("is discarded here", Flows);
  const size_t Forward = Doc.find("forwards the result of", Flows);
  const size_t Declared = Doc.find("declared fallible", Flows);
  ASSERT_NE(Discard, std::string::npos);
  ASSERT_NE(Forward, std::string::npos);
  ASSERT_NE(Declared, std::string::npos);
  EXPECT_LT(Discard, Forward);
  EXPECT_LT(Forward, Declared);
}

TEST(SarifTest, EmptyReportIsStillAValidRun) {
  const std::vector<std::unique_ptr<Rule>> Rules = makeAllRules();
  std::vector<const Rule *> RulePtrs;
  for (const auto &R : Rules)
    RulePtrs.push_back(R.get());
  const std::string Doc =
      formatSarif({}, RulePtrs, false,
                  [](const Diagnostic &) -> std::string_view { return ""; });
  EXPECT_TRUE(JsonScanner(Doc).valid()) << Doc;
  EXPECT_NE(Doc.find("\"results\": [\n      ]"), std::string::npos);
}

} // namespace
} // namespace lint
} // namespace parmonc
