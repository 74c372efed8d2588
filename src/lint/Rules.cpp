//===- lint/Rules.cpp - The enforced project invariants -------------------===//
//
// Part of the PARMONC reproduction library.
//
//===----------------------------------------------------------------------===//
//
// The rules work on the lexed view of each file — the scrubbed lines for
// line-oriented checks, the token stream for the stream-discipline and
// call-edge checks, and the project index for the cross-TU rules. They are
// deliberately heuristic — this is a project linter, not a compiler — but
// every heuristic errs toward silence on idiomatic code and each rule has
// an explicit, grep-able waiver escape hatch (see SourceFile.h), which
// rule R10 keeps honest.
//
// Rules emit unconditionally; the analyzer applies waivers centrally so it
// can also detect waivers that no longer suppress anything.
//
//===----------------------------------------------------------------------===//

#include "parmonc/lint/Rules.h"

#include "parmonc/lint/Summary.h"
#include "parmonc/support/Text.h"

#include <algorithm>
#include <cctype>
#include <map>

namespace parmonc {
namespace lint {

namespace {

bool isIdentChar(char C) {
  return std::isalnum(static_cast<unsigned char>(C)) || C == '_';
}

/// Token-stream helpers shared by the token-level rules.
size_t nextCodeToken(const std::vector<Token> &Tokens, size_t I) {
  ++I;
  while (I < Tokens.size() && Tokens[I].Kind == TokenKind::Comment)
    ++I;
  return I;
}

size_t prevCodeToken(const std::vector<Token> &Tokens, size_t I) {
  while (I > 0) {
    --I;
    if (Tokens[I].Kind != TokenKind::Comment)
      return I;
  }
  return size_t(-1);
}

bool isPunctToken(const Token &T, char C) {
  return T.Kind == TokenKind::Punct && T.Text.size() == 1 && T.Text[0] == C;
}

//===----------------------------------------------------------------------===//
// R2: nondeterminism
//===----------------------------------------------------------------------===//

class NondeterminismRule final : public Rule {
public:
  std::string_view id() const override { return "R2"; }
  std::string_view name() const override { return "nondeterminism"; }
  std::string_view summary() const override {
    return "no entropy/wall-clock sources outside support/Clock.h";
  }
  std::string_view rationale() const override {
    return "Bit-exact reproducibility of the stream hierarchy (§2.4) is a "
           "core guarantee: a run restarted from a sealed checkpoint must "
           "produce the identical realization sequence. Any ambient "
           "entropy or wall-clock read — std::random_device, "
           "system_clock, time(), gettimeofday() — breaks that silently. "
           "All time flows through the injectable parmonc::Clock seam. "
           "The banned names are the wall-clock and entropy rows of the "
           "source table R14 follows through call chains; R2 flags them "
           "even where no value reaches a sink.";
  }
  std::string_view example() const override {
    return "  std::random_device Rd;          // flagged\n"
           "  double T0 = time(nullptr);      // flagged\n"
           "  int64_t Now = Clock.nowNanos(); // ok: injected seam";
  }

  void check(const SourceFile &File, const LintContext &,
             std::vector<Diagnostic> &Out) const override {
    if (pathEndsWith(File.path(), "support/Clock.h"))
      return; // the one approved seam
    for (size_t Index = 0; Index < File.lineCount(); ++Index) {
      std::string_view Line = File.scrubbedLine(Index);
      bool SawType = false, SawCall = false; // one finding of each per line
      for (const DirectTaintSource &Source : directTaintSources()) {
        if (Source.Kind == TaintKind::Environment)
          continue; // R14 only: reading PARMONC_WORKDIR is legitimate
        if (Source.IsType && !SawType &&
            findWordToken(Line, Source.Spelling) != std::string_view::npos) {
          SawType = true;
          Out.push_back({File.path(), unsigned(Index + 1),
                         std::string(id()), std::string(name()),
                         "'" + std::string(Source.Spelling) +
                             "' is a nondeterminism source; inject time "
                             "through parmonc::Clock "
                             "(support/Clock.h) instead",
                         {}});
        } else if (!Source.IsType && !SawCall &&
                   isBannedCall(Line, Source.Spelling)) {
          SawCall = true;
          Out.push_back({File.path(), unsigned(Index + 1),
                         std::string(id()), std::string(name()),
                         "call to '" + std::string(Source.Spelling) +
                             "()' injects nondeterminism; use the "
                             "parmonc::Clock seam or the stream "
                             "hierarchy instead",
                         {}});
        }
      }
    }
  }

private:
  /// Matches `name(`, `std::name(` and global `::name(` but not member
  /// calls `.name(` / `->name(` or names qualified by a project scope.
  static bool isBannedCall(std::string_view Line, std::string_view Name) {
    size_t Pos = 0;
    while ((Pos = Line.find(Name, Pos)) != std::string_view::npos) {
      const size_t End = Pos + Name.size();
      size_t After = End;
      while (After < Line.size() && Line[After] == ' ')
        ++After;
      if (After >= Line.size() || Line[After] != '(' ||
          (End < Line.size() && isIdentChar(Line[End]))) {
        Pos = End;
        continue;
      }
      bool Flag = true;
      if (Pos > 0) {
        const char Prev = Line[Pos - 1];
        if (isIdentChar(Prev) || Prev == '.') {
          Flag = false;
        } else if (Prev == '>' && Pos >= 2 && Line[Pos - 2] == '-') {
          Flag = false;
        } else if (Prev == ':') {
          // Qualified name: only std:: and the global :: are the C/C++
          // library versions; Foo::time(...) is project code.
          Flag = false;
          if (Pos >= 2 && Line[Pos - 2] == ':') {
            std::string_view Before = Line.substr(0, Pos - 2);
            size_t Begin = Before.size();
            while (Begin > 0 && isIdentChar(Before[Begin - 1]))
              --Begin;
            std::string_view Qualifier = Before.substr(Begin);
            Flag = Qualifier.empty() || Qualifier == "std";
          }
        }
      }
      if (Flag)
        return true;
      Pos = End;
    }
    return false;
  }
};

//===----------------------------------------------------------------------===//
// R4: include-hygiene
//===----------------------------------------------------------------------===//

class IncludeHygieneRule final : public Rule {
public:
  std::string_view id() const override { return "R4"; }
  std::string_view name() const override { return "include-hygiene"; }
  std::string_view summary() const override {
    return "canonical header guards and include style";
  }
  std::string_view rationale() const override {
    return "Headers are the project's stable surface: guards must have "
           "the canonical PARMONC_<PATH>_H form (so moves are caught), "
           "project headers are included with quotes and system headers "
           "with angle brackets (so the build never silently picks up a "
           "stale copy), <bits/...> internals are banned, and "
           "using-namespace in a header is banned because it leaks into "
           "every includer. Guard renames and include-style swaps are "
           "mechanically safe, so this rule carries autofixes.";
  }
  std::string_view example() const override {
    return "  #ifndef WRONG_GUARD_H          // flagged (+autofix)\n"
           "  #include <parmonc/rng/Lcg128.h> // flagged (+autofix)\n"
           "  #include \"parmonc/rng/Lcg128.h\" // ok";
  }

  void check(const SourceFile &File, const LintContext &,
             std::vector<Diagnostic> &Out) const override {
    checkIncludes(File, Out);
    if (File.isHeader()) {
      checkHeaderGuard(File, Out);
      checkUsingNamespace(File, Out);
    }
  }

private:
  Diagnostic &diag(const SourceFile &File, size_t Index, std::string Message,
                   std::vector<Diagnostic> &Out) const {
    Out.push_back({File.path(), unsigned(Index + 1), std::string(id()),
                   std::string(name()), std::move(Message), {}});
    return Out.back();
  }

  void checkIncludes(const SourceFile &File,
                     std::vector<Diagnostic> &Out) const {
    for (size_t Index = 0; Index < File.lineCount(); ++Index) {
      std::string_view Raw = trim(File.rawLine(Index));
      if (!startsWith(Raw, "#include"))
        continue;
      std::string_view Spec = trim(Raw.substr(8));
      if (startsWith(Spec, "\"")) {
        const size_t Close = Spec.find('"', 1);
        std::string_view Target =
            Close == std::string_view::npos ? Spec.substr(1)
                                            : Spec.substr(1, Close - 1);
        if (!startsWith(Target, "parmonc/"))
          diag(File, Index,
               "quoted include \"" + std::string(Target) +
                   "\" is not a project header; use <...> for system "
                   "headers and \"parmonc/...\" for project headers",
               Out);
      } else if (startsWith(Spec, "<")) {
        const size_t Close = Spec.find('>', 1);
        std::string_view Target =
            Close == std::string_view::npos ? Spec.substr(1)
                                            : Spec.substr(1, Close - 1);
        if (startsWith(Target, "parmonc/")) {
          Diagnostic &D = diag(File, Index,
                               "project header <" + std::string(Target) +
                                   "> must be included with quotes",
                               Out);
          // Autofix: swap the delimiters, preserving indentation.
          std::string Fixed(File.rawLine(Index));
          const size_t Open = Fixed.find('<');
          const size_t CloseAt = Fixed.find('>', Open);
          if (Open != std::string::npos && CloseAt != std::string::npos) {
            Fixed[Open] = '"';
            Fixed[CloseAt] = '"';
            D.Fixes.push_back({unsigned(Index + 1), false, Fixed});
          }
        } else if (startsWith(Target, "bits/")) {
          diag(File, Index,
               "<" + std::string(Target) +
                   "> is a libstdc++ internal header; include the "
                   "standard header instead",
               Out);
        }
      }
    }
  }

  void checkHeaderGuard(const SourceFile &File,
                        std::vector<Diagnostic> &Out) const {
    // Find the first two preprocessor directives.
    size_t IfndefLine = size_t(-1), DefineLine = size_t(-1);
    std::string IfndefMacro, DefineMacro;
    for (size_t Index = 0; Index < File.lineCount(); ++Index) {
      std::string_view Raw = trim(File.rawLine(Index));
      if (Raw.empty() || !startsWith(Raw, "#"))
        continue;
      if (IfndefLine == size_t(-1)) {
        if (startsWith(Raw, "#pragma") &&
            Raw.find("once") != std::string_view::npos) {
          diag(File, Index,
               "use a PARMONC_* include guard instead of #pragma once",
               Out);
          return;
        }
        if (!startsWith(Raw, "#ifndef")) {
          diag(File, Index, "header must open with an #ifndef guard", Out);
          return;
        }
        IfndefLine = Index;
        auto Fields = splitWhitespace(Raw);
        if (Fields.size() >= 2)
          IfndefMacro = std::string(Fields[1]);
        continue;
      }
      if (!startsWith(Raw, "#define")) {
        diag(File, IfndefLine,
             "#ifndef guard is not followed by a matching #define", Out);
        return;
      }
      DefineLine = Index;
      auto Fields = splitWhitespace(Raw);
      if (Fields.size() >= 2)
        DefineMacro = std::string(Fields[1]);
      break;
    }
    if (IfndefLine == size_t(-1)) {
      diag(File, 0, "header has no include guard", Out);
      return;
    }
    if (IfndefMacro != DefineMacro) {
      Diagnostic &D = diag(File, IfndefLine,
                           "guard macro '" + IfndefMacro +
                               "' is not matched by the #define ('" +
                               DefineMacro + "')",
                           Out);
      if (DefineLine != size_t(-1))
        D.Fixes.push_back(
            {unsigned(DefineLine + 1), false, "#define " + IfndefMacro});
      return;
    }
    const std::string Expected = expectedGuard(File.path());
    if (!Expected.empty() && IfndefMacro != Expected) {
      Diagnostic &D = diag(File, IfndefLine,
                           "guard macro '" + IfndefMacro + "' should be '" +
                               Expected + "'",
                           Out);
      appendGuardRenameFixes(File, D, IfndefLine, DefineLine, Expected);
      return;
    }
    if (Expected.empty() &&
        (!startsWith(IfndefMacro, "PARMONC_") ||
         !pathEndsWith(IfndefMacro, "_H")))
      diag(File, IfndefLine,
           "guard macro '" + IfndefMacro +
               "' must have the form PARMONC_<PATH>_H",
           Out);
  }

  /// Fixes for a guard rename: the #ifndef, its #define and the trailing
  /// #endif comment.
  static void appendGuardRenameFixes(const SourceFile &File, Diagnostic &D,
                                     size_t IfndefLine, size_t DefineLine,
                                     const std::string &Expected) {
    D.Fixes.push_back({unsigned(IfndefLine + 1), false, "#ifndef " + Expected});
    if (DefineLine != size_t(-1))
      D.Fixes.push_back(
          {unsigned(DefineLine + 1), false, "#define " + Expected});
    for (size_t Index = File.lineCount(); Index-- > 0;) {
      if (startsWith(trim(File.rawLine(Index)), "#endif")) {
        D.Fixes.push_back(
            {unsigned(Index + 1), false, "#endif // " + Expected});
        break;
      }
    }
  }

  /// Canonical guard for headers under an include/ root:
  /// include/parmonc/rng/Lcg128.h -> PARMONC_RNG_LCG128_H. Empty when the
  /// file is not under include/ (fixtures, tests): only the PARMONC_..._H
  /// shape is enforced there.
  static std::string expectedGuard(std::string_view Path) {
    const std::string Normal = normalizedPath(Path);
    const size_t Root = Normal.rfind("include/");
    if (Root == std::string::npos)
      return {};
    std::string Guard;
    for (char C : Normal.substr(Root + 8)) {
      if (C == '/' || C == '.')
        Guard.push_back('_');
      else
        Guard.push_back(
            char(std::toupper(static_cast<unsigned char>(C))));
    }
    return Guard;
  }

  void checkUsingNamespace(const SourceFile &File,
                           std::vector<Diagnostic> &Out) const {
    for (size_t Index = 0; Index < File.lineCount(); ++Index) {
      std::string_view Line = File.scrubbedLine(Index);
      const size_t Pos = findWordToken(Line, "using");
      if (Pos == std::string_view::npos)
        continue;
      std::string_view Rest = trim(Line.substr(Pos + 5));
      if (startsWith(Rest, "namespace"))
        diag(File, Index,
             "using-namespace in a header leaks into every includer", Out);
    }
  }
};

//===----------------------------------------------------------------------===//
// R5: narrowing-estimator
//===----------------------------------------------------------------------===//

class NarrowingEstimatorRule final : public Rule {
public:
  std::string_view id() const override { return "R5"; }
  std::string_view name() const override { return "narrowing-estimator"; }
  std::string_view summary() const override {
    return "no float in estimator code (stats/, core/)";
  }
  std::string_view rationale() const override {
    return "The eq. (5) moment accumulation adds up to billions of "
           "realization subtotals; in single precision the running sums "
           "lose the low-order contributions long before the run ends and "
           "the reported confidence intervals become fiction. Everything "
           "on the estimator path — stats/ and core/ — therefore stays "
           "double end to end, including literals (no 'f' suffix).";
  }
  std::string_view example() const override {
    return "  // in src/stats/:\n"
           "  float Mean = 0.0f;   // flagged (type and literal)\n"
           "  double Mean = 0.0;   // ok";
  }

  void check(const SourceFile &File, const LintContext &,
             std::vector<Diagnostic> &Out) const override {
    if (!pathContainsComponent(File.path(), "stats") &&
        !pathContainsComponent(File.path(), "core"))
      return;
    for (size_t Index = 0; Index < File.lineCount(); ++Index) {
      std::string_view Line = File.scrubbedLine(Index);
      if (findWordToken(Line, "float") != std::string_view::npos) {
        Out.push_back({File.path(), unsigned(Index + 1),
                       std::string(id()), std::string(name()),
                       "'float' in estimator code; the eq. (5) moment "
                       "sums must stay double end to end",
                       {}});
        continue;
      }
      if (hasFloatLiteral(Line))
        Out.push_back({File.path(), unsigned(Index + 1), std::string(id()),
                       std::string(name()),
                       "float literal in estimator code; use a double "
                       "literal (no 'f' suffix)",
                       {}});
    }
  }

private:
  /// Matches literals like 1.0f / 2e3f / 7f.
  static bool hasFloatLiteral(std::string_view Line) {
    for (size_t I = 0; I + 1 < Line.size(); ++I) {
      if (!std::isdigit(static_cast<unsigned char>(Line[I])))
        continue;
      if (I > 0 && (isIdentChar(Line[I - 1]) || Line[I - 1] == '.'))
        continue; // part of an identifier or already inside a number
      size_t J = I;
      bool SawDigit = false;
      while (J < Line.size() &&
             (std::isdigit(static_cast<unsigned char>(Line[J])) ||
              Line[J] == '.' || Line[J] == 'e' || Line[J] == 'E' ||
              ((Line[J] == '+' || Line[J] == '-') && J > I &&
               (Line[J - 1] == 'e' || Line[J - 1] == 'E')))) {
        SawDigit |= std::isdigit(static_cast<unsigned char>(Line[J])) != 0;
        ++J;
      }
      if (SawDigit && J < Line.size() && (Line[J] == 'f' || Line[J] == 'F') &&
          (J + 1 >= Line.size() || !isIdentChar(Line[J + 1])))
        return true;
      I = J;
    }
    return false;
  }
};

//===----------------------------------------------------------------------===//
// R6: stream-discipline
//===----------------------------------------------------------------------===//

class StreamDisciplineRule final : public Rule {
public:
  std::string_view id() const override { return "R6"; }
  std::string_view name() const override { return "stream-discipline"; }
  std::string_view summary() const override {
    return "no Lcg128/Philox seeding or raw stepping outside rng/";
  }
  std::string_view rationale() const override {
    return "The leap partition (eq. 8) assigns each realization a disjoint "
           "subsequence of the 128-bit MCG. Constructing or copying an "
           "Lcg128/LcgPow2 outside rng/ creates a stream the partition "
           "knows nothing about — its draws silently overlap another "
           "realization's subsequence and correlate the eq. (5) averages. "
           "The counter-based Philox backend has the same discipline: its "
           "hierarchy is a partition of counter positions, so a "
           "hand-seeded or copied Philox lands inside some realization's "
           "interval just as silently. Realization code must obtain its "
           "stream from RealizationCursor::beginRealization() or "
           "Philox::streamFor() (or accept a RandomSource), and may never "
           "step the raw recurrence with nextRaw(). Static accesses like "
           "Lcg128::defaultMultiplier() stay legal: they read constants, "
           "not stream state.";
  }
  std::string_view example() const override {
    return "  Lcg128 G;                                // flagged\n"
           "  Lcg128 G(Mult, Seed);                    // flagged\n"
           "  Philox P(Key);                           // flagged\n"
           "  Philox Q = P;                            // flagged\n"
           "  Lcg128 S = Cursor.beginRealization();    // ok\n"
           "  Philox S = Philox::streamFor(Where);     // ok\n"
           "  UInt128 A = Lcg128::defaultMultiplier(); // ok";
  }

  void check(const SourceFile &File, const LintContext &,
             std::vector<Diagnostic> &Out) const override {
    if (pathContainsComponent(File.path(), "rng"))
      return;
    const std::vector<Token> &Tokens = File.tokens();
    for (size_t I = 0; I < Tokens.size(); ++I) {
      const Token &T = Tokens[I];
      if (T.Kind != TokenKind::Identifier)
        continue;
      if (T.Text == "nextRaw") {
        const size_t Prev = prevCodeToken(Tokens, I);
        const size_t Next = nextCodeToken(Tokens, I);
        if (Prev != size_t(-1) && Next < Tokens.size() &&
            (isPunctToken(Tokens[Prev], '.') ||
             isPunctToken(Tokens[Prev], '>')) &&
            isPunctToken(Tokens[Next], '('))
          Out.push_back({File.path(), unsigned(T.Line + 1),
                         std::string(id()), std::string(name()),
                         "'nextRaw()' steps the raw MCG recurrence outside "
                         "rng/; draw through the RandomSource interface "
                         "so the eq. (8) leap partition is preserved",
                         {}});
        continue;
      }
      if (T.Text != "Lcg128" && T.Text != "LcgPow2" && T.Text != "Philox")
        continue;
      const size_t Next = nextCodeToken(Tokens, I);
      if (Next >= Tokens.size() ||
          Tokens[Next].Kind != TokenKind::Identifier)
        continue; // qualified access, template argument, cast, ...
      const size_t After = nextCodeToken(Tokens, Next);
      if (After >= Tokens.size())
        continue;
      if (isPunctToken(Tokens[After], ';'))
        diagSeed(File, T, "default-seeds", Out);
      else if (isPunctToken(Tokens[After], '(') ||
               isPunctToken(Tokens[After], '{'))
        diagSeed(File, T, "hand-seeds", Out);
      else if (isPunctToken(Tokens[After], '=')) {
        const size_t Rhs = nextCodeToken(Tokens, After);
        if (Rhs >= Tokens.size())
          continue;
        if (Tokens[Rhs].Kind == TokenKind::Identifier &&
            (Tokens[Rhs].Text == "Lcg128" || Tokens[Rhs].Text == "LcgPow2" ||
             Tokens[Rhs].Text == "Philox")) {
          // `Philox S = Philox::streamFor(...)` is the sanctioned form —
          // a qualified static access, not a hand-seeded temporary.
          const size_t Qual = nextCodeToken(Tokens, Rhs);
          if (Qual < Tokens.size() && isPunctToken(Tokens[Qual], ':'))
            continue;
          diagSeed(File, T, "hand-seeds", Out);
          continue;
        }
        // `Lcg128 S = Cursor.beginRealization();` is THE sanctioned form;
        // a plain `Lcg128 B = A;` copy duplicates a live stream.
        const size_t AfterRhs = nextCodeToken(Tokens, Rhs);
        if (Tokens[Rhs].Kind == TokenKind::Identifier &&
            AfterRhs < Tokens.size() &&
            (isPunctToken(Tokens[AfterRhs], ';') ||
             isPunctToken(Tokens[AfterRhs], ',')))
          Out.push_back({File.path(), unsigned(T.Line + 1),
                         std::string(id()), std::string(name()),
                         "raw stream copied outside rng/; duplicate "
                         "streams replay overlapping subsequences — "
                         "obtain a fresh stream from the cursor",
                         {}});
      }
    }
  }

private:
  void diagSeed(const SourceFile &File, const Token &T,
                std::string_view Verb, std::vector<Diagnostic> &Out) const {
    Out.push_back({File.path(), unsigned(T.Line + 1), std::string(id()),
                   std::string(name()),
                   "'" + T.Text + "' " + std::string(Verb) +
                       " a raw stream outside rng/; obtain streams from "
                       "RealizationCursor::beginRealization() so the "
                       "eq. (8) leap partition is preserved",
                   {}});
  }
};

//===----------------------------------------------------------------------===//
// R7: unchecked-snapshot
//===----------------------------------------------------------------------===//

class UncheckedSnapshotRule final : public Rule {
public:
  std::string_view id() const override { return "R7"; }
  std::string_view name() const override { return "unchecked-snapshot"; }
  std::string_view summary() const override {
    return "snapshot loads must reach the .prev fallback path";
  }
  std::string_view rationale() const override {
    return "Resumption reloads sealed checkpoint state; the crash-safe "
           "write protocol keeps the previous sealed generation as "
           "'<path>.prev' precisely so a torn or corrupt snapshot "
           "degrades to the last good one instead of aborting the run. A "
           "TU that calls readSnapshot() but never touches "
           "readSnapshotWithFallback() or the '.prev' generation has no "
           "error branch for a bad seal — the failure either crashes the "
           "resume or, worse, restarts statistics from scratch. Sharded "
           "checkpoint manifests have the same two-generation contract: "
           "readManifest() loads one generation with no ladder, so "
           "outside the ckpt/ module itself (which implements the "
           "ladder) manifest loads must show the same fallback evidence "
           "— restoreWithFallback() or an explicit '.prev' branch.";
  }
  std::string_view example() const override {
    return "  Result<Snapshot> S = readSnapshot(P);          // flagged\n"
           "  Result<Snapshot> S = readSnapshotWithFallback(P); // ok\n"
           "  auto M = Store.readManifest(P);                // flagged\n"
           "  auto G = Store.restoreWithFallback();          // ok";
  }

  void check(const SourceFile &File, const LintContext &,
             std::vector<Diagnostic> &Out) const override {
    const std::vector<Token> &Tokens = File.tokens();
    // The ckpt module implements the manifest fallback ladder; its own
    // readManifest() plumbing (and its tests') is the mechanism, not a
    // violation.
    const bool InCkptModule = pathContainsComponent(File.path(), "ckpt");
    bool HasFallback = false;
    std::vector<uint32_t> CallLines;
    std::vector<uint32_t> ManifestCallLines;
    for (size_t I = 0; I < Tokens.size(); ++I) {
      const Token &T = Tokens[I];
      if (T.Kind == TokenKind::Identifier) {
        if (T.Text == "readSnapshotWithFallback" ||
            T.Text == "restoreWithFallback")
          HasFallback = true;
        else if (T.Text == "readSnapshot") {
          const size_t Next = nextCodeToken(Tokens, I);
          if (Next < Tokens.size() && isPunctToken(Tokens[Next], '('))
            CallLines.push_back(T.Line);
        } else if (T.Text == "readManifest" && !InCkptModule) {
          const size_t Next = nextCodeToken(Tokens, I);
          if (Next < Tokens.size() && isPunctToken(Tokens[Next], '('))
            ManifestCallLines.push_back(T.Line);
        }
      } else if ((T.Kind == TokenKind::String ||
                  T.Kind == TokenKind::RawString) &&
                 T.Text.find(".prev") != std::string::npos) {
        HasFallback = true;
      }
    }
    if (HasFallback)
      return;
    for (uint32_t Line : CallLines)
      Out.push_back({File.path(), unsigned(Line + 1), std::string(id()),
                     std::string(name()),
                     "snapshot loaded without a fallback path; use "
                     "readSnapshotWithFallback() or handle the sealed "
                     "'.prev' generation on the error branch",
                     {}});
    for (uint32_t Line : ManifestCallLines)
      Out.push_back({File.path(), unsigned(Line + 1), std::string(id()),
                     std::string(name()),
                     "checkpoint manifest loaded without a fallback path; "
                     "use restoreWithFallback() or handle the '.prev' "
                     "manifest generation on the error branch",
                     {}});
  }
};

//===----------------------------------------------------------------------===//
// R8: mailbox-discipline
//===----------------------------------------------------------------------===//

class MailboxDisciplineRule final : public Rule {
public:
  std::string_view id() const override { return "R8"; }
  std::string_view name() const override { return "mailbox-discipline"; }
  std::string_view summary() const override {
    return "raw thread/mutex/atomic use only in mpsim/ and obs/, socket "
           "I/O only in mpsim/";
  }
  std::string_view rationale() const override {
    return "Cross-rank and cross-thread state must flow through the "
           "mpsim::WorkerGroup / Mailbox layer, whose queues carry the "
           "idempotent collector protocol; scattered ad-hoc threads and "
           "locks make the eq. (5) merge path unauditable. Raw std:: "
           "synchronization is therefore confined to mpsim/ and obs/ "
           "(whose whole job is concurrency) and the Clock seam. Inside "
           "core/ the rule also follows call-graph taint from the project "
           "index: a call into a helper defined in a raw-synchronization "
           "TU outside mpsim/ and obs/ is the same ad-hoc sharing hidden "
           "behind a function boundary. Raw socket calls (socketpair, "
           "sendmsg, AF_UNIX, ...) are banned everywhere outside mpsim/ — "
           "wire I/O belongs to the transport layer, where the frame "
           "codec guarantees CRC framing and the supervisor owns the "
           "file descriptors.";
  }
  std::string_view example() const override {
    return "  // in src/vr/ControlVariates.cpp or src/core/Runner.cpp:\n"
           "  std::mutex M;            // flagged (direct)\n"
           "  #include <thread>        // flagged (direct)\n"
           "  // in src/core/Runner.cpp:\n"
           "  spinOnFlag(Done);        // flagged if spinOnFlag() is\n"
           "                           // defined in a raw-sync TU\n"
           "  socketpair(AF_UNIX, ...) // flagged: sockets only in mpsim/\n"
           "  Group.dispatch(Job);     // ok: the blessed layer";
  }

  void check(const SourceFile &File, const LintContext &Context,
             std::vector<Diagnostic> &Out) const override {
    const std::string_view Path = File.path();
    if (pathContainsComponent(Path, "mpsim"))
      return;
    checkNeedles(File, rawSocketIncludeNeedles(), rawSocketTokenNeedles(),
                 "outside mpsim/; socket I/O belongs to the transport layer",
                 Out);
    if (!pathContainsComponent(Path, "obs") &&
        !pathEndsWith(Path, "support/Clock.h"))
      checkNeedles(File, rawConcurrencyIncludeNeedles(),
                   rawConcurrencyTypeNeedles(),
                   "outside mpsim/ and obs/; cross-thread state must flow "
                   "through mpsim::Mailbox/WorkerGroup",
                   Out);
    if (pathContainsComponent(Path, "core"))
      checkTaintedCalls(File, Context, Out);
  }

private:
  /// One finding per line that includes one of \p Headers or names one of
  /// \p Names; \p Where says why the line is out of bounds.
  void checkNeedles(const SourceFile &File,
                    const std::vector<std::string_view> &Headers,
                    const std::vector<std::string_view> &Names,
                    std::string_view Where,
                    std::vector<Diagnostic> &Out) const {
    for (size_t Index = 0; Index < File.lineCount(); ++Index) {
      std::string_view Raw = trim(File.rawLine(Index));
      const bool IsInclude = startsWith(Raw, "#include");
      for (std::string_view Banned : IsInclude ? Headers : Names) {
        if (IsInclude ? Raw.find(Banned) == std::string_view::npos
                      : findWordToken(File.scrubbedLine(Index), Banned) ==
                            std::string_view::npos)
          continue;
        Out.push_back({File.path(), unsigned(Index + 1), std::string(id()),
                       std::string(name()),
                       (IsInclude ? "include of " + std::string(Banned)
                                  : "'" + std::string(Banned) + "'") +
                           " " + std::string(Where),
                       {}});
        break;
      }
    }
  }

  void checkTaintedCalls(const SourceFile &File, const LintContext &Context,
                         std::vector<Diagnostic> &Out) const {
    if (Context.TaintedFunctions.empty())
      return;
    // A name this file defines itself is judged by the direct check above,
    // not as a call edge.
    std::set<std::string, std::less<>> OwnDefs;
    for (std::string &Name : definedFunctions(File))
      OwnDefs.insert(std::move(Name));
    const std::vector<Token> &Tokens = File.tokens();
    std::set<uint32_t> SeenLines; // one finding per call line
    for (size_t I = 0; I < Tokens.size(); ++I) {
      const Token &T = Tokens[I];
      if (T.Kind != TokenKind::Identifier || isMacroStyleName(T.Text))
        continue;
      if (Context.TaintedFunctions.find(T.Text) ==
              Context.TaintedFunctions.end() ||
          Context.CleanFunctions.count(T.Text) || OwnDefs.count(T.Text))
        continue;
      const size_t Next = nextCodeToken(Tokens, I);
      if (Next >= Tokens.size() || !isPunctToken(Tokens[Next], '('))
        continue;
      if (!SeenLines.insert(T.Line).second)
        continue;
      Out.push_back({File.path(), unsigned(T.Line + 1), std::string(id()),
                     std::string(name()),
                     "call to '" + T.Text +
                         "' which uses raw synchronization internally; "
                         "route core/ concurrency through "
                         "mpsim::Mailbox/WorkerGroup",
                     {}});
    }
  }
};

//===----------------------------------------------------------------------===//
// R9: include-layering
//===----------------------------------------------------------------------===//

class IncludeLayeringRule final : public Rule {
public:
  std::string_view id() const override { return "R9"; }
  std::string_view name() const override { return "include-layering"; }
  std::string_view summary() const override {
    return "no include cycles or upward layer includes";
  }
  std::string_view rationale() const override {
    return "The module graph is a DAG ordered by abstraction level — "
           "support at the bottom, rng above int128, core at the top. An "
           "upward include (rng/ pulling in core/) inverts that order and "
           "couples the stream algebra to the engine; an include cycle "
           "makes build order and ownership ambiguous. Both are detected "
           "from the project include graph, so a violation is caught even "
           "when the offending edge spans headers three hops apart.";
  }
  std::string_view example() const override {
    return "  // in include/parmonc/rng/Lcg128.h:\n"
           "  #include \"parmonc/core/Runner.h\" // flagged: upward\n"
           "  #include \"parmonc/int128/UInt128.h\" // ok: downward";
  }

  bool isPerFile() const override { return false; }

  void checkProject(const ProjectIndex &Index, const LintContext &,
                    std::vector<Diagnostic> &Out) const override {
    checkLayering(Index, Out);
    checkCycles(Index, Out);
  }

private:
  /// The allowed downward dependencies per module. A module always may
  /// include itself and support.
  static const std::map<std::string_view, std::set<std::string_view>> &
  allowedDeps() {
    static const std::map<std::string_view, std::set<std::string_view>>
        Deps = {
            {"support", {}},
            {"int128", {}},
            {"obs", {}},
            {"stats", {}},
            {"lint", {}},
            {"rng", {"int128", "obs"}},
            {"spectral", {"int128"}},
            {"fault", {"obs"}},
            {"sde", {"rng"}},
            {"statest", {"rng"}},
            {"vr", {"stats", "rng"}},
            {"mpsim", {"obs", "sde", "rng"}},
            {"ckpt", {"obs", "mpsim"}},
            {"core", {"obs", "rng", "stats", "mpsim", "ckpt", "fault"}},
        };
    return Deps;
  }

  /// The module a path belongs to, or empty when unknown.
  static std::string_view moduleOfPath(std::string_view Path) {
    std::string_view Found;
    for (const auto &[Module, Deps] : allowedDeps())
      if (pathContainsComponent(Path, Module))
        Found = Module;
    return Found;
  }

  /// The module an include spec targets: "parmonc/<module>/...".
  static std::string_view moduleOfSpec(std::string_view Spec) {
    if (!startsWith(Spec, "parmonc/"))
      return {};
    std::string_view Rest = Spec.substr(8);
    const size_t Slash = Rest.find('/');
    if (Slash == std::string_view::npos)
      return {}; // umbrella header or top-level file
    std::string_view Module = Rest.substr(0, Slash);
    return allowedDeps().count(Module) ? Module : std::string_view{};
  }

  /// Layering is enforced for library code and lint fixtures, not for the
  /// test suites (a test of core/ legitimately includes half the tree).
  static bool enforceLayeringFor(std::string_view Path) {
    return !pathContainsComponent(Path, "tests") ||
           pathContainsComponent(Path, "fixtures");
  }

  void checkLayering(const ProjectIndex &Index,
                     std::vector<Diagnostic> &Out) const {
    for (size_t I = 0; I < Index.fileCount(); ++I) {
      const std::string &Path = Index.path(I);
      if (!enforceLayeringFor(Path))
        continue;
      const std::string_view FromModule = moduleOfPath(Path);
      if (FromModule.empty())
        continue;
      for (const IncludeRecord &Include : Index.facts(I).Includes) {
        const std::string_view ToModule = moduleOfSpec(Include.Spec);
        if (ToModule.empty() || ToModule == FromModule ||
            ToModule == "support")
          continue;
        const auto &Allowed = allowedDeps().at(FromModule);
        if (Allowed.count(ToModule))
          continue;
        Out.push_back(
            {Path, unsigned(Include.Line + 1), std::string(id()),
             std::string(name()),
             "include of \"" + Include.Spec + "\" couples " +
                 std::string(FromModule) + "/ to " + std::string(ToModule) +
                 "/ against the layering order; depend downward or move "
                 "the shared piece below both",
             {}});
      }
    }
  }

  void checkCycles(const ProjectIndex &Index,
                   std::vector<Diagnostic> &Out) const {
    const size_t N = Index.fileCount();
    // Resolved edges: file -> (target file, include line).
    std::vector<std::vector<std::pair<size_t, uint32_t>>> Edges(N);
    for (size_t I = 0; I < N; ++I)
      for (const IncludeRecord &Include : Index.facts(I).Includes) {
        const size_t Target = Index.resolveInclude(Index.path(I), Include);
        if (Target != ProjectIndex::npos && Target != I)
          Edges[I].emplace_back(Target, Include.Line);
      }

    // Iterative DFS; each cycle reported once, anchored at its
    // lexicographically smallest path for determinism.
    std::vector<uint8_t> Color(N, 0); // 0 white, 1 grey, 2 black
    std::vector<size_t> Stack;
    std::set<std::string> Reported;
    for (size_t Start = 0; Start < N; ++Start)
      if (Color[Start] == 0)
        dfs(Start, Index, Edges, Color, Stack, Reported, Out);
  }

  void dfs(size_t Node, const ProjectIndex &Index,
           const std::vector<std::vector<std::pair<size_t, uint32_t>>> &Edges,
           std::vector<uint8_t> &Color, std::vector<size_t> &Stack,
           std::set<std::string> &Reported,
           std::vector<Diagnostic> &Out) const {
    Color[Node] = 1;
    Stack.push_back(Node);
    for (const auto &[Target, Line] : Edges[Node]) {
      if (Color[Target] == 0) {
        dfs(Target, Index, Edges, Color, Stack, Reported, Out);
      } else if (Color[Target] == 1) {
        reportCycle(Target, Index, Edges, Stack, Reported, Out);
      }
    }
    Stack.pop_back();
    Color[Node] = 2;
  }

  void reportCycle(
      size_t Entry, const ProjectIndex &Index,
      const std::vector<std::vector<std::pair<size_t, uint32_t>>> &Edges,
      const std::vector<size_t> &Stack, std::set<std::string> &Reported,
      std::vector<Diagnostic> &Out) const {
    // The cycle is the stack suffix starting at Entry.
    size_t Begin = Stack.size();
    while (Begin > 0 && Stack[Begin - 1] != Entry)
      --Begin;
    if (Begin == 0 && Stack[0] != Entry)
      return;
    Begin = Begin == 0 ? 0 : Begin - 1;
    std::vector<size_t> Cycle(Stack.begin() + Begin, Stack.end());
    // Rotate so the smallest path leads; dedupe on the rotated key.
    size_t MinAt = 0;
    for (size_t I = 1; I < Cycle.size(); ++I)
      if (Index.path(Cycle[I]) < Index.path(Cycle[MinAt]))
        MinAt = I;
    std::rotate(Cycle.begin(), Cycle.begin() + MinAt, Cycle.end());
    std::string Description;
    for (size_t FileAt : Cycle) {
      if (!Description.empty())
        Description += " -> ";
      Description += normalizedPath(Index.path(FileAt));
    }
    Description += " -> " + normalizedPath(Index.path(Cycle.front()));
    if (!Reported.insert(Description).second)
      return;
    // Anchor the diagnostic at the first file's include of the next one.
    const size_t First = Cycle.front();
    const size_t Second = Cycle.size() > 1 ? Cycle[1] : Cycle.front();
    uint32_t Line = 0;
    for (const auto &[Target, IncludeLine] : Edges[First])
      if (Target == Second) {
        Line = IncludeLine;
        break;
      }
    Out.push_back({Index.path(First), unsigned(Line + 1), std::string(id()),
                   std::string(name()), "include cycle: " + Description,
                   {}});
  }
};

//===----------------------------------------------------------------------===//
// R10: stale-waiver
//===----------------------------------------------------------------------===//

class StaleWaiverRule final : public Rule {
public:
  std::string_view id() const override { return "R10"; }
  std::string_view name() const override { return "stale-waiver"; }
  std::string_view summary() const override {
    return "waivers must still suppress a live finding";
  }
  std::string_view rationale() const override {
    return "Waivers are reviewed debt: each one grants a named rule a "
           "pass on specific lines. When the offending code is later "
           "fixed or moved, the waiver survives as a stale grant that "
           "would silently cover a future regression on that line. The "
           "analyzer therefore tracks which waivers suppressed at least "
           "one finding this run and flags the rest, along with any "
           "waiver naming a rule id mclint does not have (a retired rule's "
           "waiver could never suppress anything again). The fix "
           "(removing the comment) is mechanically safe, so R10 supports "
           "--fix.";
  }
  std::string_view example() const override {
    return "  int X = 0; // mclint: allow(R8): legacy  <- flagged once\n"
           "             //   the line no longer uses std:: sync";
  }

  bool isPerFile() const override { return false; }

  // R10 has no scanning pass of its own: the analyzer synthesizes its
  // diagnostics from the waiver usage bookkeeping after all other rules
  // ran. See runAnalyzer().
};

} // namespace

size_t findWordToken(std::string_view Text, std::string_view Token) {
  size_t Pos = 0;
  while ((Pos = Text.find(Token, Pos)) != std::string_view::npos) {
    const bool LeftOk = Pos == 0 || !isIdentChar(Text[Pos - 1]);
    const size_t End = Pos + Token.size();
    const bool RightOk = End >= Text.size() || !isIdentChar(Text[End]);
    if (LeftOk && RightOk)
      return Pos;
    Pos += 1;
  }
  return std::string_view::npos;
}

const std::vector<std::string_view> &rawConcurrencyTypeNeedles() {
  static const std::vector<std::string_view> Needles = {
      "std::thread",         "std::jthread",
      "std::mutex",          "std::timed_mutex",
      "std::recursive_mutex", "std::shared_mutex",
      "std::condition_variable", "std::atomic",
      "std::lock_guard",     "std::unique_lock",
      "std::scoped_lock",    "std::shared_lock",
      "std::future",         "std::promise",
      "std::async",          "std::call_once",
      "std::once_flag",      "std::counting_semaphore",
      "std::binary_semaphore", "std::latch",
      "std::memory_order"};
  return Needles;
}

const std::vector<std::string_view> &rawConcurrencyIncludeNeedles() {
  static const std::vector<std::string_view> Needles = {
      "<thread>", "<mutex>",     "<atomic>", "<condition_variable>",
      "<future>", "<shared_mutex>", "<semaphore>", "<barrier>",
      "<latch>",  "<stop_token>"};
  return Needles;
}

const std::vector<std::string_view> &rawSocketTokenNeedles() {
  // Word tokens only (findWordToken): deliberately no bare "send"/"recv",
  // which would collide with the Communicator API itself.
  static const std::vector<std::string_view> Needles = {
      "socketpair", "AF_UNIX",     "AF_INET",    "SOCK_STREAM",
      "SOCK_DGRAM", "sendmsg",     "recvmsg",    "accept4",
      "getsockopt", "setsockopt"};
  return Needles;
}

const std::vector<std::string_view> &rawSocketIncludeNeedles() {
  static const std::vector<std::string_view> Needles = {
      "<sys/socket.h>", "<sys/un.h>", "<netinet/", "<arpa/inet.h>"};
  return Needles;
}

std::vector<std::unique_ptr<Rule>> makeAllRules() {
  std::vector<std::unique_ptr<Rule>> Rules;
  Rules.push_back(std::make_unique<NondeterminismRule>());
  Rules.push_back(std::make_unique<IncludeHygieneRule>());
  Rules.push_back(std::make_unique<NarrowingEstimatorRule>());
  Rules.push_back(std::make_unique<StreamDisciplineRule>());
  Rules.push_back(std::make_unique<UncheckedSnapshotRule>());
  Rules.push_back(std::make_unique<MailboxDisciplineRule>());
  Rules.push_back(std::make_unique<IncludeLayeringRule>());
  Rules.push_back(std::make_unique<StaleWaiverRule>());
  Rules.push_back(makeMustCheckRule());
  Rules.push_back(makeStreamLifecycleRule());
  Rules.push_back(makeWireProtocolRule());
  Rules.push_back(makeDeterminismTaintRule());
  Rules.push_back(makeLockDisciplineRule());
  Rules.push_back(makeDeepMustCheckRule());
  return Rules;
}

std::set<std::string, std::less<>> builtinFallibleFunctions() {
  // The project's fallible APIs, so R11 works even when the headers that
  // declare them are outside the scanned roots (e.g. linting examples/
  // alone). Kept in sync by LintRulesTest.BuiltinListMatchesHeaders.
  return {
      "appendExperimentLog", "choleskyFactor",
      "clearPreviousRun",    "createDirectories",
      "fromBytes",           "fromDecimalString",
      "fromFileContents",    "fromHexString",
      "fromRawSums",         "loadOrDefault",
      "merge",               "mergeFrom",
      "parseDouble",         "parseInt64",
      "parseUInt64",         "prepareDirectories",
      "readDouble",          "readDoubleVector",
      "readExperimentLog",   "readFileToString",
      "readI64",             "readManifest",
      "readMeans",           "readSnapshot",
      "readSnapshotWithFallback", "readString",
      "readU32",             "readU64",
      "restoreGeneration",   "restoreWithFallback",
      "runManualAverage",    "runSimulation",
      "runVirtualCluster",   "sendReliable",
      "unsealFileContents",  "validate",
      "writeFileAtomic",     "writeResults",
      "writeShard",          "writeSnapshot",
  };
}

void harvestNodiscardFunctions(const SourceFile &File,
                               std::set<std::string, std::less<>> &Names) {
  for (size_t Index = 0; Index < File.lineCount(); ++Index) {
    std::string_view Line = File.scrubbedLine(Index);
    size_t Pos = Line.find("[[nodiscard]]");
    if (Pos == std::string_view::npos)
      continue;
    // Join the declaration across a few lines and take the identifier
    // immediately preceding the first '(' — stopping at ';' or '{' so a
    // class-level [[nodiscard]] never harvests a later function.
    std::string Decl(Line.substr(Pos + 13));
    for (size_t Extra = 1;
         Extra <= 3 && Index + Extra < File.lineCount() &&
         Decl.find('(') == std::string::npos &&
         Decl.find(';') == std::string::npos &&
         Decl.find('{') == std::string::npos;
         ++Extra) {
      Decl.push_back(' ');
      Decl.append(File.scrubbedLine(Index + Extra));
    }
    const size_t Stop = Decl.find_first_of(";{");
    const size_t Paren = Decl.find('(');
    if (Paren == std::string::npos || (Stop != std::string::npos &&
                                       Stop < Paren))
      continue;
    size_t End = Paren;
    while (End > 0 && Decl[End - 1] == ' ')
      --End;
    size_t Begin = End;
    while (Begin > 0 && isIdentChar(Decl[Begin - 1]))
      --Begin;
    if (Begin < End)
      Names.insert(Decl.substr(Begin, End - Begin));
  }
}

} // namespace lint
} // namespace parmonc
