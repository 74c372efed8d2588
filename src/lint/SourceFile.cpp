//===- lint/SourceFile.cpp - Lexed view of one source file ----------------===//
//
// Part of the PARMONC reproduction library.
//
//===----------------------------------------------------------------------===//

#include "parmonc/lint/SourceFile.h"

#include "parmonc/support/Text.h"

#include <algorithm>

namespace parmonc {
namespace lint {

namespace {

/// Extracts the rule ids from one waiver directive body, e.g. "R2,R8".
std::vector<std::string> parseRuleList(std::string_view Body) {
  std::vector<std::string> Ids;
  for (std::string_view Field : splitChar(Body, ','))
    if (std::string_view Id = trim(Field); !Id.empty())
      Ids.emplace_back(Id);
  return Ids;
}

/// Length of a line splice (backslash + newline) at \p I, or 0.
size_t spliceLengthAt(std::string_view S, size_t I) {
  if (I >= S.size() || S[I] != '\\')
    return 0;
  if (I + 1 < S.size() && S[I + 1] == '\n')
    return 2;
  if (I + 2 < S.size() && S[I + 1] == '\r' && S[I + 2] == '\n')
    return 3;
  return 0;
}

} // namespace

SourceFile::SourceFile(std::string Path, std::string_view Contents)
    : Path(std::move(Path)) {
  // Split into raw lines first (keeping empty trailing lines irrelevant).
  for (std::string_view Line : splitChar(Contents, '\n')) {
    if (!Line.empty() && Line.back() == '\r')
      Line.remove_suffix(1);
    RawLines.emplace_back(Line);
  }
  if (!RawLines.empty() && RawLines.back().empty())
    RawLines.pop_back();

  LexedFile Lexed = lexFile(Contents);
  Tokens = std::move(Lexed.Tokens);
  const std::vector<uint32_t> &LineStarts = Lexed.LineStarts;

  // Scrubbed lines start as all spaces; code tokens copy their bytes back
  // at the original (line, column), literals contribute only their quote
  // characters (and any encoding prefix), comments contribute nothing.
  ScrubbedLines.reserve(RawLines.size());
  for (const std::string &Raw : RawLines)
    ScrubbedLines.emplace_back(Raw.size(), ' ');

  auto PlaceByte = [&](uint32_t Offset, char C) {
    auto It =
        std::upper_bound(LineStarts.begin(), LineStarts.end(), Offset);
    size_t Line = static_cast<size_t>(It - LineStarts.begin()) - 1;
    if (Line >= ScrubbedLines.size())
      return;
    size_t Column = Offset - LineStarts[Line];
    if (Column < ScrubbedLines[Line].size())
      ScrubbedLines[Line][Column] = C;
  };

  auto CopyCodeRange = [&](uint32_t Begin, uint32_t End) {
    for (uint32_t P = Begin; P < End; ++P) {
      char C = Contents[P];
      if (C == '\n' || C == '\r')
        continue;
      if (spliceLengthAt(Contents, P))
        continue; // splice backslash
      PlaceByte(P, C);
    }
  };

  for (const Token &T : Tokens) {
    switch (T.Kind) {
    case TokenKind::Identifier:
    case TokenKind::Number:
    case TokenKind::Punct:
      CopyCodeRange(T.Begin, T.End);
      break;
    case TokenKind::String:
    case TokenKind::CharLiteral:
    case TokenKind::RawString: {
      const char Quote = T.Kind == TokenKind::CharLiteral ? '\'' : '"';
      uint32_t P = T.Begin;
      while (P < T.End && Contents[P] != Quote) {
        PlaceByte(P, Contents[P]); // encoding prefix (R, u8, L, ...)
        ++P;
      }
      if (P < T.End)
        PlaceByte(P, Quote);
      if (T.End > P + 1 && Contents[T.End - 1] == Quote)
        PlaceByte(T.End - 1, Quote);
      break;
    }
    case TokenKind::Comment:
      break;
    }
  }

  // Waiver scan over comment tokens only: directives inside string or raw
  // string literals are never honored.
  LineWaivers.assign(RawLines.size(), {});
  uint32_t DirectiveIndex = 0;
  for (const Token &T : Tokens) {
    if (T.Kind != TokenKind::Comment)
      continue;
    std::string_view Comment = T.Text;
    size_t Pos = Comment.find("mclint:");
    if (Pos == std::string_view::npos)
      continue;
    std::string_view Directive = trim(Comment.substr(Pos + 7));
    const bool FileScope = startsWith(Directive, "allow-file(");
    const bool LineScope = !FileScope && startsWith(Directive, "allow(");
    if (!FileScope && !LineScope)
      continue;
    const size_t Open = Directive.find('(');
    const size_t Close = Directive.find(')', Open);
    if (Close == std::string_view::npos)
      continue;

    // A stand-alone directive has no code on any line the comment spans;
    // it then also covers the next code line — skipping any further
    // comment-only or blank lines, so a directive may sit on top of its
    // prose explanation without losing the code it was written for.
    bool Standalone = true;
    for (uint32_t Line = T.Line;
         Line <= T.EndLine && Line < ScrubbedLines.size(); ++Line)
      if (!trim(ScrubbedLines[Line]).empty())
        Standalone = false;

    uint32_t CoverBegin = T.Line;
    uint32_t CoverEnd = T.EndLine;
    if (Standalone) {
      uint32_t Next = CoverEnd + 1;
      while (Next < RawLines.size() && trim(ScrubbedLines[Next]).empty())
        ++Next;
      if (Next < RawLines.size())
        CoverEnd = Next;
    }

    for (std::string &Id :
         parseRuleList(Directive.substr(Open + 1, Close - Open - 1))) {
      Waiver W;
      W.RuleId = Id;
      W.DirectiveIndex = DirectiveIndex;
      W.DirectiveLine = T.Line;
      W.DirectiveEndLine = T.EndLine;
      W.DirectiveColumn =
          T.Begin - LineStarts[std::min<size_t>(T.Line, LineStarts.size() - 1)];
      W.FileScope = FileScope;
      W.Standalone = Standalone;
      W.CoverBegin = CoverBegin;
      W.CoverEnd = CoverEnd;
      if (FileScope)
        FileWaivers.insert(Id);
      else
        for (uint32_t Line = CoverBegin;
             Line <= CoverEnd && Line < LineWaivers.size(); ++Line)
          LineWaivers[Line].insert(Id);
      Waivers.push_back(std::move(W));
    }
    ++DirectiveIndex;
  }
}

bool SourceFile::isHeader() const {
  return Path.size() >= 2 && (Path.rfind(".h") == Path.size() - 2 ||
                              (Path.size() >= 4 &&
                               Path.rfind(".hpp") == Path.size() - 4));
}

const std::vector<FunctionCfg> &SourceFile::functions() const {
  if (!Cfgs)
    Cfgs = std::make_unique<std::vector<FunctionCfg>>(
        buildFunctionCfgs(Tokens));
  return *Cfgs;
}

bool SourceFile::isWaived(size_t Index, std::string_view RuleId) const {
  if (FileWaivers.count(std::string(RuleId)))
    return true;
  if (Index >= LineWaivers.size())
    return false;
  return LineWaivers[Index].count(std::string(RuleId)) > 0;
}

} // namespace lint
} // namespace parmonc
