//===- lint/Index.cpp - Cross-TU project index for mclint -----------------===//
//
// Part of the PARMONC reproduction library.
//
//===----------------------------------------------------------------------===//

#include "parmonc/lint/Index.h"

#include "parmonc/lint/Rules.h"
#include "parmonc/support/Text.h"

#include <algorithm>
#include <cctype>

namespace parmonc {
namespace lint {

std::string normalizedPath(std::string_view Path) {
  std::string Normal(Path);
  for (char &C : Normal)
    if (C == '\\')
      C = '/';
  return Normal;
}

bool pathContainsComponent(std::string_view Path, std::string_view Dir) {
  const std::string Normal = normalizedPath(Path);
  const std::string Needle = "/" + std::string(Dir) + "/";
  return Normal.find(Needle) != std::string::npos ||
         startsWith(Normal, std::string(Dir) + "/");
}

bool pathEndsWith(std::string_view Path, std::string_view Suffix) {
  const std::string Normal = normalizedPath(Path);
  return Normal.size() >= Suffix.size() &&
         Normal.compare(Normal.size() - Suffix.size(), Suffix.size(),
                        Suffix) == 0;
}

bool isMacroStyleName(std::string_view Name) {
  bool HasUpper = false;
  for (char C : Name) {
    if (C >= 'a' && C <= 'z')
      return false;
    if (C >= 'A' && C <= 'Z')
      HasUpper = true;
  }
  return HasUpper;
}

namespace {

/// Keywords that look like `name ( ... ) {` but are not definitions.
bool isControlKeyword(std::string_view Name) {
  return Name == "if" || Name == "for" || Name == "while" ||
         Name == "switch" || Name == "catch" || Name == "return" ||
         Name == "sizeof" || Name == "alignof" || Name == "decltype" ||
         Name == "noexcept" || Name == "new" || Name == "delete";
}

/// The next non-comment token index after \p I, or Tokens.size().
size_t nextCode(const std::vector<Token> &Tokens, size_t I) {
  ++I;
  while (I < Tokens.size() && Tokens[I].Kind == TokenKind::Comment)
    ++I;
  return I;
}

bool isPunct(const Token &T, char C) {
  return T.Kind == TokenKind::Punct && T.Text.size() == 1 && T.Text[0] == C;
}

/// Heuristic definition scan: identifier + balanced parameter list + `{`.
void collectDefinedFunctions(const std::vector<Token> &Tokens,
                             std::vector<std::string> &Out) {
  std::set<std::string> Seen;
  for (size_t I = 0; I < Tokens.size(); ++I) {
    const Token &T = Tokens[I];
    if (T.Kind != TokenKind::Identifier || isControlKeyword(T.Text) ||
        isMacroStyleName(T.Text))
      continue;
    size_t Open = nextCode(Tokens, I);
    if (Open >= Tokens.size() || !isPunct(Tokens[Open], '('))
      continue;
    int Depth = 1;
    size_t J = Open;
    while (Depth > 0) {
      J = nextCode(Tokens, J);
      if (J >= Tokens.size())
        break;
      if (isPunct(Tokens[J], '('))
        ++Depth;
      else if (isPunct(Tokens[J], ')'))
        --Depth;
    }
    if (Depth != 0)
      break; // unbalanced to EOF
    size_t After = nextCode(Tokens, J);
    if (After < Tokens.size() && isPunct(Tokens[After], '{') &&
        Seen.insert(T.Text).second)
      Out.push_back(T.Text);
  }
}

/// Records stream-construction evidence: `TypeName Ident ...`.
bool constructsType(const std::vector<Token> &Tokens,
                    std::string_view TypeName) {
  for (size_t I = 0; I < Tokens.size(); ++I) {
    if (Tokens[I].Kind != TokenKind::Identifier || Tokens[I].Text != TypeName)
      continue;
    size_t Next = nextCode(Tokens, I);
    if (Next < Tokens.size() &&
        Tokens[Next].Kind == TokenKind::Identifier &&
        !isControlKeyword(Tokens[Next].Text))
      return true;
  }
  return false;
}

void appendField(std::string &Out, std::string_view Field) {
  Out.push_back(' ');
  Out.append(Field);
}

} // namespace

std::vector<std::string> definedFunctions(const SourceFile &File) {
  std::vector<std::string> Names;
  collectDefinedFunctions(File.tokens(), Names);
  return Names;
}

FileFacts extractFileFacts(const SourceFile &File) {
  FileFacts Facts;
  const std::vector<Token> &Tokens = File.tokens();

  // Includes, from the raw lines (the preprocessor view).
  for (size_t Index = 0; Index < File.lineCount(); ++Index) {
    std::string_view Raw = trim(File.rawLine(Index));
    if (!startsWith(Raw, "#include"))
      continue;
    std::string_view Spec = trim(Raw.substr(8));
    IncludeRecord Record;
    Record.Line = static_cast<uint32_t>(Index);
    if (startsWith(Spec, "\"")) {
      const size_t Close = Spec.find('"', 1);
      Record.Spec = std::string(Close == std::string_view::npos
                                    ? Spec.substr(1)
                                    : Spec.substr(1, Close - 1));
      Record.Quoted = true;
    } else if (startsWith(Spec, "<")) {
      const size_t Close = Spec.find('>', 1);
      Record.Spec = std::string(Close == std::string_view::npos
                                    ? Spec.substr(1)
                                    : Spec.substr(1, Close - 1));
      Record.Quoted = false;
    } else {
      continue; // computed include; out of scope
    }
    Facts.Includes.push_back(std::move(Record));
  }

  // Symbols.
  std::set<std::string, std::less<>> Nodiscard;
  harvestNodiscardFunctions(File, Nodiscard);
  Facts.NodiscardFunctions.assign(Nodiscard.begin(), Nodiscard.end());
  collectDefinedFunctions(Tokens, Facts.DefinedFunctions);

  // Call edges into the fallible-API set.
  const std::set<std::string, std::less<>> Fallible =
      builtinFallibleFunctions();
  for (size_t I = 0; I < Tokens.size(); ++I) {
    const Token &T = Tokens[I];
    if (T.Kind != TokenKind::Identifier || Fallible.find(T.Text) == Fallible.end())
      continue;
    size_t Next = nextCode(Tokens, I);
    if (Next < Tokens.size() && isPunct(Tokens[Next], '('))
      Facts.FallibleCalls[T.Text].push_back(T.Line);
  }

  // Raw synchronization: the R8 needle sets over the scrubbed view.
  for (size_t Index = 0; Index < File.lineCount() && !Facts.UsesRawSync;
       ++Index) {
    std::string_view Raw = trim(File.rawLine(Index));
    if (startsWith(Raw, "#include")) {
      for (std::string_view Banned : rawConcurrencyIncludeNeedles())
        if (Raw.find(Banned) != std::string_view::npos)
          Facts.UsesRawSync = true;
      continue;
    }
    std::string_view Line = File.scrubbedLine(Index);
    for (std::string_view Banned : rawConcurrencyTypeNeedles())
      if (findWordToken(Line, Banned) != std::string_view::npos)
        Facts.UsesRawSync = true;
  }

  // Snapshot-fallback evidence: ".prev" inside any string literal.
  for (const Token &T : Tokens)
    if ((T.Kind == TokenKind::String || T.Kind == TokenKind::RawString) &&
        T.Text.find(".prev") != std::string::npos)
      Facts.MentionsPrevGeneration = true;

  Facts.ConstructsLcg128 =
      constructsType(Tokens, "Lcg128") || constructsType(Tokens, "LcgPow2");
  Facts.ConstructsStreamHierarchy = constructsType(Tokens, "StreamHierarchy");
  Facts.ConstructsCursor = constructsType(Tokens, "RealizationCursor");

  Facts.Waivers = File.waivers();
  Facts.CfgShapeCrc = cfgShapeCrc(File.functions());
  Facts.Functions = extractFunctionEvidence(File);
  return Facts;
}

std::string serializeFileFacts(const FileFacts &Facts) {
  std::string Out;
  for (const IncludeRecord &Include : Facts.Includes) {
    Out += "I " + std::to_string(Include.Line);
    appendField(Out, Include.Quoted ? "q" : "a");
    appendField(Out, Include.Spec);
    Out.push_back('\n');
  }
  for (const std::string &Name : Facts.NodiscardFunctions)
    Out += "N " + Name + "\n";
  for (const std::string &Name : Facts.DefinedFunctions)
    Out += "F " + Name + "\n";
  for (const auto &[Name, Lines] : Facts.FallibleCalls)
    for (uint32_t Line : Lines)
      Out += "C " + Name + " " + std::to_string(Line) + "\n";
  if (Facts.UsesRawSync)
    Out += "S\n";
  if (Facts.MentionsPrevGeneration)
    Out += "P\n";
  if (Facts.ConstructsLcg128)
    Out += "G L\n";
  if (Facts.ConstructsStreamHierarchy)
    Out += "G H\n";
  if (Facts.ConstructsCursor)
    Out += "G C\n";
  for (const Waiver &W : Facts.Waivers) {
    Out += "W " + W.RuleId;
    appendField(Out, std::to_string(W.DirectiveIndex));
    appendField(Out, std::to_string(W.DirectiveLine));
    appendField(Out, std::to_string(W.DirectiveEndLine));
    appendField(Out, std::to_string(W.DirectiveColumn));
    appendField(Out, W.FileScope ? "f" : "l");
    appendField(Out, W.Standalone ? "1" : "0");
    appendField(Out, std::to_string(W.CoverBegin));
    appendField(Out, std::to_string(W.CoverEnd));
    Out.push_back('\n');
  }
  if (Facts.CfgShapeCrc != 0) {
    char Hex[9];
    for (int I = 7; I >= 0; --I)
      Hex[7 - I] = "0123456789abcdef"[(Facts.CfgShapeCrc >> (I * 4)) & 0xF];
    Hex[8] = '\0';
    Out += "X ";
    Out += Hex;
    Out.push_back('\n');
  }
  for (const FunctionEvidence &Fn : Facts.Functions) {
    Out += "U " + Fn.Name;
    appendField(Out, std::to_string(Fn.Line));
    appendField(Out, Fn.ReturnsFallibleType ? "1" : "0");
    appendField(Out, Fn.ConsumesStatusParam ? "1" : "0");
    Out.push_back('\n');
    for (const ReturnCallRecord &Ret : Fn.ReturnCalls)
      Out += "V r " + Ret.Callee + " " + std::to_string(Ret.Line) + "\n";
    for (const CallSiteRecord &Call : Fn.Calls) {
      Out += "V c " + Call.Callee + " " + std::to_string(Call.Line) + " " +
             (Call.UnderLock ? "1" : "0");
      for (const std::string &Mutex : Call.HeldMutexes)
        Out += " " + Mutex;
      Out.push_back('\n');
    }
    for (const TaintSiteRecord &Taint : Fn.TaintSources)
      Out += "V t " + std::string(1, "wevup"[unsigned(Taint.Kind)]) + " " +
             std::to_string(Taint.Line) + "\n";
    for (const SinkSiteRecord &Sink : Fn.Sinks)
      Out += "V s " + std::string(1, "anx"[unsigned(Sink.Kind)]) + " " +
             std::to_string(Sink.Line) + "\n";
    for (const LockOpRecord &Op : Fn.LockOps)
      Out += "V l " +
             std::string(1, Op.Kind == LockOpRecord::Op::Scoped    ? 's'
                            : Op.Kind == LockOpRecord::Op::Acquire ? 'a'
                                                                   : 'r') +
             " " + Op.Mutex + " " + std::to_string(Op.Line) + "\n";
    for (const FieldWriteRecord &Write : Fn.FieldWrites)
      Out += "V w " + Write.Field + " " + (Write.UnderLock ? "1" : "0") +
             " " + std::to_string(Write.Line) + "\n";
  }
  return Out;
}

Result<FileFacts> parseFileFacts(std::string_view Block) {
  FileFacts Facts;
  auto ParseU32 = [](std::string_view Field, uint32_t &Out) -> bool {
    Result<int64_t> Value = parseInt64(Field);
    if (!Value || Value.value() < 0)
      return false;
    Out = static_cast<uint32_t>(Value.value());
    return true;
  };
  for (std::string_view Line : splitChar(Block, '\n')) {
    if (trim(Line).empty())
      continue;
    std::vector<std::string_view> Fields = splitWhitespace(Line);
    const std::string_view Tag = Fields[0];
    if (Tag == "I" && Fields.size() == 4) {
      IncludeRecord Record;
      if (!ParseU32(Fields[1], Record.Line))
        return invalidArgument("bad include line in facts block");
      Record.Quoted = Fields[2] == "q";
      Record.Spec = std::string(Fields[3]);
      Facts.Includes.push_back(std::move(Record));
    } else if (Tag == "N" && Fields.size() == 2) {
      Facts.NodiscardFunctions.emplace_back(Fields[1]);
    } else if (Tag == "F" && Fields.size() == 2) {
      Facts.DefinedFunctions.emplace_back(Fields[1]);
    } else if (Tag == "C" && Fields.size() == 3) {
      uint32_t CallLine = 0;
      if (!ParseU32(Fields[2], CallLine))
        return invalidArgument("bad call line in facts block");
      Facts.FallibleCalls[std::string(Fields[1])].push_back(CallLine);
    } else if (Tag == "S") {
      Facts.UsesRawSync = true;
    } else if (Tag == "P") {
      Facts.MentionsPrevGeneration = true;
    } else if (Tag == "G" && Fields.size() == 2) {
      if (Fields[1] == "L")
        Facts.ConstructsLcg128 = true;
      else if (Fields[1] == "H")
        Facts.ConstructsStreamHierarchy = true;
      else if (Fields[1] == "C")
        Facts.ConstructsCursor = true;
    } else if (Tag == "X" && Fields.size() == 2) {
      uint32_t Crc = 0;
      for (char C : Fields[1]) {
        uint32_t Digit = 0;
        if (C >= '0' && C <= '9')
          Digit = static_cast<uint32_t>(C - '0');
        else if (C >= 'a' && C <= 'f')
          Digit = static_cast<uint32_t>(C - 'a') + 10;
        else
          return invalidArgument("bad cfg shape crc in facts block");
        Crc = (Crc << 4) | Digit;
      }
      Facts.CfgShapeCrc = Crc;
    } else if (Tag == "U" && Fields.size() == 5) {
      FunctionEvidence Fn;
      Fn.Name = std::string(Fields[1]);
      if (!ParseU32(Fields[2], Fn.Line))
        return invalidArgument("bad function record in facts block");
      Fn.ReturnsFallibleType = Fields[3] == "1";
      Fn.ConsumesStatusParam = Fields[4] == "1";
      Facts.Functions.push_back(std::move(Fn));
    } else if (Tag == "V" && Fields.size() >= 4) {
      if (Facts.Functions.empty())
        return invalidArgument("function evidence before function record");
      FunctionEvidence &Fn = Facts.Functions.back();
      const std::string_view Kind = Fields[1];
      uint32_t RecLine = 0;
      if (Kind == "r" && Fields.size() == 4) {
        if (!ParseU32(Fields[3], RecLine))
          return invalidArgument("bad return-call record in facts block");
        Fn.ReturnCalls.push_back({std::string(Fields[2]), RecLine});
      } else if (Kind == "c" && Fields.size() >= 5) {
        if (!ParseU32(Fields[3], RecLine))
          return invalidArgument("bad call record in facts block");
        CallSiteRecord Call{std::string(Fields[2]), RecLine,
                            Fields[4] == "1", {}};
        for (size_t I = 5; I < Fields.size(); ++I)
          Call.HeldMutexes.emplace_back(Fields[I]);
        Fn.Calls.push_back(std::move(Call));
      } else if (Kind == "t" && Fields.size() == 4) {
        const size_t TaintIndex = std::string_view("wevup").find(Fields[2]);
        if (TaintIndex == std::string_view::npos || Fields[2].size() != 1 ||
            !ParseU32(Fields[3], RecLine))
          return invalidArgument("bad taint record in facts block");
        Fn.TaintSources.push_back({TaintKind(TaintIndex), RecLine});
      } else if (Kind == "s" && Fields.size() == 4) {
        const size_t SinkIndex = std::string_view("anx").find(Fields[2]);
        if (SinkIndex == std::string_view::npos || Fields[2].size() != 1 ||
            !ParseU32(Fields[3], RecLine))
          return invalidArgument("bad sink record in facts block");
        Fn.Sinks.push_back({SinkKind(SinkIndex), RecLine});
      } else if (Kind == "l" && Fields.size() == 5) {
        LockOpRecord Op;
        if (Fields[2] == "s")
          Op.Kind = LockOpRecord::Op::Scoped;
        else if (Fields[2] == "a")
          Op.Kind = LockOpRecord::Op::Acquire;
        else if (Fields[2] == "r")
          Op.Kind = LockOpRecord::Op::Release;
        else
          return invalidArgument("bad lock record in facts block");
        Op.Mutex = std::string(Fields[3]);
        if (!ParseU32(Fields[4], Op.Line))
          return invalidArgument("bad lock record in facts block");
        Fn.LockOps.push_back(std::move(Op));
      } else if (Kind == "w" && Fields.size() == 5) {
        if (!ParseU32(Fields[4], RecLine))
          return invalidArgument("bad field-write record in facts block");
        Fn.FieldWrites.push_back(
            {std::string(Fields[2]), Fields[3] == "1", RecLine});
      } else {
        return invalidArgument("unrecognized evidence record");
      }
    } else if (Tag == "W" && Fields.size() == 10) {
      Waiver W;
      W.RuleId = std::string(Fields[1]);
      if (!ParseU32(Fields[2], W.DirectiveIndex) ||
          !ParseU32(Fields[3], W.DirectiveLine) ||
          !ParseU32(Fields[4], W.DirectiveEndLine) ||
          !ParseU32(Fields[5], W.DirectiveColumn) ||
          !ParseU32(Fields[8], W.CoverBegin) ||
          !ParseU32(Fields[9], W.CoverEnd))
        return invalidArgument("bad waiver record in facts block");
      W.FileScope = Fields[6] == "f";
      W.Standalone = Fields[7] == "1";
      Facts.Waivers.push_back(std::move(W));
    } else {
      return invalidArgument("unrecognized facts record");
    }
  }
  return Facts;
}

void ProjectIndex::add(std::string Path, FileFacts NewFacts) {
  ByPath.emplace(Path, Paths.size());
  Paths.push_back(std::move(Path));
  Facts.push_back(std::move(NewFacts));
}

const FileFacts *ProjectIndex::factsFor(std::string_view Path) const {
  auto It = ByPath.find(Path);
  return It == ByPath.end() ? nullptr : &Facts[It->second];
}

size_t ProjectIndex::resolveInclude(std::string_view FromPath,
                                    const IncludeRecord &Include) const {
  if (startsWith(Include.Spec, "parmonc/")) {
    const std::string Suffix = "include/" + Include.Spec;
    for (size_t I = 0; I < Paths.size(); ++I)
      if (pathEndsWith(Paths[I], Suffix))
        return I;
    return npos;
  }
  if (!Include.Quoted)
    return npos; // system header
  // Relative to the including file's directory.
  const std::string Normal = normalizedPath(FromPath);
  const size_t Slash = Normal.rfind('/');
  const std::string Candidate =
      (Slash == std::string::npos ? "" : Normal.substr(0, Slash + 1)) +
      Include.Spec;
  auto It = ByPath.find(Candidate);
  return It == ByPath.end() ? npos : It->second;
}

void populateContextFromIndex(const ProjectIndex &Index,
                              LintContext &Context) {
  Context.NodiscardFunctions = builtinFallibleFunctions();
  for (size_t I = 0; I < Index.fileCount(); ++I) {
    const FileFacts &Facts = Index.facts(I);
    for (const std::string &Name : Facts.NodiscardFunctions)
      Context.NodiscardFunctions.insert(Name);
    const std::string &Path = Index.path(I);
    // mpsim/ and obs/ are the sanctioned concurrency layers; core/ is
    // covered by R8's direct check on its own files, so its definitions
    // are not call-edge taint (a core-to-core call would double-report).
    const bool Blessed = pathContainsComponent(Path, "mpsim") ||
                         pathContainsComponent(Path, "obs") ||
                         pathContainsComponent(Path, "core") ||
                         pathEndsWith(Path, "support/Clock.h");
    for (const std::string &Name : Facts.DefinedFunctions) {
      if (!Blessed && Facts.UsesRawSync)
        Context.TaintedFunctions.insert(Name);
      else
        Context.CleanFunctions.insert(Name);
    }
  }
}

} // namespace lint
} // namespace parmonc
