//===- lint/Cache.cpp - Incremental analysis cache ------------------------===//
//
// Part of the PARMONC reproduction library.
//
//===----------------------------------------------------------------------===//

#include "parmonc/lint/Cache.h"

#include "parmonc/support/Text.h"

#include <charconv>

namespace parmonc {
namespace lint {

namespace {

constexpr std::string_view MagicLine = "mclint-cache 5";

bool parseU32(std::string_view Field, uint32_t &Out) {
  const auto [Ptr, Ec] =
      std::from_chars(Field.data(), Field.data() + Field.size(), Out);
  return Ec == std::errc() && Ptr == Field.data() + Field.size();
}

bool parseHex32(std::string_view Field, uint32_t &Out) {
  const auto [Ptr, Ec] =
      std::from_chars(Field.data(), Field.data() + Field.size(), Out, 16);
  return Ec == std::errc() && Ptr == Field.data() + Field.size();
}

void appendHex32(std::string &Out, uint32_t Value) {
  static const char Digits[] = "0123456789abcdef";
  for (int Shift = 28; Shift >= 0; Shift -= 4)
    Out.push_back(Digits[(Value >> Shift) & 0xF]);
}

/// Pulls the next line off \p Rest (consuming the newline). Returns false
/// at end of input.
bool nextLine(std::string_view &Rest, std::string_view &Line) {
  if (Rest.empty())
    return false;
  const size_t Break = Rest.find('\n');
  if (Break == std::string_view::npos) {
    Line = Rest;
    Rest = {};
  } else {
    Line = Rest.substr(0, Break);
    Rest = Rest.substr(Break + 1);
  }
  return true;
}

} // namespace

void LintCache::load(const std::string &Path,
                     std::string_view ExpectedConfig) {
  Entries.clear();
  Result<std::string> Contents = readFileToString(Path);
  if (!Contents)
    return; // no cache yet — cold run
  std::string_view Rest = Contents.value();
  std::string_view Line;
  if (!nextLine(Rest, Line) || Line != MagicLine)
    return;
  if (!nextLine(Rest, Line) || Line != ExpectedConfig)
    return; // different engine/rule configuration — rebuild

  // Entry grammar (line-oriented):
  //   file <path>
  //   crc <hex8>
  //   facts <line-count>
  //   ...facts lines...
  //   diags none | diags <hex8-context> <hex8-deps> <count>
  //   D <line> <col> <nflow> <ruleId> <ruleName> <message>  (count times)
  //   F <line> <col> <path|-> <message>         (nflow times, after its D)
  std::map<std::string, CacheEntry, std::less<>> Parsed;
  while (nextLine(Rest, Line)) {
    if (Line.empty())
      continue;
    if (!startsWith(Line, "file "))
      return; // malformed — discard everything
    CacheEntry Entry;
    const std::string FilePath(Line.substr(5));

    if (!nextLine(Rest, Line) || !startsWith(Line, "crc ") ||
        !parseHex32(Line.substr(4), Entry.ContentCrc))
      return;

    uint32_t FactsLines = 0;
    if (!nextLine(Rest, Line) || !startsWith(Line, "facts ") ||
        !parseU32(Line.substr(6), FactsLines))
      return;
    for (uint32_t I = 0; I < FactsLines; ++I) {
      if (!nextLine(Rest, Line))
        return;
      Entry.FactsBlock.append(Line);
      Entry.FactsBlock.push_back('\n');
    }

    if (!nextLine(Rest, Line) || !startsWith(Line, "diags "))
      return;
    std::string_view DiagsSpec = Line.substr(6);
    if (DiagsSpec != "none") {
      const auto SpecFields = splitWhitespace(DiagsSpec);
      uint32_t Count = 0;
      if (SpecFields.size() != 3 ||
          !parseHex32(SpecFields[0], Entry.ContextCrc) ||
          !parseHex32(SpecFields[1], Entry.DepsCrc) ||
          !parseU32(SpecFields[2], Count))
        return;
      Entry.HasDiags = true;
      for (uint32_t I = 0; I < Count; ++I) {
        if (!nextLine(Rest, Line) || !startsWith(Line, "D "))
          return;
        auto Fields = splitWhitespace(Line);
        if (Fields.size() < 6)
          return;
        Diagnostic Diag;
        uint32_t DiagLine = 0, DiagColumn = 0, FlowCount = 0;
        if (!parseU32(Fields[1], DiagLine) ||
            !parseU32(Fields[2], DiagColumn) ||
            !parseU32(Fields[3], FlowCount))
          return;
        Diag.Path = FilePath;
        Diag.Line = DiagLine;
        Diag.Column = DiagColumn;
        Diag.RuleId = std::string(Fields[4]);
        Diag.RuleName = std::string(Fields[5]);
        // The message is everything after the sixth field.
        const size_t MessageAt =
            size_t(Fields[5].data() + Fields[5].size() - Line.data());
        if (MessageAt < Line.size())
          Diag.Message = std::string(trim(Line.substr(MessageAt)));
        for (uint32_t Step = 0; Step < FlowCount; ++Step) {
          if (!nextLine(Rest, Line) || !startsWith(Line, "F "))
            return;
          auto FlowFields = splitWhitespace(Line);
          if (FlowFields.size() < 4)
            return;
          FlowStep Flow;
          uint32_t FlowLine = 0, FlowColumn = 0;
          if (!parseU32(FlowFields[1], FlowLine) ||
              !parseU32(FlowFields[2], FlowColumn))
            return;
          Flow.Line = FlowLine;
          Flow.Column = FlowColumn;
          if (FlowFields[3] != "-")
            Flow.Path = std::string(FlowFields[3]);
          const size_t FlowMessageAt = size_t(
              FlowFields[3].data() + FlowFields[3].size() - Line.data());
          if (FlowMessageAt < Line.size())
            Flow.Message = std::string(trim(Line.substr(FlowMessageAt)));
          Diag.Flow.push_back(std::move(Flow));
        }
        Entry.Diags.push_back(std::move(Diag));
      }
    }
    Parsed.emplace(FilePath, std::move(Entry));
  }
  Entries = std::move(Parsed);
}

Status LintCache::save(const std::string &Path,
                        std::string_view Config) const {
  std::string Out;
  Out.append(MagicLine);
  Out.push_back('\n');
  Out.append(Config);
  Out.push_back('\n');
  for (const auto &[FilePath, Entry] : Entries) {
    Out.append("file ").append(FilePath).push_back('\n');
    Out.append("crc ");
    appendHex32(Out, Entry.ContentCrc);
    Out.push_back('\n');
    size_t FactsLines = 0;
    for (char C : Entry.FactsBlock)
      FactsLines += C == '\n';
    Out.append("facts ").append(std::to_string(FactsLines)).push_back('\n');
    Out.append(Entry.FactsBlock);
    if (!Entry.HasDiags) {
      Out.append("diags none\n");
      continue;
    }
    Out.append("diags ");
    appendHex32(Out, Entry.ContextCrc);
    Out.push_back(' ');
    appendHex32(Out, Entry.DepsCrc);
    Out.push_back(' ');
    Out.append(std::to_string(Entry.Diags.size()));
    Out.push_back('\n');
    for (const Diagnostic &Diag : Entry.Diags) {
      Out.append("D ").append(std::to_string(Diag.Line));
      Out.push_back(' ');
      Out.append(std::to_string(Diag.Column));
      Out.push_back(' ');
      Out.append(std::to_string(Diag.Flow.size()));
      Out.push_back(' ');
      Out.append(Diag.RuleId).push_back(' ');
      Out.append(Diag.RuleName).push_back(' ');
      Out.append(Diag.Message);
      Out.push_back('\n');
      for (const FlowStep &Step : Diag.Flow) {
        Out.append("F ").append(std::to_string(Step.Line));
        Out.push_back(' ');
        Out.append(std::to_string(Step.Column));
        Out.push_back(' ');
        Out.append(Step.Path.empty() ? "-" : Step.Path);
        Out.push_back(' ');
        Out.append(Step.Message);
        Out.push_back('\n');
      }
    }
  }
  return writeFileAtomic(Path, Out);
}

const CacheEntry *LintCache::lookup(std::string_view FilePath) const {
  const auto It = Entries.find(FilePath);
  return It == Entries.end() ? nullptr : &It->second;
}

void LintCache::update(std::string FilePath, CacheEntry Entry) {
  Entries.insert_or_assign(std::move(FilePath), std::move(Entry));
}

std::string cacheConfigStamp(const std::vector<std::string> &ActiveRuleIds) {
  std::string Stamp = "config engine=5 cfg=1 rules=";
  for (size_t I = 0; I < ActiveRuleIds.size(); ++I) {
    if (I)
      Stamp.push_back(',');
    Stamp.append(ActiveRuleIds[I]);
  }
  return Stamp;
}

} // namespace lint
} // namespace parmonc
