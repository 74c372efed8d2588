//===- lint/Baseline.cpp - Accepted-findings baseline ---------------------===//
//
// Part of the PARMONC reproduction library.
//
//===----------------------------------------------------------------------===//

#include "parmonc/lint/Baseline.h"

#include "parmonc/lint/Index.h"
#include "parmonc/support/Checksum.h"
#include "parmonc/support/Text.h"

#include <algorithm>
#include <charconv>
#include <map>

namespace parmonc {
namespace lint {

namespace {

void appendHex32(std::string &Out, uint32_t Value) {
  static const char Digits[] = "0123456789abcdef";
  for (int Shift = 28; Shift >= 0; Shift -= 4)
    Out.push_back(Digits[(Value >> Shift) & 0xF]);
}

uint32_t lineCrcFor(const Diagnostic &Diag,
                    const std::function<std::string_view(const Diagnostic &)>
                        &LineTextOf) {
  return crc32(trim(LineTextOf(Diag)));
}

std::string keyOf(std::string_view RuleId, std::string_view Path,
                  uint32_t LineCrc) {
  std::string Key(RuleId);
  Key.push_back(' ');
  appendHex32(Key, LineCrc);
  Key.push_back(' ');
  Key.append(normalizedPath(Path));
  return Key;
}

} // namespace

Result<std::vector<BaselineEntry>> loadBaseline(const std::string &Path) {
  Result<std::string> Contents = readFileToString(Path);
  if (!Contents)
    return Contents.status();
  std::vector<BaselineEntry> Entries;
  size_t LineNumber = 0;
  std::string_view Rest = Contents.value();
  while (!Rest.empty()) {
    ++LineNumber;
    const size_t Break = Rest.find('\n');
    std::string_view Line = Rest.substr(0, Break);
    Rest = Break == std::string_view::npos ? std::string_view{}
                                           : Rest.substr(Break + 1);
    Line = trim(Line);
    if (Line.empty() || Line.front() == '#')
      continue;
    const auto Fields = splitWhitespace(Line);
    BaselineEntry Entry;
    uint32_t Crc = 0;
    const auto HexOk = [&](std::string_view Field) {
      const auto [Ptr, Ec] = std::from_chars(
          Field.data(), Field.data() + Field.size(), Crc, 16);
      return Ec == std::errc() && Ptr == Field.data() + Field.size();
    };
    if (Fields.size() != 3 || !HexOk(Fields[1]))
      return invalidArgument("malformed baseline entry at " + Path + ":" +
                             std::to_string(LineNumber) +
                             " (want '<ruleId> <hex8> <path>')");
    Entry.RuleId = std::string(Fields[0]);
    Entry.LineCrc = Crc;
    Entry.Path = normalizedPath(Fields[2]);
    Entries.push_back(std::move(Entry));
  }
  return Entries;
}

std::string
formatBaseline(const std::vector<Diagnostic> &Diags,
               const std::function<std::string_view(const Diagnostic &)>
                   &LineTextOf) {
  std::string Out = "# mclint baseline: accepted findings, one per line.\n"
                    "# <ruleId> <crc32-of-trimmed-line> <path>\n";
  std::vector<std::string> Lines;
  Lines.reserve(Diags.size());
  for (const Diagnostic &Diag : Diags) {
    std::string Line = Diag.RuleId;
    Line.push_back(' ');
    appendHex32(Line, lineCrcFor(Diag, LineTextOf));
    Line.push_back(' ');
    Line.append(normalizedPath(Diag.Path));
    Lines.push_back(std::move(Line));
  }
  std::sort(Lines.begin(), Lines.end());
  for (const std::string &Line : Lines) {
    Out.append(Line);
    Out.push_back('\n');
  }
  return Out;
}

size_t applyBaseline(std::vector<BaselineEntry> Entries,
                     const std::function<std::string_view(const Diagnostic &)>
                         &LineTextOf,
                     std::vector<Diagnostic> &Diags) {
  std::map<std::string, size_t> Budget; // key -> remaining matches
  for (const BaselineEntry &Entry : Entries)
    ++Budget[keyOf(Entry.RuleId, Entry.Path, Entry.LineCrc)];
  const size_t Before = Diags.size();
  Diags.erase(std::remove_if(Diags.begin(), Diags.end(),
                             [&](const Diagnostic &Diag) {
                               const auto It = Budget.find(keyOf(
                                   Diag.RuleId, Diag.Path,
                                   lineCrcFor(Diag, LineTextOf)));
                               if (It == Budget.end() || It->second == 0)
                                 return false;
                               --It->second;
                               return true;
                             }),
              Diags.end());
  return Before - Diags.size();
}

} // namespace lint
} // namespace parmonc
