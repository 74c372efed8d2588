//===- lint/Analyzer.cpp - Project-wide lint driver -----------------------===//
//
// Part of the PARMONC reproduction library.
//
//===----------------------------------------------------------------------===//
//
// The pipeline (see Analyzer.h) is one serial pass per stage. Every file
// is read, lexed and reduced to FileFacts; the facts build the project
// index, the cross-file LintContext and the function summaries. Then the
// per-file rules, the project-wide rules, and the central waiver and
// stale-waiver filtering turn raw findings into the report.
//
//===----------------------------------------------------------------------===//

#include "parmonc/lint/Analyzer.h"

#include "parmonc/lint/CallGraph.h"
#include "parmonc/lint/Index.h"
#include "parmonc/lint/Rules.h"
#include "parmonc/lint/SourceFile.h"
#include "parmonc/lint/Summary.h"
#include "parmonc/support/Text.h"

#include <algorithm>
#include <filesystem>
#include <map>
#include <memory>
#include <set>

namespace parmonc {
namespace lint {

namespace {

namespace fs = std::filesystem;

bool isSourceExtension(const fs::path &Path) {
  const std::string Ext = Path.extension().string();
  return Ext == ".h" || Ext == ".hpp" || Ext == ".cpp" || Ext == ".cc" ||
         Ext == ".cxx";
}

/// Directories never worth walking into: build trees, VCS/tooling state,
/// and lint fixture trees (deliberate violations; linted only when named
/// as a root).
bool isSkippedDirectory(const fs::path &Path) {
  const std::string Name = Path.filename().string();
  return startsWith(Name, "build") || startsWith(Name, ".") ||
         Name == "fixtures";
}

/// Collects every source file under \p Root (or \p Root itself when it is
/// a file) into \p Files; uniqueFiles dedupes and sorts them.
Status collectFiles(const std::string &Root, std::vector<std::string> &Files) {
  std::error_code Error;
  const fs::file_status RootStatus = fs::status(Root, Error);
  if (Error)
    return ioError("cannot stat '" + Root + "': " + Error.message());
  if (fs::is_regular_file(RootStatus)) {
    Files.push_back(Root);
    return Status::ok();
  }
  if (!fs::is_directory(RootStatus))
    return invalidArgument("'" + Root + "' is neither a file nor a directory");

  fs::recursive_directory_iterator It(Root, Error), End;
  if (Error)
    return ioError("cannot open '" + Root + "': " + Error.message());
  for (; It != End; It.increment(Error)) {
    if (Error)
      return ioError("error walking '" + Root + "': " + Error.message());
    const fs::directory_entry &Entry = *It;
    if (Entry.is_directory()) {
      if (isSkippedDirectory(Entry.path()))
        It.disable_recursion_pending();
      continue;
    }
    if (Entry.is_regular_file() && isSourceExtension(Entry.path()))
      Files.push_back(Entry.path().generic_string());
  }
  return Status::ok();
}

/// Raw source lines of \p Contents, SourceFile's splitting rules: '\n'
/// separated, trailing '\r' stripped, empty trailing line dropped.
std::vector<std::string_view> splitRawLines(std::string_view Contents) {
  std::vector<std::string_view> Lines;
  for (std::string_view Line : splitChar(Contents, '\n')) {
    if (!Line.empty() && Line.back() == '\r')
      Line.remove_suffix(1);
    Lines.push_back(Line);
  }
  if (!Lines.empty() && Lines.back().empty())
    Lines.pop_back();
  return Lines;
}

/// Keeps one spelling per file: `x`, `./x`, `d/../x`, an absolute path or
/// a symlink to it all name one file, which is analyzed, reported and
/// fixed once, under the spelling collected first. Sorted for determinism.
std::vector<std::string> uniqueFiles(const std::vector<std::string> &Paths) {
  std::set<std::string> Identities;
  std::vector<std::string> Unique;
  for (const std::string &Path : Paths) {
    std::error_code Error;
    const fs::path Canonical = fs::canonical(Path, Error);
    if (Identities.insert(Error ? Path : Canonical.string()).second)
      Unique.push_back(Path);
  }
  std::sort(Unique.begin(), Unique.end());
  return Unique;
}

/// The per-run state for one scanned file.
struct FileState {
  FileState(std::string Path, std::string_view Contents)
      : Source(std::move(Path), Contents), Facts(extractFileFacts(Source)),
        WaiverUsed(Facts.Waivers.size(), false) {}

  const std::string &path() const { return Source.path(); }

  std::string_view rawLine(size_t Index) const {
    return Index < Source.lineCount() ? Source.rawLine(Index)
                                      : std::string_view{};
  }

  SourceFile Source;
  FileFacts Facts;
  /// Parallel to Facts.Waivers: suppressed at least one finding this run.
  std::vector<bool> WaiverUsed;
};

/// True when \p W suppresses a finding of \p RuleId at 1-based \p Line.
bool waiverCovers(const Waiver &W, std::string_view RuleId, unsigned Line) {
  if (W.RuleId != RuleId)
    return false;
  if (W.FileScope)
    return true;
  const uint32_t Index = Line == 0 ? 0 : Line - 1;
  return Index >= W.CoverBegin && Index <= W.CoverEnd;
}

/// True when one of \p File's waivers covers \p Diag; marks every
/// covering waiver used.
bool consumeWaivers(FileState &File, const Diagnostic &Diag) {
  bool Suppressed = false;
  for (size_t I = 0; I < File.Facts.Waivers.size(); ++I)
    if (waiverCovers(File.Facts.Waivers[I], Diag.RuleId, Diag.Line)) {
      File.WaiverUsed[I] = true;
      Suppressed = true;
    }
  return Suppressed;
}

/// The stale-waiver (R10) synthesis: one finding per waiver directive
/// whose every audited rule id suppressed nothing this run, and one per
/// directive naming an id no rule has (it can never suppress anything).
/// Waivers for known rules outside the active set are not audited (they
/// could not have fired), and allow(R10) itself is exempt — it only
/// filters.
void synthesizeStaleWaiverDiags(
    FileState &File, const std::set<std::string, std::less<>> &ActiveIds,
    const std::set<std::string, std::less<>> &KnownIds, bool ComputeFixes,
    std::vector<Diagnostic> &Out) {
  const std::vector<Waiver> &Waivers = File.Facts.Waivers;
  std::map<uint32_t, std::vector<size_t>> Groups; // directive -> waivers
  for (size_t I = 0; I < Waivers.size(); ++I)
    Groups[Waivers[I].DirectiveIndex].push_back(I);
  const auto Append = [](std::string &List, const std::string &Id) {
    if (!List.empty())
      List += ",";
    List += Id;
  };
  for (const auto &[Directive, Members] : Groups) {
    bool AllStale = true;
    std::string RuleList, Unknown;
    for (size_t I : Members) {
      const std::string &Id = Waivers[I].RuleId;
      Append(RuleList, Id);
      if (!KnownIds.count(Id))
        Append(Unknown, Id);
      else if (Id == "R10" || !ActiveIds.count(Id) || File.WaiverUsed[I])
        AllStale = false;
    }
    if (!AllStale && Unknown.empty())
      continue;
    const Waiver &First = Waivers[Members.front()];
    Diagnostic Diag;
    Diag.Path = File.path();
    Diag.Line = First.DirectiveLine + 1;
    Diag.RuleId = "R10";
    Diag.RuleName = "stale-waiver";
    Diag.Message = "waiver 'allow" +
                   std::string(First.FileScope ? "-file" : "") + "(" +
                   RuleList + ")' " +
                   (Unknown.empty()
                        ? "suppresses no finding; the covered code is "
                          "clean — remove the directive"
                        : "names no mclint rule (" + Unknown +
                              "); waive a current rule id or remove it");
    if (ComputeFixes && AllStale) {
      if (First.Standalone) {
        // The comment is the whole line (possibly several): delete them.
        for (uint32_t Line = First.DirectiveLine;
             Line <= First.DirectiveEndLine; ++Line)
          Diag.Fixes.push_back({Line + 1, true, ""});
      } else {
        // Trailing comment: cut it off, keeping the code.
        std::string_view Raw = File.rawLine(First.DirectiveLine);
        if (First.DirectiveColumn < Raw.size() &&
            Raw.substr(First.DirectiveColumn, 2) == "//") {
          std::string Kept(Raw.substr(0, First.DirectiveColumn));
          while (!Kept.empty() &&
                 (Kept.back() == ' ' || Kept.back() == '\t'))
            Kept.pop_back();
          Diag.Fixes.push_back({First.DirectiveLine + 1, false, Kept});
        }
      }
    }
    Out.push_back(std::move(Diag));
  }
}

} // namespace

Result<LintReport> runAnalyzer(const AnalyzerOptions &Options) {
  if (Options.Paths.empty())
    return invalidArgument("no paths to lint");

  // Resolve the rule subset.
  std::vector<std::unique_ptr<Rule>> AllRules = makeAllRules();
  std::vector<const Rule *> Active;
  if (Options.RuleIds.empty()) {
    for (const auto &RulePtr : AllRules)
      Active.push_back(RulePtr.get());
  } else {
    for (const std::string &Id : Options.RuleIds) {
      const Rule *Found = nullptr;
      for (const auto &RulePtr : AllRules)
        if (RulePtr->id() == Id || RulePtr->name() == Id)
          Found = RulePtr.get();
      if (!Found)
        return invalidArgument("unknown lint rule '" + Id + "'");
      Active.push_back(Found);
    }
  }
  std::set<std::string, std::less<>> ActiveIds, KnownIds;
  for (const auto &RulePtr : AllRules)
    KnownIds.insert(std::string(RulePtr->id()));
  for (const Rule *ActiveRule : Active)
    ActiveIds.insert(std::string(ActiveRule->id()));

  // Gather the file set, then read, lex and extract facts file by file.
  std::vector<std::string> Collected;
  for (const std::string &Root : Options.Paths)
    if (Status Walked = collectFiles(Root, Collected); !Walked)
      return Walked;
  const std::vector<std::string> Paths = uniqueFiles(Collected);
  std::vector<FileState> Files;
  Files.reserve(Paths.size());
  for (const std::string &Path : Paths) {
    Result<std::string> Contents = readFileToString(Path);
    if (!Contents)
      return Contents.status();
    Files.emplace_back(Path, Contents.value());
  }

  // The project index and the cross-file context.
  ProjectIndex Index;
  for (FileState &File : Files)
    Index.add(File.path(), File.Facts);
  LintContext Context;
  populateContextFromIndex(Index, Context);

  // The interprocedural stage: call graph and bottom-up summaries, built
  // from the per-function evidence in the facts.
  const CallGraph Graph = CallGraph::build(Index);
  const SummaryStore Summaries = computeSummaries(Index, Graph);
  Context.Summaries = &Summaries;
  Context.Graph = &Graph;

  // Per-file rules, each finding filtered through its own file's waivers.
  LintReport Report;
  Report.FileCount = Files.size();
  for (FileState &File : Files) {
    std::vector<Diagnostic> Raw;
    for (const Rule *ActiveRule : Active)
      if (ActiveRule->isPerFile())
        ActiveRule->check(File.Source, Context, Raw);
    for (Diagnostic &Diag : Raw)
      if (!consumeWaivers(File, Diag))
        Report.Diagnostics.push_back(std::move(Diag));
  }

  // Project-wide rules (R9) run over the index, their evidence spanning
  // files; each finding is filtered through the waivers of the file it
  // names.
  std::map<std::string_view, FileState *> ByPath;
  for (FileState &File : Files)
    ByPath[File.path()] = &File;
  std::vector<Diagnostic> ProjectDiags;
  for (const Rule *ActiveRule : Active)
    if (!ActiveRule->isPerFile())
      ActiveRule->checkProject(Index, Context, ProjectDiags);
  for (Diagnostic &Diag : ProjectDiags) {
    const auto It = ByPath.find(Diag.Path);
    if (It == ByPath.end() || !consumeWaivers(*It->second, Diag))
      Report.Diagnostics.push_back(std::move(Diag));
  }

  // R10: audit the waivers themselves, then filter the audit findings
  // through allow(R10) waivers.
  if (ActiveIds.count("R10"))
    for (FileState &File : Files) {
      std::vector<Diagnostic> StaleDiags;
      synthesizeStaleWaiverDiags(File, ActiveIds, KnownIds,
                                 Options.ComputeFixes, StaleDiags);
      const std::vector<Waiver> &Waivers = File.Facts.Waivers;
      for (Diagnostic &Diag : StaleDiags)
        if (std::none_of(Waivers.begin(), Waivers.end(),
                         [&](const Waiver &W) {
                           return waiverCovers(W, Diag.RuleId, Diag.Line);
                         }))
          Report.Diagnostics.push_back(std::move(Diag));
    }

  sortDiagnostics(Report.Diagnostics);
  Report.DiagnosticLineText.reserve(Report.Diagnostics.size());
  for (const Diagnostic &Diag : Report.Diagnostics) {
    const auto It = ByPath.find(Diag.Path);
    Report.DiagnosticLineText.emplace_back(
        It == ByPath.end() || Diag.Line == 0
            ? std::string_view{}
            : It->second->rawLine(Diag.Line - 1));
  }
  return Report;
}

Result<size_t> applyFixes(const std::vector<Diagnostic> &Diags) {
  // Collect edits per file; later-line edits apply first so earlier line
  // numbers stay valid. One edit per line — duplicates are dropped.
  std::map<std::string, std::map<unsigned, const FixIt *>> EditsByFile;
  for (const Diagnostic &Diag : Diags)
    for (const FixIt &Fix : Diag.Fixes)
      if (Fix.Line > 0)
        EditsByFile[Diag.Path].emplace(Fix.Line, &Fix);

  size_t FilesRewritten = 0;
  for (const auto &[Path, Edits] : EditsByFile) {
    Result<std::string> Contents = readFileToString(Path);
    if (!Contents)
      return Contents.status();
    const bool HadTrailingNewline =
        !Contents.value().empty() && Contents.value().back() == '\n';
    std::vector<std::string> Lines;
    for (std::string_view Line : splitRawLines(Contents.value()))
      Lines.emplace_back(Line);
    for (auto It = Edits.rbegin(); It != Edits.rend(); ++It) {
      const auto &[LineNumber, Fix] = *It;
      if (LineNumber > Lines.size())
        continue; // the file shrank since analysis — skip, do not guess
      if (Fix->RemoveLine)
        Lines.erase(Lines.begin() + (LineNumber - 1));
      else
        Lines[LineNumber - 1] = Fix->NewText;
    }
    std::string Rewritten;
    for (size_t I = 0; I < Lines.size(); ++I) {
      Rewritten += Lines[I];
      if (I + 1 < Lines.size() || HadTrailingNewline)
        Rewritten += '\n';
    }
    if (Status Wrote = writeFileAtomic(Path, Rewritten); !Wrote)
      return Wrote;
    ++FilesRewritten;
  }
  return FilesRewritten;
}

} // namespace lint
} // namespace parmonc
