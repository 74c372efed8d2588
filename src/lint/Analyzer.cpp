//===- lint/Analyzer.cpp - Project-wide lint driver -----------------------===//
//
// Part of the PARMONC reproduction library.
//
//===----------------------------------------------------------------------===//
//
// The pipeline (see Analyzer.h) runs in two cache-aware passes. Pass one
// produces FileFacts for every file — from the cache when the content hash
// matches, from a fresh lex otherwise — and from them the project index
// and the cross-file LintContext. Pass two produces raw per-file
// diagnostics — again from the cache when both the content hash and the
// context fingerprint match — then the project-wide rules, then the
// central waiver/stale-waiver/baseline filtering that turns raw findings
// into the report.
//
//===----------------------------------------------------------------------===//

#include "parmonc/lint/Analyzer.h"

#include "parmonc/lint/Baseline.h"
#include "parmonc/lint/Cache.h"
#include "parmonc/lint/CallGraph.h"
#include "parmonc/lint/Index.h"
#include "parmonc/lint/Rules.h"
#include "parmonc/lint/SourceFile.h"
#include "parmonc/lint/Summary.h"
#include "parmonc/support/Checksum.h"
#include "parmonc/support/Text.h"

#include <algorithm>
#include <atomic>   // mclint: allow(R8): the --jobs worker pool lives here
#include <filesystem>
#include <map>
#include <memory>
#include <set>
#include <thread>   // mclint: allow(R8): the --jobs worker pool lives here

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
/// a file) into \p Files, sorted later for determinism.
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

/// Fingerprint of everything cross-file that per-file diagnostics depend
/// on: the configuration plus the derived context sets.
uint32_t contextFingerprint(std::string_view ConfigStamp,
                            const LintContext &Context) {
  std::string Key(ConfigStamp);
  Key += "\nN:";
  for (const std::string &Name : Context.NodiscardFunctions)
    (Key += Name) += ',';
  Key += "\nT:";
  for (const std::string &Name : Context.TaintedFunctions)
    (Key += Name) += ',';
  Key += "\nC:";
  for (const std::string &Name : Context.CleanFunctions)
    (Key += Name) += ',';
  return crc32(Key);
}

/// The per-run state for one scanned file.
struct FileState {
  std::string Path;
  std::string Contents;
  uint32_t ContentCrc = 0;
  FileFacts Facts;
  std::string FactsBlock; ///< Serialized Facts (cache currency).
  std::unique_ptr<SourceFile> Lexed; ///< Lazily constructed.
  std::vector<std::string_view> RawLines; ///< Lazily split from Contents.
  std::vector<Diagnostic> RawDiags; ///< Per-file rules, pre-filtering.
  bool DiagsFromCache = false;
  /// Parallel to Facts.Waivers: suppressed at least one finding this run.
  std::vector<bool> WaiverUsed;

  const SourceFile &source() {
    if (!Lexed)
      Lexed = std::make_unique<SourceFile>(Path, Contents);
    return *Lexed;
  }

  const std::vector<std::string_view> &rawLines() {
    if (RawLines.empty() && !Contents.empty())
      RawLines = splitRawLines(Contents);
    return RawLines;
  }

  std::string_view rawLine(size_t Index) {
    const auto &Lines = rawLines();
    return Index < Lines.size() ? Lines[Index] : std::string_view{};
  }
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

/// Filters \p Diags through the file's waivers, marking used ones.
void filterThroughWaivers(FileState &File, std::vector<Diagnostic> &Diags) {
  if (File.Facts.Waivers.empty())
    return;
  Diags.erase(std::remove_if(Diags.begin(), Diags.end(),
                             [&](const Diagnostic &Diag) {
                               bool Suppressed = false;
                               for (size_t I = 0;
                                    I < File.Facts.Waivers.size(); ++I)
                                 if (waiverCovers(File.Facts.Waivers[I],
                                                  Diag.RuleId, Diag.Line)) {
                                   File.WaiverUsed[I] = true;
                                   Suppressed = true;
                                 }
                               return Suppressed;
                             }),
              Diags.end());
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
    Diag.Path = File.Path;
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
  std::vector<std::string> ActiveIdList;
  for (const Rule *ActiveRule : Active)
    if (ActiveIds.insert(std::string(ActiveRule->id())).second)
      ActiveIdList.push_back(std::string(ActiveRule->id()));
  const std::string ConfigStamp = cacheConfigStamp(ActiveIdList);

  // Gather the file set.
  std::vector<std::string> Paths;
  for (const std::string &Root : Options.Paths)
    if (Status Collected = collectFiles(Root, Paths); !Collected)
      return Collected;
  std::sort(Paths.begin(), Paths.end());
  Paths.erase(std::unique(Paths.begin(), Paths.end()), Paths.end());

  LintCache Cache;
  if (!Options.CachePath.empty())
    Cache.load(Options.CachePath, ConfigStamp);

  // The per-file passes are embarrassingly parallel: every worker owns
  // whole FileState slots (claimed through one shared counter), the cache
  // and context are only read, and results land in the slot their file
  // index names — so merged output is byte-identical at any job count.
  std::vector<FileState> Files(Paths.size());
  const unsigned Jobs = std::max(1u, Options.Jobs);
  const auto ForEachFile = [&](auto &&Body) {
    if (Jobs <= 1 || Files.size() <= 1) {
      for (size_t I = 0; I < Files.size(); ++I)
        Body(I);
      return;
    }
    std::atomic<size_t> NextIndex{0}; // mclint: allow(R8): worker pool
    const auto Work = [&] {
      for (size_t I = NextIndex.fetch_add(1); I < Files.size();
           I = NextIndex.fetch_add(1))
        Body(I);
    };
    std::vector<std::thread> Workers; // mclint: allow(R8): worker pool
    const unsigned Spawned =
        std::min<unsigned>(Jobs, static_cast<unsigned>(Files.size())) - 1;
    for (unsigned T = 0; T < Spawned; ++T)
      Workers.emplace_back(Work);
    Work();
    for (auto &Worker : Workers)
      Worker.join();
  };

  // Pass one: contents, hashes and facts — cached facts skip the lex.
  // I/O errors are collected per file and the first (in path order) is
  // reported, matching the serial behavior.
  std::vector<Status> PassOneErrors(Paths.size(), Status::ok());
  ForEachFile([&](size_t I) {
    FileState &File = Files[I];
    File.Path = Paths[I];
    Result<std::string> Contents = readFileToString(File.Path);
    if (!Contents) {
      PassOneErrors[I] = Contents.status();
      return;
    }
    File.Contents = std::move(Contents.value());
    File.ContentCrc = crc32(File.Contents);
    const CacheEntry *Cached = Cache.lookup(File.Path);
    bool FactsFromCache = false;
    if (Cached && Cached->ContentCrc == File.ContentCrc) {
      Result<FileFacts> Parsed = parseFileFacts(Cached->FactsBlock);
      if (Parsed) {
        File.Facts = std::move(Parsed.value());
        File.FactsBlock = Cached->FactsBlock;
        FactsFromCache = true;
      }
    }
    if (!FactsFromCache) {
      File.Facts = extractFileFacts(File.source());
      File.FactsBlock = serializeFileFacts(File.Facts);
    }
    File.WaiverUsed.assign(File.Facts.Waivers.size(), false);
  });
  for (Status &Error : PassOneErrors)
    if (!Error)
      return Error;

  // The project index and the cross-file context.
  ProjectIndex Index;
  for (FileState &File : Files)
    Index.add(File.Path, File.Facts);
  LintContext Context;
  populateContextFromIndex(Index, Context);
  const uint32_t ContextCrc = contextFingerprint(ConfigStamp, Context);

  // The interprocedural stage: call graph and bottom-up summaries, built
  // from the (possibly cached) per-function evidence — no lexing here.
  // The per-file dependency fingerprints key pass two's cached findings:
  // a changed summary re-analyzes exactly the files that can reach it.
  const CallGraph Graph = CallGraph::build(Index);
  const SummaryStore Summaries = computeSummaries(Index, Graph);
  Context.Summaries = &Summaries;
  Context.Graph = &Graph;
  const std::vector<uint32_t> DepsCrcs =
      dependencyFingerprints(Index, Graph, Summaries);

  // Pass two: raw per-file diagnostics, cache-aware.
  LintReport Report;
  Report.FileCount = Files.size();
  ForEachFile([&](size_t I) {
    FileState &File = Files[I];
    const CacheEntry *Cached = Cache.lookup(File.Path);
    if (!Options.ComputeFixes && Cached &&
        Cached->ContentCrc == File.ContentCrc && Cached->HasDiags &&
        Cached->ContextCrc == ContextCrc &&
        Cached->DepsCrc == DepsCrcs[I]) {
      File.RawDiags = Cached->Diags;
      File.DiagsFromCache = true;
      return;
    }
    for (const Rule *ActiveRule : Active)
      if (ActiveRule->isPerFile())
        ActiveRule->check(File.source(), Context, File.RawDiags);
  });
  for (const FileState &File : Files) {
    if (File.DiagsFromCache)
      ++Report.CacheHits;
    else
      ++Report.CacheMisses;
  }

  // Project-wide rules (R9) run over the index every time — they are
  // cheap once lexing is skipped, and their evidence spans files.
  std::vector<Diagnostic> ProjectDiags;
  for (const Rule *ActiveRule : Active)
    if (!ActiveRule->isPerFile())
      ActiveRule->checkProject(Index, Context, ProjectDiags);

  // Central waiver filtering: per-file diags against their own file,
  // project diags against the file each one names.
  std::map<std::string_view, FileState *> ByPath;
  for (FileState &File : Files)
    ByPath[File.Path] = &File;
  for (FileState &File : Files) {
    std::vector<Diagnostic> Kept = File.RawDiags;
    filterThroughWaivers(File, Kept);
    for (Diagnostic &Diag : Kept)
      Report.Diagnostics.push_back(std::move(Diag));
  }
  ProjectDiags.erase(
      std::remove_if(ProjectDiags.begin(), ProjectDiags.end(),
                     [&](const Diagnostic &Diag) {
                       const auto It = ByPath.find(Diag.Path);
                       if (It == ByPath.end())
                         return false;
                       FileState &File = *It->second;
                       bool Suppressed = false;
                       for (size_t I = 0; I < File.Facts.Waivers.size();
                            ++I)
                         if (waiverCovers(File.Facts.Waivers[I],
                                          Diag.RuleId, Diag.Line)) {
                           File.WaiverUsed[I] = true;
                           Suppressed = true;
                         }
                       return Suppressed;
                     }),
      ProjectDiags.end());
  for (Diagnostic &Diag : ProjectDiags)
    Report.Diagnostics.push_back(std::move(Diag));

  // R10: audit the waivers themselves, then filter the audit findings
  // through allow(R10) waivers.
  if (ActiveIds.count("R10")) {
    std::vector<Diagnostic> StaleDiags;
    for (FileState &File : Files)
      synthesizeStaleWaiverDiags(File, ActiveIds, KnownIds,
                                 Options.ComputeFixes, StaleDiags);
    StaleDiags.erase(
        std::remove_if(StaleDiags.begin(), StaleDiags.end(),
                       [&](const Diagnostic &Diag) {
                         FileState &File = *ByPath.at(Diag.Path);
                         for (const Waiver &W : File.Facts.Waivers)
                           if (waiverCovers(W, Diag.RuleId, Diag.Line))
                             return true;
                         return false;
                       }),
        StaleDiags.end());
    for (Diagnostic &Diag : StaleDiags)
      Report.Diagnostics.push_back(std::move(Diag));
  }

  // Baseline subtraction.
  const auto LineTextOf = [&](const Diagnostic &Diag) -> std::string_view {
    const auto It = ByPath.find(Diag.Path);
    if (It == ByPath.end() || Diag.Line == 0)
      return {};
    return It->second->rawLine(Diag.Line - 1);
  };
  if (!Options.BaselinePath.empty()) {
    Result<std::vector<BaselineEntry>> Entries =
        loadBaseline(Options.BaselinePath);
    if (!Entries)
      return Entries.status();
    Report.BaselineSuppressed = applyBaseline(
        std::move(Entries.value()), LineTextOf, Report.Diagnostics);
  }

  sortDiagnostics(Report.Diagnostics);
  Report.DiagnosticLineText.reserve(Report.Diagnostics.size());
  for (const Diagnostic &Diag : Report.Diagnostics)
    Report.DiagnosticLineText.emplace_back(LineTextOf(Diag));

  // Persist the cache: facts always; diagnostics only from runs that
  // computed them raw (a --fix run's diags carry fixes, which the cache
  // drops anyway, so they are stored too — minus the fix data).
  if (!Options.CachePath.empty()) {
    for (size_t I = 0; I < Files.size(); ++I) {
      FileState &File = Files[I];
      CacheEntry Entry;
      Entry.ContentCrc = File.ContentCrc;
      Entry.FactsBlock = File.FactsBlock;
      Entry.HasDiags = true;
      Entry.ContextCrc = ContextCrc;
      Entry.DepsCrc = DepsCrcs[I];
      Entry.Diags = File.RawDiags;
      for (Diagnostic &Diag : Entry.Diags)
        Diag.Fixes.clear();
      Cache.update(File.Path, std::move(Entry));
    }
    if (Status Stored = Cache.save(Options.CachePath, ConfigStamp);
        !Stored)
      return Stored;
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
