//===- parmonc/lint/Analyzer.h - Project-wide lint driver -----------------===//
//
// Part of the PARMONC reproduction library.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The driver behind the mclint tool. One run is a pipeline:
///
///   collect files -> lex / extract facts (cache-aware) -> build the
///   project index and cross-file context -> per-file rules (cache-aware)
///   -> project-wide rules (R9) -> central waiver filtering -> stale-waiver
///   synthesis (R10) -> baseline filtering -> sorted diagnostics.
///
/// Waivers are applied here, centrally, rather than inside each rule: the
/// analyzer is the only place that can know a waiver suppressed nothing
/// at all, which is exactly what R10 reports.
///
/// The library form exists so the lint test suite can run the analyzer
/// in-process against fixture trees and assert exact findings.
///
//===----------------------------------------------------------------------===//

#ifndef PARMONC_LINT_ANALYZER_H
#define PARMONC_LINT_ANALYZER_H

#include "parmonc/lint/Diagnostic.h"
#include "parmonc/support/Status.h"

#include <string>
#include <vector>

namespace parmonc {
namespace lint {

/// What to lint and how strictly.
struct AnalyzerOptions {
  /// Files and/or directories; directories are walked recursively for
  /// .h/.hpp/.cpp/.cc/.cxx files. Build trees (build*/), dot directories
  /// and lint fixture trees (fixtures/) are skipped — fixtures are full
  /// of deliberate violations and are linted by naming them as a root.
  std::vector<std::string> Paths;

  /// Rule ids or names to run ("R2".."R16", "stream-discipline");
  /// empty means all rules.
  std::vector<std::string> RuleIds;

  /// Incremental cache file (`--cache=<file>`); empty disables caching.
  std::string CachePath;

  /// Baseline to subtract from the findings (`--baseline=<file>`).
  std::string BaselinePath;

  /// Compute autofixes (R4, R10) and attach them to the diagnostics.
  /// Bypasses cached diagnostics (cached entries carry no fix data).
  bool ComputeFixes = false;

  /// Worker threads for the per-file passes (`--jobs=N`); 0 and 1 both
  /// mean serial. Only the embarrassingly parallel per-file work fans
  /// out; index construction, project rules, filtering and output order
  /// are unchanged, so results are byte-identical at any job count.
  unsigned Jobs = 1;
};

/// Outcome of one analyzer run.
struct LintReport {
  std::vector<Diagnostic> Diagnostics;
  size_t FileCount = 0;    ///< Source files scanned.
  size_t CacheHits = 0;    ///< Files whose diagnostics came from the cache.
  size_t CacheMisses = 0;  ///< Files analyzed from scratch.
  size_t BaselineSuppressed = 0; ///< Findings subtracted by the baseline.
  /// The raw text of the line each diagnostic points at, for baseline
  /// writing and SARIF fingerprints; parallel to Diagnostics.
  std::vector<std::string> DiagnosticLineText;
};

/// Runs the analyzer. Fails (as a Status) only on environmental errors —
/// unknown rule id, unreadable path, malformed baseline; rule findings
/// are data, not errors.
[[nodiscard]] Result<LintReport> runAnalyzer(const AnalyzerOptions &Options);

/// Applies the FixIts attached to \p Diags to the files on disk, editing
/// bottom-up per file so line numbers stay valid, writing atomically.
/// Returns the number of files rewritten (or the first write error).
[[nodiscard]] Result<size_t> applyFixes(const std::vector<Diagnostic> &Diags);

} // namespace lint
} // namespace parmonc

#endif // PARMONC_LINT_ANALYZER_H
