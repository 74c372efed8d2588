//===- lint/Diagnostic.cpp - Lint finding rendering -----------------------===//
//
// Part of the PARMONC reproduction library.
//
//===----------------------------------------------------------------------===//

#include "parmonc/lint/Diagnostic.h"

#include <algorithm>
#include <tuple>

namespace parmonc {
namespace lint {

std::string formatDiagnostic(const Diagnostic &Diag, bool AsError) {
  std::string Text = Diag.Path;
  Text += ':';
  Text += std::to_string(Diag.Line);
  Text += AsError ? ": error: " : ": warning: ";
  Text += Diag.Message;
  Text += " [";
  Text += Diag.RuleId;
  Text += ':';
  Text += Diag.RuleName;
  Text += ']';
  return Text;
}

void sortDiagnostics(std::vector<Diagnostic> &Diags) {
  // A total order — column and message break (path, line, rule) ties — so
  // the output (and through it `--fix` edit application) is byte-identical
  // across rule registration order changes.
  std::stable_sort(
      Diags.begin(), Diags.end(),
      [](const Diagnostic &A, const Diagnostic &B) {
        return std::tie(A.Path, A.Line, A.RuleId, A.Column, A.Message) <
               std::tie(B.Path, B.Line, B.RuleId, B.Column, B.Message);
      });
}

} // namespace lint
} // namespace parmonc
