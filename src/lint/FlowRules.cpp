//===- lint/FlowRules.cpp - Flow-sensitive rules R11-R13 ------------------===//
//
// Part of the PARMONC reproduction library.
//
//===----------------------------------------------------------------------===//
//
// The flow-sensitive rules: each builds a small dataflow problem over the
// per-function CFGs (see Cfg.h / Dataflow.h) and reports findings with a
// step-by-step witness path that SARIF renders as a code flow.
//
//   R11 must-check       — a Status/Result value must be consumed on every
//                          path before scope exit, and a fallible call's
//                          result must not be discarded outright.
//   R12 stream-lifecycle — a StreamHierarchy/realization-stream handle
//                          must not be copied, escape by reference into a
//                          lambda, or be used after std::move handoff.
//   R13 wire-protocol    — frame sends follow the session state machine
//                          (no sends after Goodbye/Abort, no duplicate
//                          Hello) and FrameDecoder results are checked
//                          before their value is consumed.
//
// All three skip the dataflow for functions the CFG builder could not
// model soundly (goto, preprocessor directives in the body): a missed
// finding is acceptable, a finding on a path that cannot execute is not.
// R11's discarded-call check needs no paths, so it runs on those too.
//
//===----------------------------------------------------------------------===//

#include "parmonc/lint/Dataflow.h"
#include "parmonc/lint/Rules.h"

#include <algorithm>
#include <array>
#include <deque>

namespace parmonc {
namespace lint {

bool isPunctTok(const Token &T, char C) {
  return T.Kind == TokenKind::Punct && T.Text.size() == 1 && T.Text[0] == C;
}

size_t skipCommentTokens(const std::vector<Token> &Tokens, size_t I,
                         size_t End) {
  while (I < End && Tokens[I].Kind == TokenKind::Comment)
    ++I;
  return I;
}

size_t nextCodeTok(const std::vector<Token> &Tokens, size_t I, size_t End) {
  return skipCommentTokens(Tokens, I + 1, End);
}

bool tokensHaveTopLevelAssignment(const std::vector<Token> &Tokens,
                                  const CfgStatement &Stmt) {
  int Depth = 0;
  for (size_t I = Stmt.TokenBegin; I < Stmt.TokenEnd; ++I) {
    const Token &T = Tokens[I];
    if (T.Kind != TokenKind::Punct)
      continue;
    const char C = T.Text.size() == 1 ? T.Text[0] : '\0';
    if (C == '(' || C == '[' || C == '{')
      ++Depth;
    else if (C == ')' || C == ']' || C == '}')
      --Depth;
    else if (C == '=' && Depth == 0) {
      const bool PrevCmp =
          I > Stmt.TokenBegin && Tokens[I - 1].Kind == TokenKind::Punct &&
          Tokens[I - 1].Text.size() == 1 &&
          (Tokens[I - 1].Text[0] == '=' || Tokens[I - 1].Text[0] == '!' ||
           Tokens[I - 1].Text[0] == '<' || Tokens[I - 1].Text[0] == '>');
      const bool NextEq =
          I + 1 < Stmt.TokenEnd && isPunctTok(Tokens[I + 1], '=');
      if (!PrevCmp && !NextEq)
        return true;
    }
  }
  return false;
}

namespace {

/// The statement's index within its function's statement list. transfer()
/// receives references into FunctionCfg::Statements, so identity is
/// recoverable by address.
size_t stmtIndexOf(const FunctionCfg &Cfg, const CfgStatement &Stmt) {
  return static_cast<size_t>(&Stmt - Cfg.Statements.data());
}

bool stmtMentions(const std::vector<Token> &Tokens, const CfgStatement &Stmt,
                  std::string_view Name) {
  for (size_t I = Stmt.TokenBegin; I < Stmt.TokenEnd; ++I)
    if (Tokens[I].Kind == TokenKind::Identifier && Tokens[I].Text == Name)
      return true;
  return false;
}

bool isStatementKeywordName(std::string_view Name) {
  static constexpr std::array<std::string_view, 19> Keywords = {
      "return",   "if",       "while",    "for",     "switch",
      "else",     "do",       "case",     "goto",    "co_return",
      "co_yield", "co_await", "throw",    "using",   "typedef",
      "template", "delete",   "static_assert", "new"};
  return std::find(Keywords.begin(), Keywords.end(), Name) != Keywords.end();
}

/// Parses a call chain `name ((:: | . | ->) name)*` starting at \p I and
/// stopping at the first '('. Returns the final callee name and sets
/// \p OpenParen to that '(' index; empty when the tokens are not a chain.
std::string_view parseCallChain(const std::vector<Token> &Tokens, size_t I,
                                size_t End, size_t &OpenParen) {
  std::string_view Callee;
  while (I < End) {
    if (Tokens[I].Kind != TokenKind::Identifier)
      return {};
    Callee = Tokens[I].Text;
    I = nextCodeTok(Tokens, I, End);
    if (I >= End)
      return {};
    if (isPunctTok(Tokens[I], '(')) {
      OpenParen = I;
      return Callee;
    }
    if (isPunctTok(Tokens[I], ':')) {
      const size_t Second = nextCodeTok(Tokens, I, End);
      if (Second >= End || !isPunctTok(Tokens[Second], ':'))
        return {};
      I = nextCodeTok(Tokens, Second, End);
      continue;
    }
    if (isPunctTok(Tokens[I], '.')) {
      I = nextCodeTok(Tokens, I, End);
      continue;
    }
    if (isPunctTok(Tokens[I], '-')) {
      const size_t Second = nextCodeTok(Tokens, I, End);
      if (Second >= End || !isPunctTok(Tokens[Second], '>'))
        return {};
      I = nextCodeTok(Tokens, Second, End);
      continue;
    }
    return {};
  }
  return {};
}

/// A declaration-shaped statement prefix: optional cv/storage qualifiers,
/// a (possibly qualified, possibly templated) type, then the variable
/// name. TypeName is the last identifier of the type ("Status", "Result",
/// "auto", "StreamHierarchy", ...).
struct DeclShape {
  std::string_view TypeName;
  std::string_view VarName;
  size_t AfterName = 0; ///< Token index just past the variable name.
};

bool parseDeclShape(const std::vector<Token> &Tokens, const CfgStatement &Stmt,
                    DeclShape &Out) {
  const size_t End = Stmt.TokenEnd;
  size_t I = skipCommentTokens(Tokens, Stmt.TokenBegin, End);
  // Leading qualifiers.
  while (I < End && Tokens[I].Kind == TokenKind::Identifier &&
         (Tokens[I].Text == "const" || Tokens[I].Text == "static" ||
          Tokens[I].Text == "constexpr"))
    I = nextCodeTok(Tokens, I, End);
  if (I >= End || Tokens[I].Kind != TokenKind::Identifier)
    return false;
  std::string_view TypeName = Tokens[I].Text;
  if (isStatementKeywordName(TypeName))
    return false;
  I = nextCodeTok(Tokens, I, End);
  // Qualified type: A::B::C.
  while (I < End && isPunctTok(Tokens[I], ':')) {
    const size_t Second = nextCodeTok(Tokens, I, End);
    if (Second >= End || !isPunctTok(Tokens[Second], ':'))
      return false;
    const size_t Ident = nextCodeTok(Tokens, Second, End);
    if (Ident >= End || Tokens[Ident].Kind != TokenKind::Identifier)
      return false;
    TypeName = Tokens[Ident].Text;
    I = nextCodeTok(Tokens, Ident, End);
  }
  // Template arguments: balanced < ... > ('>>' is two '>' tokens).
  if (I < End && isPunctTok(Tokens[I], '<')) {
    int Depth = 0;
    while (I < End) {
      if (isPunctTok(Tokens[I], '<'))
        ++Depth;
      else if (isPunctTok(Tokens[I], '>') && --Depth == 0) {
        I = nextCodeTok(Tokens, I, End);
        break;
      }
      ++I;
      I = skipCommentTokens(Tokens, I, End);
    }
    if (Depth != 0)
      return false;
  }
  if (I >= End || Tokens[I].Kind != TokenKind::Identifier)
    return false;
  Out.TypeName = TypeName;
  Out.VarName = Tokens[I].Text;
  Out.AfterName = nextCodeTok(Tokens, I, End);
  return true;
}

/// One tracked dataflow fact: a named local value with its declaration
/// site.
struct TrackedVar {
  std::string Name;
  size_t DeclStmt = 0;  ///< Statement index of the declaration.
  uint32_t Line = 0;    ///< 0-based declaration line.
  uint32_t Column = 0;  ///< 0-based declaration column.
};

/// Map from each statement to its containing block.
std::vector<uint32_t> stmtBlockMap(const FunctionCfg &Cfg) {
  std::vector<uint32_t> Map(Cfg.Statements.size(), 0);
  for (uint32_t B = 0; B < Cfg.Blocks.size(); ++B)
    for (uint32_t S : Cfg.Blocks[B].Statements)
      Map[S] = B;
  return Map;
}

/// BFS witness path From -> To where every intermediate block satisfies
/// \p Enterable; falls back to empty when none exists.
template <typename Pred>
std::vector<uint32_t> witnessPath(const FunctionCfg &Cfg, uint32_t From,
                                  uint32_t To, Pred &&Enterable) {
  std::vector<uint32_t> Parent(Cfg.Blocks.size(), uint32_t(-1));
  std::deque<uint32_t> Queue;
  Parent[From] = From;
  Queue.push_back(From);
  while (!Queue.empty()) {
    const uint32_t Block = Queue.front();
    Queue.pop_front();
    if (Block == To)
      break;
    for (uint32_t Succ : Cfg.Blocks[Block].Successors) {
      if (Parent[Succ] != uint32_t(-1))
        continue;
      if (Succ != To && !Enterable(Succ))
        continue;
      Parent[Succ] = Block;
      Queue.push_back(Succ);
    }
  }
  if (Parent[To] == uint32_t(-1))
    return {};
  std::vector<uint32_t> Path;
  for (uint32_t Block = To; Block != From; Block = Parent[Block])
    Path.push_back(Block);
  Path.push_back(From);
  std::reverse(Path.begin(), Path.end());
  return Path;
}

/// The first statement location of a block, if it has one.
bool blockLocation(const FunctionCfg &Cfg, uint32_t Block, unsigned &Line,
                   unsigned &Column) {
  if (Cfg.Blocks[Block].Statements.empty())
    return false;
  const CfgStatement &Stmt =
      Cfg.Statements[Cfg.Blocks[Block].Statements.front()];
  Line = Stmt.Line + 1;
  Column = Stmt.Column + 1;
  return true;
}

//===----------------------------------------------------------------------===//
// R11: must-check
//===----------------------------------------------------------------------===//

/// Lattice per tracked value: 0 = not declared on this path, 2 = checked,
/// 1 = live (declared, not yet consumed). Live wins at merges, so a value
/// unchecked on ANY path to the exit stays live there.
class MustCheckClient final : public DataflowClient {
public:
  MustCheckClient(const std::vector<Token> &Tokens, const FunctionCfg &Cfg,
                  std::vector<TrackedVar> Vars)
      : Tokens(Tokens), Cfg(Cfg), Vars(std::move(Vars)) {}

  const std::vector<TrackedVar> &vars() const { return Vars; }

  size_t factCount() const override { return Vars.size(); }

  uint8_t join(uint8_t A, uint8_t B) const override {
    if (A == 0)
      return B;
    if (B == 0)
      return A;
    return (A == 1 || B == 1) ? 1 : 2;
  }

  void transfer(const CfgStatement &Stmt,
                std::vector<uint8_t> &State) const override {
    const size_t Index = stmtIndexOf(Cfg, Stmt);
    for (size_t V = 0; V < Vars.size(); ++V) {
      if (Index == Vars[V].DeclStmt)
        State[V] = 1;
      else if (State[V] != 0 && stmtMentions(Tokens, Stmt, Vars[V].Name))
        State[V] = 2;
    }
  }

private:
  const std::vector<Token> &Tokens;
  const FunctionCfg &Cfg;
  std::vector<TrackedVar> Vars;
};

class MustCheckRule final : public Rule {
public:
  std::string_view id() const override { return "R11"; }
  std::string_view name() const override { return "must-check"; }
  std::string_view summary() const override {
    return "fallible calls must not discard their Status/Result, and "
           "Status/Result values must be consumed on every path to scope "
           "exit";
  }
  std::string_view rationale() const override {
    return "Every fallible API returns Status/Result and is declared "
           "[[nodiscard]]. A discarded return is a save-point or I/O "
           "failure the run silently absorbs: the eq. (5) merged averages "
           "keep flowing with corrupted or missing subtotals and no crash "
           "ever points at the cause. The rule flags a bare call into the "
           "fallible-API set whose result is neither consumed nor cast "
           "away with (void), in every function body. A Status that is "
           "stored and then forgotten on just one branch is the same bug: "
           "the happy path checks it, the early return does not. So the "
           "rule also runs a forward dataflow over the function CFG — live "
           "values win at merge points — and flags any Status/Result local "
           "still unconsumed when some path reaches the end of the "
           "function, with the witness path attached.";
  }
  std::string_view example() const override {
    return "  writeSnapshot(Path, State);       // flagged: discarded\n"
           "  (void)writeSnapshot(Path, State); // ok: explicit\n"
           "  Status S = writeSnapshot(Path, State);\n"
           "  if (Verbose) log(S);       // flagged: unchecked when !Verbose\n"
           "  ...\n"
           "  Status S = writeSnapshot(Path, State);\n"
           "  if (!S.ok()) return S;     // ok: consumed on every path";
  }

  void check(const SourceFile &File, const LintContext &Context,
             std::vector<Diagnostic> &Out) const override {
    const std::vector<Token> &Tokens = File.tokens();
    for (const FunctionCfg &Cfg : File.functions()) {
      checkDiscards(File, Cfg, Context, Out);
      if (!Cfg.analyzable())
        continue;
      std::vector<TrackedVar> Vars = collectVars(Tokens, Cfg, Context);
      if (Vars.empty())
        continue;
      MustCheckClient Client(Tokens, Cfg, std::move(Vars));
      const DataflowResult Result = runForwardDataflow(Cfg, Client);
      if (!Result.Reached[Cfg.Exit])
        continue;
      const std::vector<uint8_t> &AtExit = Result.In[Cfg.Exit];
      for (size_t V = 0; V < Client.vars().size(); ++V) {
        if (AtExit[V] != 1)
          continue;
        const TrackedVar &Var = Client.vars()[V];
        Diagnostic Diag;
        Diag.Path = File.path();
        Diag.Line = Var.Line + 1;
        Diag.Column = Var.Column + 1;
        Diag.RuleId = std::string(id());
        Diag.RuleName = std::string(name());
        Diag.Message = "fallible value '" + Var.Name +
                       "' is not checked on every path to scope exit; "
                       "handle its Status on all branches";
        Diag.Flow = buildFlow(Tokens, Cfg, Var);
        Out.push_back(std::move(Diag));
      }
    }
  }

private:
  /// Locals whose value must be consumed: `Status X = ...`,
  /// `Result<...> X = ...`, and `auto X = <fallible>(...)`.
  static std::vector<TrackedVar> collectVars(const std::vector<Token> &Tokens,
                                             const FunctionCfg &Cfg,
                                             const LintContext &Context) {
    std::vector<TrackedVar> Vars;
    for (size_t S = 0; S < Cfg.Statements.size(); ++S) {
      const CfgStatement &Stmt = Cfg.Statements[S];
      if (Stmt.Kind != StmtKind::Plain)
        continue;
      DeclShape Shape;
      if (!parseDeclShape(Tokens, Stmt, Shape))
        continue;
      if (Shape.AfterName >= Stmt.TokenEnd ||
          !isPunctTok(Tokens[Shape.AfterName], '='))
        continue;
      bool Tracked = false;
      if (Shape.TypeName == "Status" || Shape.TypeName == "Result") {
        Tracked = true;
      } else if (Shape.TypeName == "auto") {
        size_t OpenParen = 0;
        const std::string_view Callee = parseCallChain(
            Tokens, nextCodeTok(Tokens, Shape.AfterName, Stmt.TokenEnd),
            Stmt.TokenEnd, OpenParen);
        Tracked = !Callee.empty() &&
                  Context.NodiscardFunctions.find(Callee) !=
                      Context.NodiscardFunctions.end();
      }
      if (!Tracked)
        continue;
      TrackedVar Var;
      Var.Name = std::string(Shape.VarName);
      Var.DeclStmt = S;
      Var.Line = Stmt.Line;
      Var.Column = Stmt.Column;
      // A redeclaration of the same name replaces the earlier fact; the
      // dataflow cannot distinguish shadowed locals by name alone.
      auto Existing =
          std::find_if(Vars.begin(), Vars.end(), [&](const TrackedVar &V) {
            return V.Name == Var.Name;
          });
      if (Existing != Vars.end())
        *Existing = std::move(Var);
      else
        Vars.push_back(std::move(Var));
    }
    return Vars;
  }

  /// The path-free half: a bare fallible call whose result vanishes.
  void checkDiscards(const SourceFile &File, const FunctionCfg &Cfg,
                     const LintContext &Context,
                     std::vector<Diagnostic> &Out) const {
    const std::vector<Token> &Tokens = File.tokens();
    for (const CfgStatement &Stmt : Cfg.Statements) {
      size_t OpenParen = 0;
      const std::string_view Callee = bareCallCallee(Tokens, Stmt, OpenParen);
      if (Callee.empty() || Context.NodiscardFunctions.find(Callee) ==
                                Context.NodiscardFunctions.end())
        continue;
      Diagnostic Diag;
      Diag.Path = File.path();
      Diag.Line = Stmt.Line + 1;
      Diag.Column = Stmt.Column + 1;
      Diag.RuleId = std::string(id());
      Diag.RuleName = std::string(name());
      Diag.Message = "result of fallible call '" + std::string(Callee) +
                     "' is discarded; handle the Status or spell the "
                     "discard '(void)'";
      Out.push_back(std::move(Diag));
    }
  }

  /// Witness: declaration -> blocks that avoid every consuming statement
  /// -> scope exit.
  static std::vector<FlowStep> buildFlow(const std::vector<Token> &Tokens,
                                         const FunctionCfg &Cfg,
                                         const TrackedVar &Var) {
    std::vector<FlowStep> Flow;
    Flow.push_back({Var.Line + 1, Var.Column + 1,
                    "fallible value '" + Var.Name + "' is assigned here"});
    const std::vector<uint32_t> Map = stmtBlockMap(Cfg);
    const uint32_t DeclBlock = Map[Var.DeclStmt];
    const std::vector<uint32_t> Path =
        witnessPath(Cfg, DeclBlock, Cfg.Exit, [&](uint32_t Block) {
          for (uint32_t S : Cfg.Blocks[Block].Statements)
            if (S != Var.DeclStmt &&
                stmtMentions(Tokens, Cfg.Statements[S], Var.Name))
              return false;
          return true;
        });
    size_t Steps = 0;
    for (size_t I = 1; I + 1 < Path.size() && Steps < 6; ++I) {
      unsigned Line = 0, Column = 0;
      if (blockLocation(Cfg, Path[I], Line, Column)) {
        Flow.push_back({Line, Column,
                        "control continues here without checking '" +
                            Var.Name + "'"});
        ++Steps;
      }
    }
    Flow.push_back({Cfg.BodyLastLine + 1, 1,
                    "scope exits without '" + Var.Name +
                        "' being checked on this path"});
    return Flow;
  }
};

//===----------------------------------------------------------------------===//
// R12: stream-lifecycle
//===----------------------------------------------------------------------===//

/// Lattice per handle: 0 = untracked, 1 = live, 2 = moved away. Moved
/// dominates at merges (may-analysis): if any path handed the stream off,
/// a later touch is a use-after-handoff.
class StreamLifecycleClient final : public DataflowClient {
public:
  StreamLifecycleClient(const std::vector<Token> &Tokens,
                        const FunctionCfg &Cfg, std::vector<TrackedVar> Vars)
      : Tokens(Tokens), Cfg(Cfg), Vars(std::move(Vars)) {}

  const std::vector<TrackedVar> &vars() const { return Vars; }

  size_t factCount() const override { return Vars.size(); }

  uint8_t join(uint8_t A, uint8_t B) const override {
    return std::max(A, B);
  }

  void transfer(const CfgStatement &Stmt,
                std::vector<uint8_t> &State) const override {
    const size_t Index = stmtIndexOf(Cfg, Stmt);
    for (size_t V = 0; V < Vars.size(); ++V) {
      if (Index == Vars[V].DeclStmt)
        State[V] = 1;
      else if (State[V] == 1 && stmtMovesVar(Tokens, Stmt, Vars[V].Name))
        State[V] = 2;
    }
  }

  /// True when the statement contains `move ( Name )` (with or without
  /// the std:: qualification).
  static bool stmtMovesVar(const std::vector<Token> &Tokens,
                           const CfgStatement &Stmt, std::string_view Name) {
    for (size_t I = Stmt.TokenBegin; I < Stmt.TokenEnd; ++I) {
      if (Tokens[I].Kind != TokenKind::Identifier || Tokens[I].Text != "move")
        continue;
      size_t J = nextCodeTok(Tokens, I, Stmt.TokenEnd);
      if (J >= Stmt.TokenEnd || !isPunctTok(Tokens[J], '('))
        continue;
      J = nextCodeTok(Tokens, J, Stmt.TokenEnd);
      if (J >= Stmt.TokenEnd || Tokens[J].Kind != TokenKind::Identifier ||
          Tokens[J].Text != Name)
        continue;
      J = nextCodeTok(Tokens, J, Stmt.TokenEnd);
      if (J < Stmt.TokenEnd && isPunctTok(Tokens[J], ')'))
        return true;
    }
    return false;
  }

private:
  const std::vector<Token> &Tokens;
  const FunctionCfg &Cfg;
  std::vector<TrackedVar> Vars;
};

class StreamLifecycleRule final : public Rule {
public:
  std::string_view id() const override { return "R12"; }
  std::string_view name() const override { return "stream-lifecycle"; }
  std::string_view summary() const override {
    return "stream handles must not be copied, escape by reference, or be "
           "used after handoff";
  }
  std::string_view rationale() const override {
    return "A StreamHierarchy or realization stream is a position in the "
           "eq. (8) leap partition: copying one silently forks the "
           "recurrence so two consumers replay the same substream, and "
           "touching one after it was std::move'd into a WorkerGroup races "
           "the worker that now owns it. Both corrupt the merged estimate "
           "without any crash. This rule tracks each handle through the "
           "function CFG: construction makes it live, a std::move hands it "
           "off, and any later touch — on any path — is flagged, as are "
           "copies and by-reference lambda captures that let the handle "
           "escape its scope.";
  }
  std::string_view example() const override {
    return "  Group.adopt(std::move(Stream));\n"
           "  Stream.next();                 // flagged: used after handoff\n"
           "  ...\n"
           "  StreamHierarchy Fork = Root;   // flagged: copies the stream";
  }

  void check(const SourceFile &File, const LintContext &,
             std::vector<Diagnostic> &Out) const override {
    // rng/ owns the recurrence internals; handle plumbing there is the
    // implementation itself, not a client bypassing it.
    if (pathContainsComponent(File.path(), "rng"))
      return;
    const std::vector<Token> &Tokens = File.tokens();
    for (const FunctionCfg &Cfg : File.functions()) {
      if (!Cfg.analyzable())
        continue;
      std::vector<TrackedVar> Vars = collectHandles(Tokens, Cfg);
      if (Vars.empty())
        continue;
      StreamLifecycleClient Client(Tokens, Cfg, std::move(Vars));
      const DataflowResult Result = runForwardDataflow(Cfg, Client);
      reportBlockWalk(File, Cfg, Client, Result, Out);
    }
  }

private:
  /// Handles: `StreamHierarchy X ...` declarations and
  /// `Lcg128/auto X = <cursor>.beginRealization(...)`.
  static std::vector<TrackedVar>
  collectHandles(const std::vector<Token> &Tokens, const FunctionCfg &Cfg) {
    std::vector<TrackedVar> Vars;
    for (size_t S = 0; S < Cfg.Statements.size(); ++S) {
      const CfgStatement &Stmt = Cfg.Statements[S];
      if (Stmt.Kind != StmtKind::Plain)
        continue;
      DeclShape Shape;
      if (!parseDeclShape(Tokens, Stmt, Shape))
        continue;
      bool Tracked = Shape.TypeName == "StreamHierarchy";
      if (!Tracked && (Shape.TypeName == "Lcg128" ||
                       Shape.TypeName == "auto")) {
        if (Shape.AfterName < Stmt.TokenEnd &&
            isPunctTok(Tokens[Shape.AfterName], '=')) {
          size_t OpenParen = 0;
          const std::string_view Callee = parseCallChain(
              Tokens, nextCodeTok(Tokens, Shape.AfterName, Stmt.TokenEnd),
              Stmt.TokenEnd, OpenParen);
          Tracked = Callee == "beginRealization";
        }
      }
      if (!Tracked)
        continue;
      TrackedVar Var;
      Var.Name = std::string(Shape.VarName);
      Var.DeclStmt = S;
      Var.Line = Stmt.Line;
      Var.Column = Stmt.Column;
      auto Existing =
          std::find_if(Vars.begin(), Vars.end(), [&](const TrackedVar &V) {
            return V.Name == Var.Name;
          });
      if (Existing != Vars.end())
        *Existing = std::move(Var);
      else
        Vars.push_back(std::move(Var));
    }
    return Vars;
  }

  void reportBlockWalk(const SourceFile &File, const FunctionCfg &Cfg,
                       const StreamLifecycleClient &Client,
                       const DataflowResult &Result,
                       std::vector<Diagnostic> &Out) const {
    const std::vector<Token> &Tokens = File.tokens();
    const std::vector<TrackedVar> &Vars = Client.vars();
    for (uint32_t B = 0; B < Cfg.Blocks.size(); ++B) {
      if (!Result.Reached[B])
        continue;
      std::vector<uint8_t> State = Result.In[B];
      for (uint32_t S : Cfg.Blocks[B].Statements) {
        const CfgStatement &Stmt = Cfg.Statements[S];
        for (size_t V = 0; V < Vars.size(); ++V) {
          const TrackedVar &Var = Vars[V];
          const bool Mentions = stmtMentions(Tokens, Stmt, Var.Name);
          if (!Mentions || S == Var.DeclStmt) {
            if (S == Var.DeclStmt)
              checkCopyInit(File, Tokens, Cfg, Stmt, Vars, State, Out);
            continue;
          }
          const bool Moves =
              StreamLifecycleClient::stmtMovesVar(Tokens, Stmt, Var.Name);
          if (State[V] == 2 && !Moves)
            reportUseAfterHandoff(File, Tokens, Cfg, Stmt, Var, Out);
          else if (State[V] == 1 && !Moves)
            checkLambdaEscape(File, Tokens, Stmt, Var, Out);
        }
        Client.transfer(Stmt, State);
      }
    }
  }

  /// `StreamHierarchy Y = X;` / `StreamHierarchy Y(X);` where X is a
  /// tracked handle: a copy forks the recurrence.
  void checkCopyInit(const SourceFile &File, const std::vector<Token> &Tokens,
                     const FunctionCfg &Cfg, const CfgStatement &Stmt,
                     const std::vector<TrackedVar> &Vars,
                     const std::vector<uint8_t> &State,
                     std::vector<Diagnostic> &Out) const {
    (void)Cfg;
    DeclShape Shape;
    if (!parseDeclShape(Tokens, Stmt, Shape) ||
        Shape.TypeName != "StreamHierarchy")
      return;
    size_t I = Shape.AfterName;
    if (I >= Stmt.TokenEnd)
      return;
    char Close = 0;
    if (isPunctTok(Tokens[I], '='))
      Close = ';';
    else if (isPunctTok(Tokens[I], '('))
      Close = ')';
    else if (isPunctTok(Tokens[I], '{'))
      Close = '}';
    else
      return;
    I = nextCodeTok(Tokens, I, Stmt.TokenEnd);
    if (I >= Stmt.TokenEnd || Tokens[I].Kind != TokenKind::Identifier)
      return;
    const std::string_view Source = Tokens[I].Text;
    const size_t After = nextCodeTok(Tokens, I, Stmt.TokenEnd);
    if (After >= Stmt.TokenEnd || !isPunctTok(Tokens[After], Close))
      return;
    for (size_t V = 0; V < Vars.size(); ++V) {
      if (Vars[V].Name != Source || State[V] == 0)
        continue;
      Diagnostic Diag;
      Diag.Path = File.path();
      Diag.Line = Stmt.Line + 1;
      Diag.Column = Stmt.Column + 1;
      Diag.RuleId = std::string(id());
      Diag.RuleName = std::string(name());
      Diag.Message = "'" + std::string(Shape.VarName) +
                     "' copies stream handle '" + std::string(Source) +
                     "'; a copied stream replays the same substream — "
                     "derive a child stream or move the handle";
      Diag.Flow.push_back({Vars[V].Line + 1, Vars[V].Column + 1,
                           "stream handle '" + std::string(Source) +
                               "' is created here"});
      Diag.Flow.push_back({Stmt.Line + 1, Stmt.Column + 1,
                           "copied here, forking the recurrence"});
      Out.push_back(std::move(Diag));
      return;
    }
  }

  void reportUseAfterHandoff(const SourceFile &File,
                             const std::vector<Token> &Tokens,
                             const FunctionCfg &Cfg, const CfgStatement &Stmt,
                             const TrackedVar &Var,
                             std::vector<Diagnostic> &Out) const {
    Diagnostic Diag;
    Diag.Path = File.path();
    Diag.Line = Stmt.Line + 1;
    Diag.Column = Stmt.Column + 1;
    Diag.RuleId = std::string(id());
    Diag.RuleName = std::string(name());
    Diag.Message = "stream handle '" + Var.Name +
                   "' is used after being moved; the worker that received "
                   "it owns the recurrence now";
    Diag.Flow.push_back({Var.Line + 1, Var.Column + 1,
                         "stream handle '" + Var.Name +
                             "' is created here"});
    for (const CfgStatement &Other : Cfg.Statements)
      if (StreamLifecycleClient::stmtMovesVar(Tokens, Other, Var.Name)) {
        Diag.Flow.push_back({Other.Line + 1, Other.Column + 1,
                             "handed off by std::move here"});
        break;
      }
    Diag.Flow.push_back(
        {Stmt.Line + 1, Stmt.Column + 1, "used here after the handoff"});
    Out.push_back(std::move(Diag));
  }

  /// A live handle captured by reference into a lambda within one
  /// statement: the lambda can outlive the scope that owns the stream.
  void checkLambdaEscape(const SourceFile &File,
                         const std::vector<Token> &Tokens,
                         const CfgStatement &Stmt, const TrackedVar &Var,
                         std::vector<Diagnostic> &Out) const {
    for (size_t I = Stmt.TokenBegin; I < Stmt.TokenEnd; ++I) {
      if (!isPunctTok(Tokens[I], '['))
        continue;
      const size_t Amp = nextCodeTok(Tokens, I, Stmt.TokenEnd);
      if (Amp >= Stmt.TokenEnd || !isPunctTok(Tokens[Amp], '&'))
        continue;
      // Matching ']' of the capture list.
      int Depth = 0;
      size_t CloseBracket = Stmt.TokenEnd;
      for (size_t J = I; J < Stmt.TokenEnd; ++J) {
        if (isPunctTok(Tokens[J], '['))
          ++Depth;
        else if (isPunctTok(Tokens[J], ']') && --Depth == 0) {
          CloseBracket = J;
          break;
        }
      }
      if (CloseBracket >= Stmt.TokenEnd)
        continue;
      // The lambda body: the first '{' after the capture list.
      size_t OpenBrace = Stmt.TokenEnd;
      for (size_t J = CloseBracket + 1; J < Stmt.TokenEnd; ++J)
        if (isPunctTok(Tokens[J], '{')) {
          OpenBrace = J;
          break;
        }
      if (OpenBrace >= Stmt.TokenEnd)
        continue;
      for (size_t J = OpenBrace + 1; J < Stmt.TokenEnd; ++J) {
        if (Tokens[J].Kind != TokenKind::Identifier ||
            Tokens[J].Text != Var.Name)
          continue;
        Diagnostic Diag;
        Diag.Path = File.path();
        Diag.Line = Stmt.Line + 1;
        Diag.Column = Stmt.Column + 1;
        Diag.RuleId = std::string(id());
        Diag.RuleName = std::string(name());
        Diag.Message = "stream handle '" + Var.Name +
                       "' escapes by-reference into a lambda; the capture "
                       "can outlive the rank that owns the stream";
        Diag.Flow.push_back({Var.Line + 1, Var.Column + 1,
                             "stream handle '" + Var.Name +
                                 "' is created here"});
        Diag.Flow.push_back({Tokens[J].Line + 1, Tokens[J].Column + 1,
                             "captured by reference here"});
        Out.push_back(std::move(Diag));
        return;
      }
    }
  }
};

//===----------------------------------------------------------------------===//
// R13: wire-protocol
//===----------------------------------------------------------------------===//

/// Frame kinds recognized as protocol events.
enum class SendEffect : uint8_t { None, Hello, Terminator, Other };

SendEffect sendEffectOf(std::string_view Kind) {
  if (Kind == "Hello")
    return SendEffect::Hello;
  if (Kind == "Goodbye" || Kind == "Abort")
    return SendEffect::Terminator;
  if (Kind == "Data" || Kind == "Stop")
    return SendEffect::Other;
  return SendEffect::None;
}

/// A `FrameKind::<kind>` use counts as a *send* only when it appears as a
/// call argument — the previous code token is '(' or ','. Comparisons
/// (`== FrameKind::X`; '==' lexes as two '=' tokens), case labels and
/// declarations are excluded by that test.
template <typename Callback>
void forEachSend(const std::vector<Token> &Tokens, const CfgStatement &Stmt,
                 Callback &&OnSend) {
  for (size_t I = Stmt.TokenBegin; I < Stmt.TokenEnd; ++I) {
    if (Tokens[I].Kind != TokenKind::Identifier ||
        Tokens[I].Text != "FrameKind")
      continue;
    // Previous code token.
    size_t Prev = I;
    while (Prev > Stmt.TokenBegin &&
           Tokens[Prev - 1].Kind == TokenKind::Comment)
      --Prev;
    if (Prev == Stmt.TokenBegin)
      continue;
    const Token &P = Tokens[Prev - 1];
    if (!isPunctTok(P, '(') && !isPunctTok(P, ','))
      continue;
    size_t J = nextCodeTok(Tokens, I, Stmt.TokenEnd);
    if (J >= Stmt.TokenEnd || !isPunctTok(Tokens[J], ':'))
      continue;
    J = nextCodeTok(Tokens, J, Stmt.TokenEnd);
    if (J >= Stmt.TokenEnd || !isPunctTok(Tokens[J], ':'))
      continue;
    J = nextCodeTok(Tokens, J, Stmt.TokenEnd);
    if (J >= Stmt.TokenEnd || Tokens[J].Kind != TokenKind::Identifier)
      continue;
    const SendEffect Effect = sendEffectOf(Tokens[J].Text);
    if (Effect != SendEffect::None)
      OnSend(Effect, Tokens[J]);
  }
}

/// Fact 0 is the protocol state: 0 = open, 1 = Hello sent, 2 = closed by
/// Goodbye/Abort (join = max: a close on any path poisons the merge).
/// Facts 1..N track FrameDecoder results: 0 = untracked, 2 = checked,
/// 1 = unchecked (unchecked wins at merges).
class WireProtocolClient final : public DataflowClient {
public:
  WireProtocolClient(const std::vector<Token> &Tokens, const FunctionCfg &Cfg,
                     std::vector<TrackedVar> DecodeVars)
      : Tokens(Tokens), Cfg(Cfg), DecodeVars(std::move(DecodeVars)) {}

  const std::vector<TrackedVar> &decodeVars() const { return DecodeVars; }

  size_t factCount() const override { return 1 + DecodeVars.size(); }

  uint8_t join(uint8_t A, uint8_t B) const override {
    // Used for the decode facts; the protocol fact joins through
    // joinProtocol below via the framework's elementwise call — but the
    // framework has one join for all facts, so encode both: values 0..2
    // behave identically under "live/unchecked wins" for decode facts and
    // "max" for the protocol fact only if we can tell them apart. We
    // cannot, so the protocol fact uses the shifted range 0/3/4 instead.
    if (A >= 3 || B >= 3)
      return std::max(A, B); // protocol fact: closed (4) dominates
    if (A == 0)
      return B;
    if (B == 0)
      return A;
    return (A == 1 || B == 1) ? 1 : 2;
  }

  // Protocol fact encoding.
  static constexpr uint8_t ProtoOpen = 0;
  static constexpr uint8_t ProtoHello = 3;
  static constexpr uint8_t ProtoClosed = 4;

  void transfer(const CfgStatement &Stmt,
                std::vector<uint8_t> &State) const override {
    forEachSend(Tokens, Stmt, [&](SendEffect Effect, const Token &) {
      if (Effect == SendEffect::Hello && State[0] < ProtoHello)
        State[0] = ProtoHello;
      else if (Effect == SendEffect::Terminator)
        State[0] = ProtoClosed;
    });
    const size_t Index = stmtIndexOf(Cfg, Stmt);
    for (size_t V = 0; V < DecodeVars.size(); ++V) {
      if (Index == DecodeVars[V].DeclStmt)
        State[1 + V] = 1;
      else if (State[1 + V] != 0 &&
               stmtMentions(Tokens, Stmt, DecodeVars[V].Name))
        State[1 + V] = 2;
    }
  }

private:
  const std::vector<Token> &Tokens;
  const FunctionCfg &Cfg;
  std::vector<TrackedVar> DecodeVars;
};

class WireProtocolRule final : public Rule {
public:
  std::string_view id() const override { return "R13"; }
  std::string_view name() const override { return "wire-protocol"; }
  std::string_view summary() const override {
    return "frame sends follow the session state machine and decode "
           "results are checked before use";
  }
  std::string_view rationale() const override {
    return "The mpsim wire protocol is a state machine: Hello opens a "
           "session once, Goodbye or Abort closes it, and nothing may be "
           "sent after the close — a peer that has torn down its decoder "
           "treats a late frame as corruption. Likewise FrameDecoder "
           "poisons itself permanently on a malformed frame, so consuming "
           "next()'s value without checking the Result first turns a "
           "detected protocol error into an undetected crash or, worse, a "
           "frame parsed from garbage. This rule runs the state machine "
           "along every CFG path and tracks each decode result from "
           "declaration to first use.";
  }
  std::string_view example() const override {
    return "  send(encodeFrame(FrameKind::Goodbye, {}));\n"
           "  send(encodeFrame(FrameKind::Data, P)); // flagged: after close\n"
           "  ...\n"
           "  auto F = Decoder.next();\n"
           "  use(F.value());                        // flagged: unchecked";
  }

  void check(const SourceFile &File, const LintContext &,
             std::vector<Diagnostic> &Out) const override {
    const std::vector<Token> &Tokens = File.tokens();
    // Cheap file gates: no FrameKind tokens means no protocol sends, no
    // FrameDecoder token means no decode results to track.
    bool HasFrameKind = false, HasDecoder = false;
    for (const Token &T : Tokens) {
      if (T.Kind != TokenKind::Identifier)
        continue;
      HasFrameKind |= T.Text == "FrameKind";
      HasDecoder |= T.Text == "FrameDecoder";
    }
    if (!HasFrameKind && !HasDecoder)
      return;
    for (const FunctionCfg &Cfg : File.functions()) {
      if (!Cfg.analyzable())
        continue;
      std::vector<TrackedVar> DecodeVars =
          HasDecoder ? collectDecodeVars(Tokens, Cfg)
                     : std::vector<TrackedVar>();
      WireProtocolClient Client(Tokens, Cfg, std::move(DecodeVars));
      const DataflowResult Result = runForwardDataflow(Cfg, Client);
      reportBlockWalk(File, Cfg, Client, Result, HasDecoder, Out);
    }
  }

private:
  /// Decode results: `auto/Result<...> R = <decoder>.next();` where the
  /// call is the whole initializer.
  static std::vector<TrackedVar>
  collectDecodeVars(const std::vector<Token> &Tokens, const FunctionCfg &Cfg) {
    std::vector<TrackedVar> Vars;
    for (size_t S = 0; S < Cfg.Statements.size(); ++S) {
      const CfgStatement &Stmt = Cfg.Statements[S];
      if (Stmt.Kind != StmtKind::Plain)
        continue;
      DeclShape Shape;
      if (!parseDeclShape(Tokens, Stmt, Shape))
        continue;
      if (Shape.TypeName != "auto" && Shape.TypeName != "Result")
        continue;
      if (Shape.AfterName >= Stmt.TokenEnd ||
          !isPunctTok(Tokens[Shape.AfterName], '='))
        continue;
      size_t OpenParen = 0;
      const std::string_view Callee = parseCallChain(
          Tokens, nextCodeTok(Tokens, Shape.AfterName, Stmt.TokenEnd),
          Stmt.TokenEnd, OpenParen);
      if (Callee != "next")
        continue;
      // The call must be the entire initializer: `D.next().value()` is an
      // inline use reported separately, not a tracked Result.
      size_t CloseParen = Stmt.TokenEnd;
      int Depth = 0;
      for (size_t J = OpenParen; J < Stmt.TokenEnd; ++J) {
        if (isPunctTok(Tokens[J], '('))
          ++Depth;
        else if (isPunctTok(Tokens[J], ')') && --Depth == 0) {
          CloseParen = J;
          break;
        }
      }
      if (CloseParen >= Stmt.TokenEnd)
        continue;
      const size_t After = nextCodeTok(Tokens, CloseParen, Stmt.TokenEnd);
      if (After < Stmt.TokenEnd && !isPunctTok(Tokens[After], ';'))
        continue;
      TrackedVar Var;
      Var.Name = std::string(Shape.VarName);
      Var.DeclStmt = S;
      Var.Line = Stmt.Line;
      Var.Column = Stmt.Column;
      Vars.push_back(std::move(Var));
    }
    return Vars;
  }

  void reportBlockWalk(const SourceFile &File, const FunctionCfg &Cfg,
                       const WireProtocolClient &Client,
                       const DataflowResult &Result, bool HasDecoder,
                       std::vector<Diagnostic> &Out) const {
    const std::vector<Token> &Tokens = File.tokens();
    const std::vector<TrackedVar> &Vars = Client.decodeVars();
    for (uint32_t B = 0; B < Cfg.Blocks.size(); ++B) {
      if (!Result.Reached[B])
        continue;
      std::vector<uint8_t> State = Result.In[B];
      for (uint32_t S : Cfg.Blocks[B].Statements) {
        const CfgStatement &Stmt = Cfg.Statements[S];
        // Protocol-order violations at this statement, given the state on
        // entry to it. Walk the sends in source order, updating a local
        // copy so `send(Goodbye); send(Data);` in one statement — one
        // statement holds one send in practice — still sequences.
        uint8_t Proto = State[0];
        forEachSend(Tokens, Stmt, [&](SendEffect Effect, const Token &Kind) {
          if (Proto == WireProtocolClient::ProtoClosed)
            reportSendAfterClose(File, Cfg, Stmt, Kind, Out);
          else if (Effect == SendEffect::Hello &&
                   Proto == WireProtocolClient::ProtoHello)
            reportDuplicateHello(File, Cfg, Stmt, Kind, Out);
          if (Effect == SendEffect::Hello &&
              Proto < WireProtocolClient::ProtoHello)
            Proto = WireProtocolClient::ProtoHello;
          else if (Effect == SendEffect::Terminator)
            Proto = WireProtocolClient::ProtoClosed;
        });
        if (HasDecoder)
          checkDecodeUses(File, Tokens, Stmt, Vars, State, Out);
        Client.transfer(Stmt, State);
      }
    }
    if (HasDecoder)
      checkInlineDecodeUses(File, Tokens, Cfg, Out);
  }

  /// The earliest Goodbye/Abort send in the function, for witness steps.
  static bool findCloseSite(const std::vector<Token> &Tokens,
                            const FunctionCfg &Cfg, unsigned &Line,
                            unsigned &Column) {
    for (const CfgStatement &Stmt : Cfg.Statements) {
      bool Found = false;
      forEachSend(Tokens, Stmt, [&](SendEffect Effect, const Token &Kind) {
        if (!Found && Effect == SendEffect::Terminator) {
          Line = Kind.Line + 1;
          Column = Kind.Column + 1;
          Found = true;
        }
      });
      if (Found)
        return true;
    }
    return false;
  }

  void reportSendAfterClose(const SourceFile &File, const FunctionCfg &Cfg,
                            const CfgStatement &Stmt, const Token &Kind,
                            std::vector<Diagnostic> &Out) const {
    Diagnostic Diag;
    Diag.Path = File.path();
    Diag.Line = Kind.Line + 1;
    Diag.Column = Kind.Column + 1;
    Diag.RuleId = std::string(id());
    Diag.RuleName = std::string(name());
    Diag.Message = "frame '" + Kind.Text +
                   "' is sent after the session was closed by "
                   "Goodbye/Abort on this path";
    unsigned CloseLine = 0, CloseColumn = 0;
    if (findCloseSite(File.tokens(), Cfg, CloseLine, CloseColumn))
      Diag.Flow.push_back({CloseLine, CloseColumn,
                           "the session is closed here (Goodbye/Abort)"});
    Diag.Flow.push_back({Kind.Line + 1, Kind.Column + 1,
                         "'" + Kind.Text + "' frame sent after the close"});
    (void)Stmt;
    Out.push_back(std::move(Diag));
  }

  void reportDuplicateHello(const SourceFile &File, const FunctionCfg &Cfg,
                            const CfgStatement &Stmt, const Token &Kind,
                            std::vector<Diagnostic> &Out) const {
    Diagnostic Diag;
    Diag.Path = File.path();
    Diag.Line = Kind.Line + 1;
    Diag.Column = Kind.Column + 1;
    Diag.RuleId = std::string(id());
    Diag.RuleName = std::string(name());
    Diag.Message =
        "'Hello' is sent again on a path where the session is already "
        "open; Hello must open a session exactly once";
    // Witness: the first Hello send in source order other than this one.
    for (const CfgStatement &Other : Cfg.Statements) {
      bool Found = false;
      forEachSend(File.tokens(), Other,
                  [&](SendEffect Effect, const Token &K) {
                    if (!Found && Effect == SendEffect::Hello &&
                        (K.Line != Kind.Line || K.Column != Kind.Column)) {
                      Diag.Flow.push_back({K.Line + 1, K.Column + 1,
                                           "the session is opened here"});
                      Found = true;
                    }
                  });
      if (Found)
        break;
    }
    Diag.Flow.push_back(
        {Kind.Line + 1, Kind.Column + 1, "'Hello' sent again here"});
    (void)Stmt;
    Out.push_back(std::move(Diag));
  }

  /// Value-uses of unchecked decode results within one statement, in
  /// token order: `R.value(`, `R->`, `*R` flag; any other mention checks.
  void checkDecodeUses(const SourceFile &File,
                       const std::vector<Token> &Tokens,
                       const CfgStatement &Stmt,
                       const std::vector<TrackedVar> &Vars,
                       std::vector<uint8_t> &State,
                       std::vector<Diagnostic> &Out) const {
    for (size_t V = 0; V < Vars.size(); ++V) {
      if (State[1 + V] != 1)
        continue;
      const TrackedVar &Var = Vars[V];
      for (size_t I = Stmt.TokenBegin;
           I < Stmt.TokenEnd && State[1 + V] == 1; ++I) {
        if (Tokens[I].Kind != TokenKind::Identifier ||
            Tokens[I].Text != Var.Name)
          continue;
        bool ValueUse = false;
        // `*R`
        if (I > Stmt.TokenBegin && isPunctTok(Tokens[I - 1], '*'))
          ValueUse = true;
        const size_t Next = nextCodeTok(Tokens, I, Stmt.TokenEnd);
        if (!ValueUse && Next < Stmt.TokenEnd) {
          if (isPunctTok(Tokens[Next], '.')) {
            const size_t Member = nextCodeTok(Tokens, Next, Stmt.TokenEnd);
            ValueUse = Member < Stmt.TokenEnd &&
                       Tokens[Member].Kind == TokenKind::Identifier &&
                       Tokens[Member].Text == "value";
          } else if (isPunctTok(Tokens[Next], '-')) {
            const size_t Arrow = nextCodeTok(Tokens, Next, Stmt.TokenEnd);
            ValueUse =
                Arrow < Stmt.TokenEnd && isPunctTok(Tokens[Arrow], '>');
          }
        }
        if (!ValueUse) {
          State[1 + V] = 2; // any other touch counts as a check
          break;
        }
        Diagnostic Diag;
        Diag.Path = File.path();
        Diag.Line = Tokens[I].Line + 1;
        Diag.Column = Tokens[I].Column + 1;
        Diag.RuleId = std::string(id());
        Diag.RuleName = std::string(name());
        Diag.Message = "decode result '" + Var.Name +
                       "' is used before being checked; FrameDecoder "
                       "poisons itself on malformed input — test the "
                       "Result first";
        Diag.Flow.push_back({Var.Line + 1, Var.Column + 1,
                             "decode result '" + Var.Name +
                                 "' is produced here"});
        Diag.Flow.push_back({Tokens[I].Line + 1, Tokens[I].Column + 1,
                             "its value is consumed here, unchecked"});
        Out.push_back(std::move(Diag));
        State[1 + V] = 2; // one finding per value per path
      }
    }
  }

  /// `decoder.next().value()` in one expression: the Result is never even
  /// named, so no path can have checked it.
  void checkInlineDecodeUses(const SourceFile &File,
                             const std::vector<Token> &Tokens,
                             const FunctionCfg &Cfg,
                             std::vector<Diagnostic> &Out) const {
    for (const CfgStatement &Stmt : Cfg.Statements) {
      for (size_t I = Stmt.TokenBegin; I < Stmt.TokenEnd; ++I) {
        if (Tokens[I].Kind != TokenKind::Identifier ||
            Tokens[I].Text != "next")
          continue;
        size_t J = nextCodeTok(Tokens, I, Stmt.TokenEnd);
        if (J >= Stmt.TokenEnd || !isPunctTok(Tokens[J], '('))
          continue;
        J = nextCodeTok(Tokens, J, Stmt.TokenEnd);
        if (J >= Stmt.TokenEnd || !isPunctTok(Tokens[J], ')'))
          continue;
        J = nextCodeTok(Tokens, J, Stmt.TokenEnd);
        if (J >= Stmt.TokenEnd || !isPunctTok(Tokens[J], '.'))
          continue;
        J = nextCodeTok(Tokens, J, Stmt.TokenEnd);
        if (J >= Stmt.TokenEnd || Tokens[J].Kind != TokenKind::Identifier ||
            Tokens[J].Text != "value")
          continue;
        Diagnostic Diag;
        Diag.Path = File.path();
        Diag.Line = Tokens[I].Line + 1;
        Diag.Column = Tokens[I].Column + 1;
        Diag.RuleId = std::string(id());
        Diag.RuleName = std::string(name());
        Diag.Message =
            "'.next().value()' consumes a decode result without checking "
            "it; bind the Result and test it before taking the value";
        Diag.Flow.push_back({Tokens[I].Line + 1, Tokens[I].Column + 1,
                             "the frame is decoded here"});
        Diag.Flow.push_back({Tokens[J].Line + 1, Tokens[J].Column + 1,
                             "and its value taken immediately, unchecked"});
        Out.push_back(std::move(Diag));
      }
    }
  }
};

} // namespace

std::string_view bareCallCallee(const std::vector<Token> &Tokens,
                                const CfgStatement &Stmt, size_t &OpenParen) {
  if (Stmt.Kind != StmtKind::Plain)
    return {};
  const size_t First =
      skipCommentTokens(Tokens, Stmt.TokenBegin, Stmt.TokenEnd);
  if (First >= Stmt.TokenEnd || Tokens[First].Kind != TokenKind::Identifier)
    return {}; // `(void)f()` and other cast-led statements start with '('
  if (isStatementKeywordName(Tokens[First].Text) ||
      tokensHaveTopLevelAssignment(Tokens, Stmt))
    return {};
  return parseCallChain(Tokens, First, Stmt.TokenEnd, OpenParen);
}

std::unique_ptr<Rule> makeMustCheckRule() {
  return std::make_unique<MustCheckRule>();
}

std::unique_ptr<Rule> makeStreamLifecycleRule() {
  return std::make_unique<StreamLifecycleRule>();
}

std::unique_ptr<Rule> makeWireProtocolRule() {
  return std::make_unique<WireProtocolRule>();
}

} // namespace lint
} // namespace parmonc
