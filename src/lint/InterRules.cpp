//===- lint/InterRules.cpp - Interprocedural rules R14-R16 ----------------===//
//
// Part of the PARMONC reproduction library.
//
//===----------------------------------------------------------------------===//
//
// The interprocedural rules: each consults the project-wide function
// summaries (Summary.h) propagated bottom-up over the call graph
// (CallGraph.h), so a finding anchored in one file can follow a call chain
// through other translation units. Witness steps in another TU carry
// FlowStep::Path, and SARIF renders the whole chain as one code flow
// spanning files.
//
//   R14 determinism-taint — wall-clock/entropy/environment reads,
//                           unordered iteration order and pointer hashing
//                           must not flow into estimator accumulation,
//                           snapshot payloads or the parmonc_exp.dat
//                           registry through any call chain.
//   R15 lock-discipline   — a field written under a lock somewhere must be
//                           locked everywhere (helpers called with the
//                           lock held count as locked); double-acquires
//                           through a callee and raw locks leaked on early
//                           return are flagged.
//   R16 deep-must-check   — a Status/Result forwarded up a call chain
//                           must be consumed by some frame; catches the
//                           `auto` wrapper R11 cannot see through.
//
// All three stand down when the summary stage did not run (Summaries is
// null), and all three are precision-first: a missed finding is
// acceptable, a false positive on the self-hosted tree is not.
//
//===----------------------------------------------------------------------===//

#include "parmonc/lint/CallGraph.h"
#include "parmonc/lint/Rules.h"
#include "parmonc/lint/Summary.h"

namespace parmonc {
namespace lint {

namespace {

/// The token index just past the matching ')' of the '(' at \p Open.
size_t matchingCloseParen(const std::vector<Token> &Tokens, size_t Open,
                          size_t End) {
  int Depth = 0;
  for (size_t I = Open; I < End; ++I) {
    if (isPunctTok(Tokens[I], '('))
      ++Depth;
    else if (isPunctTok(Tokens[I], ')') && --Depth == 0)
      return I;
  }
  return End;
}

/// Files whose functions may legitimately carry nondeterminism (mirrors
/// the summary engine's sanctioning): the obs/ trace layer timestamps
/// deliberately and support/Clock.h is the approved wall-clock seam.
bool isSanctionedTaintFile(std::string_view Path) {
  return pathContainsComponent(Path, "obs") ||
         pathEndsWith(Path, "support/Clock.h") ||
         pathEndsWith(Path, "support/Clock.cpp");
}

/// Where a tainted value entered the current body.
struct TaintHit {
  TaintKind Kind = TaintKind::WallClock;
  /// The callee the taint arrives through; empty for a direct source.
  std::string Via;
  uint32_t Line = 0;   ///< 0-based line of the local source / call.
  uint32_t Column = 0; ///< 0-based column.
};

/// Scans token range [Begin, End) for a determinism-taint source: a direct
/// source call/name, or a call to a function whose summary carries taint.
bool findTaintInRange(const std::vector<Token> &Tokens, size_t Begin,
                      size_t End, const SummaryStore &Summaries,
                      TaintHit &Out) {
  for (size_t I = Begin; I < End; ++I) {
    const Token &T = Tokens[I];
    if (T.Kind != TokenKind::Identifier)
      continue;
    TaintKind Direct;
    if (taintTypeName(T.Text, Direct)) {
      Out = {Direct, std::string(), T.Line, T.Column};
      return true;
    }
    const size_t Next = nextCodeTok(Tokens, I, End);
    if (Next >= End || !isPunctTok(Tokens[Next], '('))
      continue;
    if (taintCallName(T.Text, Direct)) {
      Out = {Direct, std::string(), T.Line, T.Column};
      return true;
    }
    const FunctionSummary *S = Summaries.find(T.Text);
    if (S && S->TaintsDeterminism) {
      Out = {S->TaintOrigin, T.Text, T.Line, T.Column};
      return true;
    }
  }
  return false;
}

/// Appends the cross-file taint chain behind \p Callee: one step per hop
/// through summary provenance, ending at the originating source.
void appendTaintChain(const SummaryStore &Summaries, std::string Callee,
                      TaintKind Kind, std::vector<FlowStep> &Flow) {
  std::set<std::string> Visited;
  for (unsigned Hop = 0; Hop < 10 && !Callee.empty(); ++Hop) {
    if (!Visited.insert(Callee).second)
      break;
    const FunctionSummary *S = Summaries.find(Callee);
    if (!S)
      break;
    FlowStep Step;
    Step.Line = S->TaintLine + 1;
    Step.Path = S->File;
    if (S->TaintVia.empty()) {
      Step.Message = "the " + std::string(taintKindLabel(Kind)) +
                     " originates in '" + Callee + "' here";
      Flow.push_back(std::move(Step));
      return;
    }
    Step.Message =
        "'" + Callee + "' carries it through its call to '" + S->TaintVia +
        "'";
    Flow.push_back(std::move(Step));
    Callee = S->TaintVia;
  }
}

//===----------------------------------------------------------------------===//
// R14: determinism-taint
//===----------------------------------------------------------------------===//

class DeterminismTaintRule final : public Rule {
public:
  std::string_view id() const override { return "R14"; }
  std::string_view name() const override { return "determinism-taint"; }
  std::string_view summary() const override {
    return "nondeterministic values must not flow through any call chain "
           "into determinism-critical outputs";
  }
  std::string_view rationale() const override {
    return "A PARMONC run must replay bit-identically from its stream "
           "coordinates: the eq. (5) merged moments, the sealed snapshots "
           "and the parmonc_exp.dat registry are all compared across "
           "resumes and ranks. A wall-clock read, rand() call, environment "
           "variable, unordered-container iteration order or pointer hash "
           "that leaks into any of those outputs makes two identical runs "
           "disagree — silently, because every individual value looks "
           "plausible. R2 bans the sources at the token level but cannot "
           "see a sanitized-looking helper that forwards one through two "
           "calls. This rule propagates taint bottom-up over the project "
           "call graph and flags sink calls whose arguments carry it, with "
           "the full cross-file call chain as the witness. The obs/ trace "
           "layer and support/Clock.h are sanctioned carriers: telemetry "
           "timestamps are supposed to differ between runs.";
  }
  std::string_view example() const override {
    return "  double jitter() { return double(rand()); }   // source\n"
           "  double relay() { return jitter(); }          // carrier\n"
           "  Est.accumulate(&V);  // flagged when V = relay()\n"
           "  ...\n"
           "  Obs.traceEvent(now()); // ok: obs/ is sanctioned";
  }

  void check(const SourceFile &File, const LintContext &Context,
             std::vector<Diagnostic> &Out) const override {
    if (!Context.Summaries || isSanctionedTaintFile(File.path()))
      return;
    const std::vector<Token> &Tokens = File.tokens();
    const SummaryStore &Summaries = *Context.Summaries;
    for (const FunctionCfg &Cfg : File.functions()) {
      // Locals bound to a tainted value anywhere in this body.
      struct TaintedLocal {
        TaintHit Hit;
        uint32_t DeclLine = 0;
        uint32_t DeclColumn = 0;
      };
      std::map<std::string, TaintedLocal, std::less<>> TaintedLocals;
      for (const CfgStatement &Stmt : Cfg.Statements) {
        if (Stmt.Kind != StmtKind::Plain ||
            !tokensHaveTopLevelAssignment(Tokens, Stmt))
          continue;
        // The assigned name: the identifier right before the top-level '='.
        int Depth = 0;
        size_t EqAt = Stmt.TokenEnd;
        for (size_t I = Stmt.TokenBegin; I < Stmt.TokenEnd; ++I) {
          if (isPunctTok(Tokens[I], '(') || isPunctTok(Tokens[I], '['))
            ++Depth;
          else if (isPunctTok(Tokens[I], ')') || isPunctTok(Tokens[I], ']'))
            --Depth;
          else if (Depth == 0 && isPunctTok(Tokens[I], '=')) {
            EqAt = I;
            break;
          }
        }
        if (EqAt >= Stmt.TokenEnd)
          continue;
        size_t NameAt = EqAt;
        while (NameAt > Stmt.TokenBegin &&
               Tokens[NameAt - 1].Kind == TokenKind::Comment)
          --NameAt;
        if (NameAt == Stmt.TokenBegin ||
            Tokens[NameAt - 1].Kind != TokenKind::Identifier)
          continue;
        const Token &Name = Tokens[NameAt - 1];
        TaintHit Hit;
        if (findTaintInRange(Tokens, EqAt + 1, Stmt.TokenEnd, Summaries,
                             Hit))
          TaintedLocals[Name.Text] = {Hit, Name.Line, Name.Column};
      }

      // Sink calls: flag when an argument is a tainted local or itself a
      // tainted call.
      for (size_t I = Cfg.BodyBeginToken; I < Cfg.BodyEndToken; ++I) {
        const Token &T = Tokens[I];
        if (T.Kind != TokenKind::Identifier)
          continue;
        SinkKind Sink;
        if (!sinkCallName(T.Text, Sink))
          continue;
        const size_t Open = nextCodeTok(Tokens, I, Cfg.BodyEndToken);
        if (Open >= Cfg.BodyEndToken || !isPunctTok(Tokens[Open], '('))
          continue;
        const size_t Close =
            matchingCloseParen(Tokens, Open, Cfg.BodyEndToken);
        TaintHit Hit;
        const TaintedLocal *ViaLocal = nullptr;
        std::string LocalName;
        if (!findTaintInRange(Tokens, Open + 1, Close, Summaries, Hit)) {
          for (size_t J = Open + 1; J < Close && !ViaLocal; ++J) {
            if (Tokens[J].Kind != TokenKind::Identifier)
              continue;
            const auto It = TaintedLocals.find(Tokens[J].Text);
            if (It != TaintedLocals.end()) {
              ViaLocal = &It->second;
              LocalName = It->first;
              Hit = It->second.Hit;
            }
          }
          if (!ViaLocal)
            continue;
        }
        Diagnostic Diag;
        Diag.Path = File.path();
        Diag.Line = T.Line + 1;
        Diag.Column = T.Column + 1;
        Diag.RuleId = std::string(id());
        Diag.RuleName = std::string(name());
        Diag.Message =
            "nondeterministic value (" +
            std::string(taintKindLabel(Hit.Kind)) + ") reaches " +
            std::string(sinkKindLabel(Sink)) +
            (Hit.Via.empty()
                 ? std::string()
                 : " through the call chain behind '" + Hit.Via + "'") +
            "; identical runs will disagree on replay";
        if (ViaLocal)
          Diag.Flow.push_back(
              {ViaLocal->DeclLine + 1, ViaLocal->DeclColumn + 1,
               "tainted value '" + LocalName + "' is bound here"});
        if (!Hit.Via.empty())
          appendTaintChain(Summaries, Hit.Via, Hit.Kind, Diag.Flow);
        else
          Diag.Flow.push_back({Hit.Line + 1, Hit.Column + 1,
                               "the " +
                                   std::string(taintKindLabel(Hit.Kind)) +
                                   " happens here"});
        Diag.Flow.push_back({T.Line + 1, T.Column + 1,
                             "the tainted value reaches " +
                                 std::string(sinkKindLabel(Sink)) +
                                 " here"});
        Out.push_back(std::move(Diag));
      }
    }
  }
};

//===----------------------------------------------------------------------===//
// R15: lock-discipline
//===----------------------------------------------------------------------===//

class LockDisciplineRule final : public Rule {
public:
  std::string_view id() const override { return "R15"; }
  std::string_view name() const override { return "lock-discipline"; }
  std::string_view summary() const override {
    return "fields written under a lock must be locked everywhere; no "
           "double-acquires through callees, no raw locks leaked on early "
           "return";
  }
  std::string_view rationale() const override {
    return "The mpsim/ and core/ layers share worker state across threads, "
           "and a field that is locked in nine writers and bare in the "
           "tenth is a data race that only manifests under scheduler "
           "pressure. Per-function reasoning cannot settle it: a helper "
           "with no lock of its own is fine when every caller already "
           "holds the lock, and broken otherwise. This rule decides "
           "through the call-graph summaries — a write is protected when "
           "its function locks, or when every path to the function passes "
           "a call site that holds the lock. The same summaries expose two "
           "more interprocedural hazards: calling a function that acquires "
           "a mutex the caller already holds (std::mutex is non-recursive "
           "— that is a self-deadlock, possibly three calls deep), and "
           "returning early while a raw .lock() is still held.";
  }
  std::string_view example() const override {
    return "  void bump() { ++Pending; }   // flagged: Pending is locked\n"
           "                               // in enqueue(), bump() is not\n"
           "  ...\n"
           "  std::lock_guard<std::mutex> G(M);\n"
           "  drain();  // flagged when drain() also locks M";
  }

  void check(const SourceFile &File, const LintContext &Context,
             std::vector<Diagnostic> &Out) const override {
    if (!Context.Summaries)
      return;
    if (!pathContainsComponent(File.path(), "mpsim") &&
        !pathContainsComponent(File.path(), "core"))
      return;
    const std::vector<FunctionEvidence> Evidence =
        extractFunctionEvidence(File);
    checkFieldConsistency(File, Evidence, *Context.Summaries, Out);
    checkDoubleAcquire(File, Evidence, *Context.Summaries, Out);
    checkLeakOnReturn(File, Evidence, Out);
  }

private:
  /// The column of the first identifier spelled \p Name on 0-based \p Line,
  /// 0-based; 0 when not found.
  static uint32_t columnOf(const SourceFile &File, uint32_t Line,
                           std::string_view Name) {
    for (const Token &T : File.tokens()) {
      if (T.Line > Line)
        break;
      if (T.Line == Line && T.Kind == TokenKind::Identifier &&
          T.Text == Name)
        return T.Column;
    }
    return 0;
  }

  void checkFieldConsistency(const SourceFile &File,
                             const std::vector<FunctionEvidence> &Evidence,
                             const SummaryStore &Summaries,
                             std::vector<Diagnostic> &Out) const {
    struct WriteSite {
      const FunctionEvidence *Fn = nullptr;
      const FieldWriteRecord *Write = nullptr;
    };
    std::map<std::string, std::vector<WriteSite>, std::less<>> ByField;
    for (const FunctionEvidence &Fn : Evidence)
      for (const FieldWriteRecord &Write : Fn.FieldWrites)
        ByField[Write.Field].push_back({&Fn, &Write});
    for (const auto &[Field, Sites] : ByField) {
      const WriteSite *Locked = nullptr;
      for (const WriteSite &Site : Sites)
        if (Site.Write->UnderLock) {
          Locked = &Site;
          break;
        }
      if (!Locked)
        continue;
      for (const WriteSite &Site : Sites) {
        if (Site.Write->UnderLock)
          continue;
        // A helper only ever called with the lock held writes under the
        // caller's lock — the summaries know.
        const FunctionSummary *S = Summaries.find(Site.Fn->Name);
        if (S && S->CalledUnderLock)
          continue;
        Diagnostic Diag;
        Diag.Path = File.path();
        Diag.Line = Site.Write->Line + 1;
        Diag.Column = columnOf(File, Site.Write->Line, Field) + 1;
        Diag.RuleId = std::string(id());
        Diag.RuleName = std::string(name());
        Diag.Message = "field '" + Field +
                       "' is written without a lock in '" + Site.Fn->Name +
                       "' but under a lock in '" + Locked->Fn->Name +
                       "'; either lock here or only call '" +
                       Site.Fn->Name + "' with the lock held";
        Diag.Flow.push_back(
            {Locked->Write->Line + 1,
             columnOf(File, Locked->Write->Line, Field) + 1,
             "'" + Field + "' is written under a lock in '" +
                 Locked->Fn->Name + "' here"});
        Diag.Flow.push_back({Site.Write->Line + 1,
                             columnOf(File, Site.Write->Line, Field) + 1,
                             "and without one here"});
        Out.push_back(std::move(Diag));
      }
    }
  }

  void checkDoubleAcquire(const SourceFile &File,
                          const std::vector<FunctionEvidence> &Evidence,
                          const SummaryStore &Summaries,
                          std::vector<Diagnostic> &Out) const {
    for (const FunctionEvidence &Fn : Evidence) {
      for (const CallSiteRecord &Call : Fn.Calls) {
        if (Call.HeldMutexes.empty())
          continue;
        const FunctionSummary *Callee = Summaries.find(Call.Callee);
        if (!Callee)
          continue;
        for (const std::string &Mutex : Call.HeldMutexes) {
          if (!Callee->AcquiresLocks.count(Mutex))
            continue;
          Diagnostic Diag;
          Diag.Path = File.path();
          Diag.Line = Call.Line + 1;
          Diag.Column = columnOf(File, Call.Line, Call.Callee) + 1;
          Diag.RuleId = std::string(id());
          Diag.RuleName = std::string(name());
          Diag.Message = "call to '" + Call.Callee + "' acquires '" +
                         Mutex +
                         "', which is already held at this call site; "
                         "std::mutex is non-recursive — this deadlocks";
          // Local acquire site: the last acquire of this mutex before the
          // call.
          uint32_t AcquireLine = Call.Line;
          for (const LockOpRecord &Op : Fn.LockOps)
            if (Op.Mutex == Mutex &&
                Op.Kind != LockOpRecord::Op::Release &&
                Op.Line <= Call.Line)
              AcquireLine = Op.Line;
          Diag.Flow.push_back({AcquireLine + 1,
                               columnOf(File, AcquireLine, Mutex) + 1,
                               "'" + Mutex + "' is acquired here"});
          Diag.Flow.push_back(
              {Call.Line + 1, columnOf(File, Call.Line, Call.Callee) + 1,
               "'" + Call.Callee + "' is called with it still held"});
          appendLockChain(Summaries, Call.Callee, Mutex, Diag.Flow);
          Out.push_back(std::move(Diag));
          break; // one finding per call site
        }
      }
    }
  }

  /// Steps from \p Callee down to the function that actually re-acquires
  /// \p Mutex, via the summaries' lock provenance.
  static void appendLockChain(const SummaryStore &Summaries,
                              std::string Callee, const std::string &Mutex,
                              std::vector<FlowStep> &Flow) {
    std::set<std::string> Visited;
    for (unsigned Hop = 0; Hop < 10 && !Callee.empty(); ++Hop) {
      if (!Visited.insert(Callee).second)
        break;
      const FunctionSummary *S = Summaries.find(Callee);
      if (!S)
        break;
      const auto It = S->LockVia.find(Mutex);
      if (It == S->LockVia.end())
        break;
      FlowStep Step;
      Step.Line = It->second.second + 1;
      Step.Path = S->File;
      if (It->second.first.empty()) {
        Step.Message =
            "'" + Callee + "' acquires '" + Mutex + "' again here";
        Flow.push_back(std::move(Step));
        return;
      }
      Step.Message = "'" + Callee + "' reaches the acquire through '" +
                     It->second.first + "'";
      Flow.push_back(std::move(Step));
      Callee = It->second.first;
    }
  }

  void checkLeakOnReturn(const SourceFile &File,
                         const std::vector<FunctionEvidence> &Evidence,
                         std::vector<Diagnostic> &Out) const {
    // File.functions() and the evidence vector are index-aligned: both are
    // produced by one walk over the same CFG list.
    const std::vector<FunctionCfg> &Cfgs = File.functions();
    for (size_t F = 0; F < Cfgs.size() && F < Evidence.size(); ++F) {
      const FunctionEvidence &Fn = Evidence[F];
      for (const LockOpRecord &Acquire : Fn.LockOps) {
        if (Acquire.Kind != LockOpRecord::Op::Acquire)
          continue;
        for (const CfgStatement &Stmt : Cfgs[F].Statements) {
          if (Stmt.Kind != StmtKind::Return || Stmt.Line < Acquire.Line)
            continue;
          bool Released = false;
          for (const LockOpRecord &Release : Fn.LockOps)
            if (Release.Kind == LockOpRecord::Op::Release &&
                Release.Mutex == Acquire.Mutex &&
                Release.Line >= Acquire.Line &&
                Release.Line <= Stmt.Line)
              Released = true;
          if (Released)
            continue;
          Diagnostic Diag;
          Diag.Path = File.path();
          Diag.Line = Stmt.Line + 1;
          Diag.Column = Stmt.Column + 1;
          Diag.RuleId = std::string(id());
          Diag.RuleName = std::string(name());
          Diag.Message = "this return leaves raw lock '" + Acquire.Mutex +
                         "' held; every later acquirer deadlocks — use a "
                         "scoped guard";
          Diag.Flow.push_back(
              {Acquire.Line + 1,
               columnOf(File, Acquire.Line, Acquire.Mutex) + 1,
               "'" + Acquire.Mutex + "' is locked raw here"});
          Diag.Flow.push_back({Stmt.Line + 1, Stmt.Column + 1,
                               "and still held at this return"});
          Out.push_back(std::move(Diag));
          break; // one finding per acquire
        }
      }
    }
  }
};

//===----------------------------------------------------------------------===//
// R16: deep-must-check
//===----------------------------------------------------------------------===//

class DeepMustCheckRule final : public Rule {
public:
  std::string_view id() const override { return "R16"; }
  std::string_view name() const override { return "deep-must-check"; }
  std::string_view summary() const override {
    return "a Status/Result forwarded up a call chain must be consumed by "
           "some frame";
  }
  std::string_view rationale() const override {
    return "R11 knows a call is fallible from its declaration: the "
           "[[nodiscard]] set and the spelled-out Status/Result types. A "
           "wrapper that forwards a fallible callee's result — `auto "
           "relaySave() { return deepSave(); }` — carries the same "
           "obligation with none of the spelling, so a bare call to it "
           "swallows a save-point failure two frames away from the "
           "function that detected it. This rule propagates "
           "returns-fallible bottom-up over the call graph (a function is "
           "fallible when it returns one, or forwards one with `return "
           "callee(...);`) and flags expression-statement calls whose "
           "result no frame consumes. Calls R11 already polices are left "
           "to it, and the witness path walks the forwarding chain down "
           "to the declaration that makes it fallible.";
  }
  std::string_view example() const override {
    return "  auto relaySave() { return deepSave(); } // forwards a Status\n"
           "  relaySave();       // flagged: nobody consumes the Status\n"
           "  ...\n"
           "  Status S = relaySave();\n"
           "  if (!S.ok()) ...   // ok: this frame consumes it";
  }

  void check(const SourceFile &File, const LintContext &Context,
             std::vector<Diagnostic> &Out) const override {
    if (!Context.Summaries)
      return;
    const std::vector<Token> &Tokens = File.tokens();
    const SummaryStore &Summaries = *Context.Summaries;
    for (const FunctionCfg &Cfg : File.functions()) {
      if (!Cfg.analyzable())
        continue;
      for (const CfgStatement &Stmt : Cfg.Statements) {
        // A spelled `(void)f()` discard is no bare call here either.
        size_t OpenParen = 0;
        const std::string_view Callee =
            bareCallCallee(Tokens, Stmt, OpenParen);
        if (Callee.empty())
          continue;
        const size_t First =
            skipCommentTokens(Tokens, Stmt.TokenBegin, Stmt.TokenEnd);
        if (isMacroStyleName(Tokens[First].Text))
          continue;
        // The call must be the whole statement: `f().ok();` consumes.
        const size_t Close =
            matchingCloseParen(Tokens, OpenParen, Stmt.TokenEnd);
        const size_t After = nextCodeTok(Tokens, Close, Stmt.TokenEnd);
        if (After < Stmt.TokenEnd && !isPunctTok(Tokens[After], ';'))
          continue;
        // R11 territory: declared-fallible calls are its findings.
        if (Context.NodiscardFunctions.find(Callee) !=
            Context.NodiscardFunctions.end())
          continue;
        const FunctionSummary *S = Summaries.find(Callee);
        if (!S || !S->ReturnsFallible)
          continue;
        Diagnostic Diag;
        Diag.Path = File.path();
        Diag.Line = Stmt.Line + 1;
        Diag.Column = Stmt.Column + 1;
        Diag.RuleId = std::string(id());
        Diag.RuleName = std::string(name());
        Diag.Message =
            "'" + std::string(Callee) +
            "' returns a Status/Result " +
            (S->FallibleVia.empty()
                 ? std::string("by declaration")
                 : "forwarded from '" + S->FallibleVia + "'") +
            ", and no frame consumes it; handle it or spell the discard "
            "'(void)'";
        Diag.Flow.push_back({Stmt.Line + 1, Stmt.Column + 1,
                             "the fallible result of '" +
                                 std::string(Callee) +
                                 "' is discarded here"});
        appendFallibleChain(Summaries, std::string(Callee), Diag.Flow);
        Out.push_back(std::move(Diag));
      }
    }
  }

private:
  /// Steps from \p Callee down the forwarding chain to the declaration
  /// that makes it fallible.
  static void appendFallibleChain(const SummaryStore &Summaries,
                                  std::string Callee,
                                  std::vector<FlowStep> &Flow) {
    std::set<std::string> Visited;
    for (unsigned Hop = 0; Hop < 10 && !Callee.empty(); ++Hop) {
      if (!Visited.insert(Callee).second)
        break;
      const FunctionSummary *S = Summaries.find(Callee);
      if (!S || !S->ReturnsFallible)
        break;
      FlowStep Step;
      Step.Line = S->FallibleLine + 1;
      Step.Path = S->File;
      if (S->FallibleVia.empty()) {
        Step.Message =
            "'" + Callee + "' is declared fallible (Status/Result) here";
        Flow.push_back(std::move(Step));
        return;
      }
      Step.Message = "'" + Callee + "' forwards the result of '" +
                     S->FallibleVia + "' here";
      Flow.push_back(std::move(Step));
      Callee = S->FallibleVia;
    }
  }
};

} // namespace

std::unique_ptr<Rule> makeDeterminismTaintRule() {
  return std::make_unique<DeterminismTaintRule>();
}

std::unique_ptr<Rule> makeLockDisciplineRule() {
  return std::make_unique<LockDisciplineRule>();
}

std::unique_ptr<Rule> makeDeepMustCheckRule() {
  return std::make_unique<DeepMustCheckRule>();
}

} // namespace lint
} // namespace parmonc
