//===- parmonc/fault/FaultPlan.h - Deterministic fault injection ----------===//
//
// Part of the PARMONC reproduction library.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The fault-injection harness behind the recovery guarantees of §3.2/§3.4:
/// a FaultPlan is a deterministic, seed-driven schedule of worker crashes,
/// collector crash-at-save, message drop/duplicate/delay, bounded send
/// failures and file truncation/bit-flip corruption. A FaultInjector
/// evaluates the plan behind hooks in the communicator fabric, the run
/// engine and the results store — all off by default and zero-cost when no
/// plan is installed.
///
/// Every decision is a pure function of (Seed, Source, per-source send
/// index), never of wall time or thread interleaving, so a faulted run
/// replays identically — the property the byte-exact recovery tests in
/// tests/fault rely on.
///
//===----------------------------------------------------------------------===//

#ifndef PARMONC_FAULT_FAULTPLAN_H
#define PARMONC_FAULT_FAULTPLAN_H

#include "parmonc/obs/Metrics.h"
#include "parmonc/obs/Trace.h"
#include "parmonc/support/Clock.h"
#include "parmonc/support/Status.h"

// mclint: allow-file(R8): the injector sits behind hooks called
// concurrently from every rank (sends, file writes); its per-source send
// indices and corruption counters are the reviewed synchronization seam.
#include <cstdint>
#include <map>
#include <mutex>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

namespace parmonc {
namespace fault {

/// What happens to one message send attempt.
enum class MessageAction {
  Deliver,   ///< normal delivery
  Drop,      ///< silently lost in transit (sender believes it succeeded)
  Duplicate, ///< delivered twice
  Delay,     ///< delivered after DelayNanos of injected-clock time
  FailSend,  ///< visible send failure (the sender may retry)
};

/// The injector's verdict for one send attempt.
struct MessageDecision {
  MessageAction Action = MessageAction::Deliver;
  int64_t DelayNanos = 0; ///< only meaningful for MessageAction::Delay
};

/// Kills worker \p Rank once it has completed \p AfterRealizations
/// realizations: the rank persists its subtotal first (unless
/// \p PersistBeforeCrash is false, modeling a crash before the perpass
/// write) and then exits without sending its final snapshot.
struct WorkerCrashSpec {
  int Rank = 1;
  int64_t AfterRealizations = 1;
  bool PersistBeforeCrash = true;
  /// Process transport only (enforced by RunConfig::validate): instead of
  /// silently returning from the rank body, the worker raises SIGKILL on
  /// itself — no goodbye, no flush, no destructors. The supervisor sees
  /// EOF-without-GOODBYE and reports the terminating signal, the harshest
  /// crash the suite can stage.
  bool RaiseKillSignal = false;
};

/// Kills the collector at a save-point, before anything is written: the
/// previous checkpoint generation stays on disk and every rank stops as if
/// the job had been killed by the scheduler.
struct CollectorCrashSpec {
  int AtSavePoint = 0;    ///< 1-based save-point index; 0 = disabled
  bool AtFinalSave = false; ///< crash at the closing (post-collection) save
};

/// Corrupts the \p WriteIndex-th snapshot write whose path contains
/// \p PathSubstring, after sealing — exactly what a torn write or bit rot
/// would leave behind for the CRC layer to catch.
struct FileCorruptionSpec {
  enum class Mode {
    Truncate, ///< keep only KeepFraction of the sealed bytes
    BitFlip,  ///< flip one bit at FlipByteOffset of the sealed bytes
  };
  std::string PathSubstring;
  int WriteIndex = 0;
  Mode Action = Mode::Truncate;
  double KeepFraction = 0.5;
  size_t FlipByteOffset = 64;
};

/// A complete, deterministic fault schedule. Default-constructed plans are
/// inert (enabled() is false) and installing one costs nothing.
struct FaultPlan {
  /// Seed of the per-source decision hash (deterministic replay).
  uint64_t Seed = 1;

  /// Per-message probabilities; they partition [0, 1), so their sum must
  /// not exceed 1. Applied per (source, send index); self-sends and exempt
  /// tags are never faulted.
  double DropProbability = 0.0;
  double DuplicateProbability = 0.0;
  double DelayProbability = 0.0;
  double SendFailProbability = 0.0;

  /// Injected-clock delay for MessageAction::Delay verdicts.
  int64_t DelayNanos = 1'000'000;

  /// Message tags never faulted (e.g. the collector protocol's final tag,
  /// to model networks that lose data but not connection teardown).
  std::vector<int> ExemptTags;

  /// Scheduled worker deaths (rank >= 1; rank 0 dies via CollectorCrash).
  std::vector<WorkerCrashSpec> WorkerCrashes;

  /// Scheduled collector death.
  CollectorCrashSpec CollectorCrash;

  /// Scheduled file corruptions.
  std::vector<FileCorruptionSpec> FileCorruptions;

  /// True if any fault is configured.
  bool enabled() const;

  /// Checks ranges and cross-field constraints.
  [[nodiscard]] Status validate() const;
};

/// Evaluates a FaultPlan behind engine hooks. Thread-safe: the message and
/// file hooks are called concurrently from every rank.
class FaultInjector {
public:
  explicit FaultInjector(FaultPlan Plan);

  /// Attaches observability sinks: injected faults become fault.* counters
  /// and trace instants (lane = source rank). Timing needs \p TimeSource.
  void attachObservers(obs::MetricsRegistry *Metrics,
                       obs::TraceWriter *Trace, const Clock *TimeSource);

  const FaultPlan &plan() const { return Plan; }

  /// Verdict for one send attempt. Deterministic in (Seed, Source, the
  /// per-source attempt index); a retried attempt draws a fresh verdict.
  /// Self-sends (Source == Destination bypass the network physically) and
  /// exempt tags always deliver.
  MessageDecision onSendAttempt(int Source, int Destination, int Tag);

  /// The crash schedule for \p Rank, or null if the rank never crashes.
  const WorkerCrashSpec *workerCrash(int Rank) const;

  /// True exactly once: when the collector reaches the scheduled
  /// save-point (\p SavePointIndex is 1-based, the index the save would
  /// have) or the closing save with \p IsFinalSave set.
  bool takeCollectorCrash(int SavePointIndex, bool IsFinalSave);

  /// File-write hook: returns the corrupted contents if this write (path
  /// matched by substring, counted per spec) is scheduled to be damaged,
  /// empty otherwise.
  std::optional<std::string> corruptWrite(const std::string &Path,
                                          std::string_view Contents);

  /// Bookkeeping calls from the engine when it acts on a verdict.
  void noteWorkerCrashed(int Rank);
  void noteCollectorCrashed();

private:
  double drawUnit(int Source);
  void instant(const char *Name, int Lane);

  FaultPlan Plan;
  obs::MetricsRegistry *Metrics = nullptr;
  obs::TraceWriter *Trace = nullptr;
  const Clock *Time = nullptr;

  mutable std::mutex Mutex;
  std::map<int, uint64_t> SendIndexBySource;
  std::vector<int> CorruptionWriteCounts;
  bool CollectorCrashFired = false;
};

} // namespace fault
} // namespace parmonc

#endif // PARMONC_FAULT_FAULTPLAN_H
