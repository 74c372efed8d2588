//===- fault/FaultPlan.cpp - Deterministic fault injection ---------------===//
//
// Part of the PARMONC reproduction library.
//
//===----------------------------------------------------------------------===//

#include "parmonc/fault/FaultPlan.h"

#include <algorithm>

// mclint: allow-file(R8): see the header — the injector's counters are a
// reviewed synchronization seam shared by every rank's hooks.

namespace parmonc {
namespace fault {

bool FaultPlan::enabled() const {
  return DropProbability > 0.0 || DuplicateProbability > 0.0 ||
         DelayProbability > 0.0 || SendFailProbability > 0.0 ||
         !WorkerCrashes.empty() || CollectorCrash.AtSavePoint > 0 ||
         CollectorCrash.AtFinalSave || !FileCorruptions.empty();
}

Status FaultPlan::validate() const {
  for (double Probability :
       {DropProbability, DuplicateProbability, DelayProbability,
        SendFailProbability})
    if (Probability < 0.0 || Probability > 1.0)
      return invalidArgument("fault probabilities must lie in [0, 1]");
  if (DropProbability + DuplicateProbability + DelayProbability +
          SendFailProbability >
      1.0)
    return invalidArgument(
        "fault probabilities partition [0, 1); their sum must not "
        "exceed 1");
  if (DelayNanos < 0)
    return invalidArgument("message delay must be non-negative");
  for (const WorkerCrashSpec &Crash : WorkerCrashes) {
    if (Crash.Rank < 1)
      return invalidArgument(
          "worker crashes need rank >= 1 (rank 0 dies via the collector "
          "crash schedule)");
    if (Crash.AfterRealizations < 1)
      return invalidArgument(
          "worker crashes fire after at least one realization");
  }
  if (CollectorCrash.AtSavePoint < 0)
    return invalidArgument("collector crash save-point must be >= 0");
  for (const FileCorruptionSpec &Corruption : FileCorruptions) {
    if (Corruption.PathSubstring.empty())
      return invalidArgument("file corruption needs a path substring");
    if (Corruption.WriteIndex < 0)
      return invalidArgument("file corruption write index must be >= 0");
    if (Corruption.KeepFraction < 0.0 || Corruption.KeepFraction >= 1.0)
      return invalidArgument(
          "file corruption keep fraction must lie in [0, 1)");
  }
  return Status::ok();
}

FaultInjector::FaultInjector(FaultPlan Plan) : Plan(std::move(Plan)) {
  CorruptionWriteCounts.assign(this->Plan.FileCorruptions.size(), 0);
}

void FaultInjector::attachObservers(obs::MetricsRegistry *Metrics,
                                    obs::TraceWriter *Trace,
                                    const Clock *TimeSource) {
  this->Metrics = Metrics;
  this->Trace = Trace;
  this->Time = TimeSource;
}

void FaultInjector::instant(const char *Name, int Lane) {
  if (Trace && Time)
    Trace->instantAt(Name, Lane, Time->nowNanos());
}

double FaultInjector::drawUnit(int Source) {
  uint64_t Index;
  {
    std::lock_guard<std::mutex> Lock(Mutex);
    Index = SendIndexBySource[Source]++;
  }
  // SplitMix64-style finalizer over (seed, source, index): deterministic
  // regardless of how rank threads interleave, unlike a global counter.
  uint64_t Hash = Plan.Seed ^ (uint64_t(Source) * 0x9e3779b97f4a7c15ull) ^
                  (Index * 0xbf58476d1ce4e5b9ull);
  Hash += 0x9e3779b97f4a7c15ull;
  Hash = (Hash ^ (Hash >> 30)) * 0xbf58476d1ce4e5b9ull;
  Hash = (Hash ^ (Hash >> 27)) * 0x94d049bb133111ebull;
  Hash ^= Hash >> 31;
  return double(Hash >> 11) * 0x1.0p-53;
}

MessageDecision FaultInjector::onSendAttempt(int Source, int Destination,
                                             int Tag) {
  MessageDecision Decision;
  if (Source == Destination)
    return Decision; // self-delivery never crosses a network
  if (std::find(Plan.ExemptTags.begin(), Plan.ExemptTags.end(), Tag) !=
      Plan.ExemptTags.end())
    return Decision;
  if (Plan.DropProbability <= 0.0 && Plan.DuplicateProbability <= 0.0 &&
      Plan.DelayProbability <= 0.0 && Plan.SendFailProbability <= 0.0)
    return Decision;

  const double Draw = drawUnit(Source);
  double Threshold = Plan.DropProbability;
  if (Draw < Threshold) {
    Decision.Action = MessageAction::Drop;
    if (Metrics)
      Metrics->counter("fault.msgs_dropped").add();
    instant("fault.msg_drop", Source);
    return Decision;
  }
  Threshold += Plan.DuplicateProbability;
  if (Draw < Threshold) {
    Decision.Action = MessageAction::Duplicate;
    if (Metrics)
      Metrics->counter("fault.msgs_duplicated").add();
    instant("fault.msg_duplicate", Source);
    return Decision;
  }
  Threshold += Plan.DelayProbability;
  if (Draw < Threshold) {
    Decision.Action = MessageAction::Delay;
    Decision.DelayNanos = Plan.DelayNanos;
    if (Metrics)
      Metrics->counter("fault.msgs_delayed").add();
    instant("fault.msg_delay", Source);
    return Decision;
  }
  Threshold += Plan.SendFailProbability;
  if (Draw < Threshold) {
    Decision.Action = MessageAction::FailSend;
    if (Metrics)
      Metrics->counter("fault.send_failures").add();
    instant("fault.send_failure", Source);
    return Decision;
  }
  return Decision;
}

const WorkerCrashSpec *FaultInjector::workerCrash(int Rank) const {
  for (const WorkerCrashSpec &Crash : Plan.WorkerCrashes)
    if (Crash.Rank == Rank)
      return &Crash;
  return nullptr;
}

bool FaultInjector::takeCollectorCrash(int SavePointIndex,
                                       bool IsFinalSave) {
  const bool Scheduled =
      (IsFinalSave && Plan.CollectorCrash.AtFinalSave) ||
      (Plan.CollectorCrash.AtSavePoint > 0 &&
       SavePointIndex == Plan.CollectorCrash.AtSavePoint);
  if (!Scheduled)
    return false;
  std::lock_guard<std::mutex> Lock(Mutex);
  if (CollectorCrashFired)
    return false;
  CollectorCrashFired = true;
  return true;
}

std::optional<std::string>
FaultInjector::corruptWrite(const std::string &Path,
                            std::string_view Contents) {
  std::optional<std::string> Corrupted;
  std::lock_guard<std::mutex> Lock(Mutex);
  for (size_t Index = 0; Index < Plan.FileCorruptions.size(); ++Index) {
    const FileCorruptionSpec &Spec = Plan.FileCorruptions[Index];
    if (Path.find(Spec.PathSubstring) == std::string::npos)
      continue;
    const int MatchIndex = CorruptionWriteCounts[Index]++;
    if (MatchIndex != Spec.WriteIndex || Corrupted.has_value())
      continue;
    std::string Damaged(Contents);
    if (Spec.Action == FileCorruptionSpec::Mode::Truncate) {
      Damaged.resize(size_t(double(Damaged.size()) * Spec.KeepFraction));
    } else if (!Damaged.empty()) {
      const size_t Offset =
          std::min(Spec.FlipByteOffset, Damaged.size() - 1);
      Damaged[Offset] = char(uint8_t(Damaged[Offset]) ^ 0x01u);
    }
    Corrupted = std::move(Damaged);
    if (Metrics)
      Metrics->counter("fault.writes_corrupted").add();
    instant("fault.write_corrupted", 0);
  }
  return Corrupted;
}

void FaultInjector::noteWorkerCrashed(int Rank) {
  if (Metrics)
    Metrics->counter("fault.worker_crashes").add();
  instant("fault.worker_crash", Rank);
}

void FaultInjector::noteCollectorCrashed() {
  if (Metrics)
    Metrics->counter("fault.collector_crashes").add();
  instant("fault.collector_crash", 0);
}

} // namespace fault
} // namespace parmonc
