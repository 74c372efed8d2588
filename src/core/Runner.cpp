//===- core/Runner.cpp - The parallel simulation engine (§3.2) -----------===//
//
// Part of the PARMONC reproduction library.
//
//===----------------------------------------------------------------------===//
//
// Roles follow §2.2 exactly: every rank simulates realizations
// asynchronously; every rank periodically sends its *cumulative* moment
// sums to rank 0; rank 0 additionally keeps the latest snapshot per rank,
// merges them with the resumed base by eq. (5), and saves results at
// save-points. Cumulative (rather than incremental) subtotals make the
// collector idempotent: a lost or reordered message can only delay
// freshness, never corrupt the average.
//
// Named parts, each written once: loadBase (the eq. 5 base),
// runRealizations (the loop every worker runs), PartialTable (latest
// partial per source — ranks at the collector, threads inside a rank),
// Collector (rank 0) and RankRunner (one rank, gluing them together).
//
//===----------------------------------------------------------------------===//

#include "parmonc/core/Runner.h"

#include "parmonc/ckpt/BackgroundWriter.h"
#include "parmonc/core/CheckpointBridge.h"
#include "parmonc/fault/FaultPlan.h"
#include "parmonc/mpsim/Communicator.h"
#include "parmonc/mpsim/Engine.h"
#include "parmonc/mpsim/Serialize.h"
#include "parmonc/rng/Philox.h"
#include "parmonc/rng/StreamHierarchy.h"
#include "parmonc/support/Contract.h"
#include "parmonc/support/Text.h"

// mclint: allow-file(R8): the engine's stop/claim flags are the one
// reviewed lock-free seam outside mpsim/ — workers and the collector share
// them by reference inside a single runEngine() invocation, and all
// cross-rank *data* still flows through the communicator protocol.
#include <algorithm>
#include <atomic>
#include <optional>
#include <vector>

namespace parmonc {

namespace {

/// Everything the worker/collector closures share. Plain atomics.
struct SharedRunState {
  std::atomic<int64_t> ClaimedVolume{0};
  std::atomic<bool> StopRequested{false};
  std::atomic<bool> StoppedOnTimeLimit{false};
  std::atomic<bool> StoppedOnErrorTarget{false};
  /// The injected collector crash fired: the run ends exactly as a killed
  /// job would — no further saves, no final collection.
  std::atomic<bool> Killed{false};
  std::atomic<int64_t> FailedSends{0};
};

/// An empty partial of the configured shape: zero moment sums and fresh
/// histograms, stamped with this run's experiment number.
MomentSnapshot emptyPartial(const RunConfig &Config) {
  MomentSnapshot Partial;
  Partial.SequenceNumber = Config.SequenceNumber;
  Partial.Moments = EstimatorMatrix(Config.Rows, Config.Columns);
  Partial.Histograms.reserve(Config.Histograms.size());
  for (const HistogramSpec &Spec : Config.Histograms)
    Partial.Histograms.emplace_back(Spec.Low, Spec.High, Spec.BinCount);
  return Partial;
}

/// True when a subtotal pass is due at \p Now after one at \p LastNanos.
bool passDue(const RunConfig &Config, int64_t Now, int64_t LastNanos) {
  return Config.PassPeriodNanos == 0 ||
         Now - LastNanos >= Config.PassPeriodNanos;
}

/// Part \p Index of \p Total split round-robin over \p Parts: the fixed
/// DeterministicSchedule quotas of maxsv per rank and of a rank's quota
/// per worker thread.
int64_t roundRobinShare(int64_t Total, int64_t Parts, int64_t Index) {
  return Total / Parts + (Index < Total % Parts ? 1 : 0);
}

/// The latest cumulative partial from each source — ranks at the
/// collector, worker threads inside a rank — and their eq. (5) merge.
/// Partials are cumulative, so the one with the larger sample volume is the
/// fresher: keeping it makes the table idempotent under duplicated,
/// delayed or reordered deliveries, and merging in source order makes the
/// result independent of arrival interleaving. Partials are kept as
/// checked payloads and decoded only when a merge needs them.
class PartialTable {
public:
  explicit PartialTable(size_t Sources)
      : Entries(Sources), Outstanding(Sources) {}

  /// Keeps \p Payload, a checked partial of \p Volume, as \p Source's
  /// latest unless a partial at least as large is kept already; a final one
  /// also retires the source. A retired source accepts nothing further.
  void store(size_t Source, std::vector<uint8_t> Payload, int64_t Volume,
             bool IsFinal) {
    Entry &Kept = Entries[Source];
    if (Kept.Finished)
      return;
    if (Volume > Kept.Volume) {
      Kept.Volume = Volume;
      Kept.Pending = std::move(Payload);
    }
    if (IsFinal)
      (void)retire(Source);
  }

  /// Marks \p Source finished; false if it already was.
  bool retire(size_t Source) {
    if (Entries[Source].Finished)
      return false;
    Entries[Source].Finished = true;
    --Outstanding;
    return true;
  }

  /// Sources that have not finished yet.
  size_t outstanding() const { return Outstanding; }

  /// Sample volume of \p Source's latest partial (0 before the first).
  int64_t volume(size_t Source) const {
    return std::max<int64_t>(Entries[Source].Volume, 0);
  }

  /// Decodes every partial stored since the last call. One that fails is
  /// dropped, its source keeping the partial decoded before it, and the
  /// first failure is returned.
  Status decodeFresh() {
    Status FirstFailure;
    for (Entry &Kept : Entries) {
      if (Kept.Pending.empty())
        continue;
      Result<MomentSnapshot> Snapshot = MomentSnapshot::fromBytes(Kept.Pending);
      Kept.Pending = std::vector<uint8_t>();
      if (Snapshot)
        Kept.Decoded = std::move(Snapshot).value();
      else if (FirstFailure.isOk())
        FirstFailure = Snapshot.status();
    }
    return FirstFailure;
  }

  /// \p Start plus every source's latest decoded partial, in source order.
  /// Shape mismatches mean a partial was decoded from a different run
  /// configuration — merging it would corrupt the eq. (5) average, so
  /// this contract stays on in release builds.
  MomentSnapshot mergedOnto(MomentSnapshot Start) const {
    for (const Entry &Kept : Entries)
      if (Kept.Decoded) {
        Status MergedOk = Start.mergeFrom(*Kept.Decoded);
        PARMONC_ASSERT(MergedOk.isOk(), "snapshot shape/geometry mismatch");
      }
    return Start;
  }

private:
  struct Entry {
    int64_t Volume = -1; // of the latest partial; -1 before the first
    std::vector<uint8_t> Pending; // stored, not decoded yet
    std::optional<MomentSnapshot> Decoded;
    bool Finished = false;
  };
  std::vector<Entry> Entries;
  size_t Outstanding;
};

/// The eq. (5) base of a run and where it came from.
struct RunBase {
  MomentSnapshot Snapshot;
  bool ResumedFromBackup = false;
  bool RestoredFromShards = false;
};

/// Resume-base loading (§3.2): res=1 loads the previous checkpoint as the
/// base; res=0 clears the previous run's files and starts from empty.
Result<RunBase> loadBase(const RunConfig &Config, const ResultsStore &Store,
                         const ckpt::CheckpointStore &Ckpt) {
  RunBase Loaded;
  Loaded.Snapshot = emptyPartial(Config);
  if (!Config.Resume) {
    if (Status Cleared = Store.clearPreviousRun(); !Cleared)
      return Cleared;
    return Loaded;
  }
  // The full recovery ladder. A sharded manifest and a legacy
  // checkpoint.dat can coexist — manaver rebuilds checkpoint.dat from the
  // subtotal files after a crash that left mid-run manifests behind — and
  // snapshots are cumulative, so whichever loadable state carries the
  // larger sample volume is the fresher one and wins. Each side falls
  // back to its own .prev generation before the comparison.
  const bool HaveManifest = Ckpt.hasAnyManifest();
  const bool HaveLegacy =
      fileExists(Store.checkpointPath()) ||
      fileExists(ResultsStore::backupPath(Store.checkpointPath()));
  if (!HaveManifest && !HaveLegacy)
    return failedPrecondition("resume requested but no checkpoint exists at " +
                              Store.checkpointPath());
  std::optional<MomentSnapshot> Sharded;
  std::optional<MomentSnapshot> Single;
  bool ShardedBackup = false;
  bool SingleBackup = false;
  Status FirstError;
  if (HaveManifest) {
    // Rebuild the merged state from base + rank shards (bit-identical to
    // the single-file path), falling back to the previous manifest
    // generation on any CRC, short-read, missing-shard or payload failure.
    Result<RecoveredCheckpoint> Recovered = restoreShardedCheckpoint(Ckpt);
    if (Recovered) {
      ShardedBackup = Recovered.value().FromBackupManifest;
      Sharded = std::move(Recovered).value().Merged;
    } else {
      FirstError = Recovered.status();
    }
  }
  if (HaveLegacy) {
    // A checkpoint that fails its CRC is never loaded; the previous
    // generation (checkpoint.dat.prev) covers the torn-write case.
    Result<ResultsStore::RecoveredSnapshot> Recovered =
        Store.readSnapshotWithFallback(Store.checkpointPath());
    if (Recovered) {
      SingleBackup = Recovered.value().FromBackup;
      Single = std::move(Recovered).value().Snapshot;
    } else if (FirstError.isOk()) {
      FirstError = Recovered.status();
    }
  }
  if (!Sharded && !Single)
    return FirstError;
  Loaded.RestoredFromShards =
      Sharded && (!Single || Sharded->Moments.sampleVolume() >=
                                 Single->Moments.sampleVolume());
  // Otherwise either a legacy-only tree, every manifest generation was
  // rejected (one more rung down the ladder — flagged as a backup
  // resume), or checkpoint.dat is strictly fresher than the best manifest.
  Loaded.ResumedFromBackup = Loaded.RestoredFromShards
                                 ? ShardedBackup
                                 : SingleBackup || (HaveManifest && !Sharded);
  MomentSnapshot Previous =
      std::move(Loaded.RestoredFromShards ? *Sharded : *Single);
  if (Previous.Moments.rows() != Config.Rows ||
      Previous.Moments.columns() != Config.Columns)
    return failedPrecondition(
        "checkpoint shape does not match the configured matrix shape");
  if (Previous.SequenceNumber == Config.SequenceNumber)
    return failedPrecondition(
        "resumed run must use a different experiment subsequence number "
        "than the previous run (paper §3.2); previous used " +
        std::to_string(Previous.SequenceNumber));
  if (Previous.Histograms.size() != Config.Histograms.size())
    return failedPrecondition(
        "checkpoint histogram count does not match the configuration");
  for (size_t Index = 0; Index < Config.Histograms.size(); ++Index) {
    const HistogramEstimator &Saved = Previous.Histograms[Index];
    const HistogramSpec &Spec = Config.Histograms[Index];
    if (Saved.low() != Spec.Low || Saved.high() != Spec.High ||
        Saved.binCount() != Spec.BinCount)
      return failedPrecondition(
          "checkpoint histogram geometry does not match the configuration");
  }
  Loaded.Snapshot = std::move(Previous);
  // The merged results of this run belong to the *new* experiment.
  Loaded.Snapshot.SequenceNumber = Config.SequenceNumber;
  return Loaded;
}

/// The leap table: an explicit parmonc_genparam.dat in the working
/// directory overrides the configured exponents (§3.5).
Result<LeapTable> loadLeapTable(const RunConfig &Config,
                                const ResultsStore &Store) {
  if (!fileExists(Store.genparamPath()))
    return LeapTable(Lcg128::defaultMultiplier(), Config.Leaps);
  Result<LeapTable> Loaded = LeapTable::loadOrDefault(Store.genparamPath());
  // Backend dispatch: Philox partitions the same (e, p, k) coordinates by
  // counter intervals, using the table's (possibly genparam-overridden)
  // exponents. A genparam *multiplier* override is LCG arithmetic with no
  // counter-based equivalent — silently ignoring it would ship different
  // numbers than the operator asked for, so it is rejected instead.
  if (Loaded && Config.RngBackend == RngBackendKind::Philox &&
      Loaded.value().baseMultiplier() != Lcg128::defaultMultiplier())
    return failedPrecondition(
        "parmonc_genparam.dat overrides the LCG multiplier, which has no "
        "counter-based equivalent; remove the override or run the lcg128 "
        "backend");
  return Loaded;
}

/// What every part of one run shares; built once by runSimulation.
struct RunContext {
  const RealizationFn &Realization;
  const RunConfig &Config;
  Clock &Time;
  obs::MetricsRegistry &Registry;
  obs::TraceWriter *Trace;
  const ResultsStore &Store;
  ckpt::CheckpointStore &Ckpt;
  fault::FaultInjector *Injector;
  const StreamHierarchy &Hierarchy;
  int64_t StartNanos;
  // Registered on the cold path: workers then only touch relaxed atomics
  // through stable references.
  obs::Counter &RealizationsTotal;
  obs::Counter &SubtotalsSent;
  obs::LatencyHistogram &RealizationLatency;
  std::vector<obs::Counter *> RankRealizations;
  SharedRunState Shared{};
};

/// The realization loop, run by the rank thread when WorkerThreadsPerRank
/// == 1 and by each worker thread otherwise: claim a realization (from
/// \p Quota, or the shared counter when it is -1), issue its stream from
/// \p Cursor, run the routine, accumulate into \p Mine, then call \p Tail
/// with whether a subtotal pass is due. \p Comm is null on worker threads,
/// whose rank thread relays stops. False when an injected crash hit.
template <typename TailFn>
bool runRealizations(RunContext &Run, int Rank, Communicator *Comm,
                     RealizationCursor &Cursor, int64_t Quota,
                     MomentSnapshot &Mine, TailFn &&Tail) {
  const RunConfig &Config = Run.Config;
  SharedRunState &Shared = Run.Shared;
  const fault::WorkerCrashSpec *Crash =
      Comm && Run.Injector ? Run.Injector->workerCrash(Rank) : nullptr;
  std::vector<double> Out(Config.Rows * Config.Columns);
  int64_t ComputeStart = 0;
  int64_t ComputeEnd = 0;
  auto compute = [&](RandomSource &Stream) {
    ComputeStart = Run.Time.nowNanos();
    Run.Realization(Stream, Out.data());
    ComputeEnd = Run.Time.nowNanos();
  };
  const int64_t Limit = Quota >= 0 ? Quota : Config.MaxSampleVolume;
  int64_t Done = 0;
  int64_t LastPassNanos = Run.Time.nowNanos();
  // Shared covers threads of this process; stopRequested() additionally
  // hears wire broadcasts when this rank is a forked worker.
  while (!Shared.StopRequested.load(std::memory_order_relaxed) &&
         !(Comm && Comm->stopRequested())) {
    if ((Quota >= 0 ? Done : Shared.ClaimedVolume.fetch_add(
                                 1, std::memory_order_relaxed)) >= Limit)
      break;
    if (Config.RngBackend == RngBackendKind::Philox) {
      // Counter partitioning: realization k of this rank owns draw
      // interval k·2^nr — the same coordinates the (possibly stride-N)
      // cursor would leap to.
      Philox Stream = Philox::streamFor(
          StreamCoordinates{Config.SequenceNumber, uint64_t(Rank),
                            Cursor.nextRealizationIndex()},
          Run.Hierarchy.leapTable().config());
      Cursor.noteRealizationIssued();
      compute(Stream);
    } else {
      Lcg128 Stream = Cursor.beginRealization();
      compute(Stream);
    }
    Mine.ComputeSeconds += double(ComputeEnd - ComputeStart) * 1e-9;
    // Reuses the ComputeStart/ComputeEnd reads the engine takes anyway,
    // so per-realization metrics cost two relaxed atomic updates.
    Run.RealizationsTotal.add();
    Run.RankRealizations[size_t(Rank)]->add();
    Run.RealizationLatency.recordNanos(ComputeEnd - ComputeStart);
    if (Run.Trace)
      Run.Trace->completeSpan("runner.realization", Rank, ComputeStart,
                              ComputeEnd);
    Mine.Moments.accumulate(Out.data());
    for (size_t Index = 0; Index < Config.Histograms.size(); ++Index) {
      const HistogramSpec &Spec = Config.Histograms[Index];
      Mine.Histograms[Index].add(Out[Spec.Row * Config.Columns + Spec.Column]);
    }
    ++Done;

    // Injected worker death: the rank vanishes mid-run without a final
    // send. PersistBeforeCrash models a node whose filesystem survives the
    // process (the paper's cluster), so manaver can still recover every
    // completed realization.
    if (Crash && Done >= Crash->AfterRealizations) {
      if (Crash->PersistBeforeCrash)
        (void)Run.Store.writeSnapshot(Run.Store.subtotalPath(Rank), Mine);
      Run.Injector->noteWorkerCrashed(Rank);
      if (Crash->RaiseKillSignal)
        Comm->crashHard(); // SIGKILL the worker process: a real node loss
      return false;
    }

    const int64_t Now = ComputeEnd;
    if (Config.TimeLimitNanos > 0 &&
        Now - Run.StartNanos >= Config.TimeLimitNanos) {
      Shared.StoppedOnTimeLimit.store(true, std::memory_order_relaxed);
      Shared.StopRequested.store(true, std::memory_order_relaxed);
      if (Comm)
        Comm->requestStop(StopReason::TimeLimit);
      if (Run.Trace)
        Run.Trace->instantAt("runner.stop.time_limit", Rank, Now);
    }
    const bool PassNow = passDue(Config, Now, LastPassNanos);
    if (PassNow)
      LastPassNanos = Now;
    Tail(PassNow);
  }
  return true;
}

/// Rank 0's collector (§2.2, §3.2): keeps the latest cumulative partial
/// of every rank, merges them onto the base by eq. (5) at save points,
/// writes results and checkpoints, and ends the run with the final
/// collection. Lives in the calling process; while the engine runs only
/// rank 0's thread touches it.
class Collector {
public:
  Collector(RunContext &Run, RunBase Start)
      : Run(Run), Base(std::move(Start.Snapshot)) {
    Report.ResumedFromBackup = Start.ResumedFromBackup;
    Report.RestoredFromShards = Start.RestoredFromShards;
  }

  /// Records the first IO failure rank 0 sees; the run returns it.
  void fail(Status Failure) {
    if (!Failure && this->Failure.isOk())
      this->Failure = std::move(Failure);
  }

  /// Binds rank 0's communicator: stop and abort decisions are broadcast
  /// through it so they cross address spaces under the process transport
  /// (Shared's atomics only reach threads of this process). Rank 0 always
  /// runs in the calling process, so the background writer thread
  /// spawned here never crosses a fork.
  void attach(Communicator &Comm) {
    RootComm = &Comm;
    if (Config.CheckpointAsync)
      AsyncWriter.emplace(Run.Ckpt, Config.CheckpointQueueDepth,
                          &Run.Registry);
  }

  /// Drains rank 0's inbox and saves when the averaging period is due.
  void poll(Communicator &Comm) {
    while (std::optional<Message> Incoming = Comm.tryReceive())
      handle(std::move(*Incoming));
    const int64_t Now = Run.Time.nowNanos();
    if (Now - LastSaveNanos >= Config.AveragePeriodNanos)
      savePoint(Now);
  }

  void collectFinals(Communicator &Comm);
  void windDown();

  RunReport Report;
  Status Failure;

private:
  void handle(Message Incoming);
  void savePoint(int64_t NowNanos, bool IsFinal = false);
  void checkpoint(const MomentSnapshot &Merged);
  RunLogInfo buildLog(const MomentSnapshot &Merged, int64_t NowNanos) const;

  RunContext &Run;
  const RunConfig &Config = Run.Config;
  const MomentSnapshot Base;
  // The merged-base shard every sharded commit references, serialized
  // once: the base is frozen for the whole run.
  const std::string BaseFileBody =
      Config.CheckpointShards ? Base.toFileContents() : std::string();
  PartialTable Ranks{size_t(Config.ProcessorCount)};
  // Sharded checkpointing: the latest shard file each rank reported,
  // keyed by the rank's own monotone write index (0 = none yet) so
  // duplicated or reordered reports (injected faults) can never roll a
  // reference backwards.
  std::vector<ckpt::ShardEntry> ShardRef{size_t(Config.ProcessorCount)};
  std::vector<int64_t> ShardIndexSeen =
      std::vector<int64_t>(size_t(Config.ProcessorCount), 0);
  int64_t LastSaveNanos = Run.StartNanos;
  Communicator *RootComm = nullptr;
  // Background checkpoint writer: created at attach(), wound down after
  // the engine returns so every exit path — including a simulated
  // collector death — is covered.
  std::optional<ckpt::BackgroundWriter> AsyncWriter;
  obs::Counter &SavePoints = Run.Registry.counter("runner.save_points");
  obs::LatencyHistogram &MergeLatency =
      Run.Registry.latency("runner.subtotal_merge");
  obs::LatencyHistogram &SavePointLatency =
      Run.Registry.latency("runner.save_point");
  obs::Counter &DeadWorkersCounter =
      Run.Registry.counter("runner.dead_workers");
  obs::LatencyHistogram *SaveStall = // sharded runs only
      Config.CheckpointShards ? &Run.Registry.latency("ckpt.save_stall")
                              : nullptr;
};

/// A subtotal is checked on receipt and kept raw; the save point decodes
/// it (Collector::savePoint), so a rank that passes after every
/// realization costs rank 0 one decode per save, not one per message.
void Collector::handle(Message Incoming) {
  if (Incoming.Tag != TagShardReport) {
    Result<int64_t> Volume = MomentSnapshot::checkBytes(
        Incoming.Payload, Config.Rows, Config.Columns);
    if (!Volume)
      fail(Volume.status());
    else
      Ranks.store(size_t(Incoming.Source), std::move(Incoming.Payload),
                  Volume.value(), Incoming.Tag == TagFinal);
    return;
  }
  ByteReader Reader(Incoming.Payload);
  Result<int64_t> WriteIndex = Reader.readI64();
  Result<std::string> File = Reader.readString();
  Result<uint32_t> Crc = Reader.readU32();
  Result<uint64_t> Bytes = Reader.readU64();
  Result<int64_t> Volume = Reader.readI64();
  if (!WriteIndex || !File || !Crc || !Bytes || !Volume || !Reader.atEnd()) {
    fail(parseError("malformed shard report from rank " +
                    std::to_string(Incoming.Source)));
    return;
  }
  const size_t Source = size_t(Incoming.Source);
  if (WriteIndex.value() <= ShardIndexSeen[Source])
    return;
  ShardIndexSeen[Source] = WriteIndex.value();
  ShardRef[Source] = ckpt::ShardEntry{Incoming.Source, std::move(File).value(),
                                      Crc.value(), Bytes.value(),
                                      Volume.value()};
}

RunLogInfo Collector::buildLog(const MomentSnapshot &Merged,
                               int64_t NowNanos) const {
  RunLogInfo Log;
  Log.TotalSampleVolume = Merged.Moments.sampleVolume();
  Log.NewSampleVolume =
      Merged.Moments.sampleVolume() - Base.Moments.sampleVolume();
  // Workers only ever add realizations to the resumed base, so the merged
  // volume can never shrink; if it does, a snapshot went bad.
  PARMONC_ASSERT(Log.NewSampleVolume >= 0,
                 "sample volume must be monotone across save-points");
  const double NewComputeSeconds = Merged.ComputeSeconds - Base.ComputeSeconds;
  Log.MeanRealizationSeconds =
      Log.NewSampleVolume > 0 ? NewComputeSeconds / double(Log.NewSampleVolume)
                              : 0.0;
  Log.ElapsedSeconds = double(NowNanos - Run.StartNanos) * 1e-9;
  Log.ProcessorCount = Config.ProcessorCount;
  Log.SequenceNumber = Config.SequenceNumber;
  Log.Resumed = Config.Resume;
  Log.Degraded = !Report.DeadWorkers.empty() ||
                 Run.Shared.FailedSends.load(std::memory_order_relaxed) > 0;
  Log.DeadWorkerCount = int(Report.DeadWorkers.size());
  Log.ResumedFromBackup = Report.ResumedFromBackup;
  if (Merged.Moments.sampleVolume() > 0) {
    const ErrorBounds Bounds =
        Merged.Moments.errorBounds(Config.ErrorMultiplier);
    Log.MaxAbsoluteError = Bounds.MaxAbsoluteError;
    Log.MaxRelativeErrorPercent = Bounds.MaxRelativeError;
    Log.MaxVariance = Bounds.MaxVariance;
  }
  return Log;
}

void Collector::savePoint(int64_t NowNanos, bool IsFinal) {
  const int64_t MergeStart = Run.Time.nowNanos();
  fail(Ranks.decodeFresh());
  const MomentSnapshot Merged = Ranks.mergedOnto(Base);
  const int64_t MergeEnd = Run.Time.nowNanos();
  if (Merged.Moments.sampleVolume() <= 0)
    return; // nothing to report yet
  // Injected collector death: the save about to happen never does, and
  // the whole run stops — exactly a job killed mid-save. On-disk state
  // stays at the previous save-point plus whatever subtotals the workers
  // persisted, which is what manaver (§3.4) recovers from.
  if (Run.Injector &&
      Run.Injector->takeCollectorCrash(Report.SavePointCount + 1, IsFinal)) {
    Run.Injector->noteCollectorCrashed();
    Run.Shared.Killed.store(true, std::memory_order_relaxed);
    Run.Shared.StopRequested.store(true, std::memory_order_relaxed);
    if (RootComm)
      RootComm->requestAbort();
    return;
  }
  MergeLatency.recordNanos(MergeEnd - MergeStart);
  if (Run.Trace)
    Run.Trace->completeSpan("runner.subtotal_merge", 0, MergeStart, MergeEnd);
  const RunLogInfo Log = buildLog(Merged, NowNanos);
  fail(Run.Store.writeResults(Merged.Moments, Log, Config.ErrorMultiplier));
  checkpoint(Merged);
  for (size_t Index = 0; Index < Config.Histograms.size(); ++Index) {
    const HistogramSpec &Spec = Config.Histograms[Index];
    fail(writeFileAtomic(histogramPath(Run.Store, Spec.Row, Spec.Column),
                         Merged.Histograms[Index].toFileContents()));
  }
  ++Report.SavePointCount;
  LastSaveNanos = NowNanos;
  SavePoints.add();
  const int64_t SaveEnd = Run.Time.nowNanos();
  SavePointLatency.recordNanos(SaveEnd - MergeStart);
  if (Run.Trace)
    Run.Trace->completeSpan("runner.save_point", 0, MergeStart, SaveEnd);

  if (Config.OnSavePoint) {
    RunProgress Progress;
    Progress.TotalSampleVolume = Log.TotalSampleVolume;
    Progress.MaxAbsoluteError = Log.MaxAbsoluteError;
    Progress.MaxRelativeErrorPercent = Log.MaxRelativeErrorPercent;
    Progress.ElapsedSeconds = Log.ElapsedSeconds;
    Progress.SavePointCount = Report.SavePointCount;
    Config.OnSavePoint(Progress);
  }

  // Early-stop targets are evaluated on saved (i.e. reported) bounds.
  const bool AbsoluteMet =
      Config.TargetMaxAbsoluteError > 0.0 &&
      Log.MaxAbsoluteError <= Config.TargetMaxAbsoluteError;
  const bool RelativeMet =
      Config.TargetMaxRelativeErrorPercent > 0.0 &&
      Log.MaxRelativeErrorPercent <= Config.TargetMaxRelativeErrorPercent;
  if (AbsoluteMet || RelativeMet) {
    Run.Shared.StoppedOnErrorTarget.store(true, std::memory_order_relaxed);
    Run.Shared.StopRequested.store(true, std::memory_order_relaxed);
    if (RootComm)
      RootComm->requestStop(StopReason::ErrorTarget);
    if (Run.Trace)
      Run.Trace->instantAt("runner.stop.error_target", 0, SaveEnd);
  }
}

/// Checkpoints \p Merged: checkpoint.dat, or with CheckpointShards a
/// manifest commit referencing the latest shard every rank has published.
/// Worker shards carry this run's contributions only; the base shard
/// carries everything inherited, so base + shards reconstructs the merged
/// state exactly.
void Collector::checkpoint(const MomentSnapshot &Merged) {
  if (!Config.CheckpointShards) {
    fail(Run.Store.writeSnapshot(Run.Store.checkpointPath(), Merged));
    return;
  }
  ckpt::CheckpointStore::CommitRequest Request;
  Request.Generation = Report.SavePointCount + 1;
  Request.SequenceNumber = Config.SequenceNumber;
  Request.RankCount = Config.ProcessorCount;
  Request.BaseBody = BaseFileBody;
  Request.BaseVolume = Base.Moments.sampleVolume();
  Request.KeepShards = Config.CheckpointKeepShards;
  for (size_t Rank = 0; Rank < ShardRef.size(); ++Rank)
    if (ShardIndexSeen[Rank] > 0)
      Request.Shards.push_back(ShardRef[Rank]);
  // The stall this save-point spends on checkpointing: the full commit
  // when synchronous, a queue hand-off when asynchronous — the contrast
  // BENCH_ckpt.json quantifies.
  const int64_t HandoffStart = Run.Time.nowNanos();
  if (AsyncWriter)
    (void)AsyncWriter->enqueue(std::move(Request));
  else
    fail(Run.Ckpt.commit(Request));
  SaveStall->recordNanos(Run.Time.nowNanos() - HandoffStart);
}

/// Final collection: keeps collecting until every rank's final snapshot
/// has arrived, or — with a worker deadline configured — until the
/// silence lasts long enough to declare the stragglers dead and finish
/// degraded over the survivors (still a correct eq. 5 average, just over
/// fewer ranks). Then the final save point, and the run's report.
void Collector::collectFinals(Communicator &Comm) {
  SharedRunState &Shared = Run.Shared;
  int64_t LastProgressNanos = Run.Time.nowNanos();
  while (Ranks.outstanding() > 0 &&
         !Shared.Killed.load(std::memory_order_relaxed)) {
    if (std::optional<Message> Incoming =
            Comm.receiveWait(-1, /*TimeoutNanos=*/2'000'000, &Run.Time)) {
      handle(std::move(*Incoming));
      LastProgressNanos = Run.Time.nowNanos();
    } else if (Config.WorkerDeadlineNanos > 0 &&
               Run.Time.nowNanos() - LastProgressNanos >=
                   Config.WorkerDeadlineNanos) {
      for (int Straggler = 0; Straggler < Config.ProcessorCount; ++Straggler) {
        if (!Ranks.retire(size_t(Straggler)))
          continue;
        Report.DeadWorkers.push_back(Straggler);
        DeadWorkersCounter.add();
        if (Run.Trace)
          Run.Trace->instantAt("runner.dead_worker", Straggler,
                               Run.Time.nowNanos());
      }
    }
    // Periodic save-points continue while stragglers finish.
    const int64_t Now = Run.Time.nowNanos();
    if (Config.AveragePeriodNanos > 0 &&
        Now - LastSaveNanos >= Config.AveragePeriodNanos)
      savePoint(Now);
  }
  if (Shared.Killed.load(std::memory_order_relaxed))
    return;
  savePoint(Run.Time.nowNanos(), /*IsFinal=*/true); // covers everything
  if (Shared.Killed.load(std::memory_order_relaxed))
    return;

  const RunLogInfo Log =
      buildLog(Ranks.mergedOnto(Base), Run.Time.nowNanos());
  Report.TotalSampleVolume = Log.TotalSampleVolume;
  Report.NewSampleVolume = Log.NewSampleVolume;
  Report.MeanRealizationSeconds = Log.MeanRealizationSeconds;
  Report.ElapsedSeconds = Log.ElapsedSeconds;
  Report.MaxAbsoluteError = Log.MaxAbsoluteError;
  Report.MaxRelativeErrorPercent = Log.MaxRelativeErrorPercent;
  Report.MaxVariance = Log.MaxVariance;
  Report.StoppedOnErrorTarget =
      Shared.StoppedOnErrorTarget.load(std::memory_order_relaxed);
  Report.StoppedOnTimeLimit =
      Shared.StoppedOnTimeLimit.load(std::memory_order_relaxed);
  for (size_t Rank = 0; Rank < size_t(Config.ProcessorCount); ++Rank)
    Report.PerProcessorVolumes.push_back(Ranks.volume(Rank));
}

/// Winds the background checkpoint writer down on every path. A simulated
/// collector death abandons the queue — whatever was still queued is
/// lost, exactly as a SIGKILL would lose it — while a normal finish
/// drains it and surfaces the first commit error.
void Collector::windDown() {
  if (!AsyncWriter)
    return;
  if (Run.Shared.Killed.load(std::memory_order_relaxed))
    AsyncWriter->abandon();
  else
    fail(AsyncWriter->stop());
  Report.CoalescedCheckpoints = AsyncWriter->coalescedCount();
}

/// One rank of the engine (§2.2): runs the realization loop — directly
/// when WorkerThreadsPerRank == 1, on N worker threads otherwise — passes
/// the rank's cumulative subtotal to rank 0, and on rank 0 drives the
/// collector between realizations and through the final collection.
class RankRunner {
public:
  RankRunner(RunContext &Run, Communicator &Comm, Collector *Root)
      : Run(Run), Comm(Comm), Root(Root) {}

  void run() {
    if (Root)
      Root->attach(Comm);
    if (Config.WorkerThreadsPerRank > 1)
      runThreaded();
    else if (!runDirect())
      return; // a crashed worker vanishes without a final send
    // A crashed collector kills the whole job: nobody finalizes. Forked
    // workers learn of the death from the abort broadcast.
    if (Run.Shared.Killed.load(std::memory_order_relaxed) ||
        Comm.abortRequested())
      return;
    sendSubtotal(TagFinal);
    if (Root)
      Root->collectFinals(Comm);
  }

private:
  /// One rank, one loop: the rank thread accumulates straight into the
  /// subtotal it sends, and rank 0 polls the collector in between.
  bool runDirect() {
    RealizationCursor Cursor(
        Run.Hierarchy,
        StreamCoordinates{Config.SequenceNumber, uint64_t(Rank), 0});
    return runRealizations(Run, Rank, &Comm, Cursor, Quota, Local,
                           [this](bool PassNow) {
                             if (PassNow)
                               sendSubtotal(TagSubtotal);
                             if (Root)
                               Root->poll(Comm);
                           });
  }

  void runThreaded();
  void mergeThreadPartials(PartialTable &ThreadPartials);
  void sendSubtotal(int Tag);

  RunContext &Run;
  const RunConfig &Config = Run.Config;
  Communicator &Comm;
  Collector *Root; // rank 0 only
  const int Rank = Comm.rank();
  // This rank's share of maxsv. DeterministicSchedule splits it into fixed
  // per-rank quotas, so per-rank volumes never depend on thread
  // interleaving; otherwise -1 selects the shared counter, which maximizes
  // throughput instead.
  const int64_t Quota =
      Config.DeterministicSchedule
          ? roundRobinShare(Config.MaxSampleVolume, Config.ProcessorCount, Rank)
          : -1;
  MomentSnapshot Local = emptyPartial(Config); // cumulative subtotal
  int64_t LastPersistNanos = Run.Time.nowNanos();
  int64_t ShardWriteIndex = 0;
};

/// N worker threads inside this rank. Thread t owns a private partial and
/// a stride-N cursor (it runs this rank's realizations t, t + N, ...), so
/// the N threads jointly consume exactly the substreams the serial rank
/// would. They hand *cumulative* partials to this rank thread through a
/// mailbox — the same MPSC primitive the fabric uses — and only the rank
/// thread talks to the collector, so the §2.2 protocol is untouched. The
/// rank's subtotal is the thread table merged in thread-index order,
/// independent of message arrival interleaving.
void RankRunner::runThreaded() {
  const int Threads = Config.WorkerThreadsPerRank;
  Mailbox IntraRank;
  WorkerGroup Workers(Threads, [&](int Thread) {
    RealizationCursor Cursor(
        Run.Hierarchy,
        StreamCoordinates{Config.SequenceNumber, uint64_t(Rank),
                          uint64_t(Thread)},
        uint64_t(Threads));
    MomentSnapshot Mine = emptyPartial(Config);
    // Thread t owns the rank's realizations congruent to t modulo N.
    const int64_t ThreadQuota =
        Quota < 0 ? -1 : roundRobinShare(Quota, Threads, Thread);
    (void)runRealizations(
        Run, Rank, nullptr, Cursor, ThreadQuota, Mine, [&](bool PassNow) {
          if (PassNow)
            IntraRank.push(Message{Thread, TagSubtotal, Mine.toBytes()});
        });
    // Always hand in the final partial — even a zero-quota thread, so the
    // table's finals accounting stays exact.
    IntraRank.push(Message{Thread, TagFinal, Mine.toBytes()});
  });

  PartialTable ThreadPartials{size_t(Threads)};
  bool Fresh = false; // a partial arrived since the last merge
  bool StopRelayed = false;
  int64_t LastPassNanos = Run.Time.nowNanos();
  while (ThreadPartials.outstanding() > 0) {
    // Relay stop both ways: wire broadcasts into this process's Shared
    // flags (so the worker threads wind down), and a locally detected
    // time limit out onto the wire (so the other ranks hear it too).
    if (!StopRelayed &&
        Run.Shared.StoppedOnTimeLimit.load(std::memory_order_relaxed)) {
      Comm.requestStop(StopReason::TimeLimit);
      StopRelayed = true;
    }
    if (Comm.stopRequested())
      Run.Shared.StopRequested.store(true, std::memory_order_relaxed);
    if (std::optional<Message> Incoming =
            IntraRank.popWait(-1, /*TimeoutNanos=*/2'000'000, &Run.Time)) {
      Result<int64_t> Volume = MomentSnapshot::checkBytes(
          Incoming->Payload, Config.Rows, Config.Columns);
      // Same-process round trip: a bad payload here is a bug, not an IO
      // hazard.
      PARMONC_ASSERT(Volume.isOk(), "intra-rank snapshot check failed");
      ThreadPartials.store(size_t(Incoming->Source),
                           std::move(Incoming->Payload), Volume.value(),
                           Incoming->Tag == TagFinal);
      Fresh = true;
    }
    // Only a new partial changes the merged subtotal: re-sending an
    // unchanged one after every idle wake-up would flood rank 0.
    const int64_t Now = Run.Time.nowNanos();
    if (Fresh && passDue(Config, Now, LastPassNanos)) {
      Fresh = false;
      mergeThreadPartials(ThreadPartials);
      if (Local.Moments.sampleVolume() > 0) {
        sendSubtotal(TagSubtotal);
        LastPassNanos = Now;
      }
    }
    if (Root)
      Root->poll(Comm);
  }
  Workers.join();
  // Every thread's final partial, merged in thread order: the rank's
  // definitive subtotal.
  mergeThreadPartials(ThreadPartials);
}

/// Sets this rank's subtotal to the thread partials merged in thread order.
void RankRunner::mergeThreadPartials(PartialTable &ThreadPartials) {
  const Status Decoded = ThreadPartials.decodeFresh();
  PARMONC_ASSERT(Decoded.isOk(), "intra-rank snapshot decode failed");
  Local = ThreadPartials.mergedOnto(emptyPartial(Config));
}

/// Sends this rank's cumulative subtotal to rank 0 (§2.2), persisting it
/// first when due.
void RankRunner::sendSubtotal(int Tag) {
  const int64_t SendStart = Run.Trace ? Run.Time.nowNanos() : 0;
  // Persist BEFORE sending, so the worker's on-disk subtotal is always at
  // least as fresh as the collector's view of this rank — §3.4's
  // precondition for manaver recovering results "fresher than the moment
  // of the last saving". The freshness manaver needs is bounded by the
  // pass period, but in send-every-realization mode (PassPeriod 0)
  // writing a file per realization would swamp fast workloads — persist
  // at most every 250 ms there.
  const int64_t PersistPeriodNanos =
      Config.PassPeriodNanos > 0 ? Config.PassPeriodNanos : 250'000'000;
  const int64_t Now = Run.Time.nowNanos();
  if (Tag == TagFinal || Now - LastPersistNanos >= PersistPeriodNanos) {
    (void)Run.Store.writeSnapshot(Run.Store.subtotalPath(Rank), Local);
    if (Config.CheckpointShards) {
      // Publish this rank's cumulative shard at subtotal-persist cadence
      // and tell rank 0 where it landed. Shard freshness thus equals §3.4
      // subtotal freshness; at the final send the shard body IS the final
      // subtotal, which makes the committed generation reconstruct the
      // collector's merged state exactly.
      Result<ckpt::ShardEntry> Written = Run.Ckpt.writeShard(
          Rank, Config.SequenceNumber, ++ShardWriteIndex,
          Local.toFileContents(), Local.Moments.sampleVolume());
      if (Written) {
        ByteWriter ShardMsg;
        ShardMsg.writeI64(ShardWriteIndex);
        ShardMsg.writeString(Written.value().File);
        ShardMsg.writeU32(Written.value().Crc);
        ShardMsg.writeU64(Written.value().Bytes);
        ShardMsg.writeI64(Written.value().Volume);
        if (Status Sent = Comm.sendReliable(
                0, TagShardReport, ShardMsg.takeBytes(),
                Config.SendMaxAttempts, Config.SendRetryBackoffNanos,
                &Run.Time);
            !Sent)
          // Cumulative shards: the next report covers this one.
          Run.Shared.FailedSends.fetch_add(1, std::memory_order_relaxed);
      } else {
        // A rank that cannot publish keeps simulating — the manifest just
        // references its previous shard — but the failure is never
        // silent, and on rank 0 it fails the run like any other
        // collector-side IO error.
        Run.Registry.counter("ckpt.shard_write_failures").add();
        if (Root)
          Root->fail(Written.status());
      }
    }
    LastPersistNanos = Now;
  }
  if (Status Sent = Comm.sendReliable(0, Tag, Local.toBytes(),
                                      Config.SendMaxAttempts,
                                      Config.SendRetryBackoffNanos, &Run.Time);
      !Sent)
    // The message is gone, but subtotals are cumulative: the next
    // successful send covers everything this one carried.
    Run.Shared.FailedSends.fetch_add(1, std::memory_order_relaxed);
  Run.SubtotalsSent.add();
  if (Run.Trace)
    Run.Trace->completeSpan("runner.subtotal_send", Rank, SendStart,
                            Run.Time.nowNanos());
}

/// The engine hosting options. The transports know nothing of fault
/// policy: the injector's verdicts are adapted onto the mpsim hook type
/// here. Both backends consult the hook at the same protocol points, so a
/// deterministic plan replays the same per-source fault sequence over
/// threads and sockets.
EngineOptions hostingOptions(obs::MetricsRegistry &Registry,
                             fault::FaultInjector *Injector, Clock &Time) {
  EngineOptions Hosting;
  Hosting.Metrics = &Registry;
  if (!Injector)
    return Hosting;
  Hosting.FaultHook = [Injector](int Source, int Destination, int Tag) {
    const fault::MessageDecision Decision =
        Injector->onSendAttempt(Source, Destination, Tag);
    using Act = SendFault::Action;
    switch (Decision.Action) {
    case fault::MessageAction::Deliver:
      break;
    case fault::MessageAction::Drop:
      return SendFault{Act::Drop, 0};
    case fault::MessageAction::Duplicate:
      return SendFault{Act::Duplicate, 0};
    case fault::MessageAction::Delay:
      return SendFault{Act::Delay, Decision.DelayNanos};
    case fault::MessageAction::FailSend:
      return SendFault{Act::Fail, 0};
    }
    return SendFault{};
  };
  Hosting.FaultClock = &Time;
  return Hosting;
}

} // namespace

Status RunConfig::validate() const {
  if (Rows < 1 || Columns < 1)
    return invalidArgument("realization matrix must be at least 1x1");
  if (MaxSampleVolume < 1)
    return invalidArgument("maximal sample volume must be >= 1");
  if (ProcessorCount < 1)
    return invalidArgument("processor count must be >= 1");
  if (Status LeapsOk = Leaps.validate(); !LeapsOk)
    return LeapsOk;
  const unsigned MaxProcessorsLog2 = Leaps.maxProcessorsLog2();
  if (MaxProcessorsLog2 < 63 &&
      uint64_t(ProcessorCount) > (uint64_t(1) << MaxProcessorsLog2))
    return invalidArgument(
        "processor count exceeds the hierarchy capacity 2^" +
        std::to_string(MaxProcessorsLog2));
  const unsigned MaxExperimentsLog2 = Leaps.maxExperimentsLog2();
  if (MaxExperimentsLog2 < 63 &&
      SequenceNumber >= (uint64_t(1) << MaxExperimentsLog2))
    return invalidArgument(
        "experiment number exceeds the hierarchy capacity 2^" +
        std::to_string(MaxExperimentsLog2));
  if (PassPeriodNanos < 0 || AveragePeriodNanos < 0 || TimeLimitNanos < 0)
    return invalidArgument("periods must be non-negative");
  if (ErrorMultiplier <= 0.0)
    return invalidArgument("error multiplier must be positive");
  if (TargetMaxAbsoluteError < 0.0 || TargetMaxRelativeErrorPercent < 0.0)
    return invalidArgument("error targets must be non-negative");
  if (WorkDir.empty())
    return invalidArgument("work directory must not be empty");
  for (const HistogramSpec &Spec : Histograms) {
    if (Spec.Row >= Rows || Spec.Column >= Columns)
      return invalidArgument("histogram observable outside the matrix");
    if (Spec.Low >= Spec.High)
      return invalidArgument("histogram range is empty");
    if (Spec.BinCount < 1)
      return invalidArgument("histogram needs at least one bin");
  }
  if (SendMaxAttempts < 1)
    return invalidArgument("send attempts must be >= 1");
  if (SendRetryBackoffNanos < 0 || WorkerDeadlineNanos < 0)
    return invalidArgument("retry backoff and worker deadline must be "
                           "non-negative");
  if (CheckpointAsync && !CheckpointShards)
    return invalidArgument(
        "asynchronous checkpointing requires CheckpointShards");
  if (CheckpointQueueDepth < 1)
    return invalidArgument("checkpoint queue depth must be >= 1");
  if (CheckpointKeepShards < 1)
    return invalidArgument("checkpoint shard retention must be >= 1");
  if (WorkerThreadsPerRank < 1)
    return invalidArgument("worker threads per rank must be >= 1");
  if (WorkerThreadsPerRank > 1) {
    const unsigned MaxRealizationsLog2 = Leaps.maxRealizationsLog2();
    if (MaxRealizationsLog2 < 63 &&
        uint64_t(WorkerThreadsPerRank) > (uint64_t(1) << MaxRealizationsLog2))
      return invalidArgument(
          "worker thread count exceeds the per-processor realization "
          "capacity 2^" +
          std::to_string(MaxRealizationsLog2));
    if (Faults && !Faults->WorkerCrashes.empty())
      return invalidArgument(
          "injected worker crashes model whole-rank death and require "
          "WorkerThreadsPerRank == 1");
  }
  if (Transport == TransportKind::Processes && !DeterministicSchedule)
    return invalidArgument(
        "the process transport has no cross-process work counter; "
        "DeterministicSchedule must be on so every rank owns a fixed "
        "quota");
  if (Faults && Transport != TransportKind::Processes)
    for (const fault::WorkerCrashSpec &Crash : Faults->WorkerCrashes)
      if (Crash.RaiseKillSignal)
        return invalidArgument(
            "RaiseKillSignal kills a worker with SIGKILL and requires "
            "Transport == TransportKind::Processes");
  if (Faults)
    if (Status PlanOk = Faults->validate(); !PlanOk)
      return PlanOk;
  return Status::ok();
}

Result<RunReport> runSimulation(const RealizationFn &Realization,
                                const RunConfig &Config,
                                Clock *ClockOverride) {
  if (!Realization)
    return invalidArgument("realization routine must be set");
  if (Status Valid = Config.validate(); !Valid)
    return Valid;

  static WallClock DefaultClock;
  Clock &Time = ClockOverride ? *ClockOverride : DefaultClock;

  // Observability: callers may supply a shared registry; otherwise the run
  // keeps a private one. Either way the final snapshot lands in
  // RunReport::Metrics and results/metrics.dat.
  obs::MetricsRegistry LocalRegistry;
  obs::MetricsRegistry &Registry =
      Config.Metrics ? *Config.Metrics : LocalRegistry;
  obs::TraceWriter *Trace = Config.Trace;

  ResultsStore Store(Config.WorkDir);
  Store.attachObservers(&Registry, Trace, &Time);
  if (Status Prepared = Store.prepareDirectories(); !Prepared)
    return Prepared;

  // Fault injection (testing only): a null or empty plan costs nothing.
  std::optional<fault::FaultInjector> InjectorStorage;
  fault::FaultInjector *Injector = nullptr;
  if (Config.Faults && Config.Faults->enabled()) {
    InjectorStorage.emplace(*Config.Faults);
    Injector = &*InjectorStorage;
    Injector->attachObservers(&Registry, Trace, &Time);
    Store.setFaultInjector(Injector);
  }

  // Sharded checkpoint store. Always constructed (resume must be able to
  // read a manifest a previous sharded run left behind); the directories
  // are only created when this run itself writes shards.
  ckpt::CheckpointStore Ckpt(Store.checkpointDir());
  Ckpt.attachMetrics(&Registry);
  if (Injector)
    Ckpt.setWriteInterceptor(
        [Injector](const std::string &Path, std::string_view Contents) {
          // mclint: allow(R8): fault-injection seam, same as the results
          // store's — the injector is plain data here.
          return Injector->corruptWrite(Path, Contents);
        });
  const int64_t LeapSetupStart = Time.nowNanos();
  Result<LeapTable> Table = loadLeapTable(Config, Store);
  if (!Table)
    return Table.status();
  StreamHierarchy Hierarchy(std::move(Table).value());
  Hierarchy.attachMetrics(Registry);
  Registry.latency("rng.leap_setup")
      .recordNanos(Time.nowNanos() - LeapSetupStart);
  if (Trace)
    Trace->completeSpan("rng.leap_setup", 0, LeapSetupStart,
                        Time.nowNanos());

  Result<RunBase> Loaded = loadBase(Config, Store, Ckpt);
  if (!Loaded)
    return Loaded.status();
  RunBase Start = std::move(Loaded).value();
  // After the res=0 clear (which removes the whole ckpt tree along with
  // the other per-run files), so the staging/shards directories survive.
  if (Config.CheckpointShards)
    if (Status Prepared = Ckpt.prepareDirectories(); !Prepared)
      return Prepared;
  if (Status Written = Store.writeSnapshot(Store.basePath(), Start.Snapshot);
      !Written)
    return Written;

  RunLogInfo StartLog;
  StartLog.SequenceNumber = Config.SequenceNumber;
  StartLog.Resumed = Config.Resume;
  StartLog.ProcessorCount = Config.ProcessorCount;
  StartLog.TotalSampleVolume = Start.Snapshot.Moments.sampleVolume();
  StartLog.RngBackend = rngBackendName(Config.RngBackend);
  if (Status Logged = Store.appendExperimentLog(StartLog); !Logged)
    return Logged;

  RunContext Run{Realization, Config, Time, Registry, Trace, Store, Ckpt,
                 Injector, Hierarchy, /*StartNanos=*/Time.nowNanos(),
                 Registry.counter("runner.realizations"),
                 Registry.counter("runner.subtotals_sent"),
                 Registry.latency("runner.realization"), {}};
  for (int Rank = 0; Rank < Config.ProcessorCount; ++Rank)
    Run.RankRealizations.push_back(&Registry.counter(
        "runner.rank" + std::to_string(Rank) + ".realizations"));
  Collector Root(Run, std::move(Start));

  Result<EngineReport> Hosted = runEngine(
      Config.Transport, Config.ProcessorCount,
      [&](Communicator &Comm) {
        RankRunner(Run, Comm, Comm.rank() == 0 ? &Root : nullptr).run();
      },
      hostingOptions(Registry, Injector, Time));
  Root.windDown();
  if (!Hosted)
    return Hosted.status();
  const EngineReport &Fleet = Hosted.value();

  // The collector's report holds what a killed run still knows (save
  // points, dead workers). Stop flags and failed-send counts OR/sum in the
  // engine's view: forked workers report over the wire what thread ranks
  // wrote into Shared.
  RunReport Report = std::move(Root.Report);
  Report.FailedSends = Run.Shared.FailedSends.load(std::memory_order_relaxed) +
                       Fleet.ChildFailedSends;
  Report.StoppedOnTimeLimit |= Fleet.StopOnTimeLimit;
  Report.StoppedOnErrorTarget |= Fleet.StopOnErrorTarget;
  Report.ProcessRanks = Fleet.Ranks;
  std::sort(Report.DeadWorkers.begin(), Report.DeadWorkers.end());
  Report.Degraded = !Report.DeadWorkers.empty() || Report.FailedSends > 0;
  Report.SimulatedCrash = Run.Shared.Killed.load(std::memory_order_relaxed);
  Report.RngBackendName = rngBackendName(Config.RngBackend);

  Registry.gauge("runner.elapsed_seconds").set(Report.ElapsedSeconds);
  Report.Metrics = Registry.snapshot();
  Root.fail(writeFileAtomic(Store.metricsPath(),
                            Report.Metrics.toFileContents()));
  if (Trace)
    Root.fail(writeFileAtomic(Store.tracePath(), Trace->toJson()));
  if (!Root.Failure.isOk())
    return Root.Failure;
  return Report;
}

} // namespace parmonc
