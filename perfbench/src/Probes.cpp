//===- perfbench/src/Probes.cpp - Per-layer probes of the run path ------===//
//
// Part of the PARMONC reproduction library's end-to-end benchmark.
//
//===----------------------------------------------------------------------===//

#include "Probes.h"

#include "parmonc/ckpt/BackgroundWriter.h"
#include "parmonc/ckpt/CheckpointStore.h"
#include "parmonc/core/ResultsStore.h"
#include "parmonc/mpsim/Engine.h"
#include "parmonc/obs/Metrics.h"
#include "parmonc/rng/Lcg128.h"
#include "parmonc/rng/Philox.h"
#include "parmonc/rng/StreamHierarchy.h"
#include "parmonc/support/Clock.h"
#include "parmonc/support/Text.h"

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <memory>
#include <stdexcept>
#include <vector>

using namespace parmonc;

namespace perfbench {

namespace {

int64_t nowNanos() { return WallClock().nowNanos(); }

/// Keeps \p Value (and everything it points to) observable, so a timed
/// loop is not folded away.
template <typename T> inline void keep(const T &Value) {
  asm volatile("" : : "r"(&Value) : "memory");
}

double median(std::vector<double> Values) {
  std::sort(Values.begin(), Values.end());
  const size_t Mid = Values.size() / 2;
  return Values.size() % 2 ? Values[Mid]
                           : 0.5 * (Values[Mid - 1] + Values[Mid]);
}

/// Median over \p Reps repetitions of the nanoseconds one call of \p Fn
/// takes, divided by \p PerCall (the operations one call performs).
template <typename F>
double medianNanos(int Reps, double PerCall, F &&Fn) {
  std::vector<double> Samples;
  Samples.reserve(size_t(Reps));
  for (int Rep = 0; Rep < Reps; ++Rep) {
    const int64_t Start = nowNanos();
    Fn(Rep);
    Samples.push_back(double(nowNanos() - Start) / PerCall);
  }
  return median(std::move(Samples));
}

void check(const Status &Outcome, const char *What) {
  if (!Outcome)
    throw std::runtime_error(std::string(What) + ": " + Outcome.toString());
}

template <typename T> T take(Result<T> Outcome, const char *What) {
  check(Outcome.status(), What);
  return std::move(Outcome).value();
}

/// The workload's realization stream at (seqnum, rank 0, realization 0).
std::unique_ptr<RandomSource> originStream(const RunConfig &Config) {
  const StreamCoordinates Origin{Config.SequenceNumber, 0, 0};
  if (Config.RngBackend == RngBackendKind::Philox)
    return std::make_unique<Philox>(Philox::streamFor(Origin));
  return std::make_unique<Lcg128>(
      StreamHierarchy(LeapTable()).makeStream(Origin));
}

/// One rank's cumulative snapshot of the workload's shape after a few
/// realizations of the real body.
MomentSnapshot sampleSnapshot(const Workload &W, const RunConfig &Config,
                              int Realizations) {
  MomentSnapshot Snapshot;
  Snapshot.SequenceNumber = Config.SequenceNumber;
  Snapshot.Moments = EstimatorMatrix(Config.Rows, Config.Columns);
  std::unique_ptr<RandomSource> Source = originStream(Config);
  std::vector<double> Out(entryCount(W));
  for (int Index = 0; Index < Realizations; ++Index) {
    runBody(W, *Source, Out.data());
    Snapshot.Moments.accumulate(Out.data());
  }
  Snapshot.ComputeSeconds = 1e-3 * Realizations;
  return Snapshot;
}

void probeRng(const RunConfig &Config, JsonLine &Out) {
  std::unique_ptr<RandomSource> Owned = originStream(Config);
  RandomSource *Source = Owned.get();
  // Hide the dynamic type: realization bodies draw through the interface.
  asm volatile("" : "+r"(Source));
  constexpr int Draws = 1 << 16;
  Out.add("rng.draw_ns", medianNanos(15, Draws, [&](int) {
            double Sum = 0.0;
            for (int Index = 0; Index < Draws; ++Index)
              Sum += Source->nextUniform();
            keep(Sum);
          }));

  const StreamHierarchy Hierarchy{LeapTable()};
  RealizationCursor Cursor(Hierarchy,
                           StreamCoordinates{Config.SequenceNumber, 0, 0});
  constexpr int Issues = 1 << 14;
  const bool UsePhilox = Config.RngBackend == RngBackendKind::Philox;
  const LeapConfig Leaps;
  Out.add("rng.stream_issue_ns", medianNanos(15, Issues, [&](int) {
            for (int Index = 0; Index < Issues; ++Index) {
              // The same calls the engine makes per realization.
              if (UsePhilox) {
                Philox Stream = Philox::streamFor(
                    StreamCoordinates{Config.SequenceNumber, 0,
                                      Cursor.nextRealizationIndex()},
                    Leaps);
                Cursor.noteRealizationIssued();
                keep(Stream);
              } else {
                Lcg128 Stream = Cursor.beginRealization();
                keep(Stream);
              }
            }
          }));

  Out.add("rng.leap_setup_us", medianNanos(9, 1e3, [&](int) {
            StreamHierarchy Fresh{
                LeapTable(Lcg128::defaultMultiplier(), LeapConfig())};
            keep(Fresh);
          }));
}

void probeStats(const Workload &W, const RunConfig &Config,
                const std::vector<MomentSnapshot> &Ranks, JsonLine &Out) {
  EstimatorMatrix Matrix(Config.Rows, Config.Columns);
  std::vector<double> Row(entryCount(W));
  std::unique_ptr<RandomSource> Source = originStream(Config);
  runBody(W, *Source, Row.data());
  const int Accumulates =
      std::max(16, int((1 << 20) / int64_t(entryCount(W))));
  Out.add("stats.accumulate_ns", medianNanos(15, Accumulates, [&](int) {
            for (int Index = 0; Index < Accumulates; ++Index)
              Matrix.accumulate(Row.data());
            keep(Matrix);
          }));

  // The collector's eq. (5) merge: the resumed base plus the latest
  // snapshot of every rank, in rank order.
  MomentSnapshot Base;
  Base.SequenceNumber = Config.SequenceNumber;
  Base.Moments = EstimatorMatrix(Config.Rows, Config.Columns);
  MomentSnapshot Merged;
  Out.add("stats.merge_us", medianNanos(31, 1e3, [&](int) {
            Merged = Base;
            for (const MomentSnapshot &Rank : Ranks)
              check(Merged.mergeFrom(Rank), "mergeFrom");
          }));
  Out.add("stats.error_bounds_us", medianNanos(31, 1e3, [&](int) {
            ErrorBounds Bounds =
                Merged.Moments.errorBounds(Config.ErrorMultiplier);
            keep(Bounds);
          }));
}

void probeMpsim(const RunConfig &Config, const MomentSnapshot &Snapshot,
                JsonLine &Out) {
  std::vector<uint8_t> Bytes;
  Out.add("mpsim.encode_us", medianNanos(31, 1e3, [&](int) {
            Bytes = Snapshot.toBytes();
            keep(Bytes);
          }));
  Out.add("mpsim.decode_us", medianNanos(31, 1e3, [&](int) {
            MomentSnapshot Decoded =
                take(MomentSnapshot::fromBytes(Bytes), "fromBytes");
            keep(Decoded);
          }));

  // Ping-pong of a subtotal-sized payload between rank 0 and rank 1 on
  // the workload's transport; rank 0 lives in this process either way,
  // so it keeps the timings.
  constexpr int RoundTrips = 200;
  constexpr int Tag = 7;
  constexpr int64_t Patience = 30'000'000'000;
  std::vector<double> Trips;
  Trips.reserve(RoundTrips);
  const Result<EngineReport> PingPong = runEngine(
      Config.Transport, 2, [&](Communicator &Comm) {
        for (int Trip = 0; Trip < RoundTrips; ++Trip) {
          if (Comm.rank() == 0) {
            const int64_t Start = nowNanos();
            check(Comm.sendReliable(1, Tag, Bytes, 1, 0, nullptr), "send");
            if (!Comm.receiveWait(Tag, Patience))
              throw std::runtime_error("ping-pong reply lost");
            Trips.push_back(double(nowNanos() - Start) * 1e-3);
          } else {
            std::optional<Message> Ping = Comm.receiveWait(Tag, Patience);
            if (!Ping)
              return;
            (void)Comm.sendReliable(0, Tag, std::move(Ping->Payload), 1, 0,
                                    nullptr);
          }
        }
      });
  check(PingPong.status(), "ping-pong engine");
  Out.add("mpsim.send_recv_us", median(Trips));

  Out.add("mpsim.spawn_ms", medianNanos(5, 1e6, [&](int) {
            check(runEngine(Config.Transport, Config.ProcessorCount,
                            [](Communicator &) {})
                      .status(),
                  "empty engine");
          }));
}

void probeCore(const RunConfig &Config, const MomentSnapshot &Merged,
               const std::string &Dir, JsonLine &Out) {
  RunLogInfo Log;
  Log.SequenceNumber = Config.SequenceNumber;
  Log.ProcessorCount = Config.ProcessorCount;
  Log.TotalSampleVolume = Merged.Moments.sampleVolume();
  Log.NewSampleVolume = Log.TotalSampleVolume;
  Log.RngBackend = rngBackendName(Config.RngBackend);

  // A run's start: directory tree, res=0 clear and the exp-log append,
  // each repetition in a fresh working directory as a new run sees it.
  Out.add("core.prepare_us", medianNanos(7, 1e3, [&](int Rep) {
            const ResultsStore Fresh(Dir + "/prepare" + std::to_string(Rep));
            check(Fresh.prepareDirectories(), "prepareDirectories");
            check(Fresh.clearPreviousRun(), "clearPreviousRun");
            check(Fresh.appendExperimentLog(Log), "appendExperimentLog");
          }));

  const ResultsStore Store(Dir + "/store");
  check(Store.prepareDirectories(), "prepareDirectories");
  Out.add("core.write_results_us", medianNanos(9, 1e3, [&](int) {
            check(Store.writeResults(Merged.Moments, Log,
                                     Config.ErrorMultiplier),
                  "writeResults");
          }));
  Out.add("core.write_snapshot_us", medianNanos(9, 1e3, [&](int) {
            check(Store.writeSnapshot(Store.checkpointPath(), Merged),
                  "writeSnapshot");
          }));
}

void probeSupport(const std::string &Dir, JsonLine &Out) {
  const std::string Page(4096, 'x');
  const std::string Path = Dir + "/atomic.dat";
  Out.add("support.write_atomic_us", medianNanos(15, 1e3, [&](int) {
            check(writeFileAtomic(Path, Page), "writeFileAtomic");
          }));
  Out.add("support.fsync_us", fsyncFloorMicros(Dir));
}

void probeCkpt(const RunConfig &Config,
               const std::vector<MomentSnapshot> &Ranks,
               const MomentSnapshot &Merged, const std::string &Dir,
               JsonLine &Out) {
  const ckpt::CheckpointStore Store(Dir + "/ckpt");
  check(Store.prepareDirectories(), "ckpt prepareDirectories");
  const std::string BaseBody = Merged.toFileContents();
  int64_t Generation = 0;
  auto request = [&]() {
    ckpt::CheckpointStore::CommitRequest Request;
    Request.Generation = ++Generation;
    Request.SequenceNumber = Config.SequenceNumber;
    Request.RankCount = int(Ranks.size());
    Request.BaseBody = BaseBody;
    for (size_t Rank = 0; Rank < Ranks.size(); ++Rank)
      Request.Shards.push_back(take(
          Store.writeShard(int(Rank), Config.SequenceNumber, Generation,
                           Ranks[Rank].toFileContents(),
                           Ranks[Rank].Moments.sampleVolume()),
          "writeShard"));
    return Request;
  };

  // Only the commit is timed; the ranks publish their shards beforehand,
  // as they do in a run.
  std::vector<double> Commits;
  for (int Rep = 0; Rep < 7; ++Rep) {
    const ckpt::CheckpointStore::CommitRequest Request = request();
    const int64_t Start = nowNanos();
    check(Store.commit(Request), "commit");
    Commits.push_back(double(nowNanos() - Start) * 1e-3);
  }
  Out.add("ckpt.commit_us", median(Commits));

  std::vector<double> Enqueues;
  {
    ckpt::BackgroundWriter Writer(Store, Config.CheckpointQueueDepth,
                                  nullptr);
    for (int Rep = 0; Rep < 15; ++Rep) {
      ckpt::CheckpointStore::CommitRequest Request = request();
      const int64_t Start = nowNanos();
      (void)Writer.enqueue(std::move(Request));
      Enqueues.push_back(double(nowNanos() - Start) * 1e-3);
    }
    check(Writer.stop(), "background writer stop");
  }
  Out.add("ckpt.enqueue_us", median(Enqueues));
}

void probeObs(JsonLine &Out) {
  obs::MetricsRegistry Registry;
  obs::Counter &Counter = Registry.counter("perfbench.counter");
  obs::LatencyHistogram &Latency = Registry.latency("perfbench.latency");
  constexpr int Ops = 1 << 18;
  Out.add("obs.counter_add_ns", medianNanos(15, Ops, [&](int) {
            for (int Index = 0; Index < Ops; ++Index)
              Counter.add();
          }));
  Out.add("obs.latency_record_ns", medianNanos(15, Ops, [&](int) {
            for (int Index = 0; Index < Ops; ++Index)
              Latency.recordNanos(Index & 0xffff);
          }));
}

} // namespace

double fsyncFloorMicros(const std::string &Dir) {
  const std::string Path = Dir + "/fsync.dat";
  const std::string Page(4096, 'y');
  std::vector<double> Samples;
  for (int Rep = 0; Rep < 15; ++Rep) {
    {
      std::ofstream File(Path, std::ios::binary | std::ios::trunc);
      File << Page;
    }
    const int64_t Start = nowNanos();
    check(fsyncFile(Path), "fsyncFile");
    Samples.push_back(double(nowNanos() - Start) * 1e-3);
  }
  std::remove(Path.c_str());
  return median(std::move(Samples));
}

void runLayerProbes(const Workload &W, uint64_t Seed,
                    const std::string &ScratchDir, JsonLine &Out) {
  const RunConfig Config = makeRunConfig(W, Seed, W.Volume, ScratchDir);
  std::vector<MomentSnapshot> Ranks;
  for (int Rank = 0; Rank < Config.ProcessorCount; ++Rank)
    Ranks.push_back(sampleSnapshot(W, Config, 4));
  MomentSnapshot Merged = Ranks.front();
  for (size_t Rank = 1; Rank < Ranks.size(); ++Rank)
    check(Merged.mergeFrom(Ranks[Rank]), "mergeFrom");

  // Forking probes first, while this process has no helper threads.
  probeMpsim(Config, Ranks.front(), Out);
  probeRng(Config, Out);
  probeStats(W, Config, Ranks, Out);
  probeCore(Config, Merged, ScratchDir, Out);
  probeSupport(ScratchDir, Out);
  probeCkpt(Config, Ranks, Merged, ScratchDir, Out);
  probeObs(Out);
}

} // namespace perfbench
