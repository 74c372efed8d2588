//===- perfbench/src/Main.cpp - End-to-end benchmark program ------------===//
//
// Part of the PARMONC reproduction library's end-to-end benchmark.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// One invocation does one thing and prints one JSON line:
///
///   parmonc_perfbench run    --workload W --seed N --workdir D
///                            [--volume V] [--traced]
///   parmonc_perfbench probes --workload W --seed N --workdir D
///   parmonc_perfbench stamp  --workdir D
///
/// `run` times one runSimulation call and checks its results against the
/// workload's closed-form means. `--traced` wraps the realization routine
/// in spans and a draw-counting decorator (the engine's own
/// RunConfig::Trace stays off). `probes` times the layer entry points.
/// `stamp` describes the host. perfbench/run.py drives all three.
///
//===----------------------------------------------------------------------===//

#include "Json.h"
#include "Probes.h"
#include "Workloads.h"

#include "parmonc/core/Runner.h"
#include "parmonc/rng/Lcg128.h"
#include "parmonc/rng/Philox.h"
#include "parmonc/rng/SimdKernels.h"
#include "parmonc/support/Clock.h"
#include "parmonc/support/Text.h"

#include <sys/resource.h>
#include <sys/vfs.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <fstream>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

using namespace parmonc;
using namespace perfbench;

namespace {

int64_t nowNanos() { return WallClock().nowNanos(); }

uint32_t clampNanos(int64_t Nanos) {
  return uint32_t(std::clamp<int64_t>(Nanos, 0, UINT32_MAX));
}

/// Writes raw uint32 samples; run.py pools them over an invocation's
/// traced runs before taking percentiles.
void writeSamples(const std::string &Path,
                  const std::vector<uint32_t> &Samples) {
  std::ofstream File(Path, std::ios::binary | std::ios::trunc);
  File.write(reinterpret_cast<const char *>(Samples.data()),
             std::streamsize(Samples.size() * sizeof(uint32_t)));
}

// --- Realization-routine instrumentation ---------------------------------

/// Counts every uniform a realization body draws.
class CountingSource final : public RandomSource {
public:
  explicit CountingSource(RandomSource &Inner) : Inner(Inner) {}
  double nextUniform() override {
    ++Draws;
    return Inner.nextUniform();
  }
  uint64_t nextBits64() override {
    ++Draws;
    return Inner.nextBits64();
  }
  void fillUniforms(double *Out, size_t Count) override {
    Draws += int64_t(Count);
    Inner.fillUniforms(Out, Count);
  }
  const char *name() const override { return Inner.name(); }
  int64_t Draws = 0;

private:
  RandomSource &Inner;
};

/// What one in-process rank thread saw in a traced run.
struct ThreadTrace {
  int64_t FirstStartNanos = -1;
  int64_t LastEndNanos = 0;
  int64_t BodyNanos = 0;
  int64_t Realizations = 0;
  int64_t Draws = 0;
  std::vector<uint32_t> BodySpans; ///< nanoseconds, one per realization
};

/// Shared state of the benchmark's realization routine.
struct Instrumentation {
  const Workload *W = nullptr;
  bool Traced = false;
  size_t ExpectedPerThread = 0;
  double RankZeroFingerprint = 0.0;
  std::atomic<int64_t> RankZeroFirstCallNanos{-1};
  /// First call of any rank in this process: the fallback when rank 0's
  /// source is of a type peekFirstUniform does not know.
  std::atomic<int64_t> FirstCallNanos{-1};

  std::mutex Mutex;
  std::vector<std::unique_ptr<ThreadTrace>> Threads;
  /// Run entry, then every save point (rank 0's thread only).
  std::vector<int64_t> SavePointNanos;

  ThreadTrace *registerThread() {
    std::lock_guard<std::mutex> Lock(Mutex);
    Threads.push_back(std::make_unique<ThreadTrace>());
    Threads.back()->BodySpans.reserve(ExpectedPerThread);
    return Threads.back().get();
  }
};

/// The first draw a source would return, without consuming it.
double peekFirstUniform(RandomSource &Source) {
  if (auto *Lcg = dynamic_cast<Lcg128 *>(&Source)) {
    Lcg128 Copy = *Lcg;
    return Copy.nextUniform();
  }
  if (auto *Counter = dynamic_cast<Philox *>(&Source)) {
    Philox Copy = *Counter;
    return Copy.nextUniform();
  }
  return -1.0;
}

RealizationFn makeRoutine(Instrumentation &State) {
  return [&State](RandomSource &Source, double *Out) {
    // One Instrumentation per process, so a thread_local latch marks each
    // rank thread's first call.
    thread_local ThreadTrace *Mine = nullptr;
    thread_local bool Seen = false;
    if (!Seen) {
      Seen = true;
      const int64_t Now = nowNanos();
      int64_t NoneYet = -1;
      State.FirstCallNanos.compare_exchange_strong(NoneYet, Now);
      if (peekFirstUniform(Source) == State.RankZeroFingerprint)
        State.RankZeroFirstCallNanos.store(Now);
      if (State.Traced)
        Mine = State.registerThread();
    }
    if (!State.Traced) {
      runBody(*State.W, Source, Out);
      return;
    }
    CountingSource Counting(Source);
    const int64_t Start = nowNanos();
    runBody(*State.W, Counting, Out);
    const int64_t End = nowNanos();
    if (Mine->FirstStartNanos < 0)
      Mine->FirstStartNanos = Start;
    Mine->LastEndNanos = End;
    Mine->BodyNanos += End - Start;
    ++Mine->Realizations;
    Mine->Draws += Counting.Draws;
    Mine->BodySpans.push_back(clampNanos(End - Start));
  };
}

// --- Correctness gate ------------------------------------------------------

/// Data lines of a sealed result file (comment/seal lines skipped).
std::vector<std::vector<double>> readTable(const std::string &Path) {
  std::vector<std::vector<double>> Rows;
  Result<std::string> Text = readFileToString(Path);
  if (!Text)
    return Rows;
  for (std::string_view Line : splitChar(Text.value(), '\n')) {
    Line = trim(Line);
    if (Line.empty() || Line.front() == '#')
      continue;
    std::vector<double> Row;
    for (std::string_view Field : splitWhitespace(Line)) {
      Result<double> Value = parseDouble(Field);
      Row.push_back(Value ? Value.value() : NAN);
    }
    Rows.push_back(std::move(Row));
  }
  return Rows;
}

/// The multiple of σ/√l that N simultaneous two-sided checks may reach
/// with a family-wise false-alarm rate equal to one 3σ check (0.27%).
double familyWiseSigmas(size_t Checks) {
  const double Target = 0.0027 / double(Checks);
  double Low = 0.0, High = 40.0;
  for (int Step = 0; Step < 200; ++Step) {
    const double Mid = 0.5 * (Low + High);
    (std::erfc(Mid / std::sqrt(2.0)) > Target ? Low : High) = Mid;
  }
  return High;
}

struct GateResult {
  bool Passed = false;
  double WorstSigmas = NAN;   ///< max |mean - exact| / (σ_run / √l)
  double AllowedSigmas = NAN; ///< the gate's family-wise bound
  double WorstVarianceRatio = NAN;
  std::string Reason;
};

/// Checks every func.dat entry against the exact mean, in units of the
/// run's own standard error taken from func_ci.dat (whose abs_error column
/// is γσ/√l).
GateResult checkResults(const Workload &W, const RunConfig &Config,
                        const ResultsStore &Store, int64_t Volume) {
  GateResult Gate;
  const size_t Entries = entryCount(W);
  const std::vector<std::vector<double>> Means = readTable(Store.meansPath());
  const std::vector<std::vector<double>> Ci =
      readTable(Store.confidencePath());
  if (Means.size() != Config.Rows || Ci.size() != Entries) {
    Gate.Reason = "result files have the wrong shape";
    return Gate;
  }
  Gate.AllowedSigmas = familyWiseSigmas(Entries);
  // A variance estimate from l samples has relative spread ~sqrt(2/l).
  const double VarianceSlack = 8.0 * std::sqrt(2.0 / double(Volume));
  Gate.WorstSigmas = 0.0;
  Gate.WorstVarianceRatio = 1.0;
  for (size_t Index = 0; Index < Entries; ++Index) {
    const std::vector<double> &Row = Means[Index / Config.Columns];
    const std::vector<double> &Line = Ci[Index];
    if (Row.size() != Config.Columns || Line.size() != 6) {
      Gate.Reason = "malformed result line";
      return Gate;
    }
    const double Mean = Row[Index % Config.Columns];
    const double StandardError = Line[3] / Config.ErrorMultiplier;
    const double Sigmas = std::fabs(Mean - exactMean(W, Index)) /
                          std::max(StandardError, 1e-300);
    const double Ratio = Line[5] / exactVariance(W, Index);
    if (!(Sigmas <= Gate.WorstSigmas))
      Gate.WorstSigmas = Sigmas;
    if (!(std::fabs(Ratio - 1.0) <= std::fabs(Gate.WorstVarianceRatio - 1.0)))
      Gate.WorstVarianceRatio = Ratio;
  }
  if (!(Gate.WorstSigmas <= Gate.AllowedSigmas))
    Gate.Reason = "a mean is outside the run's own error bound";
  else if (!(std::fabs(Gate.WorstVarianceRatio - 1.0) <= VarianceSlack))
    Gate.Reason = "a variance is far from the exact variance";
  else
    Gate.Passed = true;
  return Gate;
}

// --- Commands --------------------------------------------------------------

struct Options {
  std::string Command;
  std::string Workload;
  std::string WorkDir;
  uint64_t Seed = 0;
  int64_t Volume = 0;
  bool Traced = false;
};

double cpuSeconds(int Who) {
  struct rusage Usage;
  ::getrusage(Who, &Usage);
  return double(Usage.ru_utime.tv_sec + Usage.ru_stime.tv_sec) +
         double(Usage.ru_utime.tv_usec + Usage.ru_stime.tv_usec) * 1e-6;
}

/// Peak resident set of this process (VmHWM: the image after exec, not
/// the parent it was forked from) or of any rank process it reaped,
/// whichever is larger, in MiB.
double peakRssMib() {
  int64_t PeakKib = 0;
  std::ifstream Status("/proc/self/status");
  for (std::string Line; std::getline(Status, Line);)
    if (Line.rfind("VmHWM:", 0) == 0)
      PeakKib = std::strtoll(Line.c_str() + 6, nullptr, 10);
  struct rusage Children;
  ::getrusage(RUSAGE_CHILDREN, &Children);
  return double(std::max<int64_t>(PeakKib, Children.ru_maxrss)) / 1024.0;
}

int64_t counterOf(const obs::MetricsSnapshot &Metrics, const char *Name) {
  const int64_t *Value = Metrics.counterValue(Name);
  return Value ? *Value : 0;
}

int commandRun(const Workload &W, const Options &Opts) {
  const int64_t Volume = Opts.Volume > 0 ? Opts.Volume : W.Volume;
  RunConfig Config = makeRunConfig(W, Opts.Seed, Volume, Opts.WorkDir);

  Instrumentation State;
  State.W = &W;
  State.Traced = Opts.Traced;
  State.ExpectedPerThread = size_t(Volume / Config.ProcessorCount + 16);
  State.RankZeroFingerprint = rankZeroFirstUniform(W, Opts.Seed);
  if (Opts.Traced) {
    State.SavePointNanos.reserve(size_t(Volume) + 16);
    Config.OnSavePoint = [&State](const RunProgress &) {
      State.SavePointNanos.push_back(nowNanos());
    };
  }
  const RealizationFn Routine = makeRoutine(State);

  const double CpuBefore =
      cpuSeconds(RUSAGE_SELF) + cpuSeconds(RUSAGE_CHILDREN);
  const int64_t Entry = nowNanos();
  State.SavePointNanos.push_back(Entry);
  Result<RunReport> Outcome = runSimulation(Routine, Config);
  const int64_t Exit = nowNanos();
  // User + system time of every thread of this process and of the rank
  // processes the run forked and reaped.
  const double CpuSeconds =
      cpuSeconds(RUSAGE_SELF) + cpuSeconds(RUSAGE_CHILDREN) - CpuBefore;

  JsonLine Out;
  Out.add("workload", W.Name);
  Out.add("seed", int64_t(Opts.Seed));
  Out.add("volume", Volume);
  Out.add("traced", Opts.Traced);
  Out.add("wall_s", double(Exit - Entry) * 1e-9);
  const int64_t FirstCall = State.RankZeroFirstCallNanos.load() >= 0
                                ? State.RankZeroFirstCallNanos.load()
                                : State.FirstCallNanos.load();
  Out.add("setup_s", FirstCall >= 0 ? double(FirstCall - Entry) * 1e-9 : NAN);
  Out.add("cpu_s", CpuSeconds);
  Out.add("peak_rss_mib", peakRssMib());
  if (!Outcome) {
    Out.add("ok", false);
    Out.add("error", Outcome.status().toString());
    std::printf("%s\n", Out.str().c_str());
    return 0;
  }
  const RunReport &Report = Outcome.value();
  const obs::MetricsSnapshot &Metrics = Report.Metrics;
  int64_t Messages = counterOf(Metrics, "comm.messages_sent");
  int64_t Bytes = counterOf(Metrics, "comm.bytes_sent");
  for (const ProcessRankStatus &Rank : Report.ProcessRanks) {
    Messages += Rank.MessagesSent;
    Bytes += Rank.BytesSent;
  }
  const ResultsStore Store(Config.WorkDir);
  const GateResult Gate = checkResults(W, Config, Store, Volume);

  Out.add("ok", true);
  Out.add("degraded", Report.Degraded);
  Out.add("failed_sends", Report.FailedSends);
  Out.add("dead_workers", int64_t(Report.DeadWorkers.size()));
  Out.add("total_volume", Report.TotalSampleVolume);
  Out.add("rng_backend", Report.RngBackendName);
  Out.add("gate_passed", Gate.Passed);
  Out.add("gate_reason", Gate.Reason);
  Out.add("gate_worst_sigmas", Gate.WorstSigmas);
  Out.add("gate_allowed_sigmas", Gate.AllowedSigmas);
  Out.add("gate_worst_variance_ratio", Gate.WorstVarianceRatio);
  Out.add("func_dat", Store.meansPath());
  // Counts DeterministicSchedule makes exact (store.snapshots_written is
  // not among them: the subtotal persist is time-based).
  Out.add("count.realizations", Report.TotalSampleVolume);
  Out.add("count.streams_issued", counterOf(Metrics, "rng.streams_issued"));
  Out.add("count.messages", Messages);
  Out.add("count.bytes", Bytes);
  Out.add("count.save_points", int64_t(Report.SavePointCount));
  const int64_t Snapshots = counterOf(Metrics, "store.snapshots_written");
  Out.add("core.snapshot_bytes",
          Snapshots > 0
              ? double(counterOf(Metrics, "store.snapshot_bytes_written")) /
                    double(Snapshots)
              : 0.0);

  if (Opts.Traced) {
    std::vector<uint32_t> Spans;
    int64_t Span = 0, Body = 0, Realizations = 0, Draws = 0;
    for (const std::unique_ptr<ThreadTrace> &Thread : State.Threads) {
      Spans.insert(Spans.end(), Thread->BodySpans.begin(),
                   Thread->BodySpans.end());
      if (Thread->Realizations == 0)
        continue;
      Span += Thread->LastEndNanos - Thread->FirstStartNanos;
      Body += Thread->BodyNanos;
      Realizations += Thread->Realizations;
      Draws += Thread->Draws;
    }
    std::vector<uint32_t> Intervals;
    for (size_t Index = 1; Index < State.SavePointNanos.size(); ++Index)
      Intervals.push_back(clampNanos(State.SavePointNanos[Index] -
                                     State.SavePointNanos[Index - 1]));
    writeSamples(Opts.WorkDir + "/body_spans.u32", Spans);
    writeSamples(Opts.WorkDir + "/save_intervals.u32", Intervals);
    Out.add("rng.draws_per_realization",
            Realizations ? double(Draws) / double(Realizations) : NAN);
    Out.add("core.engine_overhead_ns_per_realization",
            Realizations ? double(Span - Body) / double(Realizations) : NAN);
  }
  std::printf("%s\n", Out.str().c_str());
  return 0;
}

int commandProbes(const Workload &W, const Options &Opts) {
  JsonLine Out;
  Out.add("workload", W.Name);
  runLayerProbes(W, Opts.Seed, Opts.WorkDir, Out);
  std::printf("%s\n", Out.str().c_str());
  return 0;
}

std::string filesystemType(const std::string &Dir) {
  struct statfs Info;
  if (::statfs(Dir.c_str(), &Info) != 0)
    return "unknown";
  static const std::map<long, const char *> Known = {
      {0xEF53, "ext4"},       {0x01021994, "tmpfs"}, {0x58465342, "xfs"},
      {0x9123683E, "btrfs"},  {0x794C7630, "overlayfs"},
      {0x6969, "nfs"},        {0x65735546, "fuse"},  {0x858458F6, "ramfs"},
      {0x2FC12FC1, "zfs"},    {0x01021997, "9p"},    {0xF2F52010, "f2fs"}};
  const auto Found = Known.find(long(Info.f_type));
  if (Found != Known.end())
    return Found->second;
  char Hex[32];
  std::snprintf(Hex, sizeof(Hex), "0x%lx", long(Info.f_type));
  return Hex;
}

int commandStamp(const Options &Opts) {
  JsonLine Out;
  Out.add("nproc", int64_t(::sysconf(_SC_NPROCESSORS_ONLN)));
  Out.add("workdir_fs", filesystemType(Opts.WorkDir));
  Out.add("fsync_floor_us", fsyncFloorMicros(Opts.WorkDir));
  Out.add("simd_backend",
          std::string(rngsimd::backendName(rngsimd::CompiledBackend)) +
              (rngsimd::runtimeSupportsCompiledBackend() ? ""
                                                         : " (fallback)"));
  Out.add("build_type", PERFBENCH_BUILD_TYPE);
  Out.add("compiler", std::string("g++ ") + __VERSION__);
  std::printf("%s\n", Out.str().c_str());
  return 0;
}

int usage(const char *Why) {
  std::fprintf(stderr,
               "error: %s\nusage: parmonc_perfbench run|probes|stamp "
               "--workload W --seed N --workdir D [--volume V] [--traced]\n",
               Why);
  return 2;
}

} // namespace

int main(int Argc, char **Argv) {
  if (Argc < 2)
    return usage("missing command");
  Options Opts;
  Opts.Command = Argv[1];
  for (int Index = 2; Index < Argc; ++Index) {
    const std::string Flag = Argv[Index];
    if (Flag == "--traced") {
      Opts.Traced = true;
      continue;
    }
    if (Index + 1 >= Argc)
      return usage(("missing value for " + Flag).c_str());
    const char *Value = Argv[++Index];
    if (Flag == "--workload")
      Opts.Workload = Value;
    else if (Flag == "--workdir")
      Opts.WorkDir = Value;
    else if (Flag == "--seed")
      Opts.Seed = std::strtoull(Value, nullptr, 10);
    else if (Flag == "--volume")
      Opts.Volume = std::strtoll(Value, nullptr, 10);
    else
      return usage(("unknown flag " + Flag).c_str());
  }
  if (Opts.WorkDir.empty())
    return usage("--workdir is required");
  try {
    if (Opts.Command == "stamp")
      return commandStamp(Opts);
    const Workload *W = findWorkload(Opts.Workload);
    if (!W)
      return usage(("unknown workload '" + Opts.Workload + "'").c_str());
    if (Opts.Command == "run")
      return commandRun(*W, Opts);
    if (Opts.Command == "probes")
      return commandProbes(*W, Opts);
  } catch (const std::exception &Failure) {
    std::fprintf(stderr, "error: %s\n", Failure.what());
    return 1;
  }
  return usage(("unknown command " + Opts.Command).c_str());
}
