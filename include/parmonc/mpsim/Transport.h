//===- parmonc/mpsim/Transport.h - Rank transport selection ---------------===//
//
// Part of the PARMONC reproduction library.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// How the ranks of one run are hosted: as threads sharing one address
/// space (the original mpsim fabric, DESIGN.md §2), or as separate OS
/// processes exchanging CRC-framed messages over Unix-domain socket pairs
/// (§3.2's real cluster deployment, minus the network). The two backends
/// implement the same Communicator interface and are proven bit-identical
/// on estimator output by the cross-backend differential suite, so the
/// thread backend acts as the permanent oracle for the wire.
///
//===----------------------------------------------------------------------===//

#ifndef PARMONC_MPSIM_TRANSPORT_H
#define PARMONC_MPSIM_TRANSPORT_H

#include <cstdint>
#include <optional>
#include <string_view>
#include <vector>

namespace parmonc {

/// The rank-hosting backend of a run.
enum class TransportKind {
  Threads,   ///< one thread per rank over the in-process fabric
  Processes, ///< one forked process per rank over socket pairs
};

/// Stable lowercase name ("threads" / "processes") for flags and logs.
const char *transportName(TransportKind Kind);

/// Parses a transport name as accepted by --transport; empty optional on
/// anything else.
std::optional<TransportKind> parseTransport(std::string_view Name);

/// Why a run was asked to stop, carried on cross-rank stop broadcasts so
/// the supervising process can fill the run report even when the deciding
/// rank lives in another address space.
enum class StopReason : uint8_t {
  None = 0,
  TimeLimit = 1,
  ErrorTarget = 2,
};

/// Post-mortem of one worker process (Processes transport only): how it
/// exited and the counters it reported in its GOODBYE frame. A rank that
/// died without a GOODBYE (crash, SIGKILL) has GoodbyeReceived false and
/// its waitpid status decoded into the exit fields.
struct ProcessRankStatus {
  int Rank = -1;
  bool ExitedCleanly = false;   ///< exited with status 0
  bool Signaled = false;        ///< terminated by a signal
  int ExitCode = 0;             ///< WEXITSTATUS when !Signaled
  int Signal = 0;               ///< WTERMSIG when Signaled
  bool GoodbyeReceived = false; ///< the orderly-shutdown frame arrived
  int64_t FailedSends = 0;      ///< sends lost after every retry
  int64_t MessagesSent = 0;
  int64_t BytesSent = 0;
};

/// What the engine learned about the run, beyond what the rank bodies
/// computed themselves. Thread runs fill only the stop flags; process
/// runs add the per-child diagnostics that would otherwise die with the
/// workers' address spaces.
struct EngineReport {
  bool StopOnTimeLimit = false;   ///< some rank broadcast StopReason::TimeLimit
  bool StopOnErrorTarget = false; ///< some rank broadcast
                                  ///< StopReason::ErrorTarget
  int64_t ChildFailedSends = 0;   ///< sum of worker-process FailedSends
  std::vector<ProcessRankStatus> Ranks; ///< Processes only: ranks 1..N-1
};

} // namespace parmonc

#endif // PARMONC_MPSIM_TRANSPORT_H
