//===- mpsim/Engine.cpp - Transport-selecting rank engine ----------------===//
//
// Part of the PARMONC reproduction library.
//
//===----------------------------------------------------------------------===//

#include "parmonc/mpsim/Engine.h"

#include "parmonc/mpsim/SocketTransport.h"

#include <thread>

namespace parmonc {

const char *transportName(TransportKind Kind) {
  switch (Kind) {
  case TransportKind::Threads:
    return "threads";
  case TransportKind::Processes:
    return "processes";
  }
  return "unknown";
}

std::optional<TransportKind> parseTransport(std::string_view Name) {
  if (Name == "threads" || Name == "thread")
    return TransportKind::Threads;
  if (Name == "processes" || Name == "process" || Name == "procs")
    return TransportKind::Processes;
  return std::nullopt;
}

Result<EngineReport>
runEngine(TransportKind Kind, int RankCount,
          const std::function<void(Communicator &)> &Body,
          const EngineOptions &Options) {
  if (RankCount < 1)
    return invalidArgument("engine needs at least one rank");
  if (Kind == TransportKind::Processes)
    return runProcessEngine(RankCount, Body, Options);

  // Thread transport: the original fabric, one thread per rank. Keep the
  // fabric on this frame so its stop flags survive into the report.
  Fabric SharedFabric(RankCount, Options.Metrics, Options.FaultHook,
                      Options.FaultClock);
  std::vector<std::thread> Threads;
  Threads.reserve(size_t(RankCount));
  for (int Rank = 0; Rank < RankCount; ++Rank) {
    Threads.emplace_back([&SharedFabric, &Body, Rank] {
      FabricCommunicator Self(SharedFabric, Rank);
      Body(Self);
    });
  }
  for (std::thread &Thread : Threads)
    Thread.join();

  EngineReport Report;
  const uint8_t Bits = SharedFabric.stopReasonBits();
  Report.StopOnTimeLimit = (Bits & uint8_t(StopReason::TimeLimit)) != 0;
  Report.StopOnErrorTarget = (Bits & uint8_t(StopReason::ErrorTarget)) != 0;
  return Report;
}

} // namespace parmonc
