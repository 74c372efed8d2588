//===- tests/mpsim/TransportMatrixTest.cpp - Both backends, one matrix ----===//
//
// Part of the PARMONC reproduction library.
//
//===----------------------------------------------------------------------===//
//
// Every scenario here runs under BOTH transports through the same
// runEngine() entry point, producing a deterministic trace string at rank
// 0 (which lives in the calling process under both backends, so the
// captured trace is directly comparable). The thread backend is the
// oracle: each Processes trace is diffed against the Threads trace of the
// same scenario, character for character.
//
//===----------------------------------------------------------------------===//

#include "parmonc/mpsim/Engine.h"
#include "parmonc/mpsim/Serialize.h"

#include <gtest/gtest.h>

#include <cmath>
#include <sstream>
#include <string>
#include <vector>

namespace parmonc {
namespace {

constexpr TransportKind BothTransports[] = {TransportKind::Threads,
                                            TransportKind::Processes};

/// Runs \p Body under \p Kind and returns rank 0's trace string.
std::string traceOf(TransportKind Kind, int RankCount,
                    const std::function<void(Communicator &,
                                             std::ostringstream &)> &Scenario) {
  std::string Trace;
  Result<EngineReport> Hosted = runEngine(
      Kind, RankCount,
      [&Scenario, &Trace](Communicator &Comm) {
        std::ostringstream Out;
        Scenario(Comm, Out);
        if (Comm.rank() == 0)
          Trace = Out.str();
      });
  EXPECT_TRUE(Hosted) << Hosted.status().message();
  return Trace;
}

void expectIdenticalTraces(
    int RankCount,
    const std::function<void(Communicator &, std::ostringstream &)>
        &Scenario) {
  const std::string Oracle =
      traceOf(TransportKind::Threads, RankCount, Scenario);
  const std::string Candidate =
      traceOf(TransportKind::Processes, RankCount, Scenario);
  EXPECT_FALSE(Oracle.empty());
  EXPECT_EQ(Oracle, Candidate)
      << "the process transport diverged from the thread oracle";
}

void formatVector(std::ostringstream &Out, const std::vector<double> &Values) {
  for (size_t Index = 0; Index < Values.size(); ++Index)
    Out << (Index ? "," : "") << Values[Index];
}

constexpr int64_t Patience = 5'000'000'000;

void post(Communicator &Comm, int Destination, int Tag,
          const std::vector<double> &Values) {
  ByteWriter Writer;
  Writer.writeDoubleVector(Values);
  EXPECT_TRUE(Comm.sendReliable(Destination, Tag, Writer.takeBytes(), 1, 0,
                                nullptr));
}

/// The values \p Incoming carries; empty for no message.
std::vector<double> valuesOf(const std::optional<Message> &Incoming) {
  if (!Incoming)
    return {};
  ByteReader Reader(Incoming->Payload);
  return Reader.readDoubleVector().valueOr({});
}

/// Rank 0's view of one \p Tag message from every worker, by rank (entry
/// 0 stays empty).
std::vector<std::vector<double>> collectByRank(Communicator &Comm, int Tag) {
  std::vector<std::vector<double>> ByRank(size_t(Comm.size()));
  for (int Worker = 1; Worker < Comm.size(); ++Worker)
    if (std::optional<Message> Incoming = Comm.receiveWait(Tag, Patience))
      ByRank[size_t(Incoming->Source)] = valuesOf(Incoming);
  return ByRank;
}

double sumOf(const std::vector<double> &Values) {
  double Sum = 0;
  for (double Value : Values)
    Sum += Value;
  return Sum;
}

TEST(TransportMatrix, BroadcastReachesEveryRankIdentically) {
  expectIdenticalTraces(4, [](Communicator &Comm, std::ostringstream &Out) {
    // Rank 0 sends one configuration to every worker. Everyone reports its
    // checksum back to rank 0, so the trace proves every rank (not just
    // the root) saw the same bytes.
    const std::vector<double> Config = {3.25, -8.5, 1e9};
    if (Comm.rank() != 0) {
      post(Comm, 0, 2, {sumOf(valuesOf(Comm.receiveWait(1, Patience)))});
      return;
    }
    for (int Worker = 1; Worker < Comm.size(); ++Worker)
      post(Comm, Worker, 1, Config);
    Out << "bcast:" << sumOf(Config) << ";";
    for (const std::vector<double> &Echo : collectByRank(Comm, 2)) {
      formatVector(Out, Echo);
      Out << ";";
    }
  });
}

TEST(TransportMatrix, ReduceAndAllReduceSumsMatch) {
  expectIdenticalTraces(4, [](Communicator &Comm, std::ostringstream &Out) {
    // Per-rank contribution (rank+1, (rank+1)^2): exact in doubles, so
    // the sums are bit-identical regardless of backend. Workers send theirs
    // up, rank 0 sends the total back down, and every worker echoes its
    // view: the trace covers the worker-side results too.
    const double Mine = Comm.rank() + 1;
    if (Comm.rank() != 0) {
      post(Comm, 0, 1, {Mine, Mine * Mine});
      post(Comm, 0, 3, valuesOf(Comm.receiveWait(2, Patience)));
      return;
    }
    std::vector<double> Reduced = {Mine, Mine * Mine};
    for (const std::vector<double> &Part : collectByRank(Comm, 1))
      for (size_t Index = 0; Index < Part.size() && Index < 2; ++Index)
        Reduced[Index] += Part[Index];
    for (int Worker = 1; Worker < Comm.size(); ++Worker)
      post(Comm, Worker, 2, Reduced);
    Out << "reduce:";
    formatVector(Out, Reduced);
    Out << " allreduce:";
    for (const std::vector<double> &View : collectByRank(Comm, 3)) {
      formatVector(Out, View);
      Out << ";";
    }
  });
}

TEST(TransportMatrix, GatherOrdersByRankUnderBothBackends) {
  expectIdenticalTraces(5, [](Communicator &Comm, std::ostringstream &Out) {
    const double Volume = 100.0 * (Comm.rank() + 1);
    if (Comm.rank() != 0) {
      post(Comm, 0, 1, {Volume});
      return;
    }
    std::vector<std::vector<double>> Volumes = collectByRank(Comm, 1);
    Volumes[0] = {Volume};
    Out << "gather:";
    for (const std::vector<double> &Entry : Volumes) {
      formatVector(Out, Entry);
      Out << ";";
    }
  });
}

TEST(TransportMatrix, PointToPointAndBarrierSequence) {
  // The §2.2 shape in miniature: workers send tagged subtotals, rank 0
  // collects, and a release message from rank 0 ends each round, so no
  // worker starts round two before rank 0 has all of round one. Message
  // ORDER per source is part of the asserted trace.
  expectIdenticalTraces(3, [](Communicator &Comm, std::ostringstream &Out) {
    const int Me = Comm.rank();
    for (int Round = 0; Round < 2; ++Round) {
      if (Me != 0) {
        std::vector<uint8_t> Payload = {uint8_t(Me), uint8_t(Round)};
        EXPECT_TRUE(Comm.sendReliable(0, 7, std::move(Payload), 1, 0,
                                      nullptr));
        std::optional<Message> Release = Comm.receiveWait(8, Patience);
        ASSERT_TRUE(Release) << "round " << Round << " never released";
        continue;
      }
      // Two messages per round, one from each worker; receiveWait keeps
      // arrival-order effects out by draining per-source in rank order.
      int Seen = 0;
      std::vector<std::string> BySource(Comm.size());
      while (Seen < Comm.size() - 1) {
        std::optional<Message> Incoming = Comm.receiveWait(7, Patience);
        ASSERT_TRUE(Incoming) << "worker message lost in round " << Round;
        std::ostringstream One;
        One << Incoming->Source << ">" << int(Incoming->Payload[0]) << "."
            << int(Incoming->Payload[1]);
        BySource[size_t(Incoming->Source)] += One.str();
        ++Seen;
      }
      Out << "round" << Round << ":";
      for (const std::string &Entry : BySource)
        Out << Entry << ";";
      for (int Worker = 1; Worker < Comm.size(); ++Worker)
        EXPECT_TRUE(Comm.sendReliable(Worker, 8, {}, 1, 0, nullptr));
    }
  });
}

TEST(TransportMatrix, StopBroadcastCrossesTheBackend) {
  for (const TransportKind Kind : BothTransports) {
    Result<EngineReport> Hosted = runEngine(
        Kind, 3, [](Communicator &Comm) {
          if (Comm.rank() == 0) {
            Comm.requestStop(StopReason::TimeLimit);
            // Every worker acknowledges once it has seen the stop.
            for (int Worker = 1; Worker < Comm.size(); ++Worker)
              EXPECT_TRUE(Comm.receiveWait(1, Patience));
          } else {
            // Workers spin until the stop request crosses the transport —
            // through shared atomics or over the wire — then acknowledge.
            while (!Comm.stopRequested()) {
            }
            EXPECT_TRUE(Comm.sendReliable(0, 1, {}, 1, 0, nullptr));
          }
        });
    ASSERT_TRUE(Hosted) << Hosted.status().message();
    EXPECT_TRUE(Hosted.value().StopOnTimeLimit)
        << "under " << transportName(Kind);
    EXPECT_FALSE(Hosted.value().StopOnErrorTarget);
  }
}

TEST(TransportMatrix, ProcessReportCarriesCleanExitDiagnostics) {
  size_t BytesAtRoot = 0;
  Result<EngineReport> Hosted = runEngine(
      TransportKind::Processes, 4, [&BytesAtRoot](Communicator &Comm) {
        if (Comm.rank() != 0) {
          (void)Comm.sendReliable(0, 1, std::vector<uint8_t>(256), 1, 0,
                                  nullptr);
          return;
        }
        for (int Worker = 1; Worker < Comm.size(); ++Worker)
          if (std::optional<Message> Incoming =
                  Comm.receiveWait(1, Patience))
            BytesAtRoot += Incoming->Payload.size();
      });
  ASSERT_TRUE(Hosted) << Hosted.status().message();
  const EngineReport &Report = Hosted.value();
  ASSERT_EQ(Report.Ranks.size(), 3u);
  for (const ProcessRankStatus &Rank : Report.Ranks) {
    EXPECT_TRUE(Rank.ExitedCleanly) << "rank " << Rank.Rank;
    EXPECT_TRUE(Rank.GoodbyeReceived) << "rank " << Rank.Rank;
    EXPECT_FALSE(Rank.Signaled) << "rank " << Rank.Rank;
    EXPECT_EQ(Rank.MessagesSent, 1) << "rank " << Rank.Rank;
    EXPECT_EQ(Rank.BytesSent, 256) << "rank " << Rank.Rank;
    EXPECT_EQ(Rank.FailedSends, 0) << "rank " << Rank.Rank;
  }
  EXPECT_EQ(BytesAtRoot, 3u * 256u);
}

TEST(TransportMatrix, SingleRankRunsWithoutForking) {
  for (const TransportKind Kind : BothTransports) {
    Result<EngineReport> Hosted =
        runEngine(Kind, 1, [](Communicator &Comm) {
          // A self-send degenerates correctly at N=1.
          EXPECT_TRUE(Comm.sendReliable(0, 3, {1, 2, 3}, 1, 0, nullptr));
          std::optional<Message> Echo = Comm.tryReceive(3);
          ASSERT_TRUE(Echo);
          EXPECT_EQ(Echo->Payload.size(), 3u);
        });
    ASSERT_TRUE(Hosted) << Hosted.status().message();
    if (Kind == TransportKind::Processes) {
      EXPECT_TRUE(Hosted.value().Ranks.empty());
    }
  }
}

TEST(TransportMatrix, TransportNamesParseAndPrint) {
  EXPECT_STREQ(transportName(TransportKind::Threads), "threads");
  EXPECT_STREQ(transportName(TransportKind::Processes), "processes");
  EXPECT_EQ(parseTransport("threads"), TransportKind::Threads);
  EXPECT_EQ(parseTransport("processes"), TransportKind::Processes);
  EXPECT_EQ(parseTransport("procs"), TransportKind::Processes);
  EXPECT_FALSE(parseTransport("carrier-pigeon").has_value());
}

} // namespace
} // namespace parmonc
