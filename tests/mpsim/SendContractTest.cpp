//===- tests/mpsim/SendContractTest.cpp - Scripted faults, exact counts ---===//
//
// Part of the PARMONC reproduction library.
//
//===----------------------------------------------------------------------===//
//
// The send contract under a fixed fault script, on both transports: every
// source runs the same sequence of sends while a scripted SendFaultHook
// answers its attempts with Deliver, Drop, Duplicate, Delay (on a
// ManualClock) and Fail, with and without retries left. The test pins the
// exact comm.* counters, every worker's goodbye diagnostics and the
// multiset of (source, tag, payload) each destination receives.
//
//===----------------------------------------------------------------------===//

#include "parmonc/mpsim/Engine.h"

#include "parmonc/support/Clock.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <atomic>
#include <iterator>
#include <memory>
#include <tuple>
#include <vector>

namespace parmonc {
namespace {

constexpr int Ranks = 3;
constexpr int64_t DelayNanos = 1'000;
constexpr int ReceiptTag = 99;
constexpr int64_t Patience = 10'000'000'000; // 10 s: only a lost message

using Act = SendFault::Action;

/// The hook's verdicts for each source, one per send attempt in order;
/// every attempt past the end is delivered.
const SendFault Script[] = {
    {Act::Deliver, 0}, {Act::Drop, 0},      {Act::Duplicate, 0},
    {Act::Delay, DelayNanos},               {Act::Fail, 0},
    {Act::Fail, 0},    {Act::Deliver, 0},   {Act::Fail, 0},
    {Act::Fail, 0},    {Act::Duplicate, 0}, {Act::Delay, DelayNanos},
};

enum class To { Zero, Self, Next, AfterNext };

/// One scripted send; Copies is how many times it lands.
struct ScriptedSend {
  To Target;
  int MaxAttempts;
  int Copies;
};

/// Every source's sends, in step with Script.
const ScriptedSend Sends[] = {
    {To::Zero, 1, 1},      // Deliver
    {To::Zero, 1, 0},      // Drop
    {To::Next, 1, 2},      // Duplicate
    {To::Zero, 1, 1},      // Delay
    {To::AfterNext, 3, 1}, // Fail, Fail, Deliver: two retries
    {To::Zero, 2, 0},      // Fail, Fail: out of attempts
    {To::Self, 1, 2},      // Duplicate to itself
    {To::Next, 1, 1},      // Delay
};

int destinationOf(int Source, To Target) {
  switch (Target) {
  case To::Zero:
    return 0;
  case To::Self:
    return Source;
  case To::Next:
    return (Source + 1) % Ranks;
  case To::AfterNext:
    return (Source + 2) % Ranks;
  }
  return 0;
}

std::vector<uint8_t> payloadOf(int Source, int Index) {
  return std::vector<uint8_t>(size_t(1 + Source + 3 * Index),
                              uint8_t(16 * Source + Index));
}

using Record = std::tuple<int, int, std::vector<uint8_t>>;

/// What \p Destination must receive from the script, sorted.
std::vector<Record> expectedAt(int Destination) {
  std::vector<Record> Expected;
  for (int Source = 0; Source < Ranks; ++Source)
    for (int Index = 0; Index < int(std::size(Sends)); ++Index)
      if (destinationOf(Source, Sends[Index].Target) == Destination)
        for (int Copy = 0; Copy < Sends[Index].Copies; ++Copy)
          Expected.emplace_back(Source, 10 + Index, payloadOf(Source, Index));
  std::sort(Expected.begin(), Expected.end());
  return Expected;
}

SendFaultHook scriptedHook() {
  auto Calls = std::make_shared<std::array<std::atomic<int>, Ranks>>();
  return [Calls](int Source, int, int) {
    const int Call = (*Calls)[size_t(Source)].fetch_add(1);
    return Call < int(std::size(Script)) ? Script[Call] : SendFault{};
  };
}

/// A worker's sorted receipts, shipped to rank 0: source, tag, length,
/// payload per record.
std::vector<uint8_t> encodeRecords(const std::vector<Record> &Records) {
  std::vector<uint8_t> Bytes;
  for (const auto &[Source, Tag, Payload] : Records) {
    Bytes.push_back(uint8_t(Source));
    Bytes.push_back(uint8_t(Tag));
    Bytes.push_back(uint8_t(Payload.size()));
    Bytes.insert(Bytes.end(), Payload.begin(), Payload.end());
  }
  return Bytes;
}

std::vector<Record> decodeRecords(const std::vector<uint8_t> &Bytes) {
  std::vector<Record> Records;
  for (size_t At = 0; At + 3 <= Bytes.size();) {
    const size_t Length = Bytes[At + 2];
    const auto First = Bytes.begin() + std::ptrdiff_t(At + 3);
    Records.emplace_back(int(Bytes[At]), int(Bytes[At + 1]),
                         std::vector<uint8_t>(First,
                                              First + std::ptrdiff_t(Length)));
    At += 3 + Length;
  }
  return Records;
}

/// What rank 0 saw: its own records and each worker's receipt.
struct Observed {
  std::vector<Record> Seen[Ranks];
  int FailedAtRoot = 0;
};

void runScript(Communicator &Comm, ManualClock &Time, Observed &Out) {
  const int Me = Comm.rank();
  int Failed = 0;
  for (int Index = 0; Index < int(std::size(Sends)); ++Index) {
    const ScriptedSend &Send = Sends[Index];
    if (!Comm.sendReliable(destinationOf(Me, Send.Target), 10 + Index,
                           payloadOf(Me, Index), Send.MaxAttempts,
                           /*BackoffNanos=*/0, /*TimeSource=*/nullptr))
      ++Failed;
  }
  // Every delayed message is due after this; the next receive releases it.
  Time.advanceNanos(2 * DelayNanos);

  const size_t Wanted =
      expectedAt(Me).size() + (Me == 0 ? size_t(Ranks - 1) : 0);
  std::vector<Record> Seen;
  for (size_t Got = 0; Got < Wanted; ++Got) {
    std::optional<Message> Incoming = Comm.receiveWait(-1, Patience);
    if (!Incoming)
      break;
    if (Incoming->Tag == ReceiptTag) {
      Out.Seen[Incoming->Source] = decodeRecords(Incoming->Payload);
      continue;
    }
    Seen.emplace_back(Incoming->Source, Incoming->Tag,
                      std::move(Incoming->Payload));
  }
  std::sort(Seen.begin(), Seen.end());
  if (Me == 0) {
    Out.Seen[0] = std::move(Seen);
    Out.FailedAtRoot = Failed;
    return;
  }
  (void)Comm.sendReliable(0, ReceiptTag, encodeRecords(Seen), 1, 0, nullptr);
}

struct ContractRun {
  Observed Seen;
  EngineReport Report;
  int64_t MessagesSent = 0;
  int64_t BytesSent = 0;
  int64_t SendRetries = 0;
  int64_t SendsFailed = 0;
};

ContractRun runContract(TransportKind Kind) {
  ContractRun Run;
  obs::MetricsRegistry Registry;
  ManualClock Time(1'000'000);
  EngineOptions Options;
  Options.Metrics = &Registry;
  Options.FaultHook = scriptedHook();
  Options.FaultClock = &Time;
  Result<EngineReport> Hosted = runEngine(
      Kind, Ranks,
      [&](Communicator &Comm) { runScript(Comm, Time, Run.Seen); }, Options);
  EXPECT_TRUE(Hosted) << Hosted.status().message();
  if (Hosted)
    Run.Report = Hosted.value();
  Run.MessagesSent = Registry.counter("comm.messages_sent").value();
  Run.BytesSent = Registry.counter("comm.bytes_sent").value();
  Run.SendRetries = Registry.counter("comm.send_retries").value();
  Run.SendsFailed = Registry.counter("comm.sends_failed").value();
  return Run;
}

void expectScriptedReceipts(const ContractRun &Run, const char *Transport) {
  for (int Destination = 0; Destination < Ranks; ++Destination)
    EXPECT_EQ(Run.Seen.Seen[Destination], expectedAt(Destination))
        << "rank " << Destination << " under " << Transport;
  EXPECT_EQ(Run.Seen.FailedAtRoot, 1) << Transport;
}

// Script bytes per source s: sizes 1 + s + 3i over the seven sends that
// leave the retry loop (i = 0..4, 6, 7), i.e. 76 / 83 / 90. The receipts
// add 3 + payload bytes per record: 109 from rank 1, 112 from rank 2.

TEST(SendContract, ThreadCountersAreExact) {
  const ContractRun Run = runContract(TransportKind::Threads);
  expectScriptedReceipts(Run, "threads");
  EXPECT_EQ(Run.MessagesSent, 3 * 7 + 2);
  EXPECT_EQ(Run.BytesSent, 76 + 83 + 90 + 109 + 112);
  EXPECT_EQ(Run.SendRetries, 3 * 3);
  EXPECT_EQ(Run.SendsFailed, 3);
  EXPECT_TRUE(Run.Report.Ranks.empty());
  EXPECT_EQ(Run.Report.ChildFailedSends, 0);
}

TEST(SendContract, ProcessCountersAreExact) {
  const ContractRun Run = runContract(TransportKind::Processes);
  expectScriptedReceipts(Run, "processes");
  // Only rank 0 counts into the caller's registry; workers report theirs
  // in the goodbye frame.
  EXPECT_EQ(Run.MessagesSent, 7);
  EXPECT_EQ(Run.BytesSent, 76);
  EXPECT_EQ(Run.SendRetries, 3);
  EXPECT_EQ(Run.SendsFailed, 1);
  ASSERT_EQ(Run.Report.Ranks.size(), size_t(Ranks - 1));
  const int64_t WorkerBytes[Ranks] = {0, 83 + 109, 90 + 112};
  for (const ProcessRankStatus &Worker : Run.Report.Ranks) {
    ASSERT_GE(Worker.Rank, 1);
    ASSERT_LT(Worker.Rank, Ranks);
    EXPECT_TRUE(Worker.GoodbyeReceived) << "rank " << Worker.Rank;
    EXPECT_EQ(Worker.MessagesSent, 8) << "rank " << Worker.Rank;
    EXPECT_EQ(Worker.BytesSent, WorkerBytes[Worker.Rank])
        << "rank " << Worker.Rank;
    EXPECT_EQ(Worker.FailedSends, 1) << "rank " << Worker.Rank;
  }
  EXPECT_EQ(Run.Report.ChildFailedSends, 2);
}

} // namespace
} // namespace parmonc
