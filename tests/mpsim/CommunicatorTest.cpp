//===- tests/mpsim/CommunicatorTest.cpp - Message-passing runtime tests ---===//
//
// Part of the PARMONC reproduction library.
//
//===----------------------------------------------------------------------===//

#include "parmonc/mpsim/Engine.h"

#include "parmonc/support/Clock.h"

#include <gtest/gtest.h>

#include <atomic>
#include <numeric>
#include <thread>

namespace parmonc {
namespace {

std::vector<uint8_t> bytesOf(std::initializer_list<uint8_t> Values) {
  return std::vector<uint8_t>(Values);
}

TEST(Mailbox, FifoWithinTag) {
  Mailbox Box;
  Box.push({0, 7, bytesOf({1})});
  Box.push({0, 7, bytesOf({2})});
  auto First = Box.tryPop(7);
  auto Second = Box.tryPop(7);
  ASSERT_TRUE(First && Second);
  EXPECT_EQ(First->Payload[0], 1);
  EXPECT_EQ(Second->Payload[0], 2);
  EXPECT_FALSE(Box.tryPop(7).has_value());
}

TEST(Mailbox, TagFilteringSkipsOtherTags) {
  Mailbox Box;
  Box.push({0, 1, bytesOf({10})});
  Box.push({0, 2, bytesOf({20})});
  auto Tagged = Box.tryPop(2);
  ASSERT_TRUE(Tagged);
  EXPECT_EQ(Tagged->Payload[0], 20);
  EXPECT_EQ(Box.pendingCount(), 1u);
  // The tag-1 message is still there, in order.
  auto Remaining = Box.tryPop(-1);
  ASSERT_TRUE(Remaining);
  EXPECT_EQ(Remaining->Tag, 1);
}

TEST(Mailbox, PopWaitTimesOutOnEmptyBox) {
  Mailbox Box;
  auto Nothing = Box.popWait(5, 5'000'000); // 5 ms
  EXPECT_FALSE(Nothing.has_value());
}

TEST(Mailbox, PopWaitWakesOnPush) {
  Mailbox Box;
  std::thread Producer([&Box] {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
    Box.push({1, 4, bytesOf({42})});
  });
  auto Received = Box.popWait(4, 2'000'000'000);
  Producer.join();
  ASSERT_TRUE(Received);
  EXPECT_EQ(Received->Payload[0], 42);
  EXPECT_EQ(Received->Source, 1);
}

TEST(Mailbox, PopWaitIgnoresWrongTagPushesWithoutExtendingDeadline) {
  // Regression: a stream of non-matching pushes used to restart the wait
  // with the full timeout on every wakeup, so a waiter for a tag that
  // never arrives could block far past its deadline. The predicate-based
  // wait must return nullopt once the deadline passes, leaving the
  // wrong-tag messages queued.
  Mailbox Box;
  std::atomic<bool> StopProducer{false};
  std::thread Producer([&] {
    while (!StopProducer.load()) {
      Box.push({0, 1, bytesOf({7})});
      std::this_thread::sleep_for(std::chrono::milliseconds(2));
    }
  });
  const auto Start = std::chrono::steady_clock::now();
  auto Nothing = Box.popWait(99, 30'000'000); // 30 ms, tag never sent
  const auto Elapsed = std::chrono::steady_clock::now() - Start;
  StopProducer.store(true);
  Producer.join();
  EXPECT_FALSE(Nothing.has_value());
  // Generous bound: the old behavior blocked for as long as pushes kept
  // arriving (seconds); the fix returns within ~one timeout.
  EXPECT_LT(std::chrono::duration_cast<std::chrono::milliseconds>(Elapsed)
                .count(),
            500);
  EXPECT_GT(Box.pendingCount(), 0u);
}

TEST(Mailbox, PopWaitOnManualClockReturnsWhenInjectedTimePasses) {
  // With an injected clock the deadline is measured on *that* clock: a
  // waiter polls, and returns promptly once the test advances manual time
  // past the deadline — no real-time sleep of the full timeout.
  ManualClock Time(0);
  Mailbox Box;
  // popWait snapshots its deadline from the injected clock on entry, so a
  // single advance could land before the snapshot on a loaded machine and
  // leave the deadline forever unreachable — keep advancing until the
  // waiter has actually returned.
  std::atomic<bool> Returned{false};
  std::thread Advancer([&Time, &Returned] {
    while (!Returned.load()) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
      Time.advanceNanos(2'000'000'000);
    }
  });
  const auto Start = std::chrono::steady_clock::now();
  auto Nothing = Box.popWait(1, 1'000'000'000, &Time); // 1 s of manual time
  const auto Elapsed = std::chrono::steady_clock::now() - Start;
  Returned.store(true);
  Advancer.join();
  EXPECT_FALSE(Nothing.has_value());
  EXPECT_LT(std::chrono::duration_cast<std::chrono::milliseconds>(Elapsed)
                .count(),
            500);
}

TEST(Mailbox, PopWaitOnManualClockStillDeliversMatches) {
  ManualClock Time(0);
  Mailbox Box;
  std::thread Producer([&Box] {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
    Box.push({2, 8, bytesOf({11})});
  });
  auto Received = Box.popWait(8, 1'000'000'000, &Time);
  Producer.join();
  ASSERT_TRUE(Received);
  EXPECT_EQ(Received->Payload[0], 11);
}

std::vector<Message> batchOf(std::initializer_list<std::pair<int, uint8_t>>
                                 TagsAndBytes) {
  std::vector<Message> Batch;
  for (const auto &[Tag, Byte] : TagsAndBytes)
    Batch.push_back({0, Tag, bytesOf({Byte})});
  return Batch;
}

TEST(Mailbox, PushAllKeepsOrderAndReturnsTheDepth) {
  Mailbox Box;
  EXPECT_EQ(Box.push({0, 1, bytesOf({1})}), 1u);
  std::vector<Message> Batch = batchOf({{1, 2}, {1, 3}, {1, 4}});
  EXPECT_EQ(Box.pushAll(Batch), 4u);
  EXPECT_TRUE(Batch.empty());
  for (uint8_t Expected = 1; Expected <= 4; ++Expected) {
    auto Next = Box.tryPop(1);
    ASSERT_TRUE(Next);
    EXPECT_EQ(Next->Payload[0], Expected);
  }
  std::vector<Message> Empty;
  EXPECT_EQ(Box.pushAll(Empty), 0u);
}

TEST(Mailbox, TryPopByTagMatchesAcrossABatch) {
  Mailbox Box;
  std::vector<Message> Batch = batchOf({{1, 10}, {2, 20}, {1, 11}, {2, 21}});
  Box.pushAll(Batch);
  auto Second = Box.tryPop(2);
  ASSERT_TRUE(Second);
  EXPECT_EQ(Second->Payload[0], 20);
  auto First = Box.tryPop(1);
  ASSERT_TRUE(First);
  EXPECT_EQ(First->Payload[0], 10);
  auto Rest = Box.tryPop(2);
  ASSERT_TRUE(Rest);
  EXPECT_EQ(Rest->Payload[0], 21);
  EXPECT_EQ(Box.pendingCount(), 1u);
}

TEST(Mailbox, PushAllAfterCloseIsDropped) {
  Mailbox Box;
  Box.close();
  std::vector<Message> Batch = batchOf({{1, 1}, {1, 2}});
  EXPECT_EQ(Box.pushAll(Batch), 0u);
  EXPECT_TRUE(Batch.empty());
  EXPECT_EQ(Box.pendingCount(), 0u);
  EXPECT_FALSE(Box.tryPop().has_value());
}

TEST(Mailbox, BlockedPopWaitWakesForABatch) {
  // The match sits last in the batch: the single wakeup of one pushAll
  // must let the waiter find it past the non-matching messages.
  Mailbox Box;
  std::thread Producer([&Box] {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
    std::vector<Message> Batch = batchOf({{1, 1}, {1, 2}, {4, 42}});
    Box.pushAll(Batch);
  });
  auto Received = Box.popWait(4, 2'000'000'000);
  Producer.join();
  ASSERT_TRUE(Received);
  EXPECT_EQ(Received->Payload[0], 42);
  EXPECT_EQ(Box.pendingCount(), 2u);
}

TEST(Fabric, TracksBytesTransferred) {
  obs::MetricsRegistry Registry;
  Fabric Net(2, &Registry);
  FabricCommunicator Sender(Net, 1);
  EXPECT_TRUE(Sender.sendReliable(0, 1, std::vector<uint8_t>(100), 1, 0,
                                  nullptr));
  EXPECT_TRUE(Sender.sendReliable(0, 1, std::vector<uint8_t>(20), 1, 0,
                                  nullptr));
  EXPECT_EQ(Registry.counter("comm.bytes_sent").value(), 120);
  EXPECT_EQ(Registry.counter("comm.messages_sent").value(), 2);
}

TEST(Communicator, SendDeliversToDestinationOnly) {
  Fabric Net(3);
  FabricCommunicator Rank0(Net, 0), Rank1(Net, 1), Rank2(Net, 2);
  EXPECT_TRUE(Rank0.sendReliable(2, 5, bytesOf({9}), 1, 0, nullptr));
  EXPECT_FALSE(Rank1.tryReceive());
  EXPECT_FALSE(Rank2.tryReceive(4));
  auto Received = Rank2.tryReceive(5);
  ASSERT_TRUE(Received);
  EXPECT_EQ(Received->Source, 0);
  EXPECT_EQ(Received->Payload[0], 9);
}

TEST(Communicator, RankAndSize) {
  Fabric Net(4);
  FabricCommunicator Comm(Net, 2);
  EXPECT_EQ(Comm.rank(), 2);
  EXPECT_EQ(Comm.size(), 4);
}

TEST(CommunicatorDeathTest, OutOfRangeDestinationAbortsOnEveryTransport) {
  ::testing::GTEST_FLAG(death_test_style) = "threadsafe";
  for (const TransportKind Kind :
       {TransportKind::Threads, TransportKind::Processes}) {
    EXPECT_DEATH(
        (void)runEngine(Kind, 2,
                        [](Communicator &Comm) {
                          if (Comm.rank() == 0)
                            (void)Comm.sendReliable(2, 1, bytesOf({1}), 1, 0,
                                                    nullptr);
                        }),
        "destination rank out of range")
        << "under " << transportName(Kind);
  }
}

TEST(ThreadEngine, RunsEveryRankExactlyOnce) {
  std::atomic<int> Mask{0};
  ASSERT_TRUE(runEngine(TransportKind::Threads, 8, [&Mask](Communicator &Comm) {
    Mask.fetch_or(1 << Comm.rank());
  }));
  EXPECT_EQ(Mask.load(), 0xff);
}

TEST(ThreadEngine, GatherToRankZero) {
  // The paper's pattern: every rank sends to 0; rank 0 sums.
  std::atomic<int64_t> Total{0};
  const int Ranks = 6;
  ASSERT_TRUE(runEngine(TransportKind::Threads, Ranks,
                        [&Total](Communicator &Comm) {
    if (Comm.rank() != 0) {
      std::vector<uint8_t> Payload{uint8_t(Comm.rank())};
      EXPECT_TRUE(Comm.sendReliable(0, 1, std::move(Payload), 1, 0, nullptr));
      return;
    }
    int Received = 0;
    int64_t Sum = 0;
    while (Received < Ranks - 1) {
      if (auto Incoming = Comm.receiveWait(1, 1'000'000'000)) {
        Sum += Incoming->Payload[0];
        ++Received;
      }
    }
    Total.store(Sum);
  }));
  EXPECT_EQ(Total.load(), 1 + 2 + 3 + 4 + 5);
}

TEST(ThreadEngine, SingleRankWorks) {
  int Calls = 0;
  ASSERT_TRUE(runEngine(TransportKind::Threads, 1, [&Calls](Communicator &Comm) {
    EXPECT_EQ(Comm.size(), 1);
    ++Calls;
  }));
  EXPECT_EQ(Calls, 1);
}

TEST(ThreadEngine, ManyToOneStress) {
  // Hammer rank 0 from 7 senders x 200 messages; nothing may be lost.
  const int Ranks = 8;
  const int PerSender = 200;
  std::atomic<int64_t> Received{0};
  ASSERT_TRUE(runEngine(TransportKind::Threads, Ranks,
                        [&Received](Communicator &Comm) {
    if (Comm.rank() != 0) {
      for (int Index = 0; Index < PerSender; ++Index)
        EXPECT_TRUE(Comm.sendReliable(
            0, 3, std::vector<uint8_t>{uint8_t(Index & 0xff)}, 1, 0,
            nullptr));
      return;
    }
    int64_t Count = 0;
    while (Count < int64_t(Ranks - 1) * PerSender) {
      if (auto Incoming = Comm.receiveWait(3, 1'000'000'000))
        ++Count;
      else
        break; // timeout: fail below
    }
    Received.store(Count);
  }));
  EXPECT_EQ(Received.load(), int64_t(Ranks - 1) * PerSender);
}

} // namespace
} // namespace parmonc
