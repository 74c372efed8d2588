//===- mpsim/Communicator.cpp - In-process message passing ---------------===//
//
// Part of the PARMONC reproduction library.
//
//===----------------------------------------------------------------------===//

#include "parmonc/mpsim/Communicator.h"

#include "parmonc/support/Contract.h"

#include <algorithm>
#include <chrono>
#include <cstdlib>
#include <iterator>
#include <thread>

namespace parmonc {

size_t Mailbox::push(Message Incoming) {
  size_t Depth;
  {
    std::lock_guard<std::mutex> Lock(Mutex);
    if (!Closed) // else the backend is tearing down; nobody will pop it
      Queue.push_back(std::move(Incoming));
    Depth = Queue.size();
  }
  Available.notify_all();
  return Depth;
}

size_t Mailbox::pushAll(std::vector<Message> &Batch) {
  size_t Depth;
  {
    std::lock_guard<std::mutex> Lock(Mutex);
    if (!Closed)
      Queue.insert(Queue.end(), std::make_move_iterator(Batch.begin()),
                   std::make_move_iterator(Batch.end()));
    Depth = Queue.size();
  }
  Batch.clear();
  Available.notify_all();
  return Depth;
}

std::optional<Message> Mailbox::popMatchingLocked(int Tag) {
  for (auto Iterator = Queue.begin(); Iterator != Queue.end(); ++Iterator) {
    if (Tag < 0 || Iterator->Tag == Tag) {
      Message Found = std::move(*Iterator);
      Queue.erase(Iterator);
      return Found;
    }
  }
  return std::nullopt;
}

bool Mailbox::containsLocked(int Tag) const {
  for (const Message &Queued : Queue)
    if (Tag < 0 || Queued.Tag == Tag)
      return true;
  return false;
}

std::optional<Message> Mailbox::tryPop(int Tag) {
  std::lock_guard<std::mutex> Lock(Mutex);
  return popMatchingLocked(Tag);
}

std::optional<Message> Mailbox::popWait(int Tag, int64_t TimeoutNanos,
                                        const Clock *TimeSource) {
  if (TimeSource) {
    // Injected-clock deadline: the condition variable cannot wait on a
    // virtual clock, so poll in short real-time slices. The predicate is
    // rechecked on every wakeup and the deadline is checked on the
    // injected clock, so a frozen ManualClock waiter returns promptly
    // once the test advances time past the deadline.
    const int64_t Deadline = TimeSource->nowNanos() + TimeoutNanos;
    std::unique_lock<std::mutex> Lock(Mutex);
    for (;;) {
      if (std::optional<Message> Found = popMatchingLocked(Tag))
        return Found;
      if (Closed || TimeSource->nowNanos() >= Deadline)
        return std::nullopt;
      Available.wait_for(Lock, std::chrono::microseconds(100));
    }
  }
  const auto Deadline = std::chrono::steady_clock::now() +
                        std::chrono::nanoseconds(TimeoutNanos);
  std::unique_lock<std::mutex> Lock(Mutex);
  // wait_until with a predicate rechecks after every wakeup: spurious
  // wakeups and notifications for non-matching tags neither return early
  // nor push the deadline out; false means the deadline passed (or the
  // mailbox closed) with no matching message queued.
  Available.wait_until(Lock, Deadline,
                       [this, Tag] { return Closed || containsLocked(Tag); });
  return popMatchingLocked(Tag);
}

void Mailbox::close() {
  {
    std::lock_guard<std::mutex> Lock(Mutex);
    Closed = true;
  }
  Available.notify_all();
}

bool Mailbox::isClosed() const {
  std::lock_guard<std::mutex> Lock(Mutex);
  return Closed;
}

size_t Mailbox::pendingCount() const {
  std::lock_guard<std::mutex> Lock(Mutex);
  return Queue.size();
}

SendCounters SendCounters::of(obs::MetricsRegistry *Registry) {
  if (!Registry)
    return {};
  return {&Registry->counter("comm.messages_sent"),
          &Registry->counter("comm.bytes_sent"),
          &Registry->counter("comm.send_retries"),
          &Registry->counter("comm.sends_failed")};
}

void DelayQueue::hold(Held Entry) {
  std::lock_guard<std::mutex> Lock(Mutex);
  Queue.push_back(std::move(Entry));
}

std::vector<DelayQueue::Held> DelayQueue::takeDue(int64_t NowNanos) {
  std::vector<Held> Due;
  std::lock_guard<std::mutex> Lock(Mutex);
  auto FirstDue = std::partition(
      Queue.begin(), Queue.end(),
      [NowNanos](const Held &Entry) { return Entry.ReleaseNanos > NowNanos; });
  Due.assign(std::make_move_iterator(FirstDue),
             std::make_move_iterator(Queue.end()));
  Queue.erase(FirstDue, Queue.end());
  return Due;
}

void Communicator::crashHard() {
  // Only the process transport can kill a single rank; a thread-backed
  // rank shares the host process with every other rank and the caller.
  assert(false && "crashHard() requires the process transport");
  std::abort();
}

void Communicator::releaseDueMessages() {
  if (!FaultClock)
    return;
  for (DelayQueue::Held &Due : Delayed.takeDue(FaultClock->nowNanos()))
    deliver(Due.Destination, std::move(Due.Delayed));
}

Status Communicator::sendReliable(int Destination, int Tag,
                                  std::vector<uint8_t> Payload,
                                  int MaxAttempts, int64_t BackoffNanos,
                                  const Clock *TimeSource) {
  PARMONC_ASSERT(Destination >= 0 && Destination < RankCount,
                 "destination rank out of range");
  PARMONC_ASSERT(MaxAttempts >= 1, "need at least one send attempt");
  releaseDueMessages();

  SendFault Verdict;
  for (int Attempt = 1;; ++Attempt) {
    Verdict = Hook ? Hook(Rank, Destination, Tag) : SendFault{};
    if (Verdict.Act != SendFault::Action::Fail)
      break;
    if (Attempt >= MaxAttempts) {
      if (Counters.Failed)
        Counters.Failed->add();
      return ioError("send from rank " + std::to_string(Rank) +
                     " to rank " + std::to_string(Destination) +
                     " failed after " + std::to_string(MaxAttempts) +
                     " attempts");
    }
    if (Counters.Retries)
      Counters.Retries->add();
    if (TimeSource)
      TimeSource->sleepNanos(BackoffNanos);
  }

  if (Counters.Messages)
    Counters.Messages->add();
  if (Counters.Bytes)
    Counters.Bytes->add(int64_t(Payload.size()));
  if (Verdict.Act == SendFault::Action::Drop)
    return Status::ok(); // the network ate it; the sender cannot know

  Message Outgoing{Rank, Tag, std::move(Payload)};
  if (Verdict.Act == SendFault::Action::Delay && FaultClock) {
    Delayed.hold({FaultClock->nowNanos() + Verdict.DelayNanos, Destination,
                  std::move(Outgoing)});
    return Status::ok();
  }
  if (Verdict.Act == SendFault::Action::Duplicate)
    deliver(Destination, Outgoing);
  deliver(Destination, std::move(Outgoing));
  return Status::ok();
}

std::optional<Message> Communicator::tryReceive(int Tag) {
  releaseDueMessages();
  return Inbox.tryPop(Tag);
}

std::optional<Message> Communicator::receiveWait(int Tag,
                                                 int64_t TimeoutNanos,
                                                 const Clock *TimeSource) {
  releaseDueMessages();
  return Inbox.popWait(Tag, TimeoutNanos, TimeSource);
}

Fabric::Fabric(int RankCount, obs::MetricsRegistry *Metrics,
               SendFaultHook Hook, const Clock *FaultClock)
    : Counters(SendCounters::of(Metrics)),
      CollectorQueueDepth(
          Metrics ? &Metrics->gauge("comm.collector_queue_depth") : nullptr),
      Hook(std::move(Hook)), FaultClock(FaultClock) {
  assert(RankCount >= 1 && "fabric needs at least one rank");
  Mailboxes.reserve(size_t(RankCount));
  for (int Rank = 0; Rank < RankCount; ++Rank)
    Mailboxes.push_back(std::make_unique<Mailbox>());
}

void Fabric::requestStop(StopReason Reason) {
  StopBits.fetch_or(uint8_t(Reason), std::memory_order_relaxed);
  StopFlag.store(true, std::memory_order_relaxed);
}

bool Fabric::stopRequested() const {
  return StopFlag.load(std::memory_order_relaxed);
}

uint8_t Fabric::stopReasonBits() const {
  return StopBits.load(std::memory_order_relaxed);
}

void Fabric::requestAbort() {
  AbortFlag.store(true, std::memory_order_relaxed);
  StopFlag.store(true, std::memory_order_relaxed);
}

bool Fabric::abortRequested() const {
  return AbortFlag.load(std::memory_order_relaxed);
}

void FabricCommunicator::deliver(int Destination, Message Outgoing) {
  const size_t Depth =
      SharedFabric.mailboxOf(Destination).push(std::move(Outgoing));
  // Queue-delay signal: depth of the collector's mailbox right after a
  // subtotal lands there. The §2.2 claim is that this stays near zero.
  if (Destination == 0 && SharedFabric.CollectorQueueDepth)
    SharedFabric.CollectorQueueDepth->set(double(Depth));
}

WorkerGroup::WorkerGroup(int Count, const std::function<void(int)> &Body) {
  assert(Count >= 1 && "need at least one worker");
  Threads.reserve(size_t(Count));
  // Each thread owns a copy of the callable, so a temporary lambda passed
  // by the caller cannot dangle once this constructor returns.
  for (int Worker = 0; Worker < Count; ++Worker)
    Threads.emplace_back([Body, Worker] { Body(Worker); });
}

void WorkerGroup::join() {
  for (std::thread &Thread : Threads)
    if (Thread.joinable())
      Thread.join();
  Threads.clear();
}

} // namespace parmonc
