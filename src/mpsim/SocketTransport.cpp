//===- mpsim/SocketTransport.cpp - Ranks as forked processes -------------===//
//
// Part of the PARMONC reproduction library.
//
//===----------------------------------------------------------------------===//
//
// Star topology: every worker process holds one end of a socket pair whose
// other end lives in the parent. A parent router thread polls the worker
// sockets, delivers worker->rank0 data into rank 0's mailbox, forwards
// worker->worker data, and fans out stop/abort broadcasts. Rank 0 itself
// runs on the caller's thread in the parent, so everything rank 0 computes
// (collector state, reports, result files) is visible to the caller
// exactly as under the thread transport. Both sides send through the
// Communicator base's one fault-aware path; they only supply delivery.
//
// Failure semantics: a worker that exits without a GOODBYE frame is dead —
// the router counts it on EOF, and teardown decodes its waitpid status
// into the engine report. Frames are CRC-checked; a corrupt stream poisons
// that worker's decoder and is treated as a death, never as a partial
// message.
//
//===----------------------------------------------------------------------===//

#include "parmonc/mpsim/SocketTransport.h"

#include "parmonc/mpsim/Serialize.h"
#include "parmonc/mpsim/Wire.h"

#include <array>
#include <cerrno>
#include <chrono>
#include <csignal>
#include <cstring>
#include <thread>

#include <poll.h>
#include <sys/socket.h>
#include <sys/wait.h>
#include <unistd.h>

namespace parmonc {

namespace {

/// Writes the whole buffer, retrying on EINTR and short writes; suppresses
/// SIGPIPE so a dead peer surfaces as an error, not a process kill.
Status sendAllBytes(int Fd, const uint8_t *Data, size_t Size) {
  size_t Sent = 0;
  while (Sent < Size) {
    const ssize_t Wrote =
        ::send(Fd, Data + Sent, Size - Sent, MSG_NOSIGNAL);
    if (Wrote < 0) {
      if (errno == EINTR)
        continue;
      return ioError(std::string("socket write failed: ") +
                     std::strerror(errno));
    }
    Sent += size_t(Wrote);
  }
  return Status::ok();
}

/// Serializes the per-worker GOODBYE diagnostics payload.
std::vector<uint8_t> encodeGoodbye(int64_t FailedSends, int64_t MessagesSent,
                                   int64_t BytesSent) {
  ByteWriter Writer;
  Writer.writeI64(FailedSends);
  Writer.writeI64(MessagesSent);
  Writer.writeI64(BytesSent);
  return Writer.takeBytes();
}

//===----------------------------------------------------------------------===//
// Worker (child-process) side
//===----------------------------------------------------------------------===//

/// The rank handle inside a forked worker: one socket to the parent and a
/// reader thread feeding the local mailbox. Sends go through the base's
/// fault-aware path, so deterministic injectors replay identically across
/// transports; its counters are reported in the GOODBYE frame.
class ChildCommunicator final : public Communicator {
public:
  ChildCommunicator(int Rank, int Size, int Fd, const EngineOptions &Options)
      : Communicator(Rank, Size, Inbox, Delayed,
                     {&MessagesSent, &BytesSent, &SendRetries, &FailedSends},
                     Options.FaultHook, Options.FaultClock),
        Fd(Fd) {}

  void start() {
    writeFrame(Frame{FrameKind::Hello, rank(), 0, 0, {}});
    Reader = std::thread([this] { readerMain(); });
  }

  /// Orderly shutdown: diagnostics to the supervisor. The caller _exits
  /// right after, so the reader thread is never joined — the process
  /// teardown reaps it.
  void sendGoodbye() {
    writeFrame(Frame{FrameKind::Goodbye, rank(), 0, 0,
                     encodeGoodbye(FailedSends.value(), MessagesSent.value(),
                                   BytesSent.value())});
  }

  void requestStop(StopReason Reason) override {
    StopFlag.store(true, std::memory_order_relaxed);
    // The router rebroadcasts to every other rank.
    writeFrame(Frame{FrameKind::Stop, int32_t(uint8_t(Reason)), 0, 0, {}});
  }

  bool stopRequested() const override {
    return StopFlag.load(std::memory_order_relaxed);
  }

  void requestAbort() override {
    AbortFlag.store(true, std::memory_order_relaxed);
    StopFlag.store(true, std::memory_order_relaxed);
    writeFrame(Frame{FrameKind::Abort, rank(), 0, 0, {}});
  }

  bool abortRequested() const override {
    return AbortFlag.load(std::memory_order_relaxed);
  }

  [[noreturn]] void crashHard() override {
    // The harshest injected fault: the worker process dies on the spot,
    // exactly like a node loss — no goodbye, no flush, no destructors.
    ::raise(SIGKILL);
    ::_exit(137); // unreachable unless SIGKILL is somehow blocked
  }

private:
  void deliver(int Destination, Message Outgoing) override {
    if (Destination == rank()) {
      // Self-delivery never crosses the wire, mirroring the fabric.
      Inbox.push(std::move(Outgoing));
      return;
    }
    writeFrame(Frame{FrameKind::Data, Outgoing.Source, Destination,
                     Outgoing.Tag, std::move(Outgoing.Payload)});
  }

  void writeFrame(const Frame &Outgoing) {
    const std::vector<uint8_t> Encoded = encodeFrame(Outgoing);
    std::lock_guard<std::mutex> Lock(WriteMutex);
    (void)sendAllBytes(Fd, Encoded.data(), Encoded.size());
  }

  void readerMain() {
    FrameDecoder Decoder;
    uint8_t Chunk[65536];
    bool Corrupt = false;
    for (;;) {
      const ssize_t Got = ::read(Fd, Chunk, sizeof(Chunk));
      if (Got < 0 && errno == EINTR)
        continue;
      if (Got <= 0)
        break; // parent closed the socket: the run is over
      Decoder.feed(Chunk, size_t(Got));
      for (;;) {
        Result<std::optional<Frame>> Next = Decoder.next();
        if (!Next) {
          Corrupt = true; // unrecoverable framing error: treat as EOF
          break;
        }
        if (!Next.value())
          break;
        dispatch(*Next.value());
      }
      if (Corrupt)
        break;
    }
    // Parent gone (or stream corrupt): wake everyone so the worker can
    // wind down instead of blocking on messages that will never come.
    AbortFlag.store(true, std::memory_order_relaxed);
    StopFlag.store(true, std::memory_order_relaxed);
    Inbox.close();
  }

  void dispatch(const Frame &Incoming) {
    switch (Incoming.Kind) {
    case FrameKind::Data:
      Inbox.push(Message{Incoming.A, Incoming.C, Incoming.Payload});
      break;
    case FrameKind::Stop:
      StopFlag.store(true, std::memory_order_relaxed);
      break;
    case FrameKind::Abort:
      AbortFlag.store(true, std::memory_order_relaxed);
      StopFlag.store(true, std::memory_order_relaxed);
      break;
    default:
      break; // Hello/Goodbye are root-bound frames
    }
  }

  const int Fd;
  Mailbox Inbox;
  DelayQueue Delayed;
  obs::Counter MessagesSent;
  obs::Counter BytesSent;
  obs::Counter SendRetries;
  obs::Counter FailedSends;
  std::mutex WriteMutex;
  std::thread Reader;

  std::atomic<bool> StopFlag{false};
  std::atomic<bool> AbortFlag{false};
};

//===----------------------------------------------------------------------===//
// Root (parent-process) side
//===----------------------------------------------------------------------===//

/// Everything the parent's rank-0 communicator and the router thread
/// share. Per-worker socket writes are serialized by per-channel mutexes so
/// the router can forward while rank 0 sends.
struct RouterState {
  explicit RouterState(int RankCount)
      : RankCount(RankCount), ChildFd(size_t(RankCount), -1),
        FdOpen(size_t(RankCount), 0), GoodbyeSeen(size_t(RankCount), false),
        WriteMutexes(size_t(RankCount)) {
    for (auto &MutexPtr : WriteMutexes)
      MutexPtr = std::make_unique<std::mutex>();
    Diagnostics.resize(size_t(RankCount));
    for (int Rank = 0; Rank < RankCount; ++Rank)
      Diagnostics[size_t(Rank)].Rank = Rank;
  }

  const int RankCount;
  std::vector<int> ChildFd;
  // Guarded by the matching write mutex. Bytes, not vector<bool> bits:
  // neighbouring flags under different mutexes must not share a word.
  std::vector<uint8_t> FdOpen;
  Mailbox RootInbox;

  std::atomic<bool> StopFlag{false};
  std::atomic<uint8_t> StopBits{0};
  std::atomic<bool> AbortFlag{false};

  std::vector<bool> GoodbyeSeen; // router thread only
  std::vector<ProcessRankStatus> Diagnostics;
  std::vector<std::unique_ptr<std::mutex>> WriteMutexes;

  obs::Counter *FramesRouted = nullptr;
  obs::Counter *RootBatches = nullptr;
  obs::Counter *BytesRouted = nullptr;
  obs::Counter *UnexpectedExits = nullptr;
  obs::Counter *Goodbyes = nullptr;
  obs::Counter *StopBroadcasts = nullptr;
  obs::Gauge *CollectorQueueDepth = nullptr;

  /// Writes one encoded frame to worker \p Rank; silently drops it when
  /// the channel is already closed (the peer is dead — same outcome as a
  /// fabric message to a mailbox nobody drains).
  void writeToRank(int Rank, const std::vector<uint8_t> &Encoded) {
    std::lock_guard<std::mutex> Lock(*WriteMutexes[size_t(Rank)]);
    if (!FdOpen[size_t(Rank)])
      return;
    (void)sendAllBytes(ChildFd[size_t(Rank)], Encoded.data(),
                       Encoded.size());
  }

  void closeChannel(int Rank) {
    std::lock_guard<std::mutex> Lock(*WriteMutexes[size_t(Rank)]);
    if (!FdOpen[size_t(Rank)])
      return;
    FdOpen[size_t(Rank)] = 0;
    ::close(ChildFd[size_t(Rank)]);
    ChildFd[size_t(Rank)] = -1;
  }

  /// Broadcast to every open worker channel.
  void broadcastFrame(const Frame &Outgoing) {
    const std::vector<uint8_t> Encoded = encodeFrame(Outgoing);
    for (int Rank = 1; Rank < RankCount; ++Rank)
      writeToRank(Rank, Encoded);
    if (StopBroadcasts)
      StopBroadcasts->add();
  }

  void noteStop(uint8_t ReasonBits) {
    StopBits.fetch_or(ReasonBits, std::memory_order_relaxed);
    StopFlag.store(true, std::memory_order_relaxed);
  }
};

/// Rank 0's communicator: local mailbox fed by the router; sends go
/// straight onto the destination worker's socket.
class RootCommunicator final : public Communicator {
public:
  RootCommunicator(RouterState &State, const EngineOptions &Options)
      : Communicator(0, State.RankCount, State.RootInbox, Delayed,
                     SendCounters::of(Options.Metrics), Options.FaultHook,
                     Options.FaultClock),
        State(State) {}

  void requestStop(StopReason Reason) override {
    State.noteStop(uint8_t(Reason));
    State.broadcastFrame(
        Frame{FrameKind::Stop, int32_t(uint8_t(Reason)), 0, 0, {}});
  }

  bool stopRequested() const override {
    return State.StopFlag.load(std::memory_order_relaxed);
  }

  void requestAbort() override {
    State.AbortFlag.store(true, std::memory_order_relaxed);
    State.StopFlag.store(true, std::memory_order_relaxed);
    State.broadcastFrame(Frame{FrameKind::Abort, 0, 0, 0, {}});
  }

  bool abortRequested() const override {
    return State.AbortFlag.load(std::memory_order_relaxed);
  }

private:
  void deliver(int Destination, Message Outgoing) override {
    if (Destination == 0) {
      const size_t Depth = State.RootInbox.push(std::move(Outgoing));
      if (State.CollectorQueueDepth)
        State.CollectorQueueDepth->set(double(Depth));
      return;
    }
    State.writeToRank(Destination,
                      encodeFrame(Frame{FrameKind::Data, Outgoing.Source,
                                        Destination, Outgoing.Tag,
                                        std::move(Outgoing.Payload)}));
  }

  RouterState &State;
  DelayQueue Delayed;
};

/// The parent's router/supervisor loop: polls worker sockets until every
/// channel reached EOF, dispatching frames as they complete.
void routerMain(RouterState &State) {
  std::vector<FrameDecoder> Decoders(size_t(State.RankCount));
  std::vector<bool> StreamDone(size_t(State.RankCount), false);
  for (int Rank = 1; Rank < State.RankCount; ++Rank)
    if (State.ChildFd[size_t(Rank)] < 0)
      StreamDone[size_t(Rank)] = true;

  auto handleDeath = [&](int Rank) {
    StreamDone[size_t(Rank)] = true;
    // Died without the orderly-shutdown frame: a real crash. The run goes
    // on; the collector's straggler deadline declares the rank dead.
    if (!State.GoodbyeSeen[size_t(Rank)] && State.UnexpectedExits)
      State.UnexpectedExits->add();
    State.closeChannel(Rank);
  };

  // Rank 0's data frames from one read() reach its inbox as one batch:
  // one lock and one wakeup per read, not per frame. Any other frame
  // flushes the batch first, so it stays ordered after the data before it.
  std::vector<Message> RootBatch;
  auto flushRootBatch = [&] {
    if (RootBatch.empty())
      return;
    const size_t Depth = State.RootInbox.pushAll(RootBatch);
    if (State.CollectorQueueDepth)
      State.CollectorQueueDepth->set(double(Depth));
    if (State.RootBatches)
      State.RootBatches->add();
  };

  // Payloads move out of the decoded frame; counters are summed per read.
  int64_t FramesRead = 0;
  int64_t DataBytesRead = 0;
  auto dispatch = [&](int Source, Frame &Incoming) {
    ++FramesRead;
    if (Incoming.Kind == FrameKind::Data) {
      DataBytesRead += int64_t(Incoming.Payload.size());
      if (Incoming.B == 0)
        RootBatch.push_back(
            Message{Incoming.A, Incoming.C, std::move(Incoming.Payload)});
      else
        State.writeToRank(Incoming.B, encodeFrame(Incoming));
      return;
    }
    flushRootBatch();
    switch (Incoming.Kind) {
    case FrameKind::Data:
      break; // delivered above
    case FrameKind::Hello:
      break; // liveness is implied by the open stream
    case FrameKind::Stop:
      State.noteStop(uint8_t(Incoming.A));
      State.broadcastFrame(Incoming);
      break;
    case FrameKind::Abort:
      State.AbortFlag.store(true, std::memory_order_relaxed);
      State.StopFlag.store(true, std::memory_order_relaxed);
      State.broadcastFrame(Frame{FrameKind::Abort, 0, 0, 0, {}});
      break;
    case FrameKind::Goodbye: {
      State.GoodbyeSeen[size_t(Source)] = true;
      if (State.Goodbyes)
        State.Goodbyes->add();
      ProcessRankStatus &Diag = State.Diagnostics[size_t(Source)];
      Diag.GoodbyeReceived = true;
      ByteReader Reader(Incoming.Payload);
      if (Result<int64_t> Value = Reader.readI64())
        Diag.FailedSends = Value.value();
      if (Result<int64_t> Value = Reader.readI64())
        Diag.MessagesSent = Value.value();
      if (Result<int64_t> Value = Reader.readI64())
        Diag.BytesSent = Value.value();
      break;
    }
    }
  };

  uint8_t Chunk[65536];
  for (;;) {
    std::vector<pollfd> Polled;
    std::vector<int> PolledRank;
    for (int Rank = 1; Rank < State.RankCount; ++Rank) {
      if (StreamDone[size_t(Rank)])
        continue;
      Polled.push_back(pollfd{State.ChildFd[size_t(Rank)], POLLIN, 0});
      PolledRank.push_back(Rank);
    }
    if (Polled.empty())
      return; // every worker stream closed: the run is over
    const int Ready = ::poll(Polled.data(), nfds_t(Polled.size()), 100);
    if (Ready < 0) {
      if (errno == EINTR)
        continue;
      return; // poll itself failing is unrecoverable
    }
    for (size_t Index = 0; Index < Polled.size(); ++Index) {
      if ((Polled[Index].revents & (POLLIN | POLLHUP | POLLERR)) == 0)
        continue;
      const int Rank = PolledRank[Index];
      const ssize_t Got =
          ::read(State.ChildFd[size_t(Rank)], Chunk, sizeof(Chunk));
      if (Got < 0 && errno == EINTR)
        continue;
      if (Got <= 0) {
        handleDeath(Rank);
        continue;
      }
      FrameDecoder &Decoder = Decoders[size_t(Rank)];
      Decoder.feed(Chunk, size_t(Got));
      bool Corrupt = false;
      for (;;) {
        Result<std::optional<Frame>> Next = Decoder.next();
        if (!Next) {
          Corrupt = true; // framing error: the stream is unusable
          break;
        }
        if (!Next.value())
          break;
        dispatch(Rank, *Next.value());
      }
      flushRootBatch();
      if (State.FramesRouted)
        State.FramesRouted->add(FramesRead);
      if (State.BytesRouted)
        State.BytesRouted->add(DataBytesRead);
      FramesRead = 0;
      DataBytesRead = 0;
      if (Corrupt)
        handleDeath(Rank);
    }
  }
}

} // namespace

Result<EngineReport>
runProcessEngine(int RankCount,
                 const std::function<void(Communicator &)> &Body,
                 const EngineOptions &Options) {
  if (RankCount < 1)
    return invalidArgument("engine needs at least one rank");

  RouterState State(RankCount);
  if (Options.Metrics) {
    State.FramesRouted = &Options.Metrics->counter("transport.frames_routed");
    State.RootBatches = &Options.Metrics->counter("transport.root_batches");
    State.BytesRouted = &Options.Metrics->counter("transport.bytes_routed");
    State.UnexpectedExits =
        &Options.Metrics->counter("transport.unexpected_exits");
    State.Goodbyes = &Options.Metrics->counter("transport.goodbyes");
    State.StopBroadcasts =
        &Options.Metrics->counter("transport.stop_broadcasts");
    State.CollectorQueueDepth =
        &Options.Metrics->gauge("comm.collector_queue_depth");
  }

  // One socket pair per worker, all created before the first fork so
  // every child can close exactly the descriptors it must not hold.
  std::vector<std::array<int, 2>> Pairs(size_t(RankCount), {-1, -1});
  for (int Rank = 1; Rank < RankCount; ++Rank) {
    int Fds[2];
    if (::socketpair(AF_UNIX, SOCK_STREAM, 0, Fds) != 0) {
      const Status Failed = ioError(
          std::string("socketpair() failed: ") + std::strerror(errno));
      for (int Opened = 1; Opened < Rank; ++Opened) {
        ::close(Pairs[size_t(Opened)][0]);
        ::close(Pairs[size_t(Opened)][1]);
      }
      return Failed;
    }
    Pairs[size_t(Rank)] = {Fds[0], Fds[1]}; // [0] parent end, [1] child end
  }

  std::vector<pid_t> Pids(size_t(RankCount), -1);
  for (int Rank = 1; Rank < RankCount; ++Rank) {
    const pid_t Pid = ::fork();
    if (Pid < 0) {
      const Status Failed =
          ioError(std::string("fork() failed: ") + std::strerror(errno));
      for (int Forked = 1; Forked < Rank; ++Forked) {
        ::kill(Pids[size_t(Forked)], SIGKILL);
        int Ignored = 0;
        ::waitpid(Pids[size_t(Forked)], &Ignored, 0);
      }
      for (int Opened = 1; Opened < RankCount; ++Opened) {
        ::close(Pairs[size_t(Opened)][0]);
        ::close(Pairs[size_t(Opened)][1]);
      }
      return Failed;
    }
    if (Pid == 0) {
      // Worker process for this rank: keep only our own child-side end.
      for (int Other = 1; Other < RankCount; ++Other) {
        ::close(Pairs[size_t(Other)][0]);
        if (Other != Rank)
          ::close(Pairs[size_t(Other)][1]);
      }
      ChildCommunicator Self(Rank, RankCount, Pairs[size_t(Rank)][1],
                             Options);
      Self.start();
      Body(Self);
      Self.sendGoodbye();
      // Never return into the caller (a test harness would re-run its
      // epilogue once per worker); skip destructors and exit now. The
      // reader thread dies with the process.
      ::_exit(0);
    }
    Pids[size_t(Rank)] = Pid;
  }
  for (int Rank = 1; Rank < RankCount; ++Rank) {
    ::close(Pairs[size_t(Rank)][1]); // child ends belong to the children
    State.ChildFd[size_t(Rank)] = Pairs[size_t(Rank)][0];
    State.FdOpen[size_t(Rank)] = 1;
  }

  std::thread Router;
  if (RankCount > 1)
    Router = std::thread([&State] { routerMain(State); });

  RootCommunicator Root(State, Options);
  Body(Root);

  // Supervised teardown: wait for each worker to exit on its own within
  // the grace period, then escalate to SIGKILL so a wedged worker cannot
  // hang the run. Reaping closes the worker's socket end, which is what
  // terminates the router loop.
  const auto Deadline =
      std::chrono::steady_clock::now() +
      std::chrono::nanoseconds(Options.TeardownGraceNanos);
  for (int Rank = 1; Rank < RankCount; ++Rank) {
    ProcessRankStatus &Diag = State.Diagnostics[size_t(Rank)];
    int WaitStatus = 0;
    for (;;) {
      const pid_t Reaped =
          ::waitpid(Pids[size_t(Rank)], &WaitStatus, WNOHANG);
      if (Reaped == Pids[size_t(Rank)])
        break;
      if (Reaped < 0 && errno != EINTR)
        break; // already reaped or unwaitable; nothing more to learn
      if (std::chrono::steady_clock::now() >= Deadline) {
        ::kill(Pids[size_t(Rank)], SIGKILL);
        ::waitpid(Pids[size_t(Rank)], &WaitStatus, 0);
        break;
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    if (WIFEXITED(WaitStatus)) {
      Diag.ExitCode = WEXITSTATUS(WaitStatus);
      Diag.ExitedCleanly = Diag.ExitCode == 0;
    } else if (WIFSIGNALED(WaitStatus)) {
      Diag.Signaled = true;
      Diag.Signal = WTERMSIG(WaitStatus);
    }
  }
  if (Router.joinable())
    Router.join();
  for (int Rank = 1; Rank < RankCount; ++Rank)
    State.closeChannel(Rank);

  EngineReport Report;
  const uint8_t Bits = State.StopBits.load(std::memory_order_relaxed);
  Report.StopOnTimeLimit = (Bits & uint8_t(StopReason::TimeLimit)) != 0;
  Report.StopOnErrorTarget = (Bits & uint8_t(StopReason::ErrorTarget)) != 0;
  for (int Rank = 1; Rank < RankCount; ++Rank) {
    Report.Ranks.push_back(State.Diagnostics[size_t(Rank)]);
    Report.ChildFailedSends += State.Diagnostics[size_t(Rank)].FailedSends;
  }
  return Report;
}

} // namespace parmonc
