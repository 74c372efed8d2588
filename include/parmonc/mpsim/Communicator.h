//===- parmonc/mpsim/Communicator.h - In-process message passing ----------===//
//
// Part of the PARMONC reproduction library.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The MPI substitute (DESIGN.md §2): per-rank mailboxes with tagged,
/// asynchronous point-to-point messages. This is deliberately the subset
/// PARMONC's parallelization technique needs — asynchronous send to the
/// collector, non-blocking receive and a stop signal — nothing more. The
/// run engine is written against the abstract Communicator exactly the way
/// PARMONC is written against MPI, and user code never sees either. The
/// Communicator base owns the one fault-aware send path; two backends
/// supply its delivery: FabricCommunicator (threads-as-ranks over this
/// file's Fabric) and the socket-pair process transport in
/// SocketTransport.cpp, selected through mpsim/Engine.h.
///
//===----------------------------------------------------------------------===//

#ifndef PARMONC_MPSIM_COMMUNICATOR_H
#define PARMONC_MPSIM_COMMUNICATOR_H

#include "parmonc/mpsim/Transport.h"
#include "parmonc/obs/Metrics.h"
#include "parmonc/support/Clock.h"
#include "parmonc/support/Status.h"

#include <atomic>
#include <cassert>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <mutex>
#include <optional>
#include <thread>
#include <vector>

namespace parmonc {

/// A tagged point-to-point message.
struct Message {
  int Source = -1;
  int Tag = 0;
  std::vector<uint8_t> Payload;
};

/// Verdict of the fabric's fault hook for one send attempt. The fabric is
/// deliberately ignorant of fault *policy* — parmonc::fault::FaultInjector
/// adapts its plan onto this type, and production fabrics carry no hook at
/// all (zero cost).
struct SendFault {
  enum class Action {
    Deliver,   ///< normal delivery
    Drop,      ///< lost in transit; the sender still sees success
    Duplicate, ///< delivered twice
    Delay,     ///< held back for DelayNanos of fabric-clock time
    Fail,      ///< visible send failure (sendReliable may retry)
  };
  Action Act = Action::Deliver;
  int64_t DelayNanos = 0;
};

/// Hook consulted on every send attempt: (source, destination, tag). Both
/// transports consult it at the same points, so a deterministic injector
/// produces the same per-source fault sequence over threads and sockets.
using SendFaultHook = std::function<SendFault(int, int, int)>;

/// One rank's incoming queue. Thread-safe multi-producer/single-consumer.
class Mailbox {
public:
  /// Enqueues a message (called by any sender thread) and returns the
  /// queue depth after it. Messages pushed after close() are dropped — the
  /// backend is tearing down and nobody will ever pop them.
  size_t push(Message Incoming);

  /// Enqueues every message of \p Batch in order under one lock and one
  /// wakeup, leaving \p Batch empty; otherwise as push().
  size_t pushAll(std::vector<Message> &Batch);

  /// Removes and returns the oldest message whose tag matches \p Tag, or
  /// any message when \p Tag is negative. Non-blocking; empty optional if
  /// nothing matches. Draining an already-closed mailbox is allowed.
  std::optional<Message> tryPop(int Tag = -1);

  /// Blocking variant with a deadline; empty optional on timeout. The
  /// predicate is rechecked after every wakeup, so spurious wakeups and
  /// notifications for non-matching tags neither return early nor extend
  /// the deadline. With \p TimeSource set the deadline is measured on that
  /// clock (a ManualClock-driven waiter polls and returns as soon as the
  /// injected time passes the deadline); null uses the steady clock.
  /// Returns immediately (with a match if one is queued, empty otherwise)
  /// once the mailbox is closed — a teardown must never leave a waiter
  /// blocked for its full timeout.
  std::optional<Message> popWait(int Tag, int64_t TimeoutNanos,
                                 const Clock *TimeSource = nullptr);

  /// Closes the mailbox: wakes every blocked popWait immediately and
  /// makes further waits return without blocking. Queued messages stay
  /// drainable through tryPop. Idempotent; safe to call concurrently with
  /// waiters and pushers — this is the shutdown-ordering seam that lets a
  /// backend be torn down while peers still hold queued messages.
  void close();

  /// True once close() has been called.
  bool isClosed() const;

  /// Number of queued messages (any tag).
  size_t pendingCount() const;

private:
  std::optional<Message> popMatchingLocked(int Tag);
  bool containsLocked(int Tag) const;

  mutable std::mutex Mutex;
  std::condition_variable Available;
  std::deque<Message> Queue;
  bool Closed = false;
};

/// The comm.* counters a send path feeds; null entries are skipped.
struct SendCounters {
  obs::Counter *Messages = nullptr; ///< comm.messages_sent
  obs::Counter *Bytes = nullptr;    ///< comm.bytes_sent
  obs::Counter *Retries = nullptr;  ///< comm.send_retries
  obs::Counter *Failed = nullptr;   ///< comm.sends_failed

  /// The comm.* counters of \p Registry, or none when it is null.
  static SendCounters of(obs::MetricsRegistry *Registry);
};

/// Messages held back by Delay verdicts until their release time. Whoever
/// owns the queue decides who releases it: one per Fabric (any rank's send
/// or receive), one per socket-side communicator. Thread-safe.
class DelayQueue {
public:
  /// A message held for \p Destination until the fault clock reaches
  /// \p ReleaseNanos.
  struct Held {
    int64_t ReleaseNanos = 0;
    int Destination = 0;
    Message Delayed;
  };

  void hold(Held Entry);

  /// Removes and returns every message due at \p NowNanos.
  std::vector<Held> takeDue(int64_t NowNanos);

private:
  std::mutex Mutex;
  std::vector<Held> Queue;
};

/// A rank's handle to its run: the MPI-communicator equivalent. The send
/// contract is written once here: sendReliable consults the fault hook per
/// attempt, retries, counts and applies Drop/Delay/Duplicate, and the
/// receives release due delayed messages before popping the rank's
/// mailbox. A transport supplies only deliver() and the stop flags, so the
/// same collector/checkpoint code runs over threads (FabricCommunicator)
/// and over forked processes (the socket transport), and the differential
/// suite holds the two backends byte-identical on estimator output.
class Communicator {
public:
  virtual ~Communicator() = default;
  Communicator(const Communicator &) = delete;
  Communicator &operator=(const Communicator &) = delete;

  int rank() const { return Rank; }
  int size() const { return RankCount; }

  /// Asynchronous send with a bounded retry loop: the paper's workers
  /// never wait on the collector. A Fail verdict from the fault hook is
  /// retried up to \p MaxAttempts times total, sleeping \p BackoffNanos on
  /// \p TimeSource between attempts (a ManualClock backoff costs nothing).
  /// Returns the final failure once the attempts are exhausted. Dropped
  /// messages still count as success — a real network loses data without
  /// telling the sender.
  [[nodiscard]] Status sendReliable(int Destination, int Tag,
                                    std::vector<uint8_t> Payload,
                                    int MaxAttempts, int64_t BackoffNanos,
                                    const Clock *TimeSource);

  /// Non-blocking receive of the oldest message with \p Tag (-1 = any).
  std::optional<Message> tryReceive(int Tag = -1);

  /// Blocking receive with timeout; empty on timeout. \p TimeSource as in
  /// Mailbox::popWait.
  std::optional<Message> receiveWait(int Tag, int64_t TimeoutNanos,
                                     const Clock *TimeSource = nullptr);

  /// Broadcasts a cooperative stop to every rank of the run, crossing
  /// address spaces under the process transport.
  virtual void requestStop(StopReason Reason) = 0;
  virtual bool stopRequested() const = 0;

  /// Broadcasts "the collector is dead; skip finalization" — the injected
  /// collector crash turning into a whole-job kill.
  virtual void requestAbort() = 0;
  virtual bool abortRequested() const = 0;

  /// Kills the calling rank's host immediately and unrecoverably — under
  /// the process transport, raise(SIGKILL) on the worker process, the
  /// harshest crash the fault suite injects. Not supported (asserts) on
  /// the thread transport, where ranks share the test runner's process.
  [[noreturn]] virtual void crashHard();

protected:
  /// \p Inbox and \p Delayed must outlive the communicator; they are not
  /// touched before the first send or receive.
  Communicator(int Rank, int RankCount, Mailbox &Inbox, DelayQueue &Delayed,
               SendCounters Counters, const SendFaultHook &Hook,
               const Clock *FaultClock)
      : Rank(Rank), RankCount(RankCount), Inbox(Inbox), Delayed(Delayed),
        Counters(Counters), Hook(Hook), FaultClock(FaultClock) {}

  /// Moves \p Outgoing (Source and Tag set) to \p Destination's mailbox,
  /// whatever that takes on this transport.
  virtual void deliver(int Destination, Message Outgoing) = 0;

private:
  void releaseDueMessages();

  const int Rank;
  const int RankCount;
  Mailbox &Inbox;
  DelayQueue &Delayed;
  const SendCounters Counters;
  const SendFaultHook &Hook;
  const Clock *const FaultClock;
};

/// The shared state connecting all ranks of one thread-backed run.
class Fabric {
public:
  /// \p Metrics gets the comm.* counters and the comm.collector_queue_depth
  /// gauge (sampled at every delivery to rank 0 — the §2.2
  /// collector-congestion signal). \p Hook is consulted on every send;
  /// \p FaultClock times its Delay verdicts.
  explicit Fabric(int RankCount, obs::MetricsRegistry *Metrics = nullptr,
                  SendFaultHook Hook = {}, const Clock *FaultClock = nullptr);

  int rankCount() const { return int(Mailboxes.size()); }

  Mailbox &mailboxOf(int Rank) {
    assert(Rank >= 0 && Rank < rankCount() && "rank out of range");
    return *Mailboxes[size_t(Rank)];
  }

  /// Asks every rank to stop (cooperative; ranks poll stopRequested()).
  void requestStop(StopReason Reason);
  bool stopRequested() const;
  /// OR of every StopReason broadcast so far.
  uint8_t stopReasonBits() const;

  /// Marks the run aborted: the collector died, ranks must skip
  /// finalization. Implies requestStop.
  void requestAbort();
  bool abortRequested() const;

private:
  friend class FabricCommunicator;

  std::vector<std::unique_ptr<Mailbox>> Mailboxes;
  const SendCounters Counters;
  obs::Gauge *const CollectorQueueDepth;
  const SendFaultHook Hook;
  const Clock *const FaultClock;
  DelayQueue Delayed;
  std::atomic<bool> StopFlag{false};
  std::atomic<uint8_t> StopBits{0};
  std::atomic<bool> AbortFlag{false};
};

/// The thread-backed rank handle over a shared Fabric.
class FabricCommunicator final : public Communicator {
public:
  FabricCommunicator(Fabric &SharedFabric, int Rank)
      : Communicator(Rank, SharedFabric.rankCount(),
                     SharedFabric.mailboxOf(Rank), SharedFabric.Delayed,
                     SharedFabric.Counters, SharedFabric.Hook,
                     SharedFabric.FaultClock),
        SharedFabric(SharedFabric) {}

  void requestStop(StopReason Reason) override {
    SharedFabric.requestStop(Reason);
  }
  bool stopRequested() const override {
    return SharedFabric.stopRequested();
  }
  void requestAbort() override { SharedFabric.requestAbort(); }
  bool abortRequested() const override {
    return SharedFabric.abortRequested();
  }

private:
  void deliver(int Destination, Message Outgoing) override;

  Fabric &SharedFabric;
};

/// A joinable group of worker threads; each runs \p Body with its worker
/// index in [0, Count). This is the *intra-rank* fan-out primitive of the
/// threaded realization engine (RunConfig::WorkerThreadsPerRank): worker
/// threads inside one rank hand their results to the rank thread through a
/// Mailbox, never by shared mutable state, so the thread primitive itself
/// lives here in mpsim with the rest of the approved concurrency seam.
/// The spawning thread stays free to service its own loop (rank 0 keeps
/// collecting) and joins when the workers are done.
class WorkerGroup {
public:
  /// Spawns \p Count threads immediately; each thread holds its own copy
  /// of \p Body (state the workers share must be captured by reference and
  /// outlive join()).
  WorkerGroup(int Count, const std::function<void(int)> &Body);

  /// Joins every worker; idempotent. The destructor calls it, so a
  /// WorkerGroup can never outlive its workers' captured state.
  void join();

  ~WorkerGroup() { join(); }

  WorkerGroup(const WorkerGroup &) = delete;
  WorkerGroup &operator=(const WorkerGroup &) = delete;

private:
  std::vector<std::thread> Threads;
};

} // namespace parmonc

#endif // PARMONC_MPSIM_COMMUNICATOR_H
