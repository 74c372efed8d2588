//===- parmonc/ckpt/BackgroundWriter.h - Non-blocking commit queue --------===//
//
// Part of the PARMONC reproduction library.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Decouples the collector's save-point path from checkpoint disk I/O: the
/// owner hands a CommitRequest to enqueue() — a memcpy-sized hand-off —
/// and a dedicated writer thread performs the store commit. The queue is
/// bounded; when commits fall behind, backpressure is *skip-and-coalesce*:
/// the oldest still-queued request is dropped in favour of the newest one.
/// That is always safe for checkpoints — every request carries the full
/// cumulative state, so committing generation N subsumes generation N-1 —
/// and the drop is observable (coalescedCount(), "ckpt.coalesced_saves",
/// RunReport::CoalescedCheckpoints), never silent.
///
/// Concurrency is message-passing only: a work mailbox in, a result
/// mailbox out (the blessed mpsim primitives — no raw threads, mutexes or
/// atomics in this module, per lint rule R8). All public methods belong to
/// the single owner thread.
///
//===----------------------------------------------------------------------===//

#ifndef PARMONC_CKPT_BACKGROUNDWRITER_H
#define PARMONC_CKPT_BACKGROUNDWRITER_H

#include "parmonc/ckpt/CheckpointStore.h"
#include "parmonc/mpsim/Communicator.h"
#include "parmonc/obs/Metrics.h"
#include "parmonc/support/Status.h"

#include <cstdint>
#include <memory>

namespace parmonc {
namespace ckpt {

/// One writer thread committing checkpoint generations off the save path.
class BackgroundWriter {
public:
  /// Spawns the writer thread. \p QueueDepth >= 1 bounds the number of
  /// pending commits before enqueue() starts coalescing. \p Store must
  /// outlive the writer; \p Registry may be null.
  BackgroundWriter(const CheckpointStore &Store, int QueueDepth,
                   obs::MetricsRegistry *Registry);

  /// Stops the writer if still running (draining queued commits first).
  ~BackgroundWriter();

  BackgroundWriter(const BackgroundWriter &) = delete;
  BackgroundWriter &operator=(const BackgroundWriter &) = delete;

  /// Hands one commit to the writer and returns immediately. When the
  /// queue is at capacity the oldest pending request is coalesced away
  /// first (newest-wins); returns false exactly when that happened.
  bool enqueue(CheckpointStore::CommitRequest Request);

  /// Blocks until every commit enqueued so far has been written. Returns
  /// the first commit error seen over the writer's lifetime.
  [[nodiscard]] Status drain();

  /// Drains queued commits, stops the thread and joins it. Idempotent.
  /// Returns the first commit error seen over the writer's lifetime.
  [[nodiscard]] Status stop();

  /// Simulated crash: discards every queued commit and joins the thread
  /// without writing them — the on-disk state stays at the last finished
  /// commit, exactly as if the process had been killed.
  void abandon();

  /// Requests coalesced away by backpressure so far (owner thread only).
  int64_t coalescedCount() const { return Coalesced; }

  /// Commits the writer thread has completed successfully, as observed by
  /// the owner (refreshed by enqueue()/drain()/stop()).
  int64_t committedCount() const { return Committed; }

private:
  void writerLoop();
  void recordResult(const Message &Response);
  void drainResponses();

  const CheckpointStore &Store;
  const int QueueDepth;
  obs::MetricsRegistry *Metrics = nullptr;

  /// Owner -> writer: commit requests, barrier probes, stop.
  Mailbox Work;
  /// Writer -> owner: per-commit results, barrier acks.
  Mailbox Done;
  std::unique_ptr<WorkerGroup> Writer;

  // Owner-thread state (never touched by the writer thread).
  bool Stopped = false;
  int64_t Coalesced = 0;
  int64_t Committed = 0;
  uint64_t BarrierToken = 0;
  Status FirstError;
};

} // namespace ckpt
} // namespace parmonc

#endif // PARMONC_CKPT_BACKGROUNDWRITER_H
