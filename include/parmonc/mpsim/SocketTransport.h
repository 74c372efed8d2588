//===- parmonc/mpsim/SocketTransport.h - Ranks as forked processes --------===//
//
// Part of the PARMONC reproduction library.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The Processes transport: rank 0 stays in the calling process; ranks
/// 1..N-1 are forked worker processes, each connected to the parent by one
/// Unix-domain socket pair carrying the CRC-framed messages of
/// mpsim/Wire.h in a star topology. A router thread in the parent moves
/// worker frames to their destinations (rank 0's mailbox, or another
/// worker's socket), fans out stop/abort broadcasts, and supervises the
/// children: HELLO on start, GOODBYE with diagnostics on orderly exit, EOF
/// without GOODBYE = unexpected death (counted; the collector's deadline
/// declares the rank dead), waitpid reaping with a grace period and
/// SIGKILL escalation on teardown.
///
//===----------------------------------------------------------------------===//

#ifndef PARMONC_MPSIM_SOCKETTRANSPORT_H
#define PARMONC_MPSIM_SOCKETTRANSPORT_H

#include "parmonc/mpsim/Engine.h"

namespace parmonc {

/// Hosts \p RankCount ranks with rank 0 on the calling thread and every
/// other rank as a forked process. Returns after rank 0's body finished
/// and all workers were reaped; per-worker exit diagnostics land in the
/// report. Fails with a Status if the process fleet cannot be launched.
[[nodiscard]] Result<EngineReport>
runProcessEngine(int RankCount,
                 const std::function<void(Communicator &)> &Body,
                 const EngineOptions &Options = {});

} // namespace parmonc

#endif // PARMONC_MPSIM_SOCKETTRANSPORT_H
