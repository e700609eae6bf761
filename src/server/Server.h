//===- server/Server.h - The relserved network server -----------*- C++ -*-===//
//
// Part of the RelC data representation synthesis library.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// RelServer exposes one ConcurrentRelation over the wire protocol of
/// server/Wire.h: a loopback TCP listener, one thread per connection
/// reading pipelined request frames, reads (Query/Size) executed
/// inline on the connection thread against the epoch-protected read
/// path, and mutations (Insert/Remove/Update/Transact) funneled
/// through the group-commit queue (server/GroupCommit.h) — the
/// response is written from the committer's completion callback, after
/// the WAL sync covering the transaction, so a client that has seen an
/// Ok owns a durable commit.
///
/// Durability pipeline: setCommitHook serializes each committed
/// batch's redo ops (wire::encodeRedo) and appends them to the Wal in
/// ticket order (the hook contract makes append order == ticket
/// order); the committer syncs once per group. start() recovers before
/// serving: load `<wal>.ckpt` if present (bulk inserts), replay the
/// log's valid prefix through ordinary transacts, truncate the torn
/// tail, and seed the ticket counter past the recovered history.
///
/// Request validation is strict — the sequential engine's contracts
/// (insert binds every column, update/add patterns are keys, ...) are
/// checked here and violations answered with Status::Error, so no wire
/// input can reach an engine assertion. A frame too short for the
/// opcode/reqId header, or an oversized length prefix, closes the
/// connection (the stream cannot be trusted); a decodable frame with a
/// bad payload gets an error reply and the connection lives on.
///
//===----------------------------------------------------------------------===//

#ifndef RELC_SERVER_SERVER_H
#define RELC_SERVER_SERVER_H

#include "concurrent/ConcurrentRelation.h"
#include "server/GroupCommit.h"
#include "server/Wal.h"
#include "server/Wire.h"

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

namespace relc {

struct ServerOptions {
  /// TCP port; 0 binds an ephemeral port (read it back via port()).
  uint16_t Port = 0;
  /// Write-ahead log path; empty runs the server without durability.
  std::string WalPath;
  /// Sharding of the underlying ConcurrentRelation.
  ConcurrentOptions Concurrent;
  /// Group-commit fold cap.
  size_t MaxGroup = 64;
  /// Auto-checkpoint after this many committed transactions (0 = only
  /// explicit Checkpoint requests).
  uint64_t CheckpointEvery = 0;
};

class RelServer {
public:
  /// Builds the relation from \p D (adequate, as usual) but does not
  /// recover or listen yet — call start().
  RelServer(const Decomposition &D, ServerOptions Opts);
  ~RelServer();

  RelServer(const RelServer &) = delete;
  RelServer &operator=(const RelServer &) = delete;

  /// Recover (checkpoint + WAL replay), open the log for appending,
  /// start the committer, bind and serve. False with \p Err on any
  /// unrecoverable failure.
  bool start(std::string *Err);

  /// Stops accepting, closes every connection, drains the committer.
  /// Idempotent; the destructor calls it.
  void stop();

  uint16_t port() const { return Port; }
  ConcurrentRelation &relation() { return Rel; }
  const ConcurrentRelation &relation() const { return Rel; }
  GroupCommitStats commitStats() const { return Committer.stats(); }
  /// Direct committer access (tests pause/resume it to force groups).
  GroupCommit &committer() { return Committer; }
  /// Direct WAL access (tests arm fault injection, e.g.
  /// failNextCheckpoints before driving the checkpoint path).
  Wal &wal() { return Log; }
  /// Transactions replayed from the log during start().
  uint64_t recoveredTxns() const { return Recovered; }

  /// Synchronous snapshot checkpoint: a committer barrier grabs the
  /// snapshot handle + tickets (microseconds), then serialization and
  /// the Wal's fsync/rename dance run on the dedicated checkpoint
  /// thread while commits keep flowing; this blocks until that
  /// finishes. False if the server has no WAL or the checkpoint
  /// failed. Must not be called from a committer or checkpoint-thread
  /// callback.
  bool checkpointNow(std::string *Err);

  /// Checkpoints that failed (logged, counted, and backed off — see
  /// maybeAutoCheckpoint). Also reported in the Stats wire reply.
  uint64_t checkpointFailures() const {
    return CheckpointFailures.load(std::memory_order_relaxed);
  }

  /// Snapshot codec (shared with tests): `u32 count | count tuples`,
  /// tuples in unspecified order. Encoding streams the pinned shards.
  static std::vector<uint8_t>
  encodeSnapshot(const ConcurrentRelation::Snapshot &Snap);
  static bool decodeSnapshot(const std::vector<uint8_t> &Bytes,
                             unsigned Arity, std::vector<Tuple> &Tuples);

private:
  struct Conn {
    int Fd = -1;
    std::mutex WriteMu;
    /// Set by connLoop as its last act; lets the acceptor reap the
    /// entry (join the thread, drop the Conn) without blocking.
    std::atomic<bool> Done{false};
    ~Conn();
  };
  using ConnPtr = std::shared_ptr<Conn>;
  struct ConnEntry {
    ConnPtr C;
    std::thread T;
  };

  bool recover(std::string *Err);
  void acceptLoop();
  void connLoop(ConnPtr C);
  /// Joins and erases every finished connection entry. ConnMu held.
  void reapFinishedLocked();
  /// One request frame; false closes the connection.
  bool handleFrame(const ConnPtr &C, const std::vector<uint8_t> &Body);
  void reply(const ConnPtr &C, wire::Status St, uint64_t ReqId,
             const std::vector<uint8_t> &Payload);
  void replyError(const ConnPtr &C, uint64_t ReqId, std::string_view Msg);
  /// Submits a mutation batch whose completion answers \p ReqId.
  void submitMutation(const ConnPtr &C, uint64_t ReqId,
                      std::vector<TxOp> Ops);
  /// Wire op -> engine op with full contract validation; on failure
  /// returns false with \p Msg set.
  bool toTxOp(const wire::WireTxOp &W, TxOp &Out, std::string &Msg) const;
  void maybeAutoCheckpoint();

  /// One queued checkpoint: the O(shards) snapshot handle plus the
  /// tickets pinning its place in the log, grabbed inside a committer
  /// barrier; everything O(n) happens on the checkpoint thread.
  struct CkptJob {
    ConcurrentRelation::Snapshot Snap;
    /// Newest logged ticket the snapshot includes (stamps the .ckpt).
    uint64_t Ticket = 0;
    /// Log byte offset covering exactly tickets <= Ticket — the
    /// compaction point handed to Wal::checkpoint.
    size_t SnapEnd = 0;
    /// Optional completion, run on the checkpoint thread after the
    /// outcome is known (ok, error message).
    std::function<void(bool, const std::string &)> Done;
  };
  /// Enqueues a snapshot-grab barrier on the committer; the resulting
  /// job is executed by the checkpoint thread. \p Done always fires —
  /// success, checkpoint failure, and shutdown-drain alike.
  void scheduleCheckpoint(std::function<void(bool, const std::string &)> Done);
  /// Serializes + persists one job, releasing Job.Snap between the
  /// two; updates SinceCkpt and the failure counter/backoff. Returns
  /// success and fills \p Err on failure.
  bool runCheckpoint(CkptJob &Job, std::string *Err);
  void ckptLoop();

  ServerOptions Opts;
  ConcurrentRelation Rel;
  Wal Log;
  bool HasWal;
  GroupCommit Committer;

  int ListenFd = -1;
  uint16_t Port = 0;
  std::thread Acceptor;
  std::mutex ConnMu;
  std::vector<ConnEntry> Conns;
  std::atomic<bool> Running{false};
  uint64_t Recovered = 0;
  /// Newest commit ticket this server knows of (recovered or logged);
  /// stamps checkpoints.
  std::atomic<uint64_t> LastTicket{0};
  /// Committed txns since the last checkpoint ATTEMPT (auto-checkpoint
  /// pacing). Reset on failure too: a failing checkpoint backs off for
  /// another CheckpointEvery commits instead of hot-retrying.
  std::atomic<uint64_t> SinceCkpt{0};
  std::atomic<bool> CkptQueued{false};
  std::atomic<uint64_t> CheckpointFailures{0};

  /// Dedicated checkpoint pipeline (see scheduleCheckpoint).
  std::thread CkptThread;
  std::mutex CkptMu;
  std::condition_variable CkptCv;
  std::deque<CkptJob> CkptQueue;
  bool CkptStopping = false;
};

} // namespace relc

#endif // RELC_SERVER_SERVER_H
