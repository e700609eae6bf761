//===- server/Server.cpp - The relserved network server -------------------===//
//
// Part of the RelC data representation synthesis library.
//
//===----------------------------------------------------------------------===//

#include "server/Server.h"

#include <cassert>
#include <cerrno>
#include <cinttypes>
#include <cstdio>
#include <future>
#include <sys/socket.h>
#include <unistd.h>

using namespace relc;
using wire::Status;

RelServer::Conn::~Conn() {
  if (Fd >= 0)
    ::close(Fd);
}

RelServer::RelServer(const Decomposition &D, ServerOptions Opts)
    : Opts(std::move(Opts)), Rel(D, this->Opts.Concurrent),
      Log(this->Opts.WalPath), HasWal(!this->Opts.WalPath.empty()),
      Committer(Rel, HasWal ? &Log : nullptr,
                GroupCommit::Options{this->Opts.MaxGroup}) {}

RelServer::~RelServer() { stop(); }

//===----------------------------------------------------------------------===//
// Snapshot codec
//===----------------------------------------------------------------------===//

std::vector<uint8_t>
RelServer::encodeSnapshot(const ConcurrentRelation::Snapshot &Snap) {
  assert(Snap.valid() && "encodeSnapshot on an empty snapshot handle");
  // Streams the pinned shards through the engine's own scan; building
  // α (a Relation) first would cost a hash set of every tuple.
  wire::ByteWriter W;
  W.u32(static_cast<uint32_t>(Snap.size()));
  ColumnSet All = Snap.shard(0).catalog().allColumns();
  [[maybe_unused]] size_t Rows = 0;
  Snap.scanFrames(Tuple(), All, [&](const BindingFrame &F) {
    W.tuple(F.toTuple(All));
    ++Rows;
    return true;
  });
  assert(Rows == Snap.size() && "snapshot size disagrees with its scan");
  return W.take();
}

bool RelServer::decodeSnapshot(const std::vector<uint8_t> &Bytes,
                               unsigned Arity, std::vector<Tuple> &Tuples) {
  wire::ByteReader R(Bytes);
  uint32_t N;
  if (!R.u32(N))
    return false;
  Tuples.clear();
  Tuples.reserve(N);
  for (uint32_t I = 0; I != N; ++I) {
    Tuple T;
    if (!R.tuple(T, Arity))
      return false;
    Tuples.push_back(std::move(T));
  }
  return R.remaining() == 0;
}

//===----------------------------------------------------------------------===//
// Recovery and lifecycle
//===----------------------------------------------------------------------===//

bool RelServer::recover(std::string *Err) {
  unsigned Arity = Rel.catalog().size();
  uint64_t CkptTicket = 0;
  std::vector<uint8_t> Snap;
  if (Wal::loadCheckpoint(Opts.WalPath, CkptTicket, Snap)) {
    std::vector<Tuple> Tuples;
    if (!decodeSnapshot(Snap, Arity, Tuples)) {
      if (Err)
        *Err = Opts.WalPath + ".ckpt: corrupt snapshot body";
      return false;
    }
    for (const Tuple &T : Tuples)
      Rel.insert(T);
  }
  uint64_t MaxTicket = CkptTicket;
  std::string ReplayErr;
  size_t ValidEnd = 0;
  bool Ok = Wal::replay(
      Opts.WalPath,
      [&](const Wal::Record &R) {
        if (!ReplayErr.empty())
          return;
        // A crash between the checkpoint's rename and its log
        // truncation leaves snapshot + full log: records at or below
        // the snapshot's ticket are already inside it, and re-applying
        // them would conflict (a logged insert of a since-updated key).
        if (R.Ticket <= CkptTicket)
          return;
        std::vector<TxOp> Ops;
        if (!wire::decodeRedo(R.Payload.data(), R.Payload.size(), Arity,
                              Ops)) {
          // CRC passed, so this is an encoder bug, not disk damage —
          // skipping it would silently diverge the recovered state.
          ReplayErr = Opts.WalPath + ": undecodable redo payload behind a "
                      "valid CRC at ticket " + std::to_string(R.Ticket);
          return;
        }
        // Redo ops are the exact committed effects in ticket order:
        // replaying them through a fresh relation reproduces every
        // intermediate state, so no FD conflict or abort is possible.
        TxResult Res = Rel.transact(Ops);
        if (!Res.Committed) {
          ReplayErr = Opts.WalPath + ": redo replay aborted at ticket " +
                      std::to_string(R.Ticket);
          return;
        }
        ++Recovered;
        if (R.Ticket > MaxTicket)
          MaxTicket = R.Ticket;
      },
      Err, &ValidEnd);
  if (!Ok)
    return false;
  if (!ReplayErr.empty()) {
    if (Err)
      *Err = ReplayErr;
    return false;
  }
  // Drop any torn tail so fresh appends never land after garbage. A
  // non-empty file with ValidEnd == 0 was torn inside the magic (a
  // crash during creation): truncate it to nothing so open()
  // re-initializes the magic instead of appending after garbage.
  size_t OnDisk = Wal::fileSize(Opts.WalPath);
  if (OnDisk > ValidEnd)
    Wal::truncateTo(Opts.WalPath, ValidEnd);
  Rel.seedTickets(MaxTicket + 1);
  LastTicket.store(MaxTicket, std::memory_order_relaxed);
  return true;
}

bool RelServer::start(std::string *Err) {
  if (HasWal) {
    if (!recover(Err))
      return false;
    if (!Log.open(Err))
      return false;
    // Hook order == ticket order (ConcurrentRelation guarantees it),
    // so the log is ticket-ordered by construction. Installed before
    // any connection exists, per the hook contract.
    Rel.setCommitHook([this](uint64_t Ticket, const std::vector<TxOp> &Redo) {
      std::vector<uint8_t> Payload = wire::encodeRedo(Redo);
      Log.append(Ticket, Payload.data(), Payload.size());
      LastTicket.store(Ticket, std::memory_order_relaxed);
    });
  }
  Committer.start();
  if (HasWal)
    CkptThread = std::thread([this] { ckptLoop(); });
  ListenFd = wire::listenTcp(Opts.Port, Err);
  if (ListenFd < 0)
    return false;
  Port = wire::boundPort(ListenFd);
  Running.store(true);
  Acceptor = std::thread([this] { acceptLoop(); });
  return true;
}

void RelServer::stop() {
  Running.store(false);
  if (ListenFd >= 0)
    ::shutdown(ListenFd, SHUT_RDWR); // wakes the blocked accept
  if (Acceptor.joinable())
    Acceptor.join();
  if (ListenFd >= 0) {
    ::close(ListenFd);
    ListenFd = -1;
  }
  std::vector<ConnEntry> Entries;
  {
    std::lock_guard<std::mutex> Lock(ConnMu);
    for (const ConnEntry &E : Conns)
      ::shutdown(E.C->Fd, SHUT_RDWR); // wakes blocked connection reads
    Entries.swap(Conns);
  }
  for (ConnEntry &E : Entries)
    E.T.join();
  // Committer before the checkpoint thread: its drain may still run
  // snapshot-grab barriers that enqueue checkpoint jobs. The
  // checkpoint thread then drains its own queue — every pending job's
  // completion fires — before the WAL closes.
  Committer.stop();
  {
    std::lock_guard<std::mutex> Lock(CkptMu);
    CkptStopping = true;
  }
  CkptCv.notify_all();
  if (CkptThread.joinable())
    CkptThread.join();
  Entries.clear();
  if (HasWal)
    Log.close();
}

//===----------------------------------------------------------------------===//
// The checkpoint pipeline
//===----------------------------------------------------------------------===//

void RelServer::scheduleCheckpoint(
    std::function<void(bool, const std::string &)> Done) {
  // The barrier runs on the committer with no commit group in flight,
  // so the snapshot handle, the newest logged ticket, and the log's
  // byte offset are one consistent cut: a log record sits at byte
  // offset < SnapEnd exactly when its ticket is <= Ticket, which is
  // what lets Wal::checkpoint compact the covered prefix away while
  // new appends land behind SnapEnd. Everything here is O(shards);
  // serialization and fsyncs happen on the checkpoint thread.
  Committer.barrier([this, Done = std::move(Done)]() mutable {
    CkptJob Job;
    Job.Snap = Rel.snapshot();
    Job.Ticket = LastTicket.load(std::memory_order_relaxed);
    Job.SnapEnd = Log.writtenBytes();
    Job.Done = std::move(Done);
    {
      std::lock_guard<std::mutex> Lock(CkptMu);
      CkptQueue.push_back(std::move(Job));
    }
    CkptCv.notify_all();
  });
}

bool RelServer::runCheckpoint(CkptJob &Job, std::string *Err) {
  std::vector<uint8_t> Body = encodeSnapshot(Job.Snap);
  // Unpin before the writes and fsyncs: while the handle lives, the
  // first write to each pinned shard pays a copy-on-write clone.
  Job.Snap = ConcurrentRelation::Snapshot();
  std::string E;
  bool Ok = Log.checkpoint(Job.Ticket, Body, Job.SnapEnd, &E);
  // Reset the pacing counter on BOTH outcomes: success starts the next
  // interval; failure backs off for another CheckpointEvery commits
  // instead of letting every subsequent commit re-queue a checkpoint
  // that will fail the same way (a hot-retry storm against e.g. a full
  // disk).
  SinceCkpt.store(0, std::memory_order_relaxed);
  if (!Ok) {
    CheckpointFailures.fetch_add(1, std::memory_order_relaxed);
    std::fprintf(stderr,
                 "relserved: checkpoint at ticket %" PRIu64 " failed: %s\n",
                 Job.Ticket, E.c_str());
  }
  if (Err)
    *Err = E;
  return Ok;
}

void RelServer::ckptLoop() {
  for (;;) {
    CkptJob Job;
    {
      std::unique_lock<std::mutex> Lock(CkptMu);
      CkptCv.wait(Lock,
                  [this] { return CkptStopping || !CkptQueue.empty(); });
      if (CkptQueue.empty()) {
        if (CkptStopping)
          return; // drained: every enqueued job has completed
        continue;
      }
      Job = std::move(CkptQueue.front());
      CkptQueue.pop_front();
    }
    std::string E;
    bool Ok = runCheckpoint(Job, &E);
    if (Job.Done)
      Job.Done(Ok, E);
  }
}

void RelServer::acceptLoop() {
  for (;;) {
    int Fd = ::accept(ListenFd, nullptr, nullptr);
    if (Fd < 0) {
      if (errno == EINTR)
        continue;
      return; // listener shut down
    }
    if (!Running.load()) {
      ::close(Fd);
      return;
    }
    wire::setNoDelay(Fd);
    auto C = std::make_shared<Conn>();
    C->Fd = Fd;
    std::lock_guard<std::mutex> Lock(ConnMu);
    // Reap what finished since the last accept, so a long-running
    // daemon holds threads only for live connections (plus finished
    // ones not yet swept — bounded by the accept rate, joined by
    // stop() regardless).
    reapFinishedLocked();
    Conns.push_back(ConnEntry{C, std::thread([this, C] { connLoop(C); })});
  }
}

void RelServer::reapFinishedLocked() {
  for (size_t I = 0; I != Conns.size();) {
    if (Conns[I].C->Done.load(std::memory_order_acquire)) {
      Conns[I].T.join();
      Conns.erase(Conns.begin() + static_cast<long>(I));
    } else {
      ++I;
    }
  }
}

void RelServer::connLoop(ConnPtr C) {
  std::vector<uint8_t> Body;
  while (Running.load(std::memory_order_relaxed)) {
    if (!wire::readFrame(C->Fd, Body))
      break; // EOF, error, or oversized prefix: the stream is done
    if (!handleFrame(C, Body))
      break;
  }
  // The fd itself is closed by the last ConnPtr owner — a pending
  // group-commit completion may still be about to write its reply.
  ::shutdown(C->Fd, SHUT_RDWR);
  C->Done.store(true, std::memory_order_release);
}

//===----------------------------------------------------------------------===//
// Request handling
//===----------------------------------------------------------------------===//

void RelServer::reply(const ConnPtr &C, Status St, uint64_t ReqId,
                      const std::vector<uint8_t> &Payload) {
  wire::ByteWriter W;
  W.u8(static_cast<uint8_t>(St));
  W.u64(ReqId);
  W.bytes(Payload.data(), Payload.size());
  std::lock_guard<std::mutex> Lock(C->WriteMu);
  wire::writeFrame(C->Fd, W.data()); // failure = peer gone; nothing to do
}

void RelServer::replyError(const ConnPtr &C, uint64_t ReqId,
                           std::string_view Msg) {
  wire::ByteWriter W;
  W.str(Msg);
  reply(C, Status::Error, ReqId, W.data());
}

void RelServer::submitMutation(const ConnPtr &C, uint64_t ReqId,
                               std::vector<TxOp> Ops) {
  Committer.submit(
      std::move(Ops), [this, C, ReqId](const TxResult &R, bool Durable) {
        if (R.Committed && Durable) {
          wire::ByteWriter W;
          W.u64(R.Ticket);
          reply(C, Status::Ok, ReqId, W.data());
          SinceCkpt.fetch_add(1, std::memory_order_relaxed);
          maybeAutoCheckpoint();
        } else if (R.Committed) {
          // Applied in memory but the sync failed: the one reply that
          // must NOT read as a durable ack.
          replyError(C, ReqId, "commit not durable: wal sync failed");
        } else {
          wire::ByteWriter W;
          W.u32(static_cast<uint32_t>(R.FailedOp));
          reply(C, Status::Aborted, ReqId, W.data());
        }
      });
}

bool RelServer::toTxOp(const wire::WireTxOp &W, TxOp &Out,
                       std::string &Msg) const {
  ColumnSet All = Rel.spec()->columns();
  switch (W.K) {
  case wire::WireTxOp::Insert:
    if (W.A.columns() != All) {
      Msg = "insert must bind every column";
      return false;
    }
    Out = TxOp::insert(W.A);
    return true;
  case wire::WireTxOp::Remove:
    Out = TxOp::remove(W.A);
    return true;
  case wire::WireTxOp::Update:
    if (!Rel.spec()->fds().isKey(W.A.columns(), All)) {
      Msg = "update pattern must be a key";
      return false;
    }
    if (W.A.columns().intersects(W.B.columns())) {
      Msg = "update changes must not rebind the key";
      return false;
    }
    Out = TxOp::update(W.A, W.B);
    return true;
  case wire::WireTxOp::Add: {
    if (!Rel.spec()->fds().isKey(W.A.columns(), All)) {
      Msg = "add pattern must be a key";
      return false;
    }
    if (W.Col >= Rel.catalog().size() || W.A.columns().contains(W.Col)) {
      Msg = "add column must be a non-key column";
      return false;
    }
    ColumnId Col = W.Col;
    int64_t Delta = W.Delta, Floor = W.Floor;
    // The guarded read-modify-write: absent key, non-integer cell, or
    // floor violation abort the whole batch with nothing applied.
    Out = TxOp::upsertChecked(
        W.A, [Col, Delta, Floor](const BindingFrame *F, Tuple &V) {
          if (!F)
            return false;
          const Value &Cur = F->get(Col);
          if (!Cur.isInt())
            return false;
          int64_t Next = Cur.asInt() + Delta;
          if (Floor != std::numeric_limits<int64_t>::min() && Next < Floor)
            return false;
          V.set(Col, Value::ofInt(Next));
          return true;
        });
    return true;
  }
  }
  Msg = "unknown transact op kind";
  return false;
}

bool RelServer::handleFrame(const ConnPtr &C,
                            const std::vector<uint8_t> &Body) {
  wire::ByteReader R(Body);
  uint8_t OpByte;
  uint64_t ReqId;
  if (!R.u8(OpByte) || !R.u64(ReqId))
    return false; // no header to answer to: close
  unsigned Arity = Rel.catalog().size();
  ColumnSet All = Rel.spec()->columns();

  switch (static_cast<wire::Op>(OpByte)) {
  case wire::Op::Ping:
    reply(C, Status::Ok, ReqId, {});
    return true;

  case wire::Op::Insert: {
    Tuple T;
    if (!R.tuple(T, Arity) || R.remaining() != 0) {
      replyError(C, ReqId, "malformed insert payload");
      return true;
    }
    if (T.columns() != All) {
      replyError(C, ReqId, "insert must bind every column");
      return true;
    }
    std::vector<TxOp> Ops;
    Ops.push_back(TxOp::insert(std::move(T)));
    submitMutation(C, ReqId, std::move(Ops));
    return true;
  }

  case wire::Op::Remove: {
    Tuple T;
    if (!R.tuple(T, Arity) || R.remaining() != 0) {
      replyError(C, ReqId, "malformed remove payload");
      return true;
    }
    std::vector<TxOp> Ops;
    Ops.push_back(TxOp::remove(std::move(T)));
    submitMutation(C, ReqId, std::move(Ops));
    return true;
  }

  case wire::Op::Update: {
    Tuple Key, Changes;
    if (!R.tuple(Key, Arity) || !R.tuple(Changes, Arity) ||
        R.remaining() != 0) {
      replyError(C, ReqId, "malformed update payload");
      return true;
    }
    wire::WireTxOp W = wire::WireTxOp::update(std::move(Key),
                                              std::move(Changes));
    TxOp Op;
    std::string Msg;
    if (!toTxOp(W, Op, Msg)) {
      replyError(C, ReqId, Msg);
      return true;
    }
    std::vector<TxOp> Ops;
    Ops.push_back(std::move(Op));
    submitMutation(C, ReqId, std::move(Ops));
    return true;
  }

  case wire::Op::Transact: {
    uint32_t N;
    if (!R.u32(N)) {
      replyError(C, ReqId, "malformed transact payload");
      return true;
    }
    if (N == 0) {
      replyError(C, ReqId, "empty transact batch");
      return true;
    }
    if (N > 65536) {
      replyError(C, ReqId, "transact batch too large");
      return true;
    }
    std::vector<TxOp> Ops;
    Ops.reserve(N);
    for (uint32_t I = 0; I != N; ++I) {
      wire::WireTxOp W;
      if (!R.txOp(W, Arity)) {
        replyError(C, ReqId, "malformed transact op");
        return true;
      }
      TxOp Op;
      std::string Msg;
      if (!toTxOp(W, Op, Msg)) {
        replyError(C, ReqId, Msg);
        return true;
      }
      Ops.push_back(std::move(Op));
    }
    if (R.remaining() != 0) {
      replyError(C, ReqId, "trailing bytes after transact batch");
      return true;
    }
    submitMutation(C, ReqId, std::move(Ops));
    return true;
  }

  case wire::Op::Query: {
    Tuple Pattern;
    uint64_t OutMask;
    if (!R.tuple(Pattern, Arity) || !R.u64(OutMask) || R.remaining() != 0) {
      replyError(C, ReqId, "malformed query payload");
      return true;
    }
    // Wire masks are 64-bit, so arities above 64 have unaddressable
    // columns; at exactly 64 every mask bit is a real column (and
    // `OutMask >> 64` would be UB, hence the explicit split).
    if (Arity > 64) {
      replyError(C, ReqId, "arity exceeds the 64-column wire mask");
      return true;
    }
    if (Arity < 64 && (OutMask >> Arity) != 0) {
      replyError(C, ReqId, "output columns outside the relation");
      return true;
    }
    ColumnSet Out = ColumnSet::fromMask(OutMask);
    if (!Rel.shard(0).planFor(Pattern.columns(), Out)) {
      replyError(C, ReqId, "no plan for this query shape");
      return true;
    }
    std::vector<Tuple> Rows = Rel.query(Pattern, Out);
    wire::ByteWriter W;
    W.u32(static_cast<uint32_t>(Rows.size()));
    for (const Tuple &T : Rows)
      W.tuple(T);
    reply(C, Status::Ok, ReqId, W.data());
    return true;
  }

  case wire::Op::Size: {
    wire::ByteWriter W;
    W.u64(Rel.size());
    reply(C, Status::Ok, ReqId, W.data());
    return true;
  }

  case wire::Op::Checkpoint: {
    if (!HasWal) {
      replyError(C, ReqId, "server runs without a wal");
      return true;
    }
    // The reply fires from the checkpoint thread once the outcome —
    // success OR failure — is known, so a client always hears back.
    // The captured ConnPtr keeps the Conn alive even if the peer
    // disconnects before the checkpoint finishes; reply() then fails
    // harmlessly against the shut-down fd.
    scheduleCheckpoint([this, C, ReqId](bool Ok, const std::string &E) {
      if (Ok)
        reply(C, Status::Ok, ReqId, {});
      else
        replyError(C, ReqId, "checkpoint failed: " + E);
    });
    return true;
  }

  case wire::Op::Stats: {
    GroupCommitStats S = Committer.stats();
    ArenaStats A = Rel.arenaStats();
    wire::ByteWriter W;
    W.u64(S.Groups);
    W.u64(S.Committed);
    W.u64(S.MultiTxGroups);
    W.u64(S.MaxGroupSize);
    W.u64(S.Syncs);
    W.u64(A.Bytes);
    W.u64(A.Live);
    W.u64(CheckpointFailures.load(std::memory_order_relaxed));
    reply(C, Status::Ok, ReqId, W.data());
    return true;
  }
  }
  replyError(C, ReqId, "unknown opcode");
  return true;
}

bool RelServer::checkpointNow(std::string *Err) {
  if (!HasWal) {
    if (Err)
      *Err = "server runs without a wal";
    return false;
  }
  // Blocks on the checkpoint thread's completion. Do not call from a
  // commit completion callback (that thread IS the committer, which
  // must run the snapshot barrier) or from the checkpoint thread.
  std::promise<bool> Done;
  std::string E;
  scheduleCheckpoint([&Done, &E](bool Ok, const std::string &Msg) {
    E = Msg;
    Done.set_value(Ok);
  });
  bool Ok = Done.get_future().get();
  if (!Ok && Err)
    *Err = E;
  return Ok;
}

void RelServer::maybeAutoCheckpoint() {
  if (!HasWal || Opts.CheckpointEvery == 0)
    return;
  if (SinceCkpt.load(std::memory_order_relaxed) < Opts.CheckpointEvery)
    return;
  if (CkptQueued.exchange(true))
    return;
  // Called from a completion callback — i.e. ON the committer thread —
  // so the barrier must be asynchronous (it is). Failures are not
  // dropped: runCheckpoint logs them, bumps CheckpointFailures, and
  // resets the pacing counter so the server backs off for another
  // CheckpointEvery commits instead of hot-retrying a checkpoint that
  // keeps failing.
  scheduleCheckpoint(
      [this](bool, const std::string &) { CkptQueued.store(false); });
}
