//===- perfbench/cpp/ServerDurable.cpp - The server-durable workload ------===//
//
// Part of the RelC data representation synthesis library.
//
//===----------------------------------------------------------------------===//
//
// An in-process RelServer with a write-ahead log on local disk serves
// the account relation; four closed-loop synchronous RelClients drive
// the account mix over loopback, each waiting for every reply as
// `relserved --workload` does. A fifth connection issues a Checkpoint
// every 30 s, and a sixth pings back to back, closed-loop like the
// clients (a ping does no engine or commit work, so it isolates the
// wire). Seeding is 100,000 inserts in batched transacts over the wire.
// At the end the server is stopped and restarted from its log, and the
// final relation is checked through queries before and after.
//
//===----------------------------------------------------------------------===//

#include "AccountMix.h"
#include "Bench.h"

#include "server/Client.h"
#include "server/Server.h"

#include <memory>
#include <sys/stat.h>
#include <thread>

using namespace relc;
using namespace pb;

namespace {

constexpr uint64_t CheckpointEveryNs = 30'000'000'000;
constexpr uint64_t FirstCheckpointNs = 2'000'000'000;
constexpr int64_t SeedBatch = 5000;

const Catalog &cat() {
  static Decomposition D = accountDecomposition();
  return D.spec()->catalog();
}
ColumnId col(const char *Name) { return cat().get(Name); }

Tuple key(int64_t O, int64_t A) {
  Tuple K;
  K.set(col("owner"), Value::ofInt(O));
  K.set(col("acct"), Value::ofInt(A));
  return K;
}

Tuple row(int64_t O, int64_t A, int64_t B) {
  Tuple T = key(O, A);
  T.set(col("balance"), Value::ofInt(B));
  return T;
}

int64_t fileSize(const std::string &Path) {
  struct stat St;
  return ::stat(Path.c_str(), &St) == 0 ? int64_t(St.st_size) : 0;
}

struct Served {
  std::string Wal;
  std::unique_ptr<RelServer> Server;

  bool start(Report &R) {
    ServerOptions O;
    O.WalPath = Wal;
    O.Concurrent.NumShards = 8;
    O.MaxGroup = 64;
    Server = std::make_unique<RelServer>(accountDecomposition(), O);
    std::string Err;
    return R.check(Server->start(&Err), "server start: " + Err);
  }
  void stop() {
    if (Server)
      Server->stop();
    Server.reset();
  }
  uint16_t port() const { return Server->port(); }
};

/// Fresh directory, server, and 100,000 accounts seeded over the wire.
std::unique_ptr<Served> setUp(const std::string &Dir, Report &R) {
  auto S = std::make_unique<Served>();
  S->Wal = Dir + "/account.wal";
  ::mkdir(Dir.c_str(), 0755);
  std::remove(S->Wal.c_str());
  std::remove((S->Wal + ".ckpt").c_str());
  if (!S->start(R))
    return S;
  RelClient Seeder;
  if (!R.check(Seeder.connect(S->port()), "seeder connect"))
    return S;
  for (int64_t A = 0; A < SharedAccounts;) {
    std::vector<wire::WireTxOp> Batch;
    for (int64_t E = std::min(SharedAccounts, A + SeedBatch); A != E; ++A)
      Batch.push_back(
          wire::WireTxOp::insert(row(ownerOf(A), acctOf(A), InitialBalance)));
    RelClient::Reply Rep;
    R.attempted(Batch.size() - 1);
    R.check(Seeder.transact(Batch, &Rep) && Rep.ok(), "seeding transact");
  }
  return S;
}

/// The final relation through four queries (one per acct value, so each
/// reply stays well under the wire's frame limit).
std::vector<std::array<int64_t, 3>> rowsOverWire(uint16_t Port, Report &R) {
  std::vector<std::array<int64_t, 3>> Rows;
  RelClient C;
  if (!R.check(C.connect(Port), "verifier connect"))
    return Rows;
  ColumnSet Out({col("owner"), col("balance")});
  for (int64_t A = 0; A != 4; ++A) {
    Tuple P;
    P.set(col("acct"), Value::ofInt(A));
    std::vector<Tuple> Got;
    if (!R.check(C.query(P, Out, Got), "verification query"))
      continue;
    for (const Tuple &T : Got)
      Rows.push_back({T.get(col("owner")).asInt(), A,
                      T.get(col("balance")).asInt()});
  }
  uint64_t N = 0;
  R.check(C.size(N) && N == Rows.size(), "size disagrees with the queries");
  return Rows;
}

struct PhaseOut {
  uint64_t Ops = 0, Transfers = 0, Aborts = 0;
  double Seconds = 0;
  Samples TxnUs, ReadUs, PingUs, CkptMs, TxnDuringCkptUs;
  int64_t WalBytes = 0;
  uint64_t WalTxns = 0, Committed = 0, Groups = 0, Syncs = 0, MaxGroup = 0;
};

PhaseOut runPhase(Served &S, std::vector<AccountMix> &Mixes, double Seconds,
                  Report &R) {
  uint16_t KRead = tracer::kind("server.read"),
           KTransfer = tracer::kind("server.transfer"),
           KOpen = tracer::kind("server.open"),
           KClose = tracer::kind("server.close"),
           KCkpt = tracer::kind("server.checkpoint"),
           KPing = tracer::kind("wire.ping");
  ColumnId Bal = col("balance");
  std::atomic<bool> CkptLive{false};
  // One per mix client, then the checkpointer's and the pinger's.
  std::vector<PhaseOut> Outs(Mixes.size() + 2);
  GroupCommitStats Before = S.Server->commitStats();
  uint64_t Start = nowNs(), End = Start + uint64_t(Seconds * 1e9);

  auto Client = [&](unsigned T) {
    AccountMix &M = Mixes[T];
    PhaseOut &O = Outs[T];
    RelClient C;
    if (!R.check(C.connect(S.port()), "client connect"))
      return;
    uint64_t Now = nowNs();
    while (Now < End) {
      MixOp Op = M.next();
      bool DuringCkpt = CkptLive.load(std::memory_order_relaxed);
      uint64_t T0 = nowNs();
      bool Ok = true, Transport = true;
      RelClient::Reply Rep;
      switch (Op.K) {
      case MixOp::Read: {
        std::vector<Tuple> Rows;
        {
          SpanScope Sp(KRead);
          Transport = C.query(key(Op.owner(), Op.acct()), ColumnSet({Bal}), Rows);
        }
        int64_t B = Rows.size() == 1 ? Rows[0].get(Bal).asInt() : -1;
        Ok = Rows.size() == 1 && (Op.Own ? B == OwnBalance : B >= 0);
        break;
      }
      case MixOp::Transfer: {
        std::vector<wire::WireTxOp> Ops;
        Ops.push_back(wire::WireTxOp::add(key(ownerOf(Op.A), acctOf(Op.A)), Bal,
                                          -Op.Amount, 0));
        Ops.push_back(
            wire::WireTxOp::add(key(ownerOf(Op.B), acctOf(Op.B)), Bal, Op.Amount));
        {
          SpanScope Sp(KTransfer);
          Transport = C.transact(Ops, &Rep);
        }
        ++O.Transfers;
        if (Rep.ok())
          M.committed(Op);
        else if (Rep.aborted())
          ++O.Aborts;
        else
          Ok = false;
        break;
      }
      case MixOp::Open: {
        SpanScope Sp(KOpen);
        Transport = C.insert(row(Op.A, 0, OwnBalance), &Rep);
        Ok = Rep.ok();
        if (Ok)
          M.opened(Op.A);
        break;
      }
      case MixOp::Close: {
        SpanScope Sp(KClose);
        Transport = C.remove(key(Op.A, 0), &Rep);
        Ok = Rep.ok();
        break;
      }
      }
      Now = nowNs();
      double Us = double(Now - T0) * 1e-3;
      if (Op.K == MixOp::Read) {
        O.ReadUs.add(Us);
      } else {
        O.TxnUs.add(Us);
        if (DuringCkpt)
          O.TxnDuringCkptUs.add(Us);
      }
      ++O.Ops;
      if (!Transport) {
        R.fail("server: the connection failed");
        return;
      }
      if (!Ok)
        R.fail("server: a request failed or read a wrong balance");
    }
  };
  // Checkpoints come from their own connection, so the four mix
  // clients stay identical. One is due every CheckpointEvery, none in
  // the phase's second half: one per phase at this benchmark's run
  // lengths, however long each takes (today 14-20 s), so neither the
  // count nor the run's length depends on the previous one.
  auto Checkpointer = [&] {
    PhaseOut &O = Outs[Mixes.size()];
    RelClient C;
    if (!R.check(C.connect(S.port()), "checkpoint client connect"))
      return;
    int64_t LastPost = fileSize(S.Wal);
    uint64_t LastCommitted = Before.Committed;
    uint64_t Half = Start + (End - Start) / 2;
    for (uint64_t Next = Start + FirstCheckpointNs; Next < Half;
         Next += CheckpointEveryNs) {
      uint64_t Now = nowNs();
      if (Now >= Half)
        break;
      if (Now < Next)
        std::this_thread::sleep_for(std::chrono::nanoseconds(Next - Now));
      int64_t Pre = fileSize(S.Wal);
      uint64_t Committed = S.Server->commitStats().Committed;
      O.WalBytes += Pre - LastPost;
      O.WalTxns += Committed - LastCommitted;
      LastCommitted = Committed;
      CkptLive.store(true, std::memory_order_relaxed);
      uint64_t T0 = nowNs();
      RelClient::Reply Rep;
      bool Ok;
      {
        SpanScope Sp(KCkpt);
        Ok = C.checkpoint(&Rep) && Rep.ok();
      }
      O.CkptMs.add(double(nowNs() - T0) * 1e-6);
      CkptLive.store(false, std::memory_order_relaxed);
      R.check(Ok, "checkpoint failed: " + Rep.Error);
      LastPost = fileSize(S.Wal);
    }
  };
  auto Pinger = [&] {
    PhaseOut &O = Outs[Mixes.size() + 1];
    RelClient C;
    if (!R.check(C.connect(S.port()), "pinger connect"))
      return;
    while (nowNs() < End) {
      uint64_t T0 = nowNs();
      bool Ok;
      {
        SpanScope Sp(KPing);
        Ok = C.ping();
      }
      O.PingUs.add(double(nowNs() - T0) * 1e-3);
      if (!R.check(Ok, "ping failed"))
        return;
    }
  };

  std::thread PingThread(Pinger), CkptThread(Checkpointer);
  std::vector<std::thread> Threads;
  for (unsigned T = 0; T != Mixes.size(); ++T)
    Threads.emplace_back(Client, T);
  for (std::thread &T : Threads)
    T.join();
  PhaseOut All;
  All.Seconds = secondsBetween(Start, nowNs());
  CkptThread.join();
  PingThread.join();

  for (PhaseOut &O : Outs) {
    All.Ops += O.Ops;
    All.Transfers += O.Transfers;
    All.Aborts += O.Aborts;
    All.TxnUs.append(O.TxnUs);
    All.ReadUs.append(O.ReadUs);
    All.PingUs.append(O.PingUs);
    All.CkptMs.append(O.CkptMs);
    All.TxnDuringCkptUs.append(O.TxnDuringCkptUs);
    All.WalBytes += O.WalBytes;
    All.WalTxns += O.WalTxns;
  }
  GroupCommitStats After = S.Server->commitStats();
  All.Committed = After.Committed - Before.Committed;
  All.Groups = After.Groups - Before.Groups;
  All.Syncs = After.Syncs - Before.Syncs;
  All.MaxGroup = After.MaxGroupSize;
  R.attempted(All.Ops);
  return All;
}

void emitPerLayer(const PhaseOut &P, Report &R, double ArenaBytes) {
  R.metric("wire.ping_p50_us", P.PingUs.pct(0.5), "us");
  R.metric("wire.ping_p99_us", P.PingUs.pct(0.99), "us");
  R.metric("group_commit.fold_mean",
           P.Groups ? double(P.Committed) / double(P.Groups) : 0, "txns");
  R.metric("group_commit.max_group", double(P.MaxGroup), "txns");
  R.metric("wal.syncs_per_txn",
           P.Committed ? double(P.Syncs) / double(P.Committed) : 0, "count");
  R.metric("wal.bytes_per_txn",
           P.WalTxns ? double(P.WalBytes) / double(P.WalTxns) : 0, "bytes");
  R.metric("server.checkpoint_ms", P.CkptMs.median(), "ms");
  R.metric("server.txn_during_ckpt_p99_us", P.TxnDuringCkptUs.pct(0.99), "us");
  R.metric("server.arena_bytes", ArenaBytes, "bytes");
  R.metric("server.abort_ratio",
           P.Transfers ? double(P.Aborts) / double(P.Transfers) : 0, "ratio");
}

/// What a relserved client sees: throughput, and the latency of every
/// request, reads and transactions alike.
EndToEnd endToEnd(const PhaseOut &P) {
  Samples All = P.TxnUs;
  All.append(P.ReadUs);
  return {double(P.Ops) / P.Seconds, All.pct(0.5), All.pct(0.99)};
}

} // namespace

void pb::runServerDurable(const Config &C, Report &R) {
  std::unique_ptr<Served> S;
  for (int Rep = 0; Rep != 3; ++Rep) {
    if (S)
      S->stop();
    uint64_t T0 = nowNs();
    S = setUp(C.OutDir + "/server", R);
    R.Setup.add(secondsBetween(T0, nowNs()));
  }
  if (!S->Server)
    return;
  std::vector<AccountMix> Mixes;
  for (unsigned T = 0; T != MixThreads; ++T)
    Mixes.emplace_back(C.Seed, T);
  int64_t Total = SharedAccounts * InitialBalance + (C.CorruptExpected ? 1 : 0);

  double Part = C.Trace ? C.Seconds / 2 : C.Seconds;
  PhaseOut P = runPhase(*S, Mixes, Part, R);
  EndToEnd U = endToEnd(P);
  R.metric("server_ops_s", U.OpsS, "1/s");
  R.metric("txn_p50_us", P.TxnUs.pct(0.5), "us");
  R.metric("txn_p99_us", P.TxnUs.pct(0.99), "us");
  R.metric("read_p50_us", P.ReadUs.pct(0.5), "us");
  R.metric("read_p99_us", P.ReadUs.pct(0.99), "us");
  R.metric("samples.txns", double(P.TxnUs.size()), "count");
  R.metric("samples.reads", double(P.ReadUs.size()), "count");
  R.metric("samples.transfers", double(P.Transfers), "count");
  if (C.Trace) {
    tracer::enable(true);
    PhaseOut T = runPhase(*S, Mixes, Part, R);
    tracer::enable(false);
    emitPerLayer(T, R, double(S->Server->relation().arenaStats().Bytes));
    emitTraceOverhead(R, U, endToEnd(T));
  } else {
    R.metric("ops_s", U.OpsS, "1/s");
    R.metric("lat_p50_us", U.LatP50Us, "us");
    R.metric("lat_p99_us", U.LatP99Us, "us");
  }

  // The workload's peak, before the verification queries and the
  // restart (whose replies and recovery hold extra copies of the
  // relation).
  R.PeakRssMb = peakRssMb();
  checkFinal(rowsOverWire(S->port(), R), Mixes, Total, R, "server");
  S->stop();
  uint64_t T0 = nowNs();
  bool Restarted = S->start(R);
  double Recovery = secondsBetween(T0, nowNs());
  if (C.Trace)
    R.metric("wal.recovery_s", Recovery, "s");
  if (Restarted)
    checkFinal(rowsOverWire(S->port(), R), Mixes, Total, R, "server after restart");
  S->stop();
  if (C.Trace)
    R.metric("trace.spans",
             double(tracer::writeSpans(C.OutDir + "/spans.bin")), "count");
}
