//===- tests/server/CrashRecoveryTest.cpp - WAL crash recovery ------------===//
//
// Part of the RelC data representation synthesis library.
//
//===----------------------------------------------------------------------===//
//
// Fault-injection tests for the durability pipeline: a Wal that fails
// or truncates after N bytes, torn final records, bit-flipped CRCs.
// The invariants proved here are the ones relserved's clients rely on:
//
//   * every committed-and-acked transaction survives recovery (acked
//     means the Done callback reported Durable, i.e. the covering
//     fsync returned before the "crash");
//   * torn tails are dropped silently — never an error, never a
//     partial transaction;
//   * the recovered state is α-equivalent to replaying the log's
//     transactions serially in ticket order from scratch.
//
//===----------------------------------------------------------------------===//

#include "server/Client.h"
#include "server/GroupCommit.h"
#include "server/Server.h"

#include "decomp/Builder.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdio>
#include <fstream>
#include <functional>
#include <mutex>
#include <set>
#include <thread>
#include <unistd.h>

using namespace relc;

namespace {

RelSpecRef accountSpec() {
  return RelSpec::make("account", {"owner", "acct", "balance"},
                       {{"owner, acct", "balance"}});
}

Decomposition accountDecomp(const RelSpecRef &Spec) {
  DecompBuilder B(Spec);
  NodeId U = B.addNode("u", "owner, acct", B.unit("balance"));
  NodeId Y = B.addNode("y", "owner", B.map("acct", DsKind::HashTable, U));
  B.addNode("x", "", B.map("owner", DsKind::HashTable, Y));
  return B.build();
}

ConcurrentOptions fourShards() {
  ConcurrentOptions O;
  O.NumShards = 4;
  return O;
}

/// Fresh per-test WAL path under gtest's temp dir.
std::string walPath(const char *Tag) {
  return ::testing::TempDir() + "crash_" + Tag + "_" +
         std::to_string(::getpid()) + ".wal";
}

void removeWal(const std::string &Path) {
  std::remove(Path.c_str());
  std::remove((Path + ".ckpt").c_str());
}

void copyFile(const std::string &From, const std::string &To) {
  std::ifstream In(From, std::ios::binary);
  std::ofstream Out(To, std::ios::binary | std::ios::trunc);
  Out << In.rdbuf();
  ASSERT_TRUE(In.good() || In.eof());
  ASSERT_TRUE(Out.good());
}

std::vector<Wal::Record> replayAll(const std::string &Path,
                                   size_t *ValidEnd = nullptr) {
  std::vector<Wal::Record> Records;
  std::string Err;
  EXPECT_TRUE(Wal::replay(
      Path, [&](const Wal::Record &R) { Records.push_back(R); }, &Err,
      ValidEnd))
      << Err;
  return Records;
}

/// Deterministic small PRNG (tests must not depend on wall clock).
struct Lcg {
  uint64_t S;
  explicit Lcg(uint64_t Seed) : S(Seed * 2654435769u + 1) {}
  uint64_t next() {
    S = S * 6364136223846793005ull + 1442695040888963407ull;
    return S >> 33;
  }
  uint64_t below(uint64_t N) { return next() % N; }
};

TxOp addOp(const Catalog &Cat, int64_t Owner, int64_t Acct, int64_t Delta,
           int64_t Floor) {
  ColumnId Bal = Cat.get("balance");
  return TxOp::upsertChecked(
      TupleBuilder(Cat).set("owner", Owner).set("acct", Acct).build(),
      [Bal, Delta, Floor](const BindingFrame *F, Tuple &V) {
        if (!F)
          return false;
        int64_t Next = F->get(Bal).asInt() + Delta;
        if (Next < Floor)
          return false;
        V.set(Bal, Value::ofInt(Next));
        return true;
      });
}

std::vector<TxOp> transfer(const Catalog &Cat, int64_t From, int64_t To,
                           int64_t Amt) {
  std::vector<TxOp> Ops;
  Ops.push_back(addOp(Cat, From / 4, From % 4, -Amt, 0));
  Ops.push_back(addOp(Cat, To / 4, To % 4, Amt, INT64_MIN));
  return Ops;
}

/// Serially replays \p Records (file order) into a fresh relation and
/// returns its abstraction. Every redo must decode and commit.
Relation serialReplay(const RelSpecRef &Spec,
                      const std::vector<Wal::Record> &Records) {
  ConcurrentRelation Rel(accountDecomp(Spec), fourShards());
  unsigned Arity = Spec->catalog().size();
  uint64_t PrevTicket = 0;
  for (const Wal::Record &R : Records) {
    EXPECT_GT(R.Ticket, PrevTicket)
        << "WAL records must be in strictly increasing ticket order";
    PrevTicket = R.Ticket;
    std::vector<TxOp> Ops;
    EXPECT_TRUE(wire::decodeRedo(R.Payload.data(), R.Payload.size(), Arity,
                                 Ops));
    TxResult Res = Rel.transact(Ops);
    EXPECT_TRUE(Res.Committed) << "redo replay can never abort";
  }
  return Rel.toRelation();
}

void expectSameRelation(const Relation &A, const Relation &B) {
  EXPECT_EQ(A.size(), B.size());
  for (const Tuple &T : A.tuples())
    EXPECT_TRUE(B.contains(T));
}

//===----------------------------------------------------------------------===//
// Pure Wal framing: torn tails, bit flips, damaged magic
//===----------------------------------------------------------------------===//

class WalFraming : public ::testing::Test {
protected:
  /// Writes K records with distinct payload sizes; returns each
  /// record's end offset (so tests can truncate on/off boundaries).
  std::vector<size_t> writeLog(const std::string &Path, size_t K) {
    Wal Log(Path);
    std::string Err;
    EXPECT_TRUE(Log.open(&Err)) << Err;
    std::vector<size_t> Ends;
    for (size_t I = 0; I != K; ++I) {
      std::vector<uint8_t> Payload(5 + 3 * I);
      for (size_t B = 0; B != Payload.size(); ++B)
        Payload[B] = static_cast<uint8_t>(I * 31 + B);
      EXPECT_TRUE(Log.append(I + 1, Payload.data(), Payload.size()));
      Ends.push_back(Log.writtenBytes());
    }
    EXPECT_TRUE(Log.sync());
    Log.close();
    return Ends;
  }
};

TEST_F(WalFraming, MissingFileIsAnEmptyLog) {
  std::string Path = walPath("missing");
  removeWal(Path);
  size_t ValidEnd = 123;
  EXPECT_TRUE(replayAll(Path, &ValidEnd).empty());
  EXPECT_EQ(ValidEnd, 0u);
}

TEST_F(WalFraming, TornFinalRecordIsDroppedAtEveryTruncationPoint) {
  std::string Path = walPath("torn");
  removeWal(Path);
  std::vector<size_t> Ends = writeLog(Path, 4);
  // Truncating anywhere strictly inside the last record must yield
  // exactly the first three records, silently.
  for (size_t Cut = Ends[2] + 1; Cut < Ends[3]; ++Cut) {
    std::string Copy = Path + ".cut";
    copyFile(Path, Copy);
    ASSERT_TRUE(Wal::truncateTo(Copy, Cut));
    size_t ValidEnd = 0;
    std::vector<Wal::Record> Records = replayAll(Copy, &ValidEnd);
    EXPECT_EQ(Records.size(), 3u) << "cut at byte " << Cut;
    EXPECT_EQ(ValidEnd, Ends[2]);
    std::remove(Copy.c_str());
  }
  // Truncating exactly on the boundary keeps all four.
  EXPECT_EQ(replayAll(Path).size(), 4u);
  removeWal(Path);
}

TEST_F(WalFraming, BitFlippedCrcDropsTheRecordAndEverythingAfter) {
  std::string Path = walPath("flip");
  removeWal(Path);
  std::vector<size_t> Ends = writeLog(Path, 5);
  // Flip one bit in record 2's payload: replay keeps records 0 and 1
  // only — a CRC mismatch ends the valid prefix even with intact
  // records after it (they are unreachable without trusting the
  // damaged length).
  size_t Offset = Ends[1] + Wal::HeaderLen + 2;
  ASSERT_TRUE(Wal::flipBitAt(Path, Offset, 3));
  size_t ValidEnd = 0;
  std::vector<Wal::Record> Records = replayAll(Path, &ValidEnd);
  EXPECT_EQ(Records.size(), 2u);
  EXPECT_EQ(ValidEnd, Ends[1]);
  EXPECT_EQ(Records[0].Ticket, 1u);
  EXPECT_EQ(Records[1].Ticket, 2u);
  // Flip it back: the full log replays again (the damage model is
  // exact).
  ASSERT_TRUE(Wal::flipBitAt(Path, Offset, 3));
  EXPECT_EQ(replayAll(Path).size(), 5u);
  removeWal(Path);
}

TEST_F(WalFraming, WrongMagicIsARealError) {
  std::string Path = walPath("magic");
  removeWal(Path);
  writeLog(Path, 1);
  ASSERT_TRUE(Wal::flipBitAt(Path, 0, 0));
  std::string Err;
  bool Ok = Wal::replay(Path, [](const Wal::Record &) {}, &Err);
  EXPECT_FALSE(Ok);
  EXPECT_FALSE(Err.empty());
  removeWal(Path);
}

TEST_F(WalFraming, ReopenAfterTruncationAppendsCleanly) {
  std::string Path = walPath("reopen");
  removeWal(Path);
  std::vector<size_t> Ends = writeLog(Path, 3);
  // Tear the last record, recover, truncate to the valid end (the
  // server's reopen procedure), then append more.
  ASSERT_TRUE(Wal::truncateTo(Path, Ends[2] - 2));
  size_t ValidEnd = 0;
  EXPECT_EQ(replayAll(Path, &ValidEnd).size(), 2u);
  ASSERT_TRUE(Wal::truncateTo(Path, ValidEnd));
  {
    Wal Log(Path);
    std::string Err;
    ASSERT_TRUE(Log.open(&Err)) << Err;
    uint8_t Byte = 0xAB;
    ASSERT_TRUE(Log.append(99, &Byte, 1));
    ASSERT_TRUE(Log.sync());
  }
  std::vector<Wal::Record> Records = replayAll(Path);
  ASSERT_EQ(Records.size(), 3u);
  EXPECT_EQ(Records[2].Ticket, 99u);
  EXPECT_EQ(Records[2].Payload, std::vector<uint8_t>{0xAB});
  removeWal(Path);
}

//===----------------------------------------------------------------------===//
// End-to-end: fault-injected group commit, then recovery
//===----------------------------------------------------------------------===//

/// The core acceptance invariant: run a contended transfer workload
/// against a Wal whose write budget runs out at a random point (a
/// crash mid-stream). Whatever the committer acked as durable MUST be
/// in the replayable prefix, and the recovered state must match a
/// serial ticket-order replay.
TEST(CrashRecovery, AckedCommitsSurviveARandomlyTornLog) {
  RelSpecRef Spec = accountSpec();
  const Catalog &Cat = Spec->catalog();
  const int64_t Accounts = 8;
  const int64_t Initial = 1000;

  for (uint64_t Trial = 0; Trial != 4; ++Trial) {
    Lcg Rnd(0xC0FFEE + Trial);
    std::string Path = walPath(("acked" + std::to_string(Trial)).c_str());
    removeWal(Path);

    ConcurrentRelation Rel(accountDecomp(Spec), fourShards());
    Wal Log(Path);
    std::string Err;
    ASSERT_TRUE(Log.open(&Err)) << Err;
    Rel.setCommitHook([&](uint64_t Ticket, const std::vector<TxOp> &Redo) {
      std::vector<uint8_t> P = wire::encodeRedo(Redo);
      Log.append(Ticket, P.data(), P.size());
    });

    // Seed through logged transacts, then sync: the fault budget is
    // armed past the seeds so the baseline is always durable.
    for (int64_t A = 0; A != Accounts; ++A) {
      TxResult Res = Rel.transact(std::vector<TxOp>{TxOp::insert(TupleBuilder(Cat)
                                                    .set("owner", A / 4)
                                                    .set("acct", A % 4)
                                                    .set("balance", Initial)
                                                    .build())});
      ASSERT_TRUE(Res.Committed);
    }
    ASSERT_TRUE(Log.sync());
    size_t Base = Log.durableBytes();
    // Budget lands somewhere inside the upcoming transfer stream.
    Log.failAfterBytes(Base + Rnd.below(2000));

    GroupCommit GC(Rel, &Log);
    GC.start();
    std::mutex Mu;
    std::condition_variable Cv;
    size_t Done = 0;
    std::set<uint64_t> AckedTickets;
    const int Threads = 2, PerThread = 60;
    std::vector<std::thread> Workers;
    for (int W = 0; W != Threads; ++W)
      Workers.emplace_back([&, W] {
        Lcg R(Trial * 977 + W);
        for (int T = 0; T != PerThread; ++T) {
          int64_t From = static_cast<int64_t>(R.below(Accounts));
          int64_t To = (From + 1 + static_cast<int64_t>(
                                       R.below(Accounts - 1))) %
                       Accounts;
          int64_t Amt = 1 + static_cast<int64_t>(R.below(300));
          GC.submit(transfer(Cat, From, To, Amt),
                    [&](const TxResult &Res, bool Durable) {
                      std::lock_guard<std::mutex> Lock(Mu);
                      if (Res.Committed && Durable)
                        AckedTickets.insert(Res.Ticket);
                      ++Done;
                      Cv.notify_all();
                    });
        }
      });
    for (std::thread &T : Workers)
      T.join();
    {
      std::unique_lock<std::mutex> Lock(Mu);
      Cv.wait(Lock, [&] {
        return Done == static_cast<size_t>(Threads) * PerThread;
      });
    }
    GC.stop();
    Rel.setCommitHook(nullptr);
    Log.close(); // the "crash": whatever hit the disk is the evidence

    std::vector<Wal::Record> Records = replayAll(Path);
    std::set<uint64_t> OnDisk;
    for (const Wal::Record &R : Records)
      OnDisk.insert(R.Ticket);
    for (uint64_t T : AckedTickets)
      EXPECT_TRUE(OnDisk.count(T))
          << "trial " << Trial << ": acked ticket " << T
          << " missing after crash";

    // α-equivalence: serial file-order replay == a second independent
    // replay (the recovery path is deterministic), and the recovered
    // state conserves the seeded total because every record is a whole
    // transaction.
    Relation Recovered = serialReplay(Spec, Records);
    Relation Again = serialReplay(Spec, Records);
    expectSameRelation(Recovered, Again);
    if (Records.size() >= static_cast<size_t>(Accounts)) {
      ColumnId Bal = Cat.get("balance");
      int64_t Total = 0;
      for (const Tuple &T : Recovered.tuples())
        Total += T.get(Bal).asInt();
      EXPECT_EQ(Recovered.size(), static_cast<size_t>(Accounts));
      EXPECT_EQ(Total, Accounts * Initial)
          << "a torn record leaked a partial transfer";
    }
    removeWal(Path);
  }
}

/// Clean log, then arbitrary damage: any truncation point yields a
/// record-aligned prefix of the original history, and a random bit
/// flip confines the loss to the damaged record and its tail.
TEST(CrashRecovery, RandomDamageAlwaysYieldsAHistoryPrefix) {
  RelSpecRef Spec = accountSpec();
  const Catalog &Cat = Spec->catalog();
  std::string Path = walPath("prefix");
  removeWal(Path);

  ConcurrentRelation Rel(accountDecomp(Spec), fourShards());
  Wal Log(Path);
  std::string Err;
  ASSERT_TRUE(Log.open(&Err)) << Err;
  Rel.setCommitHook([&](uint64_t Ticket, const std::vector<TxOp> &Redo) {
    std::vector<uint8_t> P = wire::encodeRedo(Redo);
    Log.append(Ticket, P.data(), P.size());
  });
  for (int64_t A = 0; A != 8; ++A)
    ASSERT_TRUE(Rel.transact(std::vector<TxOp>{TxOp::insert(TupleBuilder(Cat)
                                               .set("owner", A / 4)
                                               .set("acct", A % 4)
                                               .set("balance", 500)
                                               .build())})
                    .Committed);
  Lcg Seq(42);
  for (int T = 0; T != 40; ++T) {
    int64_t From = static_cast<int64_t>(Seq.below(8));
    int64_t To = (From + 1) % 8;
    Rel.transact(transfer(Cat, From, To, 1 + (T % 7)));
  }
  ASSERT_TRUE(Log.sync());
  Log.close();
  Rel.setCommitHook(nullptr);

  std::vector<Wal::Record> Full = replayAll(Path);
  ASSERT_GE(Full.size(), 40u);
  size_t Size = Wal::fileSize(Path);

  Lcg Rnd(7);
  for (int Trial = 0; Trial != 12; ++Trial) {
    std::string Copy = Path + ".dmg";
    copyFile(Path, Copy);
    bool Flip = Trial % 2 == 1;
    if (Flip) {
      size_t Offset = Wal::MagicLen +
                      Rnd.below(Size - Wal::MagicLen);
      ASSERT_TRUE(Wal::flipBitAt(Copy, Offset, Rnd.below(8)));
    } else {
      ASSERT_TRUE(
          Wal::truncateTo(Copy, Wal::MagicLen + Rnd.below(Size)));
    }
    std::vector<Wal::Record> Damaged = replayAll(Copy);
    ASSERT_LE(Damaged.size(), Full.size());
    for (size_t I = 0; I != Damaged.size(); ++I) {
      EXPECT_EQ(Damaged[I].Ticket, Full[I].Ticket);
      EXPECT_EQ(Damaged[I].Payload, Full[I].Payload);
    }
    // Replaying the damaged prefix equals replaying that many records
    // of the intact history: α-equivalence of partial recoveries.
    std::vector<Wal::Record> Head(Full.begin(),
                                  Full.begin() + Damaged.size());
    expectSameRelation(serialReplay(Spec, Damaged),
                       serialReplay(Spec, Head));
    std::remove(Copy.c_str());
  }
  removeWal(Path);
}

TEST(CrashRecovery, CheckpointCompactsAndRecoversAcrossIt) {
  RelSpecRef Spec = accountSpec();
  const Catalog &Cat = Spec->catalog();
  std::string Path = walPath("ckpt");
  removeWal(Path);

  ConcurrentRelation Rel(accountDecomp(Spec), fourShards());
  Wal Log(Path);
  std::string Err;
  ASSERT_TRUE(Log.open(&Err)) << Err;
  Rel.setCommitHook([&](uint64_t Ticket, const std::vector<TxOp> &Redo) {
    std::vector<uint8_t> P = wire::encodeRedo(Redo);
    Log.append(Ticket, P.data(), P.size());
  });
  uint64_t LastTicket = 0;
  for (int64_t A = 0; A != 6; ++A) {
    TxResult Res = Rel.transact(std::vector<TxOp>{TxOp::insert(TupleBuilder(Cat)
                                                  .set("owner", A)
                                                  .set("acct", 0)
                                                  .set("balance", 100)
                                                  .build())});
    ASSERT_TRUE(Res.Committed);
    LastTicket = Res.Ticket;
  }
  ASSERT_TRUE(Log.sync());
  ASSERT_GT(Wal::fileSize(Path), Wal::MagicLen);

  ASSERT_TRUE(Log.checkpoint(
      LastTicket, RelServer::encodeSnapshot(Rel.snapshot()), &Err))
      << Err;
  EXPECT_EQ(Wal::fileSize(Path), Wal::MagicLen)
      << "checkpoint must truncate the log";

  // History continues after the checkpoint.
  ASSERT_TRUE(Rel.transact(transfer(Cat, 0 * 4, 1 * 4, 25)).Committed);
  ASSERT_TRUE(Log.sync());
  Log.close();
  Rel.setCommitHook(nullptr);

  // Recover the server way: snapshot first, then the residual log.
  uint64_t CkptTicket = 0;
  std::vector<uint8_t> Snap;
  ASSERT_TRUE(Wal::loadCheckpoint(Path, CkptTicket, Snap));
  EXPECT_EQ(CkptTicket, LastTicket);
  std::vector<Tuple> Tuples;
  ASSERT_TRUE(
      RelServer::decodeSnapshot(Snap, Cat.size(), Tuples));
  ConcurrentRelation Rec(accountDecomp(Spec), fourShards());
  for (const Tuple &T : Tuples)
    ASSERT_TRUE(Rec.insert(T));
  unsigned Arity = Cat.size();
  for (const Wal::Record &R : replayAll(Path)) {
    std::vector<TxOp> Ops;
    ASSERT_TRUE(
        wire::decodeRedo(R.Payload.data(), R.Payload.size(), Arity, Ops));
    ASSERT_TRUE(Rec.transact(Ops).Committed);
  }
  expectSameRelation(Rec.toRelation(), Rel.toRelation());
  removeWal(Path);
}

/// The checkpoint crash window: the snapshot rename has landed but the
/// log truncation never ran (crash, or the ftruncate failing after
/// rename). Disk holds snapshot + FULL log, so the log's prefix is
/// already inside the snapshot — recovery must skip every record at or
/// below the checkpoint ticket instead of double-applying history.
TEST(CrashRecovery, CheckpointPublishedButLogNotTruncated) {
  RelSpecRef Spec = accountSpec();
  const Catalog &Cat = Spec->catalog();
  ColumnId Bal = Cat.get("balance");
  std::string Path = walPath("ckptwindow");
  removeWal(Path);

  Relation Final(Cat.allColumns());
  uint64_t CkptTicket = 0;
  std::vector<uint8_t> SnapBytes;
  {
    ConcurrentRelation Rel(accountDecomp(Spec), fourShards());
    Wal Log(Path);
    std::string Err;
    ASSERT_TRUE(Log.open(&Err)) << Err;
    Rel.setCommitHook([&](uint64_t Ticket, const std::vector<TxOp> &Redo) {
      std::vector<uint8_t> P = wire::encodeRedo(Redo);
      Log.append(Ticket, P.data(), P.size());
    });
    for (int64_t A = 0; A != 8; ++A) {
      TxResult Res = Rel.transact(std::vector<TxOp>{TxOp::insert(TupleBuilder(Cat)
                                                    .set("owner", A / 4)
                                                    .set("acct", A % 4)
                                                    .set("balance", 1000)
                                                    .build())});
      ASSERT_TRUE(Res.Committed);
      CkptTicket = Res.Ticket;
    }
    // The snapshot the checkpoint will publish: state at CkptTicket,
    // i.e. BEFORE the transfers below — those form the replay residue.
    SnapBytes = RelServer::encodeSnapshot(Rel.snapshot());
    for (int T = 0; T != 10; ++T) {
      int64_t From = T % 8;
      int64_t To = (From + 3) % 8;
      ASSERT_TRUE(Rel.transact(transfer(Cat, From, To, 10 + T)).Committed);
    }
    ASSERT_TRUE(Log.sync());
    Rel.setCommitHook(nullptr);
    Log.close();
    Final = Rel.toRelation();
  }

  // Recreate the window. Wal::checkpoint publishes AND truncates, so
  // save the full log, checkpoint, then put the full log back — the
  // exact on-disk state a crash between the two steps leaves.
  std::string Full = Path + ".full";
  copyFile(Path, Full);
  {
    Wal Log(Path);
    std::string Err;
    ASSERT_TRUE(Log.open(&Err)) << Err;
    ASSERT_TRUE(Log.checkpoint(CkptTicket, SnapBytes, &Err)) << Err;
  }
  copyFile(Full, Path);
  std::remove(Full.c_str());

  ServerOptions Opts;
  Opts.WalPath = Path;
  Opts.Concurrent.NumShards = 4;
  {
    RelServer Server(accountDecomp(Spec), Opts);
    std::string Err;
    ASSERT_TRUE(Server.start(&Err)) << Err;
    // Only the post-checkpoint residue replays — the 8 seed inserts
    // are in the snapshot and must not be re-applied on top of it.
    EXPECT_EQ(Server.recoveredTxns(), 10u);
    expectSameRelation(Server.relation().toRelation(), Final);
    RelClient Cli;
    ASSERT_TRUE(Cli.connect(Server.port()));
    std::vector<Tuple> Rows;
    ASSERT_TRUE(Cli.query(Tuple(), Cat.allColumns(), Rows));
    ASSERT_EQ(Rows.size(), 8u);
    int64_t Total = 0;
    for (const Tuple &T : Rows)
      Total += T.get(Bal).asInt();
    EXPECT_EQ(Total, 8 * 1000) << "double-applied history leaked a transfer";
    Server.stop();
  }
  removeWal(Path);
}

/// A crash during WAL creation can leave a file holding only a prefix
/// of the magic. Recovery must truncate it to empty so reopening
/// re-initializes the magic — otherwise the first restart appends
/// acked records after the garbage and the SECOND restart fails with
/// "bad WAL magic", losing them.
TEST(CrashRecovery, FileTornInsideTheMagicIsReinitialized) {
  RelSpecRef Spec = accountSpec();
  const Catalog &Cat = Spec->catalog();
  std::string Path = walPath("tornmagic");
  removeWal(Path);
  {
    std::ofstream Out(Path, std::ios::binary | std::ios::trunc);
    Out.write(Wal::Magic, 3);
  }
  ASSERT_EQ(Wal::fileSize(Path), 3u);

  ServerOptions Opts;
  Opts.WalPath = Path;
  Opts.Concurrent.NumShards = 4;
  {
    RelServer Server(accountDecomp(Spec), Opts);
    std::string Err;
    ASSERT_TRUE(Server.start(&Err)) << Err;
    EXPECT_EQ(Server.recoveredTxns(), 0u);
    RelClient Cli;
    ASSERT_TRUE(Cli.connect(Server.port()));
    RelClient::Reply R;
    ASSERT_TRUE(Cli.insert(TupleBuilder(Cat)
                               .set("owner", 1)
                               .set("acct", 2)
                               .set("balance", 42)
                               .build(),
                           &R));
    ASSERT_TRUE(R.ok());
    Server.stop();
  }
  {
    RelServer Server(accountDecomp(Spec), Opts);
    std::string Err;
    ASSERT_TRUE(Server.start(&Err)) << Err;
    EXPECT_EQ(Server.recoveredTxns(), 1u);
    RelClient Cli;
    ASSERT_TRUE(Cli.connect(Server.port()));
    std::vector<Tuple> Rows;
    ASSERT_TRUE(Cli.query(Tuple(), Cat.allColumns(), Rows));
    ASSERT_EQ(Rows.size(), 1u);
    EXPECT_EQ(Rows[0].get(Cat.get("balance")).asInt(), 42);
    Server.stop();
  }
  removeWal(Path);
}

/// Full server lifecycle: serve, mutate over the wire, stop, restart
/// on the same WAL, and find every acked mutation again — twice, so
/// the second generation proves post-recovery appends land after the
/// truncated valid prefix with monotone tickets.
TEST(CrashRecovery, ServerRestartRecoversAckedStateTwice) {
  RelSpecRef Spec = accountSpec();
  const Catalog &Cat = Spec->catalog();
  ColumnId Bal = Cat.get("balance");
  std::string Path = walPath("server");
  removeWal(Path);

  ServerOptions Opts;
  Opts.WalPath = Path;
  Opts.Concurrent.NumShards = 4;

  std::vector<Tuple> Generation1;
  uint64_t MaxTicket1 = 0;
  {
    RelServer Server(accountDecomp(Spec), Opts);
    std::string Err;
    ASSERT_TRUE(Server.start(&Err)) << Err;
    EXPECT_EQ(Server.recoveredTxns(), 0u);
    RelClient Cli;
    ASSERT_TRUE(Cli.connect(Server.port()));
    for (int64_t A = 0; A != 8; ++A) {
      RelClient::Reply R;
      ASSERT_TRUE(Cli.insert(TupleBuilder(Cat)
                                 .set("owner", A / 4)
                                 .set("acct", A % 4)
                                 .set("balance", 1000)
                                 .build(),
                             &R));
      ASSERT_TRUE(R.ok());
    }
    int Acked = 0;
    for (int T = 0; T != 20; ++T) {
      std::vector<wire::WireTxOp> Ops = {
          wire::WireTxOp::add(TupleBuilder(Cat)
                                  .set("owner", T % 2)
                                  .set("acct", T % 4)
                                  .build(),
                              Bal, -50, 0),
          wire::WireTxOp::add(TupleBuilder(Cat)
                                  .set("owner", 1 - T % 2)
                                  .set("acct", 3 - T % 4)
                                  .build(),
                              Bal, 50)};
      RelClient::Reply R;
      ASSERT_TRUE(Cli.transact(Ops, &R));
      if (R.ok()) {
        ++Acked;
        MaxTicket1 = std::max(MaxTicket1, R.Ticket);
      }
    }
    EXPECT_GT(Acked, 0);
    ASSERT_TRUE(Cli.query(Tuple(), Cat.allColumns(), Generation1));
    Server.stop();
  }

  std::vector<Tuple> Generation2;
  {
    RelServer Server(accountDecomp(Spec), Opts);
    std::string Err;
    ASSERT_TRUE(Server.start(&Err)) << Err;
    EXPECT_GT(Server.recoveredTxns(), 0u);
    RelClient Cli;
    ASSERT_TRUE(Cli.connect(Server.port()));
    std::vector<Tuple> Rows;
    ASSERT_TRUE(Cli.query(Tuple(), Cat.allColumns(), Rows));
    ASSERT_EQ(Rows.size(), Generation1.size());
    Relation Snapshot(Cat.allColumns());
    for (const Tuple &T : Rows)
      Snapshot.insert(T);
    for (const Tuple &T : Generation1)
      EXPECT_TRUE(Snapshot.contains(T));
    // Second generation of mutations: tickets must continue past the
    // recovered history (seedTickets), and a second restart must see
    // both generations.
    RelClient::Reply R;
    ASSERT_TRUE(Cli.transact({wire::WireTxOp::add(TupleBuilder(Cat)
                                                      .set("owner", 0)
                                                      .set("acct", 0)
                                                      .build(),
                                                  Bal, -1, 0),
                              wire::WireTxOp::add(TupleBuilder(Cat)
                                                      .set("owner", 1)
                                                      .set("acct", 1)
                                                      .build(),
                                                  Bal, 1)},
                             &R));
    ASSERT_TRUE(R.ok());
    EXPECT_GT(R.Ticket, MaxTicket1);
    ASSERT_TRUE(Cli.query(Tuple(), Cat.allColumns(), Generation2));
    Server.stop();
  }

  {
    RelServer Server(accountDecomp(Spec), Opts);
    std::string Err;
    ASSERT_TRUE(Server.start(&Err)) << Err;
    RelClient Cli;
    ASSERT_TRUE(Cli.connect(Server.port()));
    std::vector<Tuple> Rows;
    ASSERT_TRUE(Cli.query(Tuple(), Cat.allColumns(), Rows));
    Relation Snapshot(Cat.allColumns());
    for (const Tuple &T : Rows)
      Snapshot.insert(T);
    EXPECT_EQ(Rows.size(), Generation2.size());
    for (const Tuple &T : Generation2)
      EXPECT_TRUE(Snapshot.contains(T));
    int64_t Total = 0;
    for (const Tuple &T : Rows)
      Total += T.get(Bal).asInt();
    EXPECT_EQ(Total, 8 * 1000);
    Server.stop();
  }
  removeWal(Path);
}

/// checkpointNow through the live server plus auto-checkpoint pacing:
/// after the checkpoint the log is compact and a restart still sees
/// everything, with recovery counting only post-checkpoint txns.
TEST(CrashRecovery, LiveCheckpointTruncatesAndRestartStillRecovers) {
  RelSpecRef Spec = accountSpec();
  const Catalog &Cat = Spec->catalog();
  ColumnId Bal = Cat.get("balance");
  std::string Path = walPath("livecp");
  removeWal(Path);

  ServerOptions Opts;
  Opts.WalPath = Path;
  Opts.Concurrent.NumShards = 4;

  {
    RelServer Server(accountDecomp(Spec), Opts);
    std::string Err;
    ASSERT_TRUE(Server.start(&Err)) << Err;
    RelClient Cli;
    ASSERT_TRUE(Cli.connect(Server.port()));
    for (int64_t A = 0; A != 4; ++A) {
      RelClient::Reply R;
      ASSERT_TRUE(Cli.insert(TupleBuilder(Cat)
                                 .set("owner", A)
                                 .set("acct", 0)
                                 .set("balance", 10)
                                 .build(),
                             &R));
      ASSERT_TRUE(R.ok());
    }
    ASSERT_GT(Wal::fileSize(Path), Wal::MagicLen);
    RelClient::Reply R;
    ASSERT_TRUE(Cli.checkpoint(&R));
    ASSERT_TRUE(R.ok());
    EXPECT_EQ(Wal::fileSize(Path), Wal::MagicLen);
    // One post-checkpoint mutation: the only txn a restart replays.
    ASSERT_TRUE(Cli.transact({wire::WireTxOp::add(TupleBuilder(Cat)
                                                      .set("owner", 0)
                                                      .set("acct", 0)
                                                      .build(),
                                                  Bal, 5)},
                             &R));
    ASSERT_TRUE(R.ok());
    Server.stop();
  }
  {
    RelServer Server(accountDecomp(Spec), Opts);
    std::string Err;
    ASSERT_TRUE(Server.start(&Err)) << Err;
    EXPECT_EQ(Server.recoveredTxns(), 1u)
        << "checkpointed history must not be replayed";
    RelClient Cli;
    ASSERT_TRUE(Cli.connect(Server.port()));
    std::vector<Tuple> Rows;
    ASSERT_TRUE(Cli.query(Tuple(), Cat.allColumns(), Rows));
    ASSERT_EQ(Rows.size(), 4u);
    int64_t Total = 0;
    for (const Tuple &T : Rows)
      Total += T.get(Bal).asInt();
    EXPECT_EQ(Total, 4 * 10 + 5);
    Server.stop();
  }
  removeWal(Path);
}

/// Spins (bounded) until \p Cond holds — checkpoint completions are
/// asynchronous (committer barrier, then the checkpoint thread).
bool waitUntil(const std::function<bool()> &Cond, int Millis = 5000) {
  for (int I = 0; I != Millis * 10; ++I) {
    if (Cond())
      return true;
    std::this_thread::sleep_for(std::chrono::microseconds(100));
  }
  return Cond();
}

/// Explicit checkpoint against an injected failure: the wire reply must
/// come back as an error (not silence, not Ok), the failure must be
/// counted, commits must keep flowing, and once the fault clears a
/// retry compacts the log and a restart recovers the exact state.
TEST(CrashRecovery, FailedCheckpointRepliesErrorAndServerKeepsCommitting) {
  RelSpecRef Spec = accountSpec();
  const Catalog &Cat = Spec->catalog();
  std::string Path = walPath("ckptfail");
  removeWal(Path);

  ServerOptions Opts;
  Opts.WalPath = Path;
  Opts.Concurrent.NumShards = 4;
  {
    RelServer Server(accountDecomp(Spec), Opts);
    std::string Err;
    ASSERT_TRUE(Server.start(&Err)) << Err;
    RelClient Cli;
    ASSERT_TRUE(Cli.connect(Server.port()));
    for (int64_t A = 0; A != 4; ++A) {
      RelClient::Reply R;
      ASSERT_TRUE(Cli.insert(TupleBuilder(Cat)
                                 .set("owner", A)
                                 .set("acct", 0)
                                 .set("balance", 10)
                                 .build(),
                             &R));
      ASSERT_TRUE(R.ok());
    }
    size_t Before = Wal::fileSize(Path);
    ASSERT_GT(Before, Wal::MagicLen);

    Server.wal().failNextCheckpoints(1);
    RelClient::Reply R;
    EXPECT_FALSE(Cli.checkpoint(&R));
    EXPECT_EQ(R.St, wire::Status::Error);
    EXPECT_NE(R.Error.find("checkpoint failed"), std::string::npos)
        << R.Error;
    // The reply is sent after runCheckpoint finished, so the counter
    // is already final; the log must be untouched (no partial
    // compaction against a failed snapshot).
    EXPECT_EQ(Server.checkpointFailures(), 1u);
    EXPECT_EQ(Wal::fileSize(Path), Before);

    // The append path never stopped: fresh commits still ack durably.
    ASSERT_TRUE(Cli.insert(TupleBuilder(Cat)
                               .set("owner", 9)
                               .set("acct", 0)
                               .set("balance", 50)
                               .build(),
                           &R));
    ASSERT_TRUE(R.ok());

    // Fault exhausted: the retry compacts, with no new failures.
    ASSERT_TRUE(Cli.checkpoint(&R));
    ASSERT_TRUE(R.ok());
    EXPECT_EQ(Wal::fileSize(Path), Wal::MagicLen);
    EXPECT_EQ(Server.checkpointFailures(), 1u);

    ColumnId Bal = Cat.get("balance");
    ASSERT_TRUE(Cli.transact({wire::WireTxOp::add(TupleBuilder(Cat)
                                                      .set("owner", 9)
                                                      .set("acct", 0)
                                                      .build(),
                                                  Bal, 5)},
                             &R));
    ASSERT_TRUE(R.ok());
    Server.stop();
  }
  {
    RelServer Server(accountDecomp(Spec), Opts);
    std::string Err;
    ASSERT_TRUE(Server.start(&Err)) << Err;
    EXPECT_EQ(Server.recoveredTxns(), 1u)
        << "only the post-checkpoint transfer replays";
    RelClient Cli;
    ASSERT_TRUE(Cli.connect(Server.port()));
    std::vector<Tuple> Rows;
    ASSERT_TRUE(Cli.query(Tuple(), Cat.allColumns(), Rows));
    ASSERT_EQ(Rows.size(), 5u);
    int64_t Total = 0;
    for (const Tuple &T : Rows)
      Total += T.get(Cat.get("balance")).asInt();
    EXPECT_EQ(Total, 4 * 10 + 50 + 5);
    Server.stop();
  }
  removeWal(Path);
}

/// Auto-checkpoint pacing under failure: a failing attempt is counted
/// once and then BACKED OFF — the next CheckpointEvery-1 commits must
/// not re-queue the failing checkpoint (no hot-retry storm); the
/// attempt after the interval refills succeeds and compacts.
TEST(CrashRecovery, AutoCheckpointFailureBacksOffForAFullInterval) {
  RelSpecRef Spec = accountSpec();
  const Catalog &Cat = Spec->catalog();
  std::string Path = walPath("ckptbackoff");
  removeWal(Path);

  ServerOptions Opts;
  Opts.WalPath = Path;
  Opts.Concurrent.NumShards = 4;
  Opts.CheckpointEvery = 4;
  RelServer Server(accountDecomp(Spec), Opts);
  std::string Err;
  ASSERT_TRUE(Server.start(&Err)) << Err;
  Server.wal().failNextCheckpoints(1);

  RelClient Cli;
  ASSERT_TRUE(Cli.connect(Server.port()));
  auto insertRow = [&](int64_t A) {
    RelClient::Reply R;
    ASSERT_TRUE(Cli.insert(TupleBuilder(Cat)
                               .set("owner", A)
                               .set("acct", 0)
                               .set("balance", 7)
                               .build(),
                           &R));
    ASSERT_TRUE(R.ok());
  };

  // The 4th commit crosses the interval and queues the failing
  // attempt.
  for (int64_t A = 0; A != 4; ++A)
    insertRow(A);
  ASSERT_TRUE(waitUntil([&] { return Server.checkpointFailures() == 1; }));
  EXPECT_GT(Wal::fileSize(Path), Wal::MagicLen);

  // Backoff: three more commits stay inside the refilled interval — no
  // new attempt, so the failure count cannot move and the log keeps
  // growing. (Each insert's durable ack orders it after the commit
  // path's maybeAutoCheckpoint call for that commit.)
  size_t Grown = Wal::fileSize(Path);
  for (int64_t A = 4; A != 7; ++A)
    insertRow(A);
  EXPECT_EQ(Server.checkpointFailures(), 1u);
  EXPECT_GT(Wal::fileSize(Path), Grown);

  // The commit that refills the interval triggers the (now healthy)
  // attempt: the log compacts and no further failures are counted.
  insertRow(7);
  ASSERT_TRUE(
      waitUntil([&] { return Wal::fileSize(Path) == Wal::MagicLen; }));
  EXPECT_EQ(Server.checkpointFailures(), 1u);

  Server.stop();
  removeWal(Path);
}

/// A client that requests a checkpoint and vanishes before the
/// committer barrier even runs: the captured ConnPtr keeps the
/// connection object alive, the checkpoint completes against the
/// pinned snapshot, and the completion's reply fails harmlessly
/// against the dead fd — the server neither crashes nor leaks the job.
TEST(CrashRecovery, CheckpointSurvivesClientDisconnectBeforeCompletion) {
  RelSpecRef Spec = accountSpec();
  const Catalog &Cat = Spec->catalog();
  std::string Path = walPath("ckptdeadconn");
  removeWal(Path);

  ServerOptions Opts;
  Opts.WalPath = Path;
  Opts.Concurrent.NumShards = 4;
  RelServer Server(accountDecomp(Spec), Opts);
  std::string Err;
  ASSERT_TRUE(Server.start(&Err)) << Err;

  RelClient Cli;
  ASSERT_TRUE(Cli.connect(Server.port()));
  for (int64_t A = 0; A != 4; ++A) {
    RelClient::Reply R;
    ASSERT_TRUE(Cli.insert(TupleBuilder(Cat)
                               .set("owner", A)
                               .set("acct", 0)
                               .set("balance", 3)
                               .build(),
                           &R));
    ASSERT_TRUE(R.ok());
  }
  ASSERT_GT(Wal::fileSize(Path), Wal::MagicLen);

  {
    RelClient Doomed;
    ASSERT_TRUE(Doomed.connect(Server.port()));
    wire::ByteWriter W;
    W.u8(static_cast<uint8_t>(wire::Op::Checkpoint));
    W.u64(77);
    ASSERT_TRUE(Doomed.sendRaw(W.data()));
    // Gone before the reply — likely before the barrier even ran.
    Doomed.close();
  }

  // The checkpoint still completes (the log compacts)...
  ASSERT_TRUE(
      waitUntil([&] { return Wal::fileSize(Path) == Wal::MagicLen; }));
  EXPECT_EQ(Server.checkpointFailures(), 0u);
  // ...and the server is unharmed: the surviving connection still
  // commits durably and a fresh one connects.
  RelClient::Reply R;
  ASSERT_TRUE(Cli.insert(TupleBuilder(Cat)
                             .set("owner", 8)
                             .set("acct", 0)
                             .set("balance", 3)
                             .build(),
                         &R));
  ASSERT_TRUE(R.ok());
  RelClient Fresh;
  ASSERT_TRUE(Fresh.connect(Server.port()));
  EXPECT_TRUE(Fresh.ping());
  Server.stop();
  removeWal(Path);
}

/// Checkpoint bodies stream a pinned snapshot while writers keep
/// committing. Each encoding must decode to exactly that handle's α —
/// no row missed, doubled, or read from a later state — and a server
/// started from the published checkpoint must recover that relation.
TEST(CrashRecovery, StreamedSnapshotUnderWritersDecodesToItsAlpha) {
  RelSpecRef Spec = accountSpec();
  const Catalog &Cat = Spec->catalog();
  const int64_t Accounts = 2000;
  ConcurrentRelation Rel(accountDecomp(Spec), fourShards());
  for (int64_t A = 0; A != Accounts; ++A)
    ASSERT_TRUE(Rel.insert(TupleBuilder(Cat)
                               .set("owner", A / 4)
                               .set("acct", A % 4)
                               .set("balance", 1000)
                               .build()));

  std::atomic<bool> Stop{false};
  std::atomic<uint64_t> Commits{0};
  std::vector<std::thread> Writers;
  for (uint64_t W = 0; W != 2; ++W)
    Writers.emplace_back([&, W] {
      Lcg R(W + 7);
      while (!Stop.load(std::memory_order_relaxed)) {
        int64_t From = static_cast<int64_t>(R.below(Accounts));
        int64_t To = static_cast<int64_t>(R.below(Accounts));
        int64_t Amt = 1 + static_cast<int64_t>(R.below(50));
        if (From != To && Rel.transact(transfer(Cat, From, To, Amt)).Committed)
          Commits.fetch_add(1, std::memory_order_relaxed);
      }
    });

  ConcurrentRelation::Snapshot Last;
  std::vector<uint8_t> LastBytes;
  for (int Round = 0; Round != 5; ++Round) {
    ConcurrentRelation::Snapshot Snap = Rel.snapshot();
    // Let commits land after the pin, so the encoder reads shards that
    // writers have since copied away from.
    uint64_t Pinned = Commits.load();
    ASSERT_TRUE(waitUntil([&] { return Commits.load() > Pinned; }));
    std::vector<uint8_t> Bytes = RelServer::encodeSnapshot(Snap);
    std::vector<Tuple> Tuples;
    ASSERT_TRUE(RelServer::decodeSnapshot(Bytes, Cat.size(), Tuples));
    EXPECT_EQ(Tuples.size(), Snap.size());
    Relation Decoded(Cat.allColumns());
    for (const Tuple &T : Tuples)
      Decoded.insert(T);
    EXPECT_EQ(Decoded.size(), Tuples.size()) << "a row was encoded twice";
    EXPECT_EQ(Decoded, Snap.toRelation()) << "round " << Round;
    Last = std::move(Snap);
    LastBytes = std::move(Bytes);
  }
  Stop.store(true);
  for (std::thread &T : Writers)
    T.join();

  std::string Path = walPath("streamed");
  removeWal(Path);
  std::string Err;
  {
    Wal Log(Path);
    ASSERT_TRUE(Log.open(&Err)) << Err;
    ASSERT_TRUE(Log.checkpoint(Last.ticket(), LastBytes, &Err)) << Err;
  }
  ServerOptions Opts;
  Opts.WalPath = Path;
  Opts.Concurrent.NumShards = 4;
  RelServer Server(accountDecomp(Spec), Opts);
  ASSERT_TRUE(Server.start(&Err)) << Err;
  EXPECT_EQ(Server.recoveredTxns(), 0u);
  EXPECT_EQ(Server.relation().toRelation(), Last.toRelation());
  Server.stop();
  removeWal(Path);
}

} // namespace
