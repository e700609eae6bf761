//===- tests/concurrent/StressTest.cpp - Multi-threaded stress ---*- C++ -*-===//
//
// Part of the RelC data representation synthesis library.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Multi-writer / multi-reader stress over ConcurrentRelation, built
/// to run ThreadSanitizer-clean (the CI TSan job runs exactly this
/// suite). Correctness is final-state α-equivalence: writer threads
/// log every mutation they perform; because the writers operate on
/// pairwise-disjoint key sets, their operations commute across
/// threads, so the concurrent execution must leave the relation in the
/// state produced by replaying the logs serially, thread by thread,
/// into the sequential engine — a serial order of the same operations.
///
//===----------------------------------------------------------------------===//

#include "concurrent/ConcurrentRelation.h"

#include "decomp/Builder.h"
#include "workloads/Rng.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <thread>
#include <vector>

using namespace relc;

namespace {

RelSpecRef schedulerSpec() {
  return RelSpec::make("scheduler", {"ns", "pid", "state", "cpu"},
                       {{"ns, pid", "state, cpu"}});
}

Decomposition fig2(const RelSpecRef &Spec) {
  DecompBuilder B(Spec);
  NodeId W = B.addNode("w", "ns, pid, state", B.unit("cpu"));
  NodeId Y = B.addNode("y", "ns", B.map("pid", DsKind::HashTable, W));
  NodeId Z = B.addNode("z", "state", B.map("ns, pid", DsKind::DList, W));
  B.addNode("x", "", B.join(B.map("ns", DsKind::HashTable, Y),
                            B.map("state", DsKind::Vector, Z)));
  return B.build();
}

/// One logged mutation, replayable against any engine.
struct LoggedOp {
  enum Kind { Insert, Remove, Update, Upsert } Op;
  Tuple A; ///< Insert: the tuple. Remove/Update/Upsert: the pattern.
  Tuple B; ///< Update: the changes.
  int64_t Delta = 0; ///< Upsert: the deterministic Fn's increment.
};

/// The upsert stress Fn, deterministic in (current value, Delta) so a
/// serial replay reproduces it: cpu accumulates mod 100, state follows
/// the delta (exercising migration when sharded by state).
void applyUpsert(SynthesizedRelation &Rel, const Catalog &Cat,
                 const Tuple &Key, int64_t Delta) {
  ColumnId ColCpu = Cat.get("cpu"), ColState = Cat.get("state");
  Rel.upsert(Key, [&](const BindingFrame *Cur, Tuple &Values) {
    int64_t Cpu = Cur ? Cur->get(ColCpu).asInt() : 0;
    Values.set(ColCpu, Value::ofInt((Cpu + Delta) % 100));
    Values.set(ColState, Value::ofInt(Delta % 3));
  });
}

/// Replays writer logs serially, thread by thread, into \p Replay;
/// returns the number of ops replayed.
size_t replayLogs(SynthesizedRelation &Replay, const Catalog &Cat,
                  const std::vector<std::vector<LoggedOp>> &Logs) {
  size_t Ops = 0;
  for (const std::vector<LoggedOp> &Log : Logs) {
    Ops += Log.size();
    for (const LoggedOp &Op : Log) {
      switch (Op.Op) {
      case LoggedOp::Insert:
        Replay.insert(Op.A);
        break;
      case LoggedOp::Remove:
        Replay.remove(Op.A);
        break;
      case LoggedOp::Update:
        Replay.update(Op.A, Op.B);
        break;
      case LoggedOp::Upsert:
        applyUpsert(Replay, Cat, Op.A, Op.Delta);
        break;
      }
    }
  }
  return Ops;
}

/// Writer loop: FD-safe random mutations confined to pid values
/// `Tid mod NumWriters` (namespaces are shared across threads, so
/// shards see real cross-thread contention while the key sets stay
/// disjoint). Every performed op is logged for the serial replay.
void writerLoop(ConcurrentRelation &Rel, const Catalog &Cat,
                const FuncDeps &Fds, unsigned Tid, unsigned NumWriters,
                int Ops, std::vector<LoggedOp> &Log) {
  Rng R(0x5eed0000 + Tid);
  Relation Mine(Cat.allColumns()); // this thread's slice, for FD checks
  for (int Step = 0; Step != Ops; ++Step) {
    int64_t Ns = R.range(0, 7);
    int64_t Pid = static_cast<int64_t>(Tid) +
                  static_cast<int64_t>(NumWriters) * R.range(0, 15);
    Tuple Key = TupleBuilder(Cat).set("ns", Ns).set("pid", Pid).build();
    switch (R.below(8)) {
    case 0:
    case 1:
    case 2: { // insert
      Tuple T = TupleBuilder(Cat)
                    .set("ns", Ns)
                    .set("pid", Pid)
                    .set("state", static_cast<int64_t>(R.below(3)))
                    .set("cpu", static_cast<int64_t>(R.below(100)))
                    .build();
      if (!Mine.insertPreservesFds(T, Fds))
        break;
      Mine.insert(T);
      Rel.insert(T);
      Log.push_back({LoggedOp::Insert, T, Tuple()});
      break;
    }
    case 3: { // remove by key (routed), or by own pid only (fan-out)
      Tuple Pattern =
          R.chance(0.25) ? TupleBuilder(Cat).set("pid", Pid).build() : Key;
      Mine.remove(Pattern);
      Rel.remove(Pattern);
      Log.push_back({LoggedOp::Remove, Pattern, Tuple()});
      break;
    }
    case 4: { // update cpu through the key
      Tuple Changes = TupleBuilder(Cat).set("cpu", R.range(0, 99)).build();
      Mine.update(Key, Changes);
      Rel.update(Key, Changes);
      Log.push_back({LoggedOp::Update, Key, Changes});
      break;
    }
    case 5: { // update state through the key (fan-out / migration
              // when the shard column is state)
      Tuple Changes = TupleBuilder(Cat).set("state", R.range(0, 2)).build();
      Mine.update(Key, Changes);
      Rel.update(Key, Changes);
      Log.push_back({LoggedOp::Update, Key, Changes});
      break;
    }
    case 6:
    case 7: { // upsert: atomic read-modify-write through the key
              // (routed under default sharding, fan-out + migration
              // when sharded by state); always FD-safe
      int64_t Delta = R.range(1, 49);
      ColumnId ColCpu = Cat.get("cpu"), ColState = Cat.get("state");
      Rel.upsert(Key, [&](const BindingFrame *Cur, Tuple &Values) {
        int64_t Cpu = Cur ? Cur->get(ColCpu).asInt() : 0;
        Values.set(ColCpu, Value::ofInt((Cpu + Delta) % 100));
        Values.set(ColState, Value::ofInt(Delta % 3));
      });
      // Mirror into this thread's slice for later FD pre-checks.
      auto Cur = Mine.query(Key, ColumnSet::single(ColCpu));
      int64_t Cpu = Cur.empty() ? 0 : Cur.front().get(ColCpu).asInt();
      Tuple Changes = TupleBuilder(Cat)
                          .set("cpu", (Cpu + Delta) % 100)
                          .set("state", Delta % 3)
                          .build();
      if (Cur.empty())
        Mine.insert(Key.merge(Changes));
      else
        Mine.update(Key, Changes);
      Log.push_back({LoggedOp::Upsert, Key, Tuple(), Delta});
      break;
    }
    }
  }
}

/// Reader loop: routed key probes, fan-out scans and size polls until
/// the writers finish. Results are only sanity-checked — the point is
/// racing the readers against every writer path under TSan.
void readerLoop(const ConcurrentRelation &Rel, const Catalog &Cat,
                unsigned Tid, const std::atomic<bool> &Done,
                std::atomic<size_t> &RowsSeen) {
  Rng R(0xbead0000 + Tid);
  ColumnId ColCpu = Cat.get("cpu");
  size_t Rows = 0;
  while (!Done.load(std::memory_order_acquire)) {
    Tuple Key = TupleBuilder(Cat)
                    .set("ns", R.range(0, 7))
                    .set("pid", R.range(0, 63))
                    .build();
    int64_t Sum = 0;
    Rel.scanFrames(Key, ColumnSet::single(ColCpu),
                   [&](const BindingFrame &F) {
                     Sum += F.get(ColCpu).asInt();
                     ++Rows;
                     return false;
                   });
    EXPECT_GE(Sum, 0);
    Rel.scan(TupleBuilder(Cat).set("state", R.range(0, 2)).build(),
             Cat.parseSet("ns, pid"), [&](const Tuple &T) {
               EXPECT_TRUE(T.has(Cat.get("ns")));
               EXPECT_TRUE(T.has(Cat.get("pid")));
               ++Rows;
               return true;
             });
    // Parallel fan-out scan racing the writers (one worker per shard
    // through the bounded merge queue), sometimes stopped early to
    // exercise close()-side shutdown against blocked producers.
    bool StopEarly = R.chance(0.3);
    size_t ParRows = 0;
    Rel.scanFramesParallel(Tuple(), Cat.parseSet("ns, cpu"),
                           [&](const BindingFrame &F) {
                             EXPECT_GE(F.get(ColCpu).asInt(), 0);
                             ++Rows;
                             return !StopEarly || ++ParRows < 5;
                           });
    (void)Rel.size();
    (void)Rel.contains(Key);
  }
  RowsSeen.fetch_add(Rows, std::memory_order_relaxed);
}

/// The full harness: writers + readers race, then the writer logs are
/// replayed serially and the final states must be α-equivalent.
void runStress(ConcurrentOptions Opts, unsigned NumWriters,
               unsigned NumReaders, int OpsPerWriter) {
  RelSpecRef Spec = schedulerSpec();
  Decomposition D = fig2(Spec);
  const Catalog &Cat = Spec->catalog();
  ConcurrentRelation Rel(D, Opts);

  std::vector<std::vector<LoggedOp>> Logs(NumWriters);
  std::atomic<bool> Done{false};
  std::atomic<size_t> RowsSeen{0};

  std::vector<std::thread> Readers;
  for (unsigned I = 0; I != NumReaders; ++I)
    Readers.emplace_back(readerLoop, std::cref(Rel), std::cref(Cat), I,
                         std::cref(Done), std::ref(RowsSeen));
  std::vector<std::thread> Writers;
  for (unsigned I = 0; I != NumWriters; ++I)
    Writers.emplace_back([&, I] {
      writerLoop(Rel, Cat, Spec->fds(), I, NumWriters, OpsPerWriter,
                 Logs[I]);
    });
  for (std::thread &T : Writers)
    T.join();
  Done.store(true, std::memory_order_release);
  for (std::thread &T : Readers)
    T.join();

  // Serial replay, thread by thread: a legal serialization because
  // the writers' key sets are disjoint, so cross-thread ops commute.
  SynthesizedRelation Replay{Decomposition(D)};
  EXPECT_GT(replayLogs(Replay, Cat, Logs), 0u);
  EXPECT_EQ(Rel.toRelation(), Replay.toRelation());
  EXPECT_EQ(Rel.size(), Replay.size());
}

TEST(ConcurrentStressTest, MultiWriterMultiReaderDefaultSharding) {
  runStress({8, std::nullopt}, /*NumWriters=*/4, /*NumReaders=*/2,
            /*OpsPerWriter=*/600);
}

TEST(ConcurrentStressTest, MultiWriterShardedByNonKeyColumn) {
  // Sharding on state forces the fan-out update and cross-shard
  // migration paths under contention.
  RelSpecRef Spec = schedulerSpec();
  ConcurrentOptions Opts;
  Opts.NumShards = 4;
  Opts.ShardColumn = Spec->catalog().get("state");
  runStress(Opts, /*NumWriters=*/4, /*NumReaders=*/2, /*OpsPerWriter=*/300);
}

TEST(ConcurrentStressTest, SingleShardDegenerateStillSafe) {
  runStress({1, std::nullopt}, /*NumWriters=*/2, /*NumReaders=*/2,
            /*OpsPerWriter=*/300);
}

/// Arena accounting under multi-writer churn: after the race, the
/// per-shard arenas' live block counts must be a pure function of the
/// represented relation — clearing and replaying the same contents
/// single-threaded reproduces them exactly, and a clear leaves only
/// the shard roots live with every slab retained warm.
TEST(ConcurrentStressTest, ArenaAccountingSurvivesWriterChurn) {
  RelSpecRef Spec = schedulerSpec();
  Decomposition D = fig2(Spec);
  const Catalog &Cat = Spec->catalog();
  ConcurrentRelation Rel(D, {4, std::nullopt});

  const unsigned NumWriters = 4;
  std::vector<std::vector<LoggedOp>> Logs(NumWriters);
  std::vector<std::thread> Writers;
  for (unsigned I = 0; I != NumWriters; ++I)
    Writers.emplace_back([&, I] {
      writerLoop(Rel, Cat, Spec->fds(), I, NumWriters, /*Ops=*/500, Logs[I]);
    });
  for (std::thread &T : Writers)
    T.join();

  Relation Final = Rel.toRelation();
  ArenaStats AfterChurn = Rel.arenaStats();
  // Churn recycles constantly; the free lists must be doing real work.
  EXPECT_GT(AfterChurn.Recycled, 0u);
  EXPECT_GE(AfterChurn.Live, Rel.numShards() + Rel.size());

  // Clear: O(slabs) reset on every shard, slabs retained.
  Rel.clear();
  ArenaStats Cleared = Rel.arenaStats();
  EXPECT_EQ(Cleared.Live, Rel.numShards());
  EXPECT_EQ(Cleared.Slabs, AfterChurn.Slabs);
  EXPECT_EQ(Cleared.Bytes, AfterChurn.Bytes);

  // Replay the final contents serially: α-equivalent, and the arenas
  // hold exactly the blocks the churned run held for the same
  // relation — live counts depend on contents, not history.
  for (const Tuple &T : Final.tuples())
    Rel.insert(T);
  EXPECT_EQ(Rel.toRelation(), Final);
  EXPECT_EQ(Rel.arenaStats().Live, AfterChurn.Live);
  EXPECT_EQ(Rel.arenaStats().Slabs, AfterChurn.Slabs);
}

//===----------------------------------------------------------------------===
// Serializability stress: racing multi-key transactions.
//===----------------------------------------------------------------------===

/// One op of a logged transaction, replayable against any engine.
struct LoggedTxOp {
  enum Kind { Insert, Remove, Update, Upsert } Op;
  Tuple A;           ///< Insert: tuple. Remove/Update/Upsert: the key.
  Tuple B;           ///< Update: the changes.
  int64_t Delta = 0; ///< Upsert: the deterministic Fn's increment.
};

/// A committed transaction: its commit ticket (drawn at the
/// linearization point, while every touched stripe was held) plus the
/// ops to replay.
struct LoggedTx {
  uint64_t Ticket = 0;
  std::vector<LoggedTxOp> Ops;
};

/// Rebuilds the executable TxOp for a logged op; the upsert callback
/// is the same deterministic (current, Delta) formula applyUpsert
/// replays, so any engine reproduces it.
TxOp toTxOp(const Catalog &Cat, const LoggedTxOp &Op) {
  switch (Op.Op) {
  case LoggedTxOp::Insert:
    return TxOp::insert(Op.A);
  case LoggedTxOp::Remove:
    return TxOp::remove(Op.A);
  case LoggedTxOp::Update:
    return TxOp::update(Op.A, Op.B);
  case LoggedTxOp::Upsert:
    break;
  }
  ColumnId ColCpu = Cat.get("cpu"), ColState = Cat.get("state");
  int64_t Delta = Op.Delta;
  return TxOp::upsert(Op.A, [ColCpu, ColState,
                             Delta](const BindingFrame *Cur, Tuple &V) {
    int64_t Cpu = Cur ? Cur->get(ColCpu).asInt() : 0;
    V.set(ColCpu, Value::ofInt((Cpu + Delta) % 100));
    V.set(ColState, Value::ofInt(Delta % 3));
  });
}

/// Transaction writer: random 2-4-op transactions over keys drawn
/// from ONE domain shared by every writer — unlike the single-op
/// stress, the key sets deliberately OVERLAP, so nothing commutes for
/// free and only two-phase locking keeps the histories serializable.
/// Committed transactions are logged under their commit tickets;
/// aborted ones (mid-batch FD conflicts from racing inserts, rolled
/// back under the held locks) are counted.
void txWriterLoop(ConcurrentRelation &Rel, const Catalog &Cat,
                  unsigned Tid, int Txns, std::vector<LoggedTx> &Log,
                  std::atomic<size_t> &Aborts) {
  Rng R(0x7c0000 + Tid);
  for (int T = 0; T != Txns; ++T) {
    std::vector<LoggedTxOp> Script;
    unsigned N = 2 + static_cast<unsigned>(R.below(3));
    for (unsigned J = 0; J != N; ++J) {
      Tuple Key = TupleBuilder(Cat)
                      .set("ns", R.range(0, 7))
                      .set("pid", R.range(0, 11))
                      .build();
      switch (R.below(8)) {
      case 0: { // insert: conflict-prone on purpose (shared keys)
        Tuple T2 = Key.merge(TupleBuilder(Cat)
                                 .set("state", R.range(0, 2))
                                 .set("cpu", R.range(0, 99))
                                 .build());
        Script.push_back({LoggedTxOp::Insert, T2, Tuple(), 0});
        break;
      }
      case 1: // remove through the key
        Script.push_back({LoggedTxOp::Remove, Key, Tuple(), 0});
        break;
      case 2: { // update cpu through the key
        Script.push_back(
            {LoggedTxOp::Update, Key,
             TupleBuilder(Cat).set("cpu", R.range(0, 99)).build(), 0});
        break;
      }
      case 3: { // update state through the key (migration when
                // sharded by state)
        Script.push_back(
            {LoggedTxOp::Update, Key,
             TupleBuilder(Cat).set("state", R.range(0, 2)).build(), 0});
        break;
      }
      default: // upsert: the transfer-style read-modify-write
        Script.push_back(
            {LoggedTxOp::Upsert, Key, Tuple(), R.range(1, 49)});
        break;
      }
    }
    std::vector<TxOp> Ops;
    Ops.reserve(Script.size());
    for (const LoggedTxOp &Op : Script)
      Ops.push_back(toTxOp(Cat, Op));
    TxResult Res = Rel.transact(Ops);
    if (Res.Committed)
      Log.push_back({Res.Ticket, std::move(Script)});
    else
      Aborts.fetch_add(1, std::memory_order_relaxed);
  }
}

/// The serializability harness: N transaction writers over overlapping
/// keys race M readers; afterwards every committed transaction is
/// replayed SERIALLY, in commit-ticket order, into the sequential
/// engine. Two-phase locking promises that ticket order is a legal
/// serialization: every replayed transaction must commit again, and
/// the final states must be α-equivalent.
void runTransactStress(ConcurrentOptions Opts, unsigned NumWriters,
                       unsigned NumReaders, int TxnsPerWriter) {
  RelSpecRef Spec = schedulerSpec();
  Decomposition D = fig2(Spec);
  const Catalog &Cat = Spec->catalog();
  ConcurrentRelation Rel(D, Opts);

  std::vector<std::vector<LoggedTx>> Logs(NumWriters);
  std::atomic<size_t> Aborts{0};
  std::atomic<bool> Done{false};
  std::atomic<size_t> RowsSeen{0};

  std::vector<std::thread> Readers;
  for (unsigned I = 0; I != NumReaders; ++I)
    Readers.emplace_back(readerLoop, std::cref(Rel), std::cref(Cat), I,
                         std::cref(Done), std::ref(RowsSeen));
  std::vector<std::thread> Writers;
  for (unsigned I = 0; I != NumWriters; ++I)
    Writers.emplace_back([&, I] {
      txWriterLoop(Rel, Cat, I, TxnsPerWriter, Logs[I], Aborts);
    });
  for (std::thread &T : Writers)
    T.join();
  Done.store(true, std::memory_order_release);
  for (std::thread &T : Readers)
    T.join();

  // Merge the logs into one serial history ordered by commit ticket.
  std::vector<const LoggedTx *> History;
  for (const std::vector<LoggedTx> &Log : Logs)
    for (const LoggedTx &Tx : Log)
      History.push_back(&Tx);
  std::sort(History.begin(), History.end(),
            [](const LoggedTx *L, const LoggedTx *R2) {
              return L->Ticket < R2->Ticket;
            });
  // Tickets are unique commit stamps.
  for (size_t I = 1; I < History.size(); ++I)
    ASSERT_NE(History[I - 1]->Ticket, History[I]->Ticket);

  SynthesizedRelation Replay{Decomposition(D)};
  for (const LoggedTx *Tx : History) {
    std::vector<TxOp> Ops;
    Ops.reserve(Tx->Ops.size());
    for (const LoggedTxOp &Op : Tx->Ops)
      Ops.push_back(toTxOp(Cat, Op));
    TxResult Res = Replay.transact(Ops);
    // Serializability: what committed concurrently must commit in the
    // serial order the tickets define.
    ASSERT_TRUE(Res.Committed) << "ticket " << Tx->Ticket;
  }
  EXPECT_GT(History.size(), 0u);
  EXPECT_GT(Aborts.load(), 0u)
      << "overlapping inserts should produce some rolled-back batches";
  EXPECT_EQ(Rel.toRelation(), Replay.toRelation());
  EXPECT_EQ(Rel.size(), Replay.size());
}

TEST(ConcurrentStressTest, SerializableTransactionsDefaultSharding) {
  // Routed transactions: most batches lock 2-4 stripes (lockSet)
  // while rivals hold overlapping subsets.
  runTransactStress({8, std::nullopt}, /*NumWriters=*/4, /*NumReaders=*/2,
                    /*TxnsPerWriter=*/250);
}

TEST(ConcurrentStressTest, SerializableTransactionsShardedByNonKeyColumn) {
  // Sharded by state: every transaction degrades to the all-stripes
  // fan-out and updates migrate tuples between shards mid-batch.
  RelSpecRef Spec = schedulerSpec();
  ConcurrentOptions Opts;
  Opts.NumShards = 4;
  Opts.ShardColumn = Spec->catalog().get("state");
  runTransactStress(Opts, /*NumWriters=*/4, /*NumReaders=*/2,
                    /*TxnsPerWriter=*/150);
}

TEST(ConcurrentStressTest, TransactionsRaceSingleOpWriters) {
  // Transactions and plain single-op writers on DISJOINT key ranges
  // (transactions on pids 0-11, single-op writers above 64): the
  // single-op harness's commutativity argument still applies to the
  // combined final state, so replaying the single-op logs thread by
  // thread plus the transaction log in ticket order must reproduce it.
  RelSpecRef Spec = schedulerSpec();
  Decomposition D = fig2(Spec);
  const Catalog &Cat = Spec->catalog();
  ConcurrentRelation Rel(D, {8, std::nullopt});

  const unsigned NumTxWriters = 2, NumOpWriters = 2;
  std::vector<std::vector<LoggedTx>> TxLogs(NumTxWriters);
  std::vector<std::vector<LoggedOp>> OpLogs(NumOpWriters);
  std::atomic<size_t> Aborts{0};

  std::vector<std::thread> Threads;
  for (unsigned I = 0; I != NumTxWriters; ++I)
    Threads.emplace_back([&, I] {
      txWriterLoop(Rel, Cat, I, 200, TxLogs[I], Aborts);
    });
  for (unsigned I = 0; I != NumOpWriters; ++I)
    Threads.emplace_back([&, I] {
      // Offset the pid domain: writerLoop keys are Tid + N*k; shift
      // Tid past the transaction domain.
      writerLoop(Rel, Cat, Spec->fds(), 64 + I, NumOpWriters, 300,
                 OpLogs[I]);
    });
  for (std::thread &T : Threads)
    T.join();

  SynthesizedRelation Replay{Decomposition(D)};
  // Single-op logs first (their keys are disjoint from every
  // transaction's, so they commute with the whole transaction
  // history), then transactions in ticket order.
  replayLogs(Replay, Cat, OpLogs);
  std::vector<const LoggedTx *> History;
  for (const std::vector<LoggedTx> &Log : TxLogs)
    for (const LoggedTx &Tx : Log)
      History.push_back(&Tx);
  std::sort(History.begin(), History.end(),
            [](const LoggedTx *L, const LoggedTx *R2) {
              return L->Ticket < R2->Ticket;
            });
  for (const LoggedTx *Tx : History) {
    std::vector<TxOp> Ops;
    for (const LoggedTxOp &Op : Tx->Ops)
      Ops.push_back(toTxOp(Cat, Op));
    ASSERT_TRUE(Replay.transact(Ops).Committed);
  }
  EXPECT_EQ(Rel.toRelation(), Replay.toRelation());
  EXPECT_EQ(Rel.size(), Replay.size());
}

/// Snapshots racing writer churn: a snapshot thread pins handles
/// mid-stream and verifies each is frozen — two extractions from the
/// same handle, taken while writers keep committing between them, must
/// be identical — while a handle held across the whole run proves
/// writers make progress against pinned state (COW, not blocking).
/// Final-state α-equivalence then shows the churn itself stayed
/// correct under the extra clone/retire traffic. TSan-clean is the
/// other half of the point.
TEST(ConcurrentStressTest, SnapshotsUnderWriterChurn) {
  RelSpecRef Spec = schedulerSpec();
  Decomposition D = fig2(Spec);
  const Catalog &Cat = Spec->catalog();
  ConcurrentRelation Rel(D, {4, std::nullopt});

  // Held for the entire run: every write after this pays/forces the
  // COW path at least once per shard generation.
  ConcurrentRelation::Snapshot Epoch0 = Rel.snapshot();
  ASSERT_TRUE(Epoch0.empty());

  const unsigned NumWriters = 4;
  std::vector<std::vector<LoggedOp>> Logs(NumWriters);
  std::atomic<bool> Done{false};
  std::atomic<size_t> SnapsTaken{0};

  std::thread Snapshotter([&] {
    // A small window of live handles keeps several frozen generations
    // pinned at once (the reclamation path must cope with overlap).
    std::vector<ConcurrentRelation::Snapshot> Window;
    while (!Done.load(std::memory_order_acquire)) {
      ConcurrentRelation::Snapshot Snap = Rel.snapshot();
      Relation First = Snap.toRelation();
      EXPECT_EQ(First.size(), Snap.size());
      std::this_thread::yield(); // let writers commit in between
      EXPECT_EQ(Snap.toRelation(), First) << "snapshot moved under churn";
      Window.push_back(std::move(Snap));
      if (Window.size() > 4)
        Window.erase(Window.begin());
      SnapsTaken.fetch_add(1, std::memory_order_relaxed);
    }
  });

  std::vector<std::thread> Writers;
  for (unsigned I = 0; I != NumWriters; ++I)
    Writers.emplace_back([&, I] {
      writerLoop(Rel, Cat, Spec->fds(), I, NumWriters, /*Ops=*/500,
                 Logs[I]);
    });
  for (std::thread &T : Writers)
    T.join();
  Done.store(true, std::memory_order_release);
  Snapshotter.join();

  EXPECT_GT(SnapsTaken.load(), 0u);
  // The run-long handle still reads the pre-churn (empty) state.
  EXPECT_TRUE(Epoch0.empty());
  EXPECT_EQ(Epoch0.toRelation(), Relation(Cat.allColumns()));

  // Writers progressed and stayed correct under pinned generations.
  SynthesizedRelation Replay{Decomposition(D)};
  EXPECT_GT(replayLogs(Replay, Cat, Logs), 0u);
  // A post-join snapshot and the direct extraction agree with the
  // serial replay.
  ConcurrentRelation::Snapshot Final = Rel.snapshot();
  EXPECT_EQ(Final.toRelation(), Replay.toRelation());
  EXPECT_EQ(Rel.toRelation(), Replay.toRelation());
  EXPECT_EQ(Final.size(), Replay.size());
}

TEST(ConcurrentStressTest, ConcurrentIdenticalInsertsConverge) {
  // Every thread races to insert the same tuple set in a different
  // order: each tuple must change the relation exactly once globally,
  // and the final state is exactly the set.
  RelSpecRef Spec = schedulerSpec();
  Decomposition D = fig2(Spec);
  const Catalog &Cat = Spec->catalog();
  ConcurrentRelation Rel(D, {8, std::nullopt});

  const int NumTuples = 256;
  std::vector<Tuple> Tuples;
  for (int I = 0; I != NumTuples; ++I)
    Tuples.push_back(TupleBuilder(Cat)
                         .set("ns", I % 16)
                         .set("pid", I)
                         .set("state", I % 3)
                         .set("cpu", I)
                         .build());

  const unsigned NumThreads = 4;
  std::vector<size_t> Changed(NumThreads, 0);
  std::vector<std::thread> Threads;
  for (unsigned T = 0; T != NumThreads; ++T)
    Threads.emplace_back([&, T] {
      Rng R(T);
      std::vector<Tuple> Order = Tuples;
      for (size_t I = Order.size(); I > 1; --I)
        std::swap(Order[I - 1], Order[R.below(I)]);
      for (const Tuple &Tp : Order)
        Changed[T] += Rel.insert(Tp);
    });
  for (std::thread &T : Threads)
    T.join();

  size_t TotalChanged = 0;
  for (size_t C : Changed)
    TotalChanged += C;
  EXPECT_EQ(TotalChanged, static_cast<size_t>(NumTuples));
  EXPECT_EQ(Rel.size(), static_cast<size_t>(NumTuples));

  Relation Expected(Cat.allColumns());
  for (const Tuple &T : Tuples)
    Expected.insert(T);
  EXPECT_EQ(Rel.toRelation(), Expected);
}

} // namespace
