//===- tests/concurrent/ConcurrentRelationTest.cpp - Facade tests -*- C++ -*-===//
//
// Part of the RelC data representation synthesis library.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Single-threaded semantics of the sharded ConcurrentRelation facade:
/// routing, fan-out, shard-column migration, and α-equivalence with
/// both the sequential engine and the Relation oracle under a
/// randomized operation mix. (The multi-threaded interleavings are
/// tests/concurrent/StressTest.cpp.)
///
//===----------------------------------------------------------------------===//

#include "concurrent/ConcurrentRelation.h"

#include "decomp/Builder.h"
#include "systems/GraphRelational.h"
#include "systems/IpcapRelational.h"
#include "systems/SchedulerRelational.h"
#include "systems/ThttpdRelational.h"
#include "systems/ZtopoRelational.h"
#include "workloads/Rng.h"

#include <gtest/gtest.h>

#include <algorithm>

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

class ConcurrentRelationTest : public ::testing::Test {
protected:
  ConcurrentRelationTest()
      : Spec(schedulerSpec()), Decomp(fig2(Spec)), Cat(Spec->catalog()) {}

  Tuple proc(int64_t Ns, int64_t Pid, int64_t State, int64_t Cpu) {
    return TupleBuilder(Cat)
        .set("ns", Ns)
        .set("pid", Pid)
        .set("state", State)
        .set("cpu", Cpu)
        .build();
  }

  Tuple key(int64_t Ns, int64_t Pid) {
    return TupleBuilder(Cat).set("ns", Ns).set("pid", Pid).build();
  }

  RelSpecRef Spec;
  Decomposition Decomp;
  const Catalog &Cat;
};

TEST_F(ConcurrentRelationTest, DefaultShardColumnIsRootKeyHead) {
  // fig2's root joins map(ns, ...) with map(state, ...): the first
  // root edge is keyed on ns.
  EXPECT_EQ(ShardRouter::defaultShardColumn(Decomp), Cat.get("ns"));

  RelSpecRef IpcapSpec = IpcapRelational::makeSpec();
  Decomposition IpcapD = IpcapRelational::makeDefaultDecomposition(IpcapSpec);
  EXPECT_EQ(ShardRouter::defaultShardColumn(IpcapD),
            IpcapSpec->catalog().get("local"));
}

TEST_F(ConcurrentRelationTest, StartsEmpty) {
  ConcurrentRelation Rel(Decomp, {4, std::nullopt});
  EXPECT_TRUE(Rel.empty());
  EXPECT_EQ(Rel.size(), 0u);
  EXPECT_EQ(Rel.numShards(), 4u);
  EXPECT_EQ(Rel.shardColumn(), Cat.get("ns"));
  EXPECT_TRUE(Rel.toRelation().empty());
}

TEST_F(ConcurrentRelationTest, InsertRoutesToOneShard) {
  ConcurrentRelation Rel(Decomp, {4, std::nullopt});
  EXPECT_TRUE(Rel.insert(proc(7, 42, 1, 0)));
  EXPECT_FALSE(Rel.insert(proc(7, 42, 1, 0))); // duplicate
  EXPECT_EQ(Rel.size(), 1u);

  // Exactly one shard is non-empty, and it is the routed one.
  ShardRouter Router(Rel.shardColumn(), Rel.numShards());
  unsigned Owner = Router.shardOf(Value::ofInt(7));
  for (unsigned I = 0; I != Rel.numShards(); ++I)
    EXPECT_EQ(Rel.shard(I).size(), I == Owner ? 1u : 0u);
}

TEST_F(ConcurrentRelationTest, ShardsDisjointAndSizesSum) {
  ConcurrentRelation Rel(Decomp, {4, std::nullopt});
  for (int64_t Ns = 0; Ns != 16; ++Ns)
    for (int64_t Pid = 0; Pid != 8; ++Pid)
      ASSERT_TRUE(Rel.insert(proc(Ns, Pid, Pid % 2, 0)));
  EXPECT_EQ(Rel.size(), 128u);

  size_t Sum = 0;
  unsigned NonEmpty = 0;
  for (unsigned I = 0; I != Rel.numShards(); ++I) {
    Sum += Rel.shard(I).size();
    NonEmpty += Rel.shard(I).size() > 0;
  }
  EXPECT_EQ(Sum, 128u);
  // 16 distinct ns values over 4 shards: overwhelmingly every shard
  // gets some (and the default router does spread these).
  EXPECT_GT(NonEmpty, 1u);
}

TEST_F(ConcurrentRelationTest, RoutedAndFanOutQueries) {
  ConcurrentRelation Rel(Decomp, {4, std::nullopt});
  for (int64_t Ns = 0; Ns != 8; ++Ns)
    for (int64_t Pid = 0; Pid != 4; ++Pid)
      Rel.insert(proc(Ns, Pid, Pid % 2, 10 * Ns + Pid));

  // Routed: pattern binds ns.
  auto Pids = Rel.query(TupleBuilder(Cat).set("ns", 3).build(),
                        Cat.parseSet("pid"));
  EXPECT_EQ(Pids.size(), 4u);

  // Fan-out: pattern binds only state; results cross every shard.
  auto Running = Rel.query(TupleBuilder(Cat).set("state", 1).build(),
                           Cat.parseSet("ns, pid"));
  EXPECT_EQ(Running.size(), 16u);

  // Fan-out projection that drops the shard column must deduplicate
  // across shards: the distinct states are {0, 1}.
  auto States = Rel.query(Tuple(), Cat.parseSet("state"));
  EXPECT_EQ(States.size(), 2u);

  // contains: routed and fan-out.
  EXPECT_TRUE(Rel.contains(key(3, 2)));
  EXPECT_FALSE(Rel.contains(key(3, 9)));
  EXPECT_TRUE(Rel.contains(TupleBuilder(Cat).set("cpu", 31).build()));
  EXPECT_FALSE(Rel.contains(TupleBuilder(Cat).set("cpu", 999).build()));
}

TEST_F(ConcurrentRelationTest, ScanEarlyStopAcrossShards) {
  ConcurrentRelation Rel(Decomp, {4, std::nullopt});
  for (int64_t Ns = 0; Ns != 8; ++Ns)
    Rel.insert(proc(Ns, 1, 1, 0));
  size_t Seen = 0;
  Rel.scan(TupleBuilder(Cat).set("state", 1).build(), Cat.parseSet("ns"),
           [&](const Tuple &) { return ++Seen < 3; });
  EXPECT_EQ(Seen, 3u);
}

TEST_F(ConcurrentRelationTest, RemoveRoutedAndFanOut) {
  ConcurrentRelation Rel(Decomp, {4, std::nullopt});
  for (int64_t Ns = 0; Ns != 8; ++Ns)
    for (int64_t Pid = 0; Pid != 4; ++Pid)
      Rel.insert(proc(Ns, Pid, Pid % 2, 0));

  // Routed: the key binds ns.
  EXPECT_EQ(Rel.remove(key(5, 0)), 1u);
  EXPECT_EQ(Rel.size(), 31u);

  // Fan-out: remove everything in state 1 (pattern misses ns).
  EXPECT_EQ(Rel.remove(TupleBuilder(Cat).set("state", 1).build()), 16u);
  EXPECT_EQ(Rel.size(), 15u);
  EXPECT_FALSE(Rel.contains(TupleBuilder(Cat).set("state", 1).build()));
}

TEST_F(ConcurrentRelationTest, UpdateRoutedKeepsShard) {
  ConcurrentRelation Rel(Decomp, {4, std::nullopt});
  Rel.insert(proc(7, 42, 1, 0));
  EXPECT_EQ(Rel.update(key(7, 42), TupleBuilder(Cat).set("cpu", 99).build()),
            1u);
  auto Row = Rel.query(key(7, 42), Cat.parseSet("cpu"));
  ASSERT_EQ(Row.size(), 1u);
  EXPECT_EQ(Row[0].get(Cat.get("cpu")).asInt(), 99);
  EXPECT_EQ(Rel.size(), 1u);
}

TEST_F(ConcurrentRelationTest, UpdateFansOutWhenKeyMissesShardColumn) {
  // Shard on state (not part of the key): a key-pattern update must
  // fan out to find its shard.
  ConcurrentOptions Opts;
  Opts.NumShards = 4;
  Opts.ShardColumn = Cat.get("state");
  ConcurrentRelation Rel(Decomp, Opts);
  Rel.insert(proc(7, 42, 1, 0));
  Rel.insert(proc(7, 43, 0, 5));

  EXPECT_EQ(Rel.update(key(7, 42), TupleBuilder(Cat).set("cpu", 31).build()),
            1u);
  EXPECT_EQ(Rel.update(key(1, 1), TupleBuilder(Cat).set("cpu", 31).build()),
            0u); // no match anywhere
  auto Row = Rel.query(key(7, 42), Cat.parseSet("cpu"));
  ASSERT_EQ(Row.size(), 1u);
  EXPECT_EQ(Row[0].get(Cat.get("cpu")).asInt(), 31);
}

TEST_F(ConcurrentRelationTest, UpdateRewritingShardColumnMigrates) {
  ConcurrentOptions Opts;
  Opts.NumShards = 4;
  Opts.ShardColumn = Cat.get("state");
  ConcurrentRelation Rel(Decomp, Opts);
  Rel.insert(proc(7, 42, 1, 0));

  ShardRouter Router(Rel.shardColumn(), Rel.numShards());
  unsigned Before = Router.shardOf(Value::ofInt(1));

  // Pick a new state whose hash lands on a different shard, so the
  // update genuinely migrates the tuple.
  int64_t NewState = -1;
  for (int64_t S = 0; S != 64 && NewState < 0; ++S)
    if (Router.shardOf(Value::ofInt(S)) != Before)
      NewState = S;
  ASSERT_GE(NewState, 0) << "no state value maps to another shard";
  unsigned After = Router.shardOf(Value::ofInt(NewState));

  EXPECT_EQ(
      Rel.update(key(7, 42), TupleBuilder(Cat).set("state", NewState).build()),
      1u);
  EXPECT_EQ(Rel.size(), 1u);
  EXPECT_EQ(Rel.shard(Before).size(), 0u);
  EXPECT_EQ(Rel.shard(After).size(), 1u);

  // The moved tuple is intact and queries see it under the new value.
  auto Row = Rel.query(TupleBuilder(Cat).set("state", NewState).build(),
                       Cat.parseSet("ns, pid, cpu"));
  ASSERT_EQ(Row.size(), 1u);
  EXPECT_EQ(Row[0].get(Cat.get("ns")).asInt(), 7);
  EXPECT_EQ(Row[0].get(Cat.get("pid")).asInt(), 42);

  // Updating a key with no match reports 0.
  EXPECT_EQ(Rel.update(key(9, 9), TupleBuilder(Cat).set("state", 2).build()),
            0u);
}

TEST_F(ConcurrentRelationTest, UpsertRoutedInsertAndReadModifyWrite) {
  ConcurrentRelation Rel(Decomp, {4, std::nullopt});
  Tuple Key = key(7, 42);
  ColumnId ColState = Cat.get("state"), ColCpu = Cat.get("cpu");

  // Absent: Fn sees nullptr and supplies every non-key column.
  bool Inserted = Rel.upsert(Key, [&](const BindingFrame *Cur, Tuple &V) {
    EXPECT_EQ(Cur, nullptr);
    V.set(ColState, Value::ofInt(1));
    V.set(ColCpu, Value::ofInt(10));
  });
  EXPECT_TRUE(Inserted);
  EXPECT_EQ(Rel.size(), 1u);

  // Present: Fn reads the live frame and accumulates.
  Inserted = Rel.upsert(Key, [&](const BindingFrame *Cur, Tuple &V) {
    ASSERT_NE(Cur, nullptr);
    V.set(ColCpu, Value::ofInt(Cur->get(ColCpu).asInt() + 32));
  });
  EXPECT_FALSE(Inserted);
  EXPECT_EQ(Rel.size(), 1u);
  EXPECT_TRUE(Rel.contains(proc(7, 42, 1, 42)));

  // Routed: only the owning shard holds the tuple.
  ShardRouter Router(Rel.shardColumn(), Rel.numShards());
  unsigned Owner = Router.shardOf(Value::ofInt(7));
  for (unsigned I = 0; I != Rel.numShards(); ++I)
    EXPECT_EQ(Rel.shard(I).size(), I == Owner ? 1u : 0u);
}

TEST_F(ConcurrentRelationTest, UpsertFanOutMigratesAcrossShards) {
  // Sharded by state (non-key): the upsert key cannot route, and
  // rewriting state rehomes the tuple.
  ConcurrentOptions Opts;
  Opts.NumShards = 4;
  Opts.ShardColumn = Cat.get("state");
  ConcurrentRelation Rel(Decomp, Opts);
  ColumnId ColState = Cat.get("state"), ColCpu = Cat.get("cpu");

  ASSERT_TRUE(Rel.insert(proc(1, 2, 0, 5)));
  ShardRouter Router(Rel.shardColumn(), Rel.numShards());
  unsigned Before = Router.shardOf(Value::ofInt(0));
  ASSERT_EQ(Rel.shard(Before).size(), 1u);

  bool Inserted =
      Rel.upsert(key(1, 2), [&](const BindingFrame *Cur, Tuple &V) {
        ASSERT_NE(Cur, nullptr);
        EXPECT_EQ(Cur->get(ColCpu).asInt(), 5);
        V.set(ColState, Value::ofInt(2)); // rehomes the tuple
        V.set(ColCpu, Value::ofInt(6));
      });
  EXPECT_FALSE(Inserted);
  EXPECT_EQ(Rel.size(), 1u);
  EXPECT_TRUE(Rel.contains(proc(1, 2, 2, 6)));
  unsigned After = Router.shardOf(Value::ofInt(2));
  EXPECT_EQ(Rel.shard(After).size(), 1u);
  if (After != Before)
    EXPECT_EQ(Rel.shard(Before).size(), 0u);

  // Absent key through the fan-out path: inserts into the shard of
  // the new state value.
  Inserted = Rel.upsert(key(3, 4), [&](const BindingFrame *Cur, Tuple &V) {
    EXPECT_EQ(Cur, nullptr);
    V.set(ColState, Value::ofInt(1));
    V.set(ColCpu, Value::ofInt(9));
  });
  EXPECT_TRUE(Inserted);
  EXPECT_EQ(Rel.size(), 2u);
  EXPECT_TRUE(Rel.contains(proc(3, 4, 1, 9)));
}

TEST_F(ConcurrentRelationTest, ClearAndLeakFree) {
  ConcurrentRelation Rel(Decomp, {4, std::nullopt});
  size_t EmptyLive = Rel.liveInstances(); // the per-shard roots
  for (int64_t Ns = 0; Ns != 8; ++Ns)
    Rel.insert(proc(Ns, 1, 0, 0));
  EXPECT_GT(Rel.liveInstances(), EmptyLive);
  Rel.clear();
  EXPECT_TRUE(Rel.empty());
  EXPECT_EQ(Rel.liveInstances(), EmptyLive);
  EXPECT_TRUE(Rel.toRelation().empty());
}

TEST_F(ConcurrentRelationTest, ArenaLiveTracksInsertAndRemove) {
  ConcurrentRelation Rel(Decomp, {4, std::nullopt});
  // Baseline: one tracked block per shard root, no container cells.
  ArenaStats Empty = Rel.arenaStats();
  EXPECT_EQ(Empty.Live, Rel.numShards());

  for (int64_t Ns = 0; Ns != 8; ++Ns)
    for (int64_t Pid = 0; Pid != 16; ++Pid)
      Rel.insert(proc(Ns, Pid, Pid % 3, 0));
  ArenaStats Full = Rel.arenaStats();
  // Every tuple costs at least a w node plus its container cells.
  EXPECT_GE(Full.Live, Empty.Live + Rel.size());
  EXPECT_GT(Full.Bytes, 0u);

  // Removing everything returns every node and cell: back to the
  // per-shard roots, even though the memory hand-back of nodes rides
  // the epoch retire list (Live counts payload objects, not blocks
  // awaiting reuse).
  for (int64_t Ns = 0; Ns != 8; ++Ns)
    for (int64_t Pid = 0; Pid != 16; ++Pid)
      Rel.remove(key(Ns, Pid));
  EXPECT_EQ(Rel.size(), 0u);
  EXPECT_EQ(Rel.arenaStats().Live, Empty.Live);
}

TEST_F(ConcurrentRelationTest, ClearRetainsSlabsAndReplaysAlphaEquivalent) {
  ConcurrentRelation Rel(Decomp, {4, std::nullopt});
  std::vector<Tuple> Rows;
  for (int64_t Ns = 0; Ns != 8; ++Ns)
    for (int64_t Pid = 0; Pid != 32; ++Pid)
      Rows.push_back(proc(Ns, Pid, (Ns + Pid) % 3, Pid % 100));
  for (const Tuple &T : Rows)
    Rel.insert(T);
  Relation Before = Rel.toRelation();
  ArenaStats Warm = Rel.arenaStats();

  Rel.clear();
  ArenaStats Cleared = Rel.arenaStats();
  // O(slabs) reset: slabs and bytes stay warm, only the roots live.
  EXPECT_EQ(Cleared.Slabs, Warm.Slabs);
  EXPECT_EQ(Cleared.Bytes, Warm.Bytes);
  EXPECT_EQ(Cleared.Live, Rel.numShards());
  EXPECT_TRUE(Rel.empty());

  // Replaying the same contents into the warmed arena grows nothing
  // and represents the same relation.
  for (const Tuple &T : Rows)
    Rel.insert(T);
  ArenaStats Refilled = Rel.arenaStats();
  EXPECT_EQ(Refilled.Slabs, Warm.Slabs);
  EXPECT_EQ(Refilled.Live, Warm.Live);
  EXPECT_EQ(Rel.toRelation(), Before);
}

//===----------------------------------------------------------------------===//
// Consistent snapshots (COW shard state + RCU reclamation)
//===----------------------------------------------------------------------===//

TEST_F(ConcurrentRelationTest, SnapshotIsImmutableUnderMutation) {
  ConcurrentRelation Rel(Decomp, {4, std::nullopt});
  for (int64_t Ns = 0; Ns != 8; ++Ns)
    for (int64_t Pid = 0; Pid != 8; ++Pid)
      ASSERT_TRUE(Rel.insert(proc(Ns, Pid, Pid % 3, Pid)));
  Relation Before = Rel.toRelation();

  ConcurrentRelation::Snapshot Snap = Rel.snapshot();
  ASSERT_TRUE(Snap.valid());
  EXPECT_EQ(Snap.numShards(), Rel.numShards());
  EXPECT_EQ(Snap.size(), 64u);
  EXPECT_EQ(Snap.toRelation(), Before);

  // Every mutation class lands while the handle is held; the pinned
  // view must not move (writers copy-on-write around it).
  EXPECT_TRUE(Rel.insert(proc(9, 9, 0, 0)));
  EXPECT_EQ(Rel.remove(key(0, 0)), 1u);
  EXPECT_EQ(Rel.update(key(1, 1), TupleBuilder(Cat).set("cpu", 77).build()),
            1u);
  Rel.upsert(key(2, 2), [&](const BindingFrame *, Tuple &V) {
    V.set(Cat.get("cpu"), Value::ofInt(55));
  });
  TxResult R = Rel.transact([&](TxBatch &Tx) {
    Tx.update(key(3, 3), TupleBuilder(Cat).set("cpu", 12).build());
  });
  EXPECT_TRUE(R.Committed);

  EXPECT_EQ(Snap.toRelation(), Before);
  EXPECT_EQ(Snap.size(), 64u);
  EXPECT_NE(Rel.toRelation(), Before);
  EXPECT_EQ(Rel.size(), 64u); // one insert, one remove

  // clear() must replace the pinned shards, not reset them in place.
  Rel.clear();
  EXPECT_TRUE(Rel.empty());
  EXPECT_EQ(Snap.toRelation(), Before);
  EXPECT_EQ(Snap.size(), 64u);
}

TEST_F(ConcurrentRelationTest, SnapshotTicketCountsCommittedTransactions) {
  ConcurrentRelation Rel(Decomp, {4, std::nullopt});
  EXPECT_EQ(Rel.snapshot().ticket(), 0u);
  ASSERT_TRUE(Rel.insert(proc(1, 1, 0, 10)));
  // Plain mutations draw no commit tickets; committed transacts do.
  EXPECT_EQ(Rel.snapshot().ticket(), 0u);
  TxResult R1 = Rel.transact([&](TxBatch &Tx) {
    Tx.update(key(1, 1), TupleBuilder(Cat).set("cpu", 11).build());
  });
  ASSERT_TRUE(R1.Committed);
  ConcurrentRelation::Snapshot Snap = Rel.snapshot();
  EXPECT_EQ(Snap.ticket(), R1.Ticket);
  // An aborted transaction publishes no commit the snapshot could see.
  std::vector<TxOp> Bad;
  Bad.push_back(TxOp::insert(proc(1, 1, 2, 0))); // FD conflict
  EXPECT_FALSE(Rel.transact(Bad).Committed);
  EXPECT_EQ(Rel.snapshot().ticket(), R1.Ticket);
}

TEST_F(ConcurrentRelationTest, SnapshotAlphaEquivalentToPrefix) {
  // A randomized op mix with snapshots pinned mid-stream: each handle
  // must stay α-equivalent to the oracle's state at its acquisition
  // point no matter what runs afterwards — the single-threaded
  // skeleton of the checkpoint-consistency argument (the threaded
  // interleavings are StressTest.cpp).
  ConcurrentRelation Rel(Decomp, {4, std::nullopt});
  Relation Oracle(Cat.allColumns());
  Rng R(0xa11ce);
  std::vector<std::pair<ConcurrentRelation::Snapshot, Relation>> Pinned;

  for (int Step = 0; Step != 300; ++Step) {
    int64_t Ns = R.range(0, 7);
    int64_t Pid = R.range(0, 15);
    Tuple Key = key(Ns, Pid);
    switch (R.below(4)) {
    case 0:
    case 1: {
      Tuple T = proc(Ns, Pid, static_cast<int64_t>(R.below(3)),
                     static_cast<int64_t>(R.below(100)));
      if (!Oracle.insertPreservesFds(T, Spec->fds()))
        break;
      Oracle.insert(T);
      EXPECT_TRUE(Rel.insert(T));
      break;
    }
    case 2:
      EXPECT_EQ(Rel.remove(Key), Oracle.remove(Key));
      break;
    case 3: {
      Tuple Changes = TupleBuilder(Cat).set("cpu", R.range(0, 99)).build();
      EXPECT_EQ(Rel.update(Key, Changes), Oracle.update(Key, Changes));
      break;
    }
    }
    if (Step % 50 == 49)
      Pinned.emplace_back(Rel.snapshot(), Oracle);
  }

  for (size_t I = 0; I != Pinned.size(); ++I) {
    EXPECT_EQ(Pinned[I].first.toRelation(), Pinned[I].second)
        << "snapshot " << I;
    EXPECT_EQ(Pinned[I].first.size(), Pinned[I].second.size());
  }
  // Dropping every handle lets the epoch manager reclaim the frozen
  // generations (ASan/LSan verifies on teardown).
}

TEST_F(ConcurrentRelationTest, SnapshotOutlivesRelation) {
  ConcurrentRelation::Snapshot Snap;
  EXPECT_FALSE(Snap.valid());
  Relation Before(Cat.allColumns());
  {
    ConcurrentRelation Rel(Decomp, {4, std::nullopt});
    for (int64_t Ns = 0; Ns != 8; ++Ns)
      for (int64_t Pid = 0; Pid != 4; ++Pid)
        ASSERT_TRUE(Rel.insert(proc(Ns, Pid, 0, Pid)));
    Before = Rel.toRelation();
    Snap = Rel.snapshot();
  }
  // The handle pins the frozen shard state (and its arenas) past the
  // facade's death.
  ASSERT_TRUE(Snap.valid());
  EXPECT_EQ(Snap.size(), 32u);
  EXPECT_EQ(Snap.toRelation(), Before);
  size_t Rows = 0;
  Snap.scanFrames(Tuple(), Cat.allColumns(), [&](const BindingFrame &) {
    ++Rows;
    return true;
  });
  EXPECT_EQ(Rows, 32u);
}

/// Randomized α-equivalence: a mixed operation sequence applied to the
/// sharded facade, the sequential engine, and the Relation oracle must
/// leave all three representing the same relation.
void runAlphaEquivalence(const RelSpecRef &Spec, const Decomposition &D,
                         ConcurrentOptions Opts, uint64_t Seed) {
  const Catalog &Cat = Spec->catalog();
  ConcurrentRelation Sharded(D, Opts);
  SynthesizedRelation Sequential{Decomposition(D)};
  Relation Oracle(Cat.allColumns());
  Rng R(Seed);

  auto MakeProc = [&](int64_t Ns, int64_t Pid) {
    return TupleBuilder(Cat)
        .set("ns", Ns)
        .set("pid", Pid)
        .set("state", static_cast<int64_t>(R.below(3)))
        .set("cpu", static_cast<int64_t>(R.below(100)))
        .build();
  };

  ColumnId ColState = Cat.get("state"), ColCpu = Cat.get("cpu");
  for (int Step = 0; Step != 400; ++Step) {
    int64_t Ns = R.range(0, 7);
    int64_t Pid = R.range(0, 15);
    Tuple Key = TupleBuilder(Cat).set("ns", Ns).set("pid", Pid).build();
    switch (R.below(6)) {
    case 0:
    case 1: { // insert (FD-safe only: the oracle pre-checks)
      Tuple T = MakeProc(Ns, Pid);
      if (!Oracle.insertPreservesFds(T, Spec->fds()))
        break;
      Oracle.insert(T);
      EXPECT_EQ(Sharded.insert(T), Sequential.insert(T));
      break;
    }
    case 2: { // remove by key, or occasionally by state (fan-out)
      Tuple Pattern =
          R.chance(0.3)
              ? TupleBuilder(Cat).set("state", R.range(0, 2)).build()
              : Key;
      size_t N = Oracle.remove(Pattern);
      EXPECT_EQ(Sharded.remove(Pattern), N);
      EXPECT_EQ(Sequential.remove(Pattern), N);
      break;
    }
    case 3: { // update cpu through the key
      Tuple Changes = TupleBuilder(Cat).set("cpu", R.range(0, 99)).build();
      size_t N = Oracle.update(Key, Changes);
      EXPECT_EQ(Sharded.update(Key, Changes), N);
      EXPECT_EQ(Sequential.update(Key, Changes), N);
      break;
    }
    case 4: { // update state through the key (migrates when sharded
              // by state)
      Tuple Changes = TupleBuilder(Cat).set("state", R.range(0, 2)).build();
      size_t N = Oracle.update(Key, Changes);
      EXPECT_EQ(Sharded.update(Key, Changes), N);
      EXPECT_EQ(Sequential.update(Key, Changes), N);
      break;
    }
    case 5: { // upsert: read-modify-write (migrates when sharded by
              // state and the delta rewrites it)
      int64_t Delta = R.range(1, 49);
      auto Fn = [&](const BindingFrame *Cur, Tuple &Values) {
        int64_t Cpu = Cur ? Cur->get(ColCpu).asInt() : 0;
        Values.set(ColCpu, Value::ofInt((Cpu + Delta) % 100));
        Values.set(ColState, Value::ofInt(Delta % 3));
      };
      bool Inserted = Sharded.upsert(Key, Fn);
      EXPECT_EQ(Sequential.upsert(Key, Fn), Inserted);
      // Oracle: the read-modify-write by hand.
      auto Cur = Oracle.query(Key, ColumnSet::single(ColCpu));
      EXPECT_EQ(Cur.empty(), Inserted);
      int64_t Cpu = Cur.empty() ? 0 : Cur.front().get(ColCpu).asInt();
      Tuple Changes = TupleBuilder(Cat)
                          .set("cpu", (Cpu + Delta) % 100)
                          .set("state", Delta % 3)
                          .build();
      if (Cur.empty())
        Oracle.insert(Key.merge(Changes));
      else
        Oracle.update(Key, Changes);
      break;
    }
    }
    if (Step % 25 == 24) {
      EXPECT_EQ(Sharded.toRelation(), Oracle) << "step " << Step;
      EXPECT_EQ(Sharded.toRelation(), Sequential.toRelation())
          << "step " << Step;
      EXPECT_EQ(Sharded.size(), Oracle.size()) << "step " << Step;
    }
  }
  EXPECT_EQ(Sharded.toRelation(), Oracle);
}

TEST_F(ConcurrentRelationTest, AlphaEquivalenceDefaultShardColumn) {
  runAlphaEquivalence(Spec, Decomp, {4, std::nullopt}, 0xc0ffee);
}

TEST_F(ConcurrentRelationTest, AlphaEquivalenceSingleShard) {
  runAlphaEquivalence(Spec, Decomp, {1, std::nullopt}, 0xbeef);
}

TEST_F(ConcurrentRelationTest, AlphaEquivalenceShardedByNonKeyColumn) {
  ConcurrentOptions Opts;
  Opts.NumShards = 4;
  Opts.ShardColumn = Cat.get("state");
  runAlphaEquivalence(Spec, Decomp, Opts, 0xfeed);
}

/// Parallel fan-out scans must deliver exactly the sequential
/// fan-out's multiset of frames, on every example system.
void checkParallelScanParity(const RelSpecRef &Spec, Decomposition D,
                             uint64_t Seed) {
  const Catalog &Cat = Spec->catalog();
  ConcurrentOptions Opts;
  Opts.NumShards = 4;
  ConcurrentRelation Rel(std::move(D), Opts);
  Rng R(Seed);

  // Twice the rows the merge queue holds: shard workers must block on
  // backpressure and hand off to the consumer. Unique first-column
  // values keep every insert FD-safe (the first column is part of — or
  // is — every system's key).
  using Core = ShardedFacade<SynthesizedRelation>;
  const int64_t NumRows = 2 * Core::ScanQueueChunks * Core::ScanChunkRows;
  ColumnSet All = Cat.allColumns();
  for (int64_t I = 0; I != NumRows; ++I) {
    Tuple T;
    unsigned J = 0;
    for (ColumnId C : All) {
      T.set(C, Value::ofInt(J == 0 ? I : R.range(0, 96)));
      ++J;
    }
    ASSERT_TRUE(Rel.insert(T));
  }

  std::vector<Tuple> Sequential, Parallel;
  Rel.scanFrames(Tuple(), All, [&](const BindingFrame &F) {
    Sequential.push_back(F.toTuple(All));
    return true;
  });
  Rel.scanFramesParallel(Tuple(), All, [&](const BindingFrame &F) {
    Parallel.push_back(F.toTuple(All));
    return true;
  });
  std::sort(Sequential.begin(), Sequential.end());
  std::sort(Parallel.begin(), Parallel.end());
  EXPECT_EQ(Sequential.size(), size_t(NumRows)) << Spec->name();
  EXPECT_EQ(Sequential, Parallel) << Spec->name();

  // Early stop terminates cleanly (close() unblocks shard workers).
  size_t Seen = 0;
  Rel.scanFramesParallel(Tuple(), All, [&](const BindingFrame &) {
    return ++Seen < 10;
  });
  EXPECT_GE(Seen, 10u);

  // A routed pattern degrades to the sequential single-shard path.
  ColumnId First = All.first();
  std::vector<Tuple> RoutedSeq, RoutedPar;
  Tuple Pat = TupleBuilder(Cat).set(Cat.name(First), int64_t(5)).build();
  Rel.scanFrames(Pat, All, [&](const BindingFrame &F) {
    RoutedSeq.push_back(F.toTuple(All));
    return true;
  });
  Rel.scanFramesParallel(Pat, All, [&](const BindingFrame &F) {
    RoutedPar.push_back(F.toTuple(All));
    return true;
  });
  std::sort(RoutedSeq.begin(), RoutedSeq.end());
  std::sort(RoutedPar.begin(), RoutedPar.end());
  EXPECT_EQ(RoutedSeq, RoutedPar) << Spec->name();
}

TEST_F(ConcurrentRelationTest, ParallelScanParityScheduler) {
  RelSpecRef S = SchedulerRelational::makeSpec();
  checkParallelScanParity(
      S, SchedulerRelational::makeDefaultDecomposition(S), 0x5c4e1);
}

TEST_F(ConcurrentRelationTest, ParallelScanParityGraph) {
  RelSpecRef S = GraphRelational::makeSpec();
  checkParallelScanParity(S, GraphRelational::makeSharedBidirectional(S),
                          0x5c4e2);
}

TEST_F(ConcurrentRelationTest, ParallelScanParityThttpd) {
  RelSpecRef S = ThttpdRelational::makeSpec();
  checkParallelScanParity(
      S, ThttpdRelational::makeDefaultDecomposition(S), 0x5c4e3);
}

TEST_F(ConcurrentRelationTest, ParallelScanParityIpcap) {
  RelSpecRef S = IpcapRelational::makeSpec();
  checkParallelScanParity(S, IpcapRelational::makeDefaultDecomposition(S),
                          0x5c4e4);
}

TEST_F(ConcurrentRelationTest, ParallelScanParityZtopo) {
  RelSpecRef S = ZtopoRelational::makeSpec();
  checkParallelScanParity(S, ZtopoRelational::makeDefaultDecomposition(S),
                          0x5c4e5);
}

TEST_F(ConcurrentRelationTest, TransactLockPlanRoutedSetNeverAllShards) {
  ConcurrentRelation Rel(Decomp, {8, std::nullopt});
  ShardRouter Router(Rel.shardColumn(), Rel.numShards());

  // Two ns values owned by different shards.
  int64_t NsA = 0, NsB = -1;
  for (int64_t V = 1; V != 64 && NsB < 0; ++V)
    if (Router.shardOf(Value::ofInt(V)) != Router.shardOf(Value::ofInt(NsA)))
      NsB = V;
  ASSERT_GE(NsB, 0);

  auto Noop = [](const BindingFrame *, Tuple &) {};
  std::vector<TxOp> Transfer;
  Transfer.push_back(TxOp::upsert(key(NsA, 1), Noop));
  Transfer.push_back(TxOp::upsert(key(NsB, 2), Noop));

  // The acceptance shape: two routed keys, exactly their two stripes,
  // ascending, never all shards.
  ConcurrentRelation::TxLockPlan Plan = Rel.transactLockPlan(Transfer);
  EXPECT_FALSE(Plan.AllShards);
  std::vector<unsigned> Expected = {Router.shardOf(Value::ofInt(NsA)),
                                    Router.shardOf(Value::ofInt(NsB))};
  std::sort(Expected.begin(), Expected.end());
  EXPECT_EQ(Plan.Stripes, Expected);
  EXPECT_EQ(Plan.Stripes.size(), 2u);

  // Same shard twice: one stripe.
  std::vector<TxOp> SameShard;
  SameShard.push_back(TxOp::upsert(key(NsA, 1), Noop));
  SameShard.push_back(TxOp::upsert(key(NsA, 2), Noop));
  Plan = Rel.transactLockPlan(SameShard);
  EXPECT_FALSE(Plan.AllShards);
  EXPECT_EQ(Plan.Stripes.size(), 1u);

  // A routed insert and remove join the routed set too.
  std::vector<TxOp> Mixed;
  Mixed.push_back(TxOp::insert(proc(NsA, 3, 0, 0)));
  Mixed.push_back(TxOp::remove(key(NsB, 4)));
  Plan = Rel.transactLockPlan(Mixed);
  EXPECT_FALSE(Plan.AllShards);
  EXPECT_EQ(Plan.Stripes.size(), 2u);

  // An op that misses the shard column degrades the batch to all
  // shards...
  std::vector<TxOp> FanOut;
  FanOut.push_back(TxOp::upsert(key(NsA, 1), Noop));
  FanOut.push_back(
      TxOp::remove(TupleBuilder(Cat).set("state", 1).build()));
  Plan = Rel.transactLockPlan(FanOut);
  EXPECT_TRUE(Plan.AllShards);

  // ...as does an update that rewrites the shard column (migration).
  std::vector<TxOp> Rehome;
  Rehome.push_back(TxOp::update(
      TupleBuilder(Cat).set("pid", 1).set("state", 0).build(),
      TupleBuilder(Cat).set("ns", 5).build()));
  Plan = Rel.transactLockPlan(Rehome);
  EXPECT_TRUE(Plan.AllShards);
}

TEST_F(ConcurrentRelationTest, TransactLockPlanFansOutWhenFdProbesCannotRoute) {
  // Sharded by state: the key FD's left-hand side {ns, pid} misses the
  // shard column, so even a full-tuple insert cannot validate its FDs
  // against one shard — every insert-like op degrades to all stripes.
  ConcurrentOptions Opts;
  Opts.NumShards = 4;
  Opts.ShardColumn = Cat.get("state");
  ConcurrentRelation Rel(Decomp, Opts);

  std::vector<TxOp> Ops;
  Ops.push_back(TxOp::insert(proc(1, 1, 0, 0)));
  EXPECT_TRUE(Rel.transactLockPlan(Ops).AllShards);

  // Removal needs no FD probes: a state-bound remove still routes.
  std::vector<TxOp> Removes;
  Removes.push_back(
      TxOp::remove(TupleBuilder(Cat).set("state", 1).build()));
  ConcurrentRelation::TxLockPlan Plan = Rel.transactLockPlan(Removes);
  EXPECT_FALSE(Plan.AllShards);
  EXPECT_EQ(Plan.Stripes.size(), 1u);
}

TEST_F(ConcurrentRelationTest, TransactTransferMovesValueAtomically) {
  ConcurrentRelation Rel(Decomp, {8, std::nullopt});
  ASSERT_TRUE(Rel.insert(proc(1, 1, 0, 50)));
  ASSERT_TRUE(Rel.insert(proc(2, 2, 0, 10)));
  ColumnId ColCpu = Cat.get("cpu");

  // Debit one key, credit the other, as one serializable unit.
  TxResult R = Rel.transact([&](TxBatch &Tx) {
    Tx.upsert(key(1, 1), [&](const BindingFrame *Cur, Tuple &V) {
      ASSERT_NE(Cur, nullptr);
      V.set(ColCpu, Value::ofInt(Cur->get(ColCpu).asInt() - 30));
    });
    Tx.upsert(key(2, 2), [&](const BindingFrame *Cur, Tuple &V) {
      ASSERT_NE(Cur, nullptr);
      V.set(ColCpu, Value::ofInt(Cur->get(ColCpu).asInt() + 30));
    });
  });
  EXPECT_TRUE(R.Committed);
  EXPECT_GT(R.Ticket, 0u);
  EXPECT_TRUE(Rel.contains(proc(1, 1, 0, 20)));
  EXPECT_TRUE(Rel.contains(proc(2, 2, 0, 40)));
  EXPECT_EQ(Rel.size(), 2u);

  // Tickets are monotone commit stamps.
  TxResult R2 = Rel.transact([&](TxBatch &Tx) {
    Tx.update(key(1, 1), TupleBuilder(Cat).set("cpu", 21).build());
  });
  EXPECT_TRUE(R2.Committed);
  EXPECT_GT(R2.Ticket, R.Ticket);
}

TEST_F(ConcurrentRelationTest, TransactRollsBackAcrossShards) {
  ConcurrentRelation Rel(Decomp, {4, std::nullopt});
  ASSERT_TRUE(Rel.insert(proc(1, 1, 0, 10)));
  ASSERT_TRUE(Rel.insert(proc(2, 2, 1, 20)));
  Relation Before = Rel.toRelation();

  // Mutations land on several shards before the conflict: the
  // cross-shard undo log must restore every one of them.
  std::vector<TxOp> Ops;
  Ops.push_back(TxOp::insert(proc(3, 3, 0, 3)));
  Ops.push_back(
      TxOp::update(key(1, 1), TupleBuilder(Cat).set("cpu", 99).build()));
  Ops.push_back(TxOp::remove(key(2, 2)));
  Ops.push_back(TxOp::insert(proc(1, 1, 2, 0))); // FD conflict

  TxResult R = Rel.transact(Ops);
  EXPECT_FALSE(R.Committed);
  EXPECT_EQ(R.FailedOp, 3u);
  EXPECT_EQ(R.Ticket, 0u);
  EXPECT_EQ(Rel.toRelation(), Before);
  EXPECT_EQ(Rel.size(), 2u);
}

TEST_F(ConcurrentRelationTest, TransactMigrationInsideBatch) {
  // Sharded by state: updates and upserts that rewrite it rehome
  // tuples between shards mid-batch, and a trailing conflict must
  // migrate them back.
  ConcurrentOptions Opts;
  Opts.NumShards = 4;
  Opts.ShardColumn = Cat.get("state");
  ConcurrentRelation Rel(Decomp, Opts);
  SynthesizedRelation Seq{Decomposition(Decomp)};
  ColumnId ColState = Cat.get("state"), ColCpu = Cat.get("cpu");

  for (int64_t P = 0; P != 6; ++P) {
    ASSERT_TRUE(Rel.insert(proc(1, P, P % 3, 10 * P)));
    ASSERT_TRUE(Seq.insert(proc(1, P, P % 3, 10 * P)));
  }

  std::vector<TxOp> Ops;
  Ops.push_back(
      TxOp::update(key(1, 0), TupleBuilder(Cat).set("state", 2).build()));
  Ops.push_back(TxOp::upsert(key(1, 1), [&](const BindingFrame *Cur,
                                            Tuple &V) {
    ASSERT_NE(Cur, nullptr);
    V.set(ColState, Value::ofInt((Cur->get(ColState).asInt() + 1) % 3));
    V.set(ColCpu, Value::ofInt(Cur->get(ColCpu).asInt() + 1));
  }));
  Ops.push_back(TxOp::insert(proc(1, 6, 1, 60)));
  EXPECT_TRUE(Rel.transactLockPlan(Ops).AllShards);

  TxResult RC = Rel.transact(Ops);
  TxResult RS = Seq.transact(Ops);
  EXPECT_TRUE(RC.Committed);
  EXPECT_TRUE(RS.Committed);
  EXPECT_EQ(Rel.toRelation(), Seq.toRelation());
  EXPECT_EQ(Rel.size(), Seq.size());

  // Same shape with a trailing conflict: the migrations must unwind.
  Relation Before = Rel.toRelation();
  Ops.push_back(TxOp::insert(proc(1, 6, 2, 0))); // conflicts with (1,6)
  TxResult RF = Rel.transact(Ops);
  EXPECT_FALSE(RF.Committed);
  EXPECT_EQ(RF.FailedOp, 3u);
  EXPECT_EQ(Rel.toRelation(), Before);
}

TEST_F(ConcurrentRelationTest, TransactCheckedUpsertVetoOnFanOutArm) {
  // Sharded by state: checked upserts by {ns, pid} cannot route. A
  // veto on a found key (the callback saw the live frame) and on an
  // absent key (the callback saw nullptr) must both unwind the
  // migration and fan-out insert applied before them.
  ConcurrentOptions Opts;
  Opts.NumShards = 4;
  Opts.ShardColumn = Cat.get("state");
  ConcurrentRelation Rel(Decomp, Opts);
  SynthesizedRelation Seq{Decomposition(Decomp)};
  ColumnId ColState = Cat.get("state"), ColCpu = Cat.get("cpu");
  for (int64_t P = 0; P != 4; ++P) {
    ASSERT_TRUE(Rel.insert(proc(1, P, P % 3, 10 * P)));
    ASSERT_TRUE(Seq.insert(proc(1, P, P % 3, 10 * P)));
  }
  TxResult First = Rel.transact(std::vector<TxOp>{
      TxOp::update(key(1, 3), TupleBuilder(Cat).set("cpu", 31).build())});
  ASSERT_TRUE(First.Committed);
  ASSERT_TRUE(Seq.transact(std::vector<TxOp>{TxOp::update(
                               key(1, 3),
                               TupleBuilder(Cat).set("cpu", 31).build())})
                  .Committed);
  Relation Before = Rel.toRelation();
  size_t SizeBefore = Rel.size();

  auto ExpectVetoed = [&](const std::vector<TxOp> &Ops, size_t FailedOp) {
    EXPECT_TRUE(Rel.transactLockPlan(Ops).AllShards);
    TxResult R = Rel.transact(Ops);
    EXPECT_FALSE(R.Committed);
    EXPECT_EQ(R.FailedOp, FailedOp);
    EXPECT_EQ(R.Ticket, 0u);
    TxResult RS = Seq.transact(Ops);
    EXPECT_FALSE(RS.Committed);
    EXPECT_EQ(RS.FailedOp, FailedOp);
    EXPECT_EQ(Rel.toRelation(), Before);
    EXPECT_EQ(Rel.toRelation(), Seq.toRelation());
    EXPECT_EQ(Rel.size(), SizeBefore);
    EXPECT_EQ(Rel.snapshot().ticket(), First.Ticket);
  };

  // Found key: a migrating update and a fan-out insert precede it.
  size_t FoundCalls = 0;
  std::vector<TxOp> Found;
  Found.push_back(
      TxOp::update(key(1, 0), TupleBuilder(Cat).set("state", 2).build()));
  Found.push_back(TxOp::insert(proc(1, 9, 1, 90)));
  Found.push_back(
      TxOp::upsertChecked(key(1, 1), [&](const BindingFrame *Cur, Tuple &V) {
        ++FoundCalls;
        EXPECT_NE(Cur, nullptr);
        V.set(ColState, Value::ofInt(0)); // would migrate: vetoed first
        return false;
      }));
  ExpectVetoed(Found, 2);
  EXPECT_EQ(FoundCalls, 2u); // once per engine

  // Absent key: a migrating upsert precedes it; the veto comes with
  // every non-key column bound, so only the veto can abort.
  size_t AbsentCalls = 0;
  std::vector<TxOp> Absent;
  Absent.push_back(TxOp::upsert(key(1, 2), [&](const BindingFrame *Cur,
                                               Tuple &V) {
    ASSERT_NE(Cur, nullptr);
    V.set(ColState, Value::ofInt(0));
    V.set(ColCpu, Value::ofInt(Cur->get(ColCpu).asInt() + 1));
  }));
  Absent.push_back(
      TxOp::upsertChecked(key(7, 7), [&](const BindingFrame *Cur, Tuple &V) {
        ++AbsentCalls;
        EXPECT_EQ(Cur, nullptr);
        V.set(ColState, Value::ofInt(1));
        V.set(ColCpu, Value::ofInt(70));
        return false;
      }));
  ExpectVetoed(Absent, 1);
  EXPECT_EQ(AbsentCalls, 2u);

  // The aborts consumed no ticket: the next commit is the next one.
  TxResult Next = Rel.transact(std::vector<TxOp>{
      TxOp::update(key(1, 3), TupleBuilder(Cat).set("cpu", 32).build())});
  ASSERT_TRUE(Next.Committed);
  EXPECT_EQ(Next.Ticket, First.Ticket + 1);
}

//===----------------------------------------------------------------------===
// Five-system transact α-equivalence.
//===----------------------------------------------------------------------===

/// One op of the oracle-side batch: TxOp plus the deterministic
/// upsert delta (the callback itself lives in the TxOp).
struct TxScript {
  std::vector<TxOp> Ops;
  std::vector<int64_t> Deltas; ///< per op; meaningful for upserts
};

/// Reference transact semantics over the Relation oracle: applied to a
/// copy, committed by swap — an executable specification independent
/// of both engines.
bool oracleTransact(Relation &R, const FuncDeps &Fds, ColumnSet All,
                    ColumnSet Rest, const TxScript &Script) {
  Relation Work = R;
  for (size_t I = 0; I != Script.Ops.size(); ++I) {
    const TxOp &Op = Script.Ops[I];
    switch (Op.Op) {
    case TxOp::Insert:
      if (Work.contains(Op.A))
        break; // duplicate no-op
      if (!Work.insertPreservesFds(Op.A, Fds))
        return false;
      Work.insert(Op.A);
      break;
    case TxOp::Remove:
      Work.remove(Op.A);
      break;
    case TxOp::Update: {
      auto Cur = Work.query(Op.A, All);
      if (Cur.empty())
        break;
      Tuple Merged = Cur.front().merge(Op.B);
      if (Merged == Cur.front())
        break;
      Work.remove(Cur.front());
      if (!Work.insertPreservesFds(Merged, Fds))
        return false;
      Work.insert(Merged);
      break;
    }
    case TxOp::Upsert: {
      // The same deterministic formula the TxOp's callback applies:
      // each non-key column becomes (current + delta + rank) mod 7.
      auto Cur = Work.query(Op.A, All);
      Tuple New = Op.A;
      unsigned Rank = 0;
      for (ColumnId C : Rest) {
        int64_t Base = Cur.empty() ? 0 : Cur.front().get(C).asInt();
        New.set(C, Value::ofInt((Base + Script.Deltas[I] + Rank) % 7));
        ++Rank;
      }
      if (New == (Cur.empty() ? New : Cur.front()) && !Cur.empty())
        break;
      if (!Cur.empty())
        Work.remove(Cur.front());
      if (!Work.insertPreservesFds(New, Fds))
        return false;
      Work.insert(New);
      break;
    }
    }
  }
  R = Work;
  return true;
}

/// A random 1-4-op batch over keys with values in [0, 9]: inserts
/// over a narrow value domain, removes by key and by one non-key
/// column, updates of a random non-key subset, and deterministic
/// upserts (the formula oracleTransact mirrors).
TxScript randomTxScript(Rng &R, const Catalog &Cat, ColumnSet Key,
                        ColumnSet Rest) {
  auto RandKey = [&] {
    Tuple K;
    for (ColumnId C : Key)
      K.set(C, Value::ofInt(R.range(0, 9)));
    return K;
  };

  TxScript Script;
  unsigned N = 1 + static_cast<unsigned>(R.below(4));
  for (unsigned J = 0; J != N; ++J) {
    int64_t Delta = R.range(0, 6);
    Script.Deltas.push_back(Delta);
    switch (R.below(8)) {
    case 0:
    case 1: { // insert (narrow value domain: conflicts do happen)
      Tuple T = RandKey();
      for (ColumnId C : Rest)
        T.set(C, Value::ofInt(R.range(0, 6)));
      Script.Ops.push_back(TxOp::insert(T));
      break;
    }
    case 2: // remove by key (routed under key sharding)
      Script.Ops.push_back(TxOp::remove(RandKey()));
      break;
    case 3: { // remove by one non-key column (fan-out)
      ColumnId C = Rest.first();
      Script.Ops.push_back(TxOp::remove(
          TupleBuilder(Cat)
              .set(Cat.name(C), static_cast<int64_t>(R.below(7)))
              .build()));
      break;
    }
    case 4: { // update a random non-empty subset of the non-key
              // columns (rewrites the shard column when it is
              // non-key: migration)
      Tuple Changes;
      for (ColumnId C : Rest)
        if (R.chance(0.5))
          Changes.set(C, Value::ofInt(R.range(0, 6)));
      if (Changes.empty())
        Changes.set(Rest.first(), Value::ofInt(R.range(0, 6)));
      Script.Ops.push_back(TxOp::update(RandKey(), Changes));
      break;
    }
    default: { // upsert: deterministic read-modify-write
      Script.Ops.push_back(TxOp::upsert(
          RandKey(), [Rest, Delta](const BindingFrame *Cur, Tuple &V) {
            unsigned Rank = 0;
            for (ColumnId C : Rest) {
              int64_t Base =
                  Cur && Cur->has(C) ? Cur->get(C).asInt() : 0;
              V.set(C, Value::ofInt((Base + Delta + Rank) % 7));
              ++Rank;
            }
          }));
      break;
    }
    }
  }
  return Script;
}

/// Random 1-4-op batches applied in lockstep to the sharded facade,
/// the sequential engine, and the oracle semantics above: commit
/// verdicts, failing indices, and final relations must all agree —
/// on any example system, under any sharding.
void runTransactAlphaEquivalence(const RelSpecRef &Spec, Decomposition D,
                                 ConcurrentOptions Opts, uint64_t Seed) {
  const Catalog &Cat = Spec->catalog();
  ColumnSet All = Cat.allColumns();
  // The key pattern: the left-hand side of a declared key FD.
  ColumnSet Key;
  for (const FuncDep &Fd : Spec->fds().deps())
    if (Spec->fds().isKey(Fd.Lhs, All)) {
      Key = Fd.Lhs;
      break;
    }
  ASSERT_FALSE(Key.empty()) << Spec->name();
  ColumnSet Rest = All.minus(Key);

  ConcurrentRelation Sharded(D, Opts);
  SynthesizedRelation Sequential{Decomposition(D)};
  Relation Oracle(All);
  Rng R(Seed);

  size_t Commits = 0, Aborts = 0;
  for (int Step = 0; Step != 200; ++Step) {
    TxScript Script = randomTxScript(R, Cat, Key, Rest);
    TxResult RC = Sharded.transact(Script.Ops);
    TxResult RS = Sequential.transact(Script.Ops);
    bool RO = oracleTransact(Oracle, Spec->fds(), All, Rest, Script);
    ASSERT_EQ(RC.Committed, RS.Committed)
        << Spec->name() << " step " << Step;
    ASSERT_EQ(RC.Committed, RO) << Spec->name() << " step " << Step;
    if (!RC.Committed)
      EXPECT_EQ(RC.FailedOp, RS.FailedOp)
          << Spec->name() << " step " << Step;
    (RC.Committed ? Commits : Aborts) += 1;
    if (Step % 20 == 19) {
      EXPECT_EQ(Sharded.toRelation(), Oracle)
          << Spec->name() << " step " << Step;
      EXPECT_EQ(Sharded.toRelation(), Sequential.toRelation())
          << Spec->name() << " step " << Step;
      EXPECT_EQ(Sharded.size(), Oracle.size())
          << Spec->name() << " step " << Step;
    }
  }
  EXPECT_EQ(Sharded.toRelation(), Oracle) << Spec->name();
  // The mix must genuinely exercise both verdicts.
  EXPECT_GT(Commits, 0u) << Spec->name();
  EXPECT_GT(Aborts, 0u) << Spec->name();
}

TEST_F(ConcurrentRelationTest, TransactAlphaScheduler) {
  RelSpecRef S = SchedulerRelational::makeSpec();
  runTransactAlphaEquivalence(
      S, SchedulerRelational::makeDefaultDecomposition(S),
      {4, std::nullopt}, 0x7a0001);
}

TEST_F(ConcurrentRelationTest, TransactAlphaSchedulerShardedByNonKey) {
  // Sharded by state: every insert-like op fans out, updates and
  // upserts migrate tuples mid-batch.
  RelSpecRef S = SchedulerRelational::makeSpec();
  ConcurrentOptions Opts;
  Opts.NumShards = 4;
  Opts.ShardColumn = S->catalog().get("state");
  runTransactAlphaEquivalence(
      S, SchedulerRelational::makeDefaultDecomposition(S), Opts, 0x7a0002);
}

TEST_F(ConcurrentRelationTest, TransactAlphaGraph) {
  RelSpecRef S = GraphRelational::makeSpec();
  runTransactAlphaEquivalence(S, GraphRelational::makeSharedBidirectional(S),
                              {4, std::nullopt}, 0x7a0003);
}

TEST_F(ConcurrentRelationTest, TransactAlphaThttpd) {
  RelSpecRef S = ThttpdRelational::makeSpec();
  runTransactAlphaEquivalence(
      S, ThttpdRelational::makeDefaultDecomposition(S), {4, std::nullopt},
      0x7a0004);
}

TEST_F(ConcurrentRelationTest, TransactAlphaIpcap) {
  RelSpecRef S = IpcapRelational::makeSpec();
  runTransactAlphaEquivalence(
      S, IpcapRelational::makeDefaultDecomposition(S), {4, std::nullopt},
      0x7a0005);
}

TEST_F(ConcurrentRelationTest, TransactAlphaZtopo) {
  RelSpecRef S = ZtopoRelational::makeSpec();
  runTransactAlphaEquivalence(
      S, ZtopoRelational::makeDefaultDecomposition(S), {4, std::nullopt},
      0x7a0006);
}

TEST_F(ConcurrentRelationTest, TransactAlphaZtopoShardedByNonKey) {
  RelSpecRef S = ZtopoRelational::makeSpec();
  ConcurrentOptions Opts;
  Opts.NumShards = 4;
  Opts.ShardColumn = S->catalog().get("state");
  runTransactAlphaEquivalence(
      S, ZtopoRelational::makeDefaultDecomposition(S), Opts, 0x7a0007);
}

TEST_F(ConcurrentRelationTest, CommitHookRedoReplaysFanOutBatches) {
  // Sharded by state: inserts, key removes and upserts fan out, and
  // updates or upserts that rewrite state migrate tuples, so the redo
  // the hook sees comes from the fan-out arm. Replayed in ticket order
  // into a fresh sequential engine, every batch must commit and the
  // result must be the facade's relation.
  ConcurrentOptions Opts;
  Opts.NumShards = 4;
  Opts.ShardColumn = Cat.get("state");
  ConcurrentRelation Rel(Decomp, Opts);
  std::vector<std::pair<uint64_t, std::vector<TxOp>>> Log;
  Rel.setCommitHook([&](uint64_t Ticket, const std::vector<TxOp> &Redo) {
    Log.emplace_back(Ticket, Redo);
  });

  ColumnSet Key = Cat.parseSet("ns, pid");
  ColumnSet Rest = Cat.allColumns().minus(Key);
  Rng R(0x7a0010);
  const size_t Steps = 300;
  size_t FanOut = 0, Commits = 0;
  for (size_t Step = 0; Step != Steps; ++Step) {
    TxScript Script = randomTxScript(R, Cat, Key, Rest);
    FanOut += Rel.transactLockPlan(Script.Ops).AllShards;
    Commits += Rel.transact(Script.Ops).Committed;
  }
  Rel.setCommitHook(nullptr);
  // Only batches of nothing but removes by state route.
  EXPECT_GT(FanOut, Steps * 9 / 10);
  EXPECT_GT(Commits, 0u);
  ASSERT_FALSE(Log.empty());

  SynthesizedRelation Replay{Decomposition(Decomp)};
  size_t Kinds[4] = {0, 0, 0, 0};
  uint64_t Last = 0;
  for (const auto &[Ticket, Redo] : Log) {
    EXPECT_GT(Ticket, Last); // the hook sees tickets in order
    Last = Ticket;
    for (const TxOp &Op : Redo)
      ++Kinds[Op.Op];
    ASSERT_TRUE(Replay.transact(Redo).Committed) << "ticket " << Ticket;
  }
  EXPECT_EQ(Replay.toRelation(), Rel.toRelation());
  EXPECT_EQ(Replay.size(), Rel.size());
  // Inserts, removes (pattern removes and migrations) and in-place
  // updates all reached the log; redo never carries an upsert.
  EXPECT_GT(Kinds[TxOp::Insert], 0u);
  EXPECT_GT(Kinds[TxOp::Remove], 0u);
  EXPECT_GT(Kinds[TxOp::Update], 0u);
  EXPECT_EQ(Kinds[TxOp::Upsert], 0u);
}

TEST_F(ConcurrentRelationTest, IpcapDecompositionRoundTrip) {
  RelSpecRef IpcapSpec = IpcapRelational::makeSpec();
  Decomposition D = IpcapRelational::makeDefaultDecomposition(IpcapSpec);
  const Catalog &ICat = IpcapSpec->catalog();
  ConcurrentRelation Rel(D, {8, std::nullopt});
  for (int64_t L = 0; L != 16; ++L)
    for (int64_t R = 0; R != 4; ++R)
      ASSERT_TRUE(Rel.insert(TupleBuilder(ICat)
                                 .set("local", L)
                                 .set("remote", R)
                                 .set("bytes_in", L * R)
                                 .set("bytes_out", L + R)
                                 .set("packets", 1)
                                 .build()));
  EXPECT_EQ(Rel.size(), 64u);
  auto Flows = Rel.query(TupleBuilder(ICat).set("local", 3).build(),
                         ICat.parseSet("remote, packets"));
  EXPECT_EQ(Flows.size(), 4u);
  EXPECT_EQ(Rel.remove(TupleBuilder(ICat).set("local", 3).build()), 4u);
  EXPECT_EQ(Rel.size(), 60u);
}

} // namespace
