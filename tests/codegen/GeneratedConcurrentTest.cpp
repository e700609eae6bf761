//===- tests/codegen/GeneratedConcurrentTest.cpp - Emitted facade -*- C++ -*-===//
//
// Part of the RelC data representation synthesis library.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// End-to-end verification of the `concurrency` compilation target:
/// the build runs `relc` over tests/codegen/golden/sched_conc_{ns,
/// state}.relc and compiles the emitted headers into this test, which
/// drives the generated sharded facades through randomized operation
/// sequences in lockstep with the interpreted ConcurrentRelation, the
/// sequential dynamic engine, and the Relation oracle — all four must
/// stay α-equivalent. Multi-writer stress runs the same generated code
/// under real races (the CI TSan job includes this suite), and the
/// `*_parallel` queries must yield the sequential fan-out's multiset.
/// The sequential class emitted from ztopo_tiles.relc (no facade) runs
/// its shared-node removal against a map oracle.
///
//===----------------------------------------------------------------------===//

#include "concurrent/ConcurrentRelation.h"

#include "decomp/Builder.h"
#include "workloads/Rng.h"

// Build-generated: relc-emitted headers (see tests/CMakeLists.txt).
#include "account_tx_gen.h"
#include "sched_conc_ns_gen.h"
#include "sched_conc_state_gen.h"
#include "settle_tri_gen.h"
#include "ztopo_tiles_gen.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <map>
#include <set>
#include <thread>
#include <vector>

using namespace relc;

namespace {

RelSpecRef schedulerSpec() {
  return RelSpec::make("scheduler", {"ns", "pid", "state", "cpu"},
                       {{"ns, pid", "state, cpu"}});
}

/// The same Fig. 2 decomposition the golden .relc files declare.
Decomposition fig2(const RelSpecRef &Spec) {
  DecompBuilder B(Spec);
  NodeId W = B.addNode("w", "ns, pid, state", B.unit("cpu"));
  NodeId Y = B.addNode("y", "ns", B.map("pid", DsKind::HashTable, W));
  NodeId Z = B.addNode("z", "state", B.map("ns, pid", DsKind::DList, W));
  B.addNode("x", "", B.join(B.map("ns", DsKind::HashTable, Y),
                            B.map("state", DsKind::Vector, Z)));
  return B.build();
}

/// Harvests a generated facade's content through its fan-out `all`
/// query into the oracle representation.
template <typename GenT>
Relation harvest(const GenT &Gen, const Catalog &Cat) {
  Relation R(Cat.allColumns());
  Gen.all([&](int64_t Ns, int64_t Pid, int64_t State, int64_t Cpu) {
    R.insert(TupleBuilder(Cat)
                 .set("ns", Ns)
                 .set("pid", Pid)
                 .set("state", State)
                 .set("cpu", Cpu)
                 .build());
  });
  return R;
}

/// One randomized mixed sequence applied in lockstep to the generated
/// facade, the interpreted sharded facade, the sequential engine, and
/// the Relation oracle.
template <typename GenT>
void runAlphaEquivalence(ColumnId ShardCol, unsigned NumShards,
                         uint64_t Seed) {
  RelSpecRef Spec = schedulerSpec();
  const Catalog &Cat = Spec->catalog();
  ColumnId ColState = Cat.get("state"), ColCpu = Cat.get("cpu");

  GenT Gen;
  ConcurrentOptions Opts;
  Opts.NumShards = NumShards;
  Opts.ShardColumn = ShardCol;
  ConcurrentRelation Interp(fig2(Spec), Opts);
  SynthesizedRelation Seq{fig2(Spec)};
  Relation Oracle(Cat.allColumns());
  Rng R(Seed);

  for (int Step = 0; Step != 500; ++Step) {
    int64_t Ns = R.range(0, 7);
    int64_t Pid = R.range(0, 15);
    Tuple Key = TupleBuilder(Cat).set("ns", Ns).set("pid", Pid).build();
    switch (R.below(5)) {
    case 0:
    case 1: { // insert (FD-safe only: the oracle pre-checks)
      int64_t State = static_cast<int64_t>(R.below(3));
      int64_t Cpu = static_cast<int64_t>(R.below(100));
      Tuple T = TupleBuilder(Cat)
                    .set("ns", Ns)
                    .set("pid", Pid)
                    .set("state", State)
                    .set("cpu", Cpu)
                    .build();
      if (!Oracle.insertPreservesFds(T, Spec->fds()))
        break;
      Oracle.insert(T);
      bool Changed = Gen.insert(Ns, Pid, State, Cpu);
      EXPECT_EQ(Changed, Interp.insert(T));
      EXPECT_EQ(Changed, Seq.insert(T));
      break;
    }
    case 2: { // remove through the key
      size_t N = Oracle.remove(Key);
      EXPECT_EQ(Gen.remove_by_ns_pid(Ns, Pid), N == 1);
      EXPECT_EQ(Interp.remove(Key), N);
      EXPECT_EQ(Seq.remove(Key), N);
      break;
    }
    case 3: { // update every non-key column through the key (the
              // generated update_by rewrites state AND cpu — migration
              // when the shard column is state)
      int64_t State = R.range(0, 2), Cpu = R.range(0, 99);
      Tuple Changes = TupleBuilder(Cat)
                          .set("state", State)
                          .set("cpu", Cpu)
                          .build();
      size_t N = Oracle.update(Key, Changes);
      EXPECT_EQ(Gen.update_by_ns_pid(Ns, Pid, State, Cpu), N == 1);
      EXPECT_EQ(Interp.update(Key, Changes), N);
      EXPECT_EQ(Seq.update(Key, Changes), N);
      break;
    }
    case 4: { // upsert: the read-modify-write, same deterministic Fn
              // against every engine
      int64_t Delta = R.range(1, 49);
      bool GenInserted = Gen.upsert_by_ns_pid(
          Ns, Pid, [&](bool Found, int64_t &St, int64_t &Cpu) {
            Cpu = ((Found ? Cpu : 0) + Delta) % 100;
            St = Delta % 3;
          });
      auto Fn = [&](const BindingFrame *Cur, Tuple &Values) {
        int64_t Cpu = Cur ? Cur->get(ColCpu).asInt() : 0;
        Values.set(ColCpu, Value::ofInt((Cpu + Delta) % 100));
        Values.set(ColState, Value::ofInt(Delta % 3));
      };
      EXPECT_EQ(Interp.upsert(Key, Fn), GenInserted);
      EXPECT_EQ(Seq.upsert(Key, Fn), GenInserted);
      // Oracle: read-modify-write by hand.
      auto Cur = Oracle.query(Key, ColumnSet::single(ColCpu));
      int64_t Cpu = Cur.empty() ? 0 : Cur.front().get(ColCpu).asInt();
      EXPECT_EQ(Cur.empty(), GenInserted);
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
      Relation G = harvest(Gen, Cat);
      EXPECT_EQ(G, Oracle) << "step " << Step;
      EXPECT_EQ(G, Interp.toRelation()) << "step " << Step;
      EXPECT_EQ(G, Seq.toRelation()) << "step " << Step;
      EXPECT_EQ(Gen.size(), Oracle.size()) << "step " << Step;
    }
  }
  EXPECT_EQ(harvest(Gen, Cat), Oracle);
  EXPECT_EQ(Gen.size(), Oracle.size());
}

TEST(GeneratedConcurrentTest, AlphaEquivalenceShardedByNs) {
  runAlphaEquivalence<genconc::sched_ns_concurrent>(
      schedulerSpec()->catalog().get("ns"), 4, 0xfacade0);
}

TEST(GeneratedConcurrentTest, AlphaEquivalenceShardedByState) {
  // Non-key shard column: every keyed mutation takes the generated
  // all-writer-locks fan-out, and updates/upserts migrate shards.
  runAlphaEquivalence<genconc::sched_state_concurrent>(
      schedulerSpec()->catalog().get("state"), 3, 0xfacade1);
}

TEST(GeneratedConcurrentTest, ParallelQueryMatchesSequentialFanOut) {
  genconc::sched_ns_concurrent Gen;
  Rng R(0x9a7a11e1);
  for (int I = 0; I != 400; ++I)
    Gen.insert(R.range(0, 15), I, R.range(0, 2), R.range(0, 99));

  using Row = std::array<int64_t, 4>;
  std::vector<Row> Sequential, Parallel;
  Gen.all([&](int64_t A, int64_t B, int64_t C, int64_t D) {
    Sequential.push_back({A, B, C, D});
  });
  Gen.all_parallel([&](int64_t A, int64_t B, int64_t C, int64_t D) {
    Parallel.push_back({A, B, C, D});
  });
  std::sort(Sequential.begin(), Sequential.end());
  std::sort(Parallel.begin(), Parallel.end());
  EXPECT_EQ(Sequential, Parallel);
  EXPECT_EQ(Sequential.size(), 400u);

  using Pair = std::array<int64_t, 2>;
  std::vector<Pair> SeqState, ParState;
  Gen.by_state(1, [&](int64_t Ns, int64_t Pid) {
    SeqState.push_back({Ns, Pid});
  });
  Gen.by_state_parallel(1, [&](int64_t Ns, int64_t Pid) {
    ParState.push_back({Ns, Pid});
  });
  std::sort(SeqState.begin(), SeqState.end());
  std::sort(ParState.begin(), ParState.end());
  EXPECT_EQ(SeqState, ParState);
}

/// Harvests a generated facade snapshot through its scanRows into the
/// oracle representation.
template <typename SnapT>
Relation harvestSnapshot(const SnapT &Snap, const Catalog &Cat) {
  Relation R(Cat.allColumns());
  Snap.scanRows([&](int64_t Ns, int64_t Pid, int64_t State, int64_t Cpu) {
    R.insert(TupleBuilder(Cat)
                 .set("ns", Ns)
                 .set("pid", Pid)
                 .set("state", State)
                 .set("cpu", Cpu)
                 .build());
  });
  return R;
}

/// The generated facade's snapshot(): frozen under every mutation
/// class (writers COW around the pinned shards), scanRows α-equivalent
/// to the fan-out `all` query, and clear() replaces pinned shards
/// rather than resetting them in place.
TEST(GeneratedConcurrentTest, SnapshotIsImmutableUnderMutation) {
  RelSpecRef Spec = schedulerSpec();
  const Catalog &Cat = Spec->catalog();
  genconc::sched_ns_concurrent Gen;
  for (int64_t Ns = 0; Ns != 8; ++Ns)
    for (int64_t Pid = 0; Pid != 8; ++Pid)
      ASSERT_TRUE(Gen.insert(Ns, Pid, Pid % 3, Pid));
  Relation Before = harvest(Gen, Cat);

  auto Snap = Gen.snapshot();
  ASSERT_TRUE(Snap.valid());
  EXPECT_EQ(Snap.size(), 64u);
  EXPECT_EQ(harvestSnapshot(Snap, Cat), Before);

  // Every mutation class, while the handle is held.
  EXPECT_TRUE(Gen.insert(9, 9, 0, 0));
  EXPECT_TRUE(Gen.remove_by_ns_pid(0, 0));
  EXPECT_TRUE(Gen.update_by_ns_pid(1, 1, 2, 77));
  Gen.upsert_by_ns_pid(2, 2, [](bool, int64_t &St, int64_t &Cpu) {
    St = 1;
    Cpu = 55;
  });
  EXPECT_EQ(harvestSnapshot(Snap, Cat), Before);
  EXPECT_EQ(Snap.size(), 64u);
  EXPECT_NE(harvest(Gen, Cat), Before);

  // clear() must swap fresh shards in under the pinned handle.
  Gen.clear();
  EXPECT_EQ(Gen.size(), 0u);
  EXPECT_EQ(harvestSnapshot(Snap, Cat), Before);

  // A fresh handle sees the live (now empty) state.
  auto After = Gen.snapshot();
  EXPECT_TRUE(After.valid());
  EXPECT_TRUE(After.empty());
  EXPECT_EQ(harvestSnapshot(After, Cat), Relation(Cat.allColumns()));
}

/// Snapshots racing generated-facade writers (the CI TSan job runs
/// this): each pinned handle must yield the same rows however many
/// commits land after it, and writers must keep progressing while
/// handles stay alive.
TEST(GeneratedConcurrentTest, SnapshotsFrozenUnderWriterChurn) {
  RelSpecRef Spec = schedulerSpec();
  const Catalog &Cat = Spec->catalog();
  genconc::sched_ns_concurrent Gen;

  auto Epoch0 = Gen.snapshot(); // held across the whole run
  std::atomic<bool> Done{false};
  std::atomic<size_t> SnapsTaken{0};

  std::thread Snapshotter([&] {
    std::vector<decltype(Gen.snapshot())> Window;
    while (!Done.load(std::memory_order_acquire)) {
      auto Snap = Gen.snapshot();
      Relation First = harvestSnapshot(Snap, Cat);
      EXPECT_EQ(First.size(), Snap.size());
      std::this_thread::yield();
      EXPECT_EQ(harvestSnapshot(Snap, Cat), First)
          << "generated snapshot moved under churn";
      Window.push_back(std::move(Snap));
      if (Window.size() > 4)
        Window.erase(Window.begin());
      SnapsTaken.fetch_add(1, std::memory_order_relaxed);
    }
  });

  const unsigned NumWriters = 4;
  std::vector<std::thread> Writers;
  for (unsigned T = 0; T != NumWriters; ++T)
    Writers.emplace_back([&, T] {
      Rng R(0x5a9 + T);
      for (int Step = 0; Step != 400; ++Step) {
        int64_t Ns = R.range(0, 7);
        int64_t Pid = static_cast<int64_t>(T) +
                      static_cast<int64_t>(NumWriters) * R.range(0, 15);
        int64_t Delta = R.range(1, 49);
        Gen.upsert_by_ns_pid(Ns, Pid,
                             [&](bool Found, int64_t &St, int64_t &Cpu) {
                               Cpu = ((Found ? Cpu : 0) + Delta) % 100;
                               St = Delta % 3;
                             });
        if (R.chance(0.2))
          Gen.remove_by_ns_pid(Ns, Pid);
      }
    });
  for (std::thread &T : Writers)
    T.join();
  Done.store(true, std::memory_order_release);
  Snapshotter.join();

  EXPECT_GT(SnapsTaken.load(), 0u);
  EXPECT_TRUE(Epoch0.empty());
  EXPECT_EQ(harvestSnapshot(Epoch0, Cat), Relation(Cat.allColumns()));
  // The final snapshot agrees with the live fan-out harvest.
  EXPECT_EQ(harvestSnapshot(Gen.snapshot(), Cat), harvest(Gen, Cat));
}

/// One logged mutation, replayable against the sequential engine.
struct LoggedOp {
  enum Kind { Insert, Remove, Update, Upsert } Op;
  int64_t Ns, Pid, State, Cpu; ///< Upsert: Cpu doubles as the delta.
};

/// Multi-writer/multi-reader stress over a generated facade (the CI
/// TSan job runs this suite). Writers mutate pairwise-disjoint pid
/// sets, so their logs replayed serially into the sequential engine
/// must reproduce the concurrent final state.
template <typename GenT> void runStress(unsigned NumWriters, int Ops) {
  RelSpecRef Spec = schedulerSpec();
  const Catalog &Cat = Spec->catalog();
  GenT Gen;

  std::vector<std::vector<LoggedOp>> Logs(NumWriters);
  std::atomic<bool> Done{false};

  std::vector<std::thread> Readers;
  for (unsigned T = 0; T != 2; ++T)
    Readers.emplace_back([&, T] {
      Rng R(0xeade0 + T);
      while (!Done.load(std::memory_order_acquire)) {
        // Every value a reader observes must lie in the writers'
        // domain — a facade emitting torn or stale rows fails here.
        Gen.by_state(R.range(0, 2), [&](int64_t Ns, int64_t Pid) {
          EXPECT_TRUE(Ns >= 0 && Ns <= 7);
          EXPECT_GE(Pid, 0);
        });
        Gen.all_parallel(
            [&](int64_t Ns, int64_t, int64_t State, int64_t Cpu) {
              EXPECT_TRUE(Ns >= 0 && Ns <= 7);
              EXPECT_TRUE(State >= 0 && State <= 2);
              EXPECT_TRUE(Cpu >= 0 && Cpu < 100);
            });
        (void)Gen.size();
      }
    });

  std::vector<std::thread> Writers;
  for (unsigned T = 0; T != NumWriters; ++T)
    Writers.emplace_back([&, T] {
      Rng R(0x517e55 + T);
      for (int Step = 0; Step != Ops; ++Step) {
        int64_t Ns = R.range(0, 7);
        int64_t Pid = static_cast<int64_t>(T) +
                      static_cast<int64_t>(NumWriters) * R.range(0, 15);
        switch (R.below(4)) {
        case 0: { // upsert: always FD-safe
          int64_t Delta = R.range(1, 49);
          Gen.upsert_by_ns_pid(Ns, Pid,
                               [&](bool Found, int64_t &St, int64_t &Cpu) {
                                 Cpu = ((Found ? Cpu : 0) + Delta) % 100;
                                 St = Delta % 3;
                               });
          Logs[T].push_back({LoggedOp::Upsert, Ns, Pid, 0, Delta});
          break;
        }
        case 1: { // update
          int64_t St = R.range(0, 2), Cpu = R.range(0, 99);
          Gen.update_by_ns_pid(Ns, Pid, St, Cpu);
          Logs[T].push_back({LoggedOp::Update, Ns, Pid, St, Cpu});
          break;
        }
        case 2: { // remove
          Gen.remove_by_ns_pid(Ns, Pid);
          Logs[T].push_back({LoggedOp::Remove, Ns, Pid, 0, 0});
          break;
        }
        case 3: { // insert-if-absent through upsert keeps FD safety
                  // without an oracle in the race (a plain insert of a
                  // random tuple could violate the key FD)
          int64_t Delta = R.range(50, 99);
          Gen.upsert_by_ns_pid(Ns, Pid,
                               [&](bool Found, int64_t &St, int64_t &Cpu) {
                                 if (Found)
                                   return;
                                 St = Delta % 3;
                                 Cpu = Delta;
                               });
          Logs[T].push_back({LoggedOp::Insert, Ns, Pid, 0, Delta});
          break;
        }
        }
      }
    });
  for (std::thread &T : Writers)
    T.join();
  Done.store(true, std::memory_order_release);
  for (std::thread &T : Readers)
    T.join();

  // Serial replay, thread by thread (disjoint key sets commute).
  SynthesizedRelation Replay{fig2(Spec)};
  ColumnId ColState = Cat.get("state"), ColCpu = Cat.get("cpu");
  for (const std::vector<LoggedOp> &Log : Logs)
    for (const LoggedOp &Op : Log) {
      Tuple Key = TupleBuilder(Cat)
                      .set("ns", Op.Ns)
                      .set("pid", Op.Pid)
                      .build();
      switch (Op.Op) {
      case LoggedOp::Insert:
        Replay.upsert(Key, [&](const BindingFrame *Cur, Tuple &Values) {
          if (Cur) {
            Values.set(ColState, Cur->get(ColState));
            Values.set(ColCpu, Cur->get(ColCpu));
            return;
          }
          Values.set(ColState, Value::ofInt(Op.Cpu % 3));
          Values.set(ColCpu, Value::ofInt(Op.Cpu));
        });
        break;
      case LoggedOp::Remove:
        Replay.remove(Key);
        break;
      case LoggedOp::Update:
        Replay.update(Key, TupleBuilder(Cat)
                               .set("state", Op.State)
                               .set("cpu", Op.Cpu)
                               .build());
        break;
      case LoggedOp::Upsert:
        Replay.upsert(Key, [&](const BindingFrame *Cur, Tuple &Values) {
          int64_t Cpu = Cur ? Cur->get(ColCpu).asInt() : 0;
          Values.set(ColCpu, Value::ofInt((Cpu + Op.Cpu) % 100));
          Values.set(ColState, Value::ofInt(Op.Cpu % 3));
        });
        break;
      }
    }
  EXPECT_EQ(harvest(Gen, Cat), Replay.toRelation());
  EXPECT_EQ(Gen.size(), Replay.size());
}

TEST(GeneratedConcurrentTest, MultiWriterStressShardedByNs) {
  runStress<genconc::sched_ns_concurrent>(/*NumWriters=*/4, /*Ops=*/400);
}

TEST(GeneratedConcurrentTest, MultiWriterStressShardedByState) {
  runStress<genconc::sched_state_concurrent>(/*NumWriters=*/4,
                                             /*Ops=*/250);
}

//===----------------------------------------------------------------------===
// The generated transact_by_* (the `transaction` directive).
//===----------------------------------------------------------------------===

/// Locksteps the generated two-key transact against the interpreted
/// ConcurrentRelation::transact, the sequential engine's transact, and
/// the Relation oracle. The generated method resolves both sides from
/// the pre-transaction state and writes back after one callback, which
/// for DISTINCT keys equals the sequential batch [upsert A, upsert B]
/// with the values the callback produced — the equivalence this
/// harness asserts.
template <typename GenT>
void runGeneratedTransactAlpha(ColumnId ShardCol, unsigned NumShards,
                               uint64_t Seed) {
  RelSpecRef Spec = schedulerSpec();
  const Catalog &Cat = Spec->catalog();
  ColumnId ColState = Cat.get("state"), ColCpu = Cat.get("cpu");

  GenT Gen;
  ConcurrentOptions Opts;
  Opts.NumShards = NumShards;
  Opts.ShardColumn = ShardCol;
  ConcurrentRelation Interp(fig2(Spec), Opts);
  SynthesizedRelation Seq{fig2(Spec)};
  Relation Oracle(Cat.allColumns());
  Rng R(Seed);

  for (int Step = 0; Step != 300; ++Step) {
    int64_t NsA = R.range(0, 7), PidA = R.range(0, 15);
    int64_t NsB = R.range(0, 7), PidB = R.range(0, 15);
    if (NsA == NsB && PidA == PidB)
      PidB = (PidB + 1) % 16; // distinct keys: see the doc above
    Tuple KeyA = TupleBuilder(Cat).set("ns", NsA).set("pid", PidA).build();
    Tuple KeyB = TupleBuilder(Cat).set("ns", NsB).set("pid", PidB).build();

    if (R.chance(0.15)) {
      // The abort arm: a false-returning callback writes nothing.
      Relation Before = harvest(Gen, Cat);
      size_t SizeBefore = Gen.size();
      bool Committed = Gen.transact_by_ns_pid(
          NsA, PidA, NsB, PidB,
          [&](bool, int64_t &, int64_t &, bool, int64_t &, int64_t &) {
            return false;
          });
      EXPECT_FALSE(Committed);
      EXPECT_EQ(harvest(Gen, Cat), Before) << "step " << Step;
      EXPECT_EQ(Gen.size(), SizeBefore);
      continue;
    }

    int64_t DA = R.range(1, 49), DB = R.range(1, 49);
    bool FA = false, FB = false;
    int64_t NewStA = 0, NewCpuA = 0, NewStB = 0, NewCpuB = 0;
    bool Committed = Gen.transact_by_ns_pid(
        NsA, PidA, NsB, PidB,
        [&](bool FoundA, int64_t &StA, int64_t &CpuA, bool FoundB,
            int64_t &StB, int64_t &CpuB) {
          CpuA = ((FoundA ? CpuA : 0) + DA) % 100;
          StA = DA % 3;
          CpuB = ((FoundB ? CpuB : 0) + DB) % 100;
          StB = DB % 3;
          FA = FoundA;
          FB = FoundB;
          NewStA = StA;
          NewCpuA = CpuA;
          NewStB = StB;
          NewCpuB = CpuB;
        });
    EXPECT_TRUE(Committed);
    // The generated lookups saw exactly the oracle's state.
    EXPECT_EQ(FA, !Oracle.query(KeyA, Cat.allColumns()).empty());
    EXPECT_EQ(FB, !Oracle.query(KeyB, Cat.allColumns()).empty());

    // The equivalent batch against the interpreted engines: two
    // upserts setting the values the generated callback produced.
    std::vector<TxOp> Ops;
    Ops.push_back(TxOp::upsert(
        KeyA, [=](const BindingFrame *, Tuple &V) {
          V.set(ColState, Value::ofInt(NewStA));
          V.set(ColCpu, Value::ofInt(NewCpuA));
        }));
    Ops.push_back(TxOp::upsert(
        KeyB, [=](const BindingFrame *, Tuple &V) {
          V.set(ColState, Value::ofInt(NewStB));
          V.set(ColCpu, Value::ofInt(NewCpuB));
        }));
    EXPECT_TRUE(Interp.transact(Ops).Committed);
    EXPECT_TRUE(Seq.transact(Ops).Committed);
    // Oracle: upsert = remove the key's tuple (if any) + insert.
    for (const auto &[Key, St, Cpu] :
         {std::make_tuple(KeyA, NewStA, NewCpuA),
          std::make_tuple(KeyB, NewStB, NewCpuB)}) {
      Oracle.remove(Key);
      Oracle.insert(Key.merge(TupleBuilder(Cat)
                                  .set("state", St)
                                  .set("cpu", Cpu)
                                  .build()));
    }

    if (Step % 25 == 24) {
      Relation G = harvest(Gen, Cat);
      EXPECT_EQ(G, Oracle) << "step " << Step;
      EXPECT_EQ(G, Interp.toRelation()) << "step " << Step;
      EXPECT_EQ(G, Seq.toRelation()) << "step " << Step;
      EXPECT_EQ(Gen.size(), Oracle.size()) << "step " << Step;
    }
  }
  EXPECT_EQ(harvest(Gen, Cat), Oracle);
}

TEST(GeneratedConcurrentTest, TransactAlphaShardedByNs) {
  // Routed: the generated transact locks one or two stripes.
  runGeneratedTransactAlpha<genconc::sched_ns_concurrent>(
      schedulerSpec()->catalog().get("ns"), 4, 0x7abcde0);
}

TEST(GeneratedConcurrentTest, TransactAlphaShardedByState) {
  // Non-key shard column: the generated transact fans out under every
  // writer stripe and its write-backs migrate tuples between shards.
  runGeneratedTransactAlpha<genconc::sched_state_concurrent>(
      schedulerSpec()->catalog().get("state"), 3, 0x7abcde1);
}

/// Harvests the generated account facade (3 columns).
Relation harvestAccounts(const genconc::account_concurrent &Accts,
                         const Catalog &Cat) {
  Relation R(Cat.allColumns());
  Accts.all([&](int64_t Owner, int64_t Acct, int64_t Balance) {
    R.insert(TupleBuilder(Cat)
                 .set("owner", Owner)
                 .set("acct", Acct)
                 .set("balance", Balance)
                 .build());
  });
  return R;
}

/// The flagship invariant: N writers hammering random transfers
/// between overlapping accounts through the generated two-key
/// transact must conserve the total balance exactly — any lost or
/// duplicated update, torn write, or non-atomic debit/credit pair
/// breaks the sum. Runs under the CI TSan job.
TEST(GeneratedConcurrentTest, AccountTransferConservesTotalBalance) {
  genconc::account_concurrent Accts;
  const int64_t NumOwners = 8, PerOwner = 4, Initial = 1000;
  for (int64_t O = 0; O != NumOwners; ++O)
    for (int64_t A = 0; A != PerOwner; ++A)
      ASSERT_TRUE(Accts.insert(O, A, Initial));
  const int64_t Total = NumOwners * PerOwner * Initial;

  const unsigned NumWriters = 4;
  const int Transfers = 1500;
  std::atomic<size_t> Committed{0}, Aborted{0};
  std::vector<std::thread> Writers;
  for (unsigned T = 0; T != NumWriters; ++T)
    Writers.emplace_back([&, T] {
      Rng R(0xacc7 + T);
      for (int I = 0; I != Transfers; ++I) {
        int64_t O1 = R.range(0, NumOwners - 1);
        int64_t A1 = R.range(0, PerOwner - 1);
        // Occasionally target a nonexistent account: the callback
        // aborts and the transfer must leave no trace.
        bool Bogus = R.chance(0.1);
        int64_t O2 = Bogus ? 99 : R.range(0, NumOwners - 1);
        int64_t A2 = R.range(0, PerOwner - 1);
        if (O1 == O2 && A1 == A2)
          A2 = (A2 + 1) % PerOwner; // self-transfers excluded
        int64_t Amount = R.range(1, 50);
        bool Ok = Accts.transact_by_owner_acct(
            O1, A1, O2, A2,
            [&](bool FoundA, int64_t &BalA, bool FoundB, int64_t &BalB) {
              if (!FoundA || !FoundB)
                return false; // missing account: abort
              int64_t Moved = Amount < BalA ? Amount : BalA;
              BalA -= Moved;
              BalB += Moved;
              return true;
            });
        (Ok ? Committed : Aborted).fetch_add(1,
                                             std::memory_order_relaxed);
      }
    });
  for (std::thread &T : Writers)
    T.join();

  EXPECT_GT(Committed.load(), 0u);
  EXPECT_GT(Aborted.load(), 0u);
  EXPECT_EQ(Accts.size(), static_cast<size_t>(NumOwners * PerOwner));
  int64_t Sum = 0;
  size_t Rows = 0;
  Accts.all([&](int64_t, int64_t, int64_t Balance) {
    Sum += Balance;
    ++Rows;
    EXPECT_GE(Balance, 0);
  });
  EXPECT_EQ(Rows, static_cast<size_t>(NumOwners * PerOwner));
  EXPECT_EQ(Sum, Total);
}

TEST(GeneratedConcurrentTest, AccountTransactSingleThreadSemantics) {
  RelSpecRef Spec = RelSpec::make("account", {"owner", "acct", "balance"},
                                  {{"owner, acct", "balance"}});
  const Catalog &Cat = Spec->catalog();
  genconc::account_concurrent Accts;
  ASSERT_TRUE(Accts.insert(1, 1, 100));
  ASSERT_TRUE(Accts.insert(2, 1, 50));

  // A committed transfer.
  EXPECT_TRUE(Accts.transact_by_owner_acct(
      1, 1, 2, 1, [](bool FA, int64_t &A, bool FB, int64_t &B) {
        EXPECT_TRUE(FA);
        EXPECT_TRUE(FB);
        A -= 30;
        B += 30;
        return true;
      }));
  Relation State = harvestAccounts(Accts, Cat);
  EXPECT_TRUE(State.contains(TupleBuilder(Cat)
                                 .set("owner", 1)
                                 .set("acct", 1)
                                 .set("balance", 70)
                                 .build()));
  EXPECT_TRUE(State.contains(TupleBuilder(Cat)
                                 .set("owner", 2)
                                 .set("acct", 1)
                                 .set("balance", 80)
                                 .build()));

  // An absent side seeds a fresh account when the callback commits
  // (upsert semantics: the values it leaves are inserted).
  EXPECT_TRUE(Accts.transact_by_owner_acct(
      1, 1, 3, 1, [](bool FA, int64_t &A, bool FB, int64_t &B) {
        EXPECT_TRUE(FA);
        EXPECT_FALSE(FB);
        A -= 10;
        B = 10;
        return true;
      }));
  EXPECT_EQ(Accts.size(), 3u);

  // A void callback always commits.
  Accts.transact_by_owner_acct(
      1, 1, 2, 1, [](bool, int64_t &A, bool, int64_t &B) {
        A += 1;
        B += 1;
      });
  int64_t Sum = 0;
  Accts.all([&](int64_t, int64_t, int64_t Balance) { Sum += Balance; });
  EXPECT_EQ(Sum, 100 + 50 + 2);
}

//===----------------------------------------------------------------------===
// Probe before copy-on-write: a keyed remove/update that finds nothing
// must not clone a shard a live snapshot pins — neither routed
// (sched_conc_ns) nor fanned out (sched_conc_state, whose ns/pid key
// misses the shard column).
//===----------------------------------------------------------------------===

template <typename GenT> void expectAbsentKeyMutationsKeepPinnedShards() {
  GenT Gen;
  for (int64_t Ns = 0; Ns != 8; ++Ns)
    for (int64_t Pid = 0; Pid != 4; ++Pid)
      ASSERT_TRUE(Gen.insert(Ns, Pid, Pid % 3, Pid));
  auto Snap = Gen.snapshot();
  std::vector<const void *> Live;
  for (unsigned S = 0; S != GenT::NumShards; ++S)
    Live.push_back(&Gen.shard(S));

  for (int64_t Ns : {int64_t(0), int64_t(100)}) {
    EXPECT_FALSE(Gen.remove_by_ns_pid(Ns, 99));
    EXPECT_FALSE(Gen.update_by_ns_pid(Ns, 99, 1, 1));
  }
  for (unsigned S = 0; S != GenT::NumShards; ++S)
    EXPECT_EQ(&Gen.shard(S), Live[S]) << "shard " << S << " was cloned";
  EXPECT_EQ(Gen.size(), 32u);

  // A hit still clones exactly its owner and leaves the handle frozen.
  EXPECT_TRUE(Gen.remove_by_ns_pid(3, 1));
  EXPECT_EQ(Gen.size(), 31u);
  EXPECT_EQ(Snap.size(), 32u);
}

TEST(GeneratedConcurrentTest, AbsentKeyMutationsDoNotClonePinnedShards) {
  expectAbsentKeyMutationsKeepPinnedShards<genconc::sched_ns_concurrent>();
  expectAbsentKeyMutationsKeepPinnedShards<genconc::sched_state_concurrent>();
}

//===----------------------------------------------------------------------===
// The N-key generalization: `transaction bank, acct x 3` compiles
// transact3_by_bank_acct on the ledger facade (settle_tri.relc).
//===----------------------------------------------------------------------===

TEST(GeneratedConcurrentTest, SettleTriSingleThreadSemantics) {
  genconc::ledger_concurrent Ledger;
  ASSERT_TRUE(Ledger.insert(1, 1, 100));
  ASSERT_TRUE(Ledger.insert(2, 1, 200));
  ASSERT_TRUE(Ledger.insert(3, 1, 300));

  // A committed three-way settlement: a pays b and c.
  EXPECT_TRUE(Ledger.transact3_by_bank_acct(
      1, 1, 2, 1, 3, 1,
      [](bool FA, int64_t &A, bool FB, int64_t &B, bool FC, int64_t &C) {
        EXPECT_TRUE(FA && FB && FC);
        A -= 50;
        B += 20;
        C += 30;
        return true;
      }));
  int64_t BalA = -1, BalB = -1, BalC = -1;
  Ledger.all([&](int64_t Bank, int64_t, int64_t Balance) {
    (Bank == 1 ? BalA : Bank == 2 ? BalB : BalC) = Balance;
  });
  EXPECT_EQ(BalA, 50);
  EXPECT_EQ(BalB, 220);
  EXPECT_EQ(BalC, 330);

  // Abort writes nothing.
  EXPECT_FALSE(Ledger.transact3_by_bank_acct(
      1, 1, 2, 1, 3, 1,
      [](bool, int64_t &A, bool, int64_t &B, bool, int64_t &C) {
        A = B = C = -999; // must never land
        return false;
      }));
  int64_t Sum = 0;
  Ledger.all([&](int64_t, int64_t, int64_t Balance) { Sum += Balance; });
  EXPECT_EQ(Sum, 600);

  // An absent side is inserted with whatever the callback leaves.
  EXPECT_TRUE(Ledger.transact3_by_bank_acct(
      1, 1, 2, 1, 4, 7,
      [](bool FA, int64_t &A, bool FB, int64_t &B, bool FC, int64_t &C) {
        EXPECT_TRUE(FA && FB);
        EXPECT_FALSE(FC);
        A -= 5;
        B -= 5;
        C = 10;
        return true;
      }));
  EXPECT_EQ(Ledger.size(), 4u);

  // Duplicate sides are legal: the last write-back wins, exactly like
  // two sequential upserts of the same key.
  EXPECT_TRUE(Ledger.transact3_by_bank_acct(
      1, 1, 1, 1, 2, 1,
      [](bool, int64_t &A, bool, int64_t &A2, bool, int64_t &) {
        A = 11;
        A2 = 17;
        return true;
      }));
  int64_t BalDup = -1;
  Ledger.all([&](int64_t Bank, int64_t Acct, int64_t Balance) {
    if (Bank == 1 && Acct == 1)
      BalDup = Balance;
  });
  EXPECT_EQ(BalDup, 17);
}

/// The serializability stress arm for the 3-key transact: writers race
/// three-way settlements over overlapping accounts; every committed
/// callback moves value between its three sides without creating or
/// destroying any, so the global sum is invariant — lost updates, torn
/// write-backs, or a non-atomic settle break it. Runs under the CI
/// TSan job like the rest of this suite.
TEST(GeneratedConcurrentTest, SettleTriConservesTotalBalance) {
  genconc::ledger_concurrent Ledger;
  const int64_t NumBanks = 8, PerBank = 4, Initial = 1000;
  for (int64_t B = 0; B != NumBanks; ++B)
    for (int64_t A = 0; A != PerBank; ++A)
      ASSERT_TRUE(Ledger.insert(B, A, Initial));
  const int64_t Total = NumBanks * PerBank * Initial;

  const unsigned NumWriters = 4;
  const int Settlements = 1200;
  std::atomic<size_t> Committed{0}, Aborted{0};
  std::vector<std::thread> Writers;
  for (unsigned T = 0; T != NumWriters; ++T)
    Writers.emplace_back([&, T] {
      Rng R(0x5e771e + T);
      for (int I = 0; I != Settlements; ++I) {
        // Three (bank, acct) sides; occasionally a bogus one to
        // exercise the abort path under contention.
        int64_t B1 = R.range(0, NumBanks - 1), A1 = R.range(0, PerBank - 1);
        int64_t B2 = R.range(0, NumBanks - 1), A2 = R.range(0, PerBank - 1);
        bool Bogus = R.chance(0.1);
        int64_t B3 = Bogus ? 99 : R.range(0, NumBanks - 1);
        int64_t A3 = R.range(0, PerBank - 1);
        // Distinct sides only: duplicate keys alias (the later
        // write-back wins, like two upserts of one key), which is
        // well-defined but does not conserve this harness's sum.
        if (B2 == B1 && A2 == A1)
          A2 = (A2 + 1) % PerBank;
        while ((B3 == B1 && A3 == A1) || (B3 == B2 && A3 == A2))
          A3 = (A3 + 1) % PerBank;
        int64_t Pay = R.range(1, 40);
        bool Ok = Ledger.transact3_by_bank_acct(
            B1, A1, B2, A2, B3, A3,
            [&](bool FA, int64_t &BalA, bool FB, int64_t &BalB, bool FC,
                int64_t &BalC) {
              if (!FA || !FB || !FC)
                return false;
              // a pays b and c, capped at a's balance.
              int64_t Moved = Pay < BalA ? Pay : BalA;
              BalA -= Moved;
              BalB += Moved / 2;
              BalC += Moved - Moved / 2;
              return true;
            });
        (Ok ? Committed : Aborted).fetch_add(1,
                                             std::memory_order_relaxed);
      }
    });
  for (std::thread &T : Writers)
    T.join();

  EXPECT_GT(Committed.load(), 0u);
  EXPECT_GT(Aborted.load(), 0u);
  EXPECT_EQ(Ledger.size(), static_cast<size_t>(NumBanks * PerBank));
  int64_t Sum = 0;
  Ledger.all([&](int64_t, int64_t, int64_t Balance) { Sum += Balance; });
  EXPECT_EQ(Sum, Total);
}

TEST(GeneratedConcurrentTest, ZtopoTilesMatchesOracle) {
  // The sequential class of ztopo_tiles.relc (no facade): its
  // remove_by_tile finds the shared w through y and unlinks it from its
  // state's intrusive list by node; update_by_tile is remove + insert.
  genztopo::ztopo_tiles Gen;
  std::map<int64_t, std::array<int64_t, 3>> Oracle; // tile -> state, size, stamp
  Rng R(11);
  for (int Step = 0; Step != 600; ++Step) {
    int64_t Tile = R.range(0, 63);
    std::array<int64_t, 3> Vals = {R.range(0, 2), R.range(1, 9), Step};
    bool Present = Oracle.count(Tile) != 0;
    switch (R.below(3)) {
    case 0:
      if (!Present) {
        EXPECT_TRUE(Gen.insert(Tile, Vals[0], Vals[1], Vals[2]));
        Oracle[Tile] = Vals;
      }
      break;
    case 1:
      EXPECT_EQ(Gen.remove_by_tile(Tile), Present);
      Oracle.erase(Tile);
      break;
    case 2:
      EXPECT_EQ(Gen.update_by_tile(Tile, Vals[0], Vals[1], Vals[2]), Present);
      if (Present)
        Oracle[Tile] = Vals;
      break;
    }
    ASSERT_EQ(Gen.size(), Oracle.size());
    for (int64_t State = 0; State != 3; ++State) {
      std::set<std::array<int64_t, 3>> Got, Want;
      Gen.by_state(State, [&](int64_t T, int64_t Size, int64_t Stamp) {
        EXPECT_TRUE(Got.insert({T, Size, Stamp}).second);
      });
      for (const auto &[T, V] : Oracle)
        if (V[0] == State)
          Want.insert({T, V[1], V[2]});
      ASSERT_EQ(Got, Want) << "state " << State << ", step " << Step;
    }
  }
}

} // namespace
