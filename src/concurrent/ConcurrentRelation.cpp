//===- concurrent/ConcurrentRelation.cpp - Sharded thread-safe facade --------===//
//
// Part of the RelC data representation synthesis library.
//
//===----------------------------------------------------------------------===//

#include "concurrent/ConcurrentRelation.h"

#include <algorithm>
#include <unordered_set>
#include <utility>

using namespace relc;

namespace {

/// The interpreted facade's shard instances: concurrent reads and
/// deferred reclamation enabled, cloned frame by frame, and detached
/// from the epoch hand-back protocol when frozen.
ShardedFacade<SynthesizedRelation>::ShardOps
shardOps(const Decomposition &Proto) {
  return {[&Proto] {
            auto S =
                std::make_shared<SynthesizedRelation>(Decomposition(Proto));
            S->enableConcurrentReads();
            // Freed node memory outlives the epoch grace period, so a
            // reader racing ahead of its gate check can never touch
            // unmapped memory.
            S->enableDeferredReclamation();
            return S;
          },
          [](const SynthesizedRelation &From, SynthesizedRelation &To) {
            ColumnSet All = From.catalog().allColumns();
            From.scanFrames(Tuple(), All, [&](const BindingFrame &F) {
              [[maybe_unused]] bool Ins = To.insert(F.toTuple(All));
              assert(Ins && "shard clone re-inserted a duplicate");
              return true;
            });
          },
          // In-flight epoch hand-backs from pre-snapshot mutations must
          // not land in the frozen arena's pending stack (no writer will
          // drain it again); detaching bumps the generation so they
          // drop instead.
          [](SynthesizedRelation &Frozen) { Frozen.freezeArena(); }};
}

} // namespace

ConcurrentRelation::ConcurrentRelation(const Decomposition &D,
                                       ConcurrentOptions Opts)
    : Router(Opts.ShardColumn ? *Opts.ShardColumn
                              : ShardRouter::defaultShardColumn(D),
             Opts.NumShards),
      Proto(D), Core(Opts.NumShards, shardOps(Proto)) {
  assert(Router.shardColumn() < D.catalog().size() &&
         "shard column is not a column of the relation");
  FdProbesRoute = true;
  for (const FuncDep &Fd : D.spec()->fds().deps())
    FdProbesRoute &= Fd.Lhs.contains(Router.shardColumn());
}

bool ConcurrentRelation::insert(const Tuple &T) {
  return Core.writeOne(Router.shardOf(T),
                       [&](SynthesizedRelation &W) { return W.insert(T); });
}

size_t ConcurrentRelation::remove(const Tuple &Pattern) {
  auto Holds = [&](const SynthesizedRelation &S) {
    return S.contains(Pattern);
  };
  if (Router.routes(Pattern.columns()))
    return Core.writeOneIf(
        Router.shardOf(Pattern), Holds,
        [&](SynthesizedRelation &W) { return W.remove(Pattern); });
  return Core.writeAll([&] {
    size_t Removed = 0;
    for (unsigned S = 0; S != numShards(); ++S)
      if (SynthesizedRelation *W = Core.writableIf(S, Holds))
        Removed += W->remove(Pattern);
    return Removed;
  });
}

size_t ConcurrentRelation::update(const Tuple &Pattern, const Tuple &Changes) {
  assert(!Pattern.columns().intersects(Changes.columns()) &&
         "update changes must be disjoint from the pattern");
  if (Router.routes(Pattern.columns()))
    // Disjoint from the pattern, the changes cannot rewrite the shard
    // column: the tuple stays in the pattern's shard.
    return Core.writeOneIf(
        Router.shardOf(Pattern),
        [&](const SynthesizedRelation &S) { return S.contains(Pattern); },
        [&](SynthesizedRelation &W) { return W.update(Pattern, Changes); });
  // The pattern is a key, so at most one shard holds a match — but
  // without the shard column which one is unknown, and the changes may
  // rewrite the shard column: take every writer lock (ascending, per
  // the lock order), find the match, then update or migrate it.
  return Core.writeAll([&]() -> size_t {
    Match M = locate(Pattern);
    if (!M.Found)
      return 0;
    rehome(M, Pattern, Changes, nullptr);
    return 1;
  });
}

bool ConcurrentRelation::upsert(
    const Tuple &Key, function_ref<void(const BindingFrame *, Tuple &)> Fn) {
  // The routed path re-checks this inside SynthesizedRelation::upsert;
  // assert here too so the fan-out path catches non-key patterns.
  assert(spec()->fds().isKey(Key.columns(), spec()->columns()) &&
         "upsert pattern must be a key");
  if (Router.routes(Key.columns()))
    // The common case the primitive exists for: the key owns its shard
    // (and, being disjoint from the key, the new values cannot rewrite
    // the shard column), so one writer lock linearizes the whole
    // read-modify-write cycle.
    return Core.writeOne(Router.shardOf(Key), [&](SynthesizedRelation &W) {
      return W.upsert(Key, Fn);
    });
  // The key misses the shard column: the owner is unknown and the new
  // values may rewrite the shard column — the same locate-then-rehome
  // shape as a fan-out update, with an insert for an absent key.
  return Core.writeAll([&] {
    [[maybe_unused]] ColumnSet Rest = catalog().allColumns().minus(
        Key.columns());
    Tuple Values;
    Match M = locate(Key, [&](const BindingFrame &F) {
      Fn(&F, Values);
      return true;
    });
    if (!M.Found) {
      Fn(nullptr, Values);
      assert(Values.columns() == Rest &&
             "upsert must bind every non-key column when inserting");
      Tuple Full = Key.merge(Values);
      Core.writable(Router.shardOf(Full)).insert(Full);
      return true;
    }
    assert(Values.columns().subsetOf(Rest) &&
           "upsert values must not rebind key columns");
    rehome(M, Key, Values, nullptr);
    return false;
  });
}

ConcurrentRelation::Match
ConcurrentRelation::locate(const Tuple &Key,
                           function_ref<bool(const BindingFrame &)> OnMatch)
    const {
  ColumnSet All = catalog().allColumns();
  assert(spec()->fds().isKey(Key.columns(), All) &&
         "a fan-out update or upsert pattern must be a key");
  Match M;
  M.Owner = Core.findShard([&](const SynthesizedRelation &S) {
    S.scanFrames(Key, All, [&](const BindingFrame &F) {
      M.Found = true;
      M.Old = F.toTuple(All);
      M.Vetoed = OnMatch && !OnMatch(F);
      return false; // the pattern is a key: at most one match
    });
    return M.Found;
  });
  return M;
}

void ConcurrentRelation::rehome(const Match &M, const Tuple &Key,
                                const Tuple &Values, UndoLog *Undo) {
  Tuple New = M.Old.merge(Values);
  if (New == M.Old)
    return; // nothing changes: leave a pinned owner uncloned
  unsigned Target = Router.shardOf(New);
  if (Target == M.Owner) {
    [[maybe_unused]] size_t N = Core.writable(M.Owner).update(Key, Values);
    assert(N == 1 && "matched tuple vanished during update");
    if (Undo)
      Undo->emplace_back(M.Owner,
                         TxOp::update(Key, M.Old.project(Values.columns())));
    return;
  }
  // Migration: remove, then reinsert in the new owner. Applied in
  // reverse, the two inverse ops restore the old home.
  [[maybe_unused]] size_t Removed = Core.writable(M.Owner).remove(M.Old);
  assert(Removed == 1 && "matched tuple vanished during migration");
  [[maybe_unused]] bool Ins = Core.writable(Target).insert(New);
  // transact checked the FDs first, so its reinsert must land; a
  // standalone update's FD-violating reinsert may no-op, which the
  // write helper's size delta absorbs.
  assert((Ins || !Undo) && "conflict-free migration insert must change");
  if (Undo) {
    Undo->emplace_back(M.Owner, TxOp::insert(M.Old));
    Undo->emplace_back(Target, TxOp::remove(std::move(New)));
  }
}

std::optional<unsigned> ConcurrentRelation::txRoutedShard(const TxOp &Op) const {
  switch (Op.Op) {
  case TxOp::Insert:
    // Full tuples always bind the shard column; the op still fans out
    // when an FD probe cannot be confined to the owning shard.
    return FdProbesRoute ? std::optional<unsigned>(Router.shardOf(Op.A))
                         : std::nullopt;
  case TxOp::Remove:
    // Removal needs no FD probes: routable whenever the pattern is.
    if (Router.routes(Op.A.columns()))
      return Router.shardOf(Op.A);
    return std::nullopt;
  case TxOp::Update:
    if (Op.B.has(Router.shardColumn()))
      return std::nullopt; // may migrate the tuple between shards
    if (!Router.routes(Op.A.columns()) || !FdProbesRoute)
      return std::nullopt;
    return Router.shardOf(Op.A);
  case TxOp::Upsert:
    // A routed key contains the shard column, and upsert values are
    // disjoint from the key, so the new values cannot rewrite it.
    if (!Router.routes(Op.A.columns()) || !FdProbesRoute)
      return std::nullopt;
    return Router.shardOf(Op.A);
  }
  assert(false && "unknown TxOp kind");
  return std::nullopt;
}

ConcurrentRelation::TxLockPlan
ConcurrentRelation::transactLockPlan(const std::vector<TxOp> &Ops) const {
  TxLockPlan Plan;
  for (const TxOp &Op : Ops) {
    std::optional<unsigned> S = txRoutedShard(Op);
    if (!S) {
      Plan.AllShards = true;
      Plan.Stripes.clear();
      for (unsigned I = 0; I != Router.numShards(); ++I)
        Plan.Stripes.push_back(I);
      return Plan;
    }
    Plan.Stripes.push_back(*S);
  }
  std::sort(Plan.Stripes.begin(), Plan.Stripes.end());
  Plan.Stripes.erase(std::unique(Plan.Stripes.begin(), Plan.Stripes.end()),
                     Plan.Stripes.end());
  return Plan;
}

TxResult ConcurrentRelation::transact(const std::vector<TxOp> &Ops) {
  TxLockPlan Plan = transactLockPlan(Ops);
  // All-stripe and stripe-set acquisitions share the ascending order,
  // so mixed transactions cannot deadlock.
  return withTxLocks(Plan,
                     [&] { return transactPreLocked(Ops, Plan.Stripes); });
}

TxResult ConcurrentRelation::transact(function_ref<void(TxBatch &)> Build) {
  TxBatch Tx;
  Build(Tx);
  return transact(Tx.ops());
}

TxResult
ConcurrentRelation::transactPreLocked(const std::vector<TxOp> &Ops,
                                      const std::vector<unsigned> &Scope) {
  ColumnSet All = catalog().allColumns();
  auto ScopeSize = [&] {
    size_t N = 0;
    for (unsigned S : Scope)
      N += Core.shard(S).size();
    return N;
  };
  [[maybe_unused]] size_t Before = ScopeSize();

  // One undo log across shards: (shard, inverse op), applied in
  // reverse on abort.
  UndoLog Undo;
  std::vector<TxOp> Tmp;

  // When a durability hook is armed, every applied op also derives its
  // REDO: the concrete state change, read off the undo delta the op
  // just produced (an inverse remove marks an insert of exactly that
  // tuple; an inverse insert marks a removal; an inverse update marks
  // an update whose new values are re-read from the live tuple). The
  // redo ops carry no callbacks — upserts resolve to the write they
  // performed — so they serialize byte-for-byte, and replaying them in
  // ticket order reproduces every intermediate state of the original
  // execution (which is why recovery replay can never abort).
  const bool HookArmed = static_cast<bool>(Hook);
  std::vector<TxOp> Redo;
  auto DeriveRedo = [&](const TxOp &Op, size_t UndoStart) {
    if (!HookArmed)
      return;
    for (size_t J = UndoStart; J != Undo.size(); ++J) {
      unsigned S = Undo[J].first;
      const TxOp &U = Undo[J].second;
      switch (U.Op) {
      case TxOp::Remove: // inverse of an insert of exactly U.A
        Redo.push_back(TxOp::insert(U.A));
        break;
      case TxOp::Insert: // inverse of a removal of exactly U.A
        Redo.push_back(TxOp::remove(U.A));
        break;
      case TxOp::Update: {
        // Inverse update: re-read the tuple for the values just
        // written (U.B holds the old ones over the same columns).
        Tuple Now;
        [[maybe_unused]] bool Found = false;
        Core.shard(S).scanFrames(Op.A, All, [&](const BindingFrame &F) {
          Now = F.toTuple(All);
          Found = true;
          return false; // the pattern is a key: at most one match
        });
        assert(Found && "updated tuple vanished before redo derivation");
        Redo.push_back(TxOp::update(Op.A, Now.project(U.B.columns())));
        break;
      }
      case TxOp::Upsert:
        assert(false && "upserts never appear in undo logs");
        break;
      }
    }
  };
  auto ApplyOn = [&](unsigned S, const TxOp &Op) {
    Tmp.clear();
    bool Ok = Core.writable(S).applyTxOp(Op, Tmp);
    for (TxOp &U : Tmp)
      Undo.emplace_back(S, std::move(U));
    return Ok;
  };
  // Cross-shard FD conflict check for the fan-out path. When probes
  // route, the owning shard sees every possible witness; otherwise
  // every stripe is held (fan-out mode) and all shards are consulted.
  auto Conflicts = [&](const Tuple &T, const Tuple *Exclude) {
    if (FdProbesRoute)
      return Core.shard(Router.shardOf(T)).insertConflictsFds(T, Exclude);
    return Core.findShard([&](const SynthesizedRelation &S) {
             return S.insertConflictsFds(T, Exclude);
           }) != numShards();
  };

  size_t Failed = Ops.size();
  for (size_t I = 0; I != Ops.size() && Failed == Ops.size(); ++I) {
    const TxOp &Op = Ops[I];
    size_t UndoStart = Undo.size();
    if (std::optional<unsigned> S = txRoutedShard(Op)) {
      // Routed: ownership confines matches — and, via FdProbesRoute,
      // conflict witnesses — to one shard, so the sequential engine's
      // per-shard apply is the whole story.
      if (!ApplyOn(*S, Op))
        Failed = I;
      else
        DeriveRedo(Op, UndoStart);
      continue;
    }
    // Fan-out: every stripe is held (the lock plan degraded to
    // AllShards the moment any op could not route).
    switch (Op.Op) {
    case TxOp::Insert: {
      assert(Op.A.columns() == All && "insert must bind every column");
      if (Conflicts(Op.A, nullptr)) {
        Failed = I;
        break;
      }
      // The global check already validated the FDs: mutate directly
      // rather than through applyTxOp, whose local re-check would
      // repeat every probe while all writer stripes are held.
      unsigned S = Router.shardOf(Op.A);
      if (Core.writable(S).insert(Op.A))
        Undo.emplace_back(S, TxOp::remove(Op.A));
      break;
    }
    case TxOp::Remove:
      // A routable pattern was routed above: this one may match in
      // every shard.
      for (unsigned S = 0; S != numShards(); ++S)
        if (Core.shard(S).contains(Op.A)) // don't COW-clone a missed shard
          ApplyOn(S, Op);
      break;
    case TxOp::Update:
    case TxOp::Upsert: {
      // The key pattern matches at most one tuple, in an unknown shard,
      // and the new values may rewrite the shard column. An update's
      // values are its changes; an upsert's come from its callback,
      // which runs exactly once: on the live frame of the match, or on
      // nullptr after every shard missed.
      const bool IsUpsert = Op.Op == TxOp::Upsert;
      ColumnSet Rest = All.minus(Op.A.columns());
      assert((IsUpsert || !Op.A.columns().intersects(Op.B.columns())) &&
             "update changes must be disjoint from the pattern");
      Tuple FnValues;
      const Tuple &Values = IsUpsert ? FnValues : Op.B;
      Match M = IsUpsert ? locate(Op.A,
                                  [&](const BindingFrame &F) {
                                    return Op.runUpsertFn(&F, FnValues);
                                  })
                         : locate(Op.A);
      if (M.Vetoed) {
        Failed = I; // checked callback refused: a defined abort
        break;
      }
      if (!M.Found) {
        if (!IsUpsert)
          break; // no match: a committed no-op
        // A veto, or an absent key left under-bound (the conditional
        // abort of TxOp::Fn), aborts the batch.
        if (!Op.runUpsertFn(nullptr, FnValues) ||
            FnValues.columns() != Rest) {
          Failed = I;
          break;
        }
        Tuple Full = Op.A.merge(FnValues);
        if (Conflicts(Full, nullptr)) {
          Failed = I;
          break;
        }
        unsigned Target = Router.shardOf(Full);
        [[maybe_unused]] bool Ins = Core.writable(Target).insert(Full);
        assert(Ins && "conflict-free upsert insert must change");
        Undo.emplace_back(Target, TxOp::remove(std::move(Full)));
        break;
      }
      assert(Values.columns().subsetOf(Rest) &&
             "new values must not rebind key columns");
      Tuple Merged = M.Old.merge(Values);
      if (Merged == M.Old)
        break;
      if (Conflicts(Merged, &M.Old)) {
        Failed = I;
        break;
      }
      // Validated above: mutate without applyTxOp's redundant re-scan
      // and re-probe.
      rehome(M, Op.A, Values, &Undo);
      break;
    }
    }
    if (Failed == Ops.size())
      DeriveRedo(Op, UndoStart);
  }

  if (Failed != Ops.size()) {
    // Every undo entry names a shard the forward pass just mutated, so
    // writable() is a no-op pin check here — no clone can occur.
    for (size_t J = Undo.size(); J != 0; --J)
      Core.writable(Undo[J - 1].first).applyTxUndo(Undo[J - 1].second);
    assert(ScopeSize() == Before && "rollback did not restore the sizes");
    return TxResult{false, Failed, 0};
  }
  // The ticket is drawn while every touched stripe is still held (the
  // linearization point), so conflicting transactions — whose stripe
  // sets intersect — are ticketed in their serialization order. With a
  // durability hook armed, the draw and the hook call are one atomic
  // step under the hook mutex: even transactions on DISJOINT stripes
  // (which no lock orders) reach the log in ticket order.
  uint64_t Ticket;
  if (HookArmed && !Redo.empty()) {
    std::lock_guard<std::mutex> HookLock(HookMu);
    Ticket = TxTickets.fetch_add(1, std::memory_order_relaxed);
    Hook(Ticket, Redo);
  } else {
    Ticket = TxTickets.fetch_add(1, std::memory_order_relaxed);
  }
  return TxResult{true, 0, Ticket};
}

std::vector<Tuple> ConcurrentRelation::query(const Tuple &Pattern,
                                             ColumnSet OutputCols) const {
  std::vector<Tuple> Result;
  std::unordered_set<Tuple> Seen;
  // One Seen set across every shard: a projection that drops the shard
  // column can surface the same result tuple from several shards, and
  // query's contract is set semantics.
  scanFrames(Pattern, OutputCols, [&](const BindingFrame &F) {
    Tuple Projected = F.toTuple(OutputCols);
    if (Seen.insert(Projected).second)
      Result.push_back(std::move(Projected));
    return true;
  });
  return Result;
}

void ConcurrentRelation::scan(const Tuple &Pattern, ColumnSet OutputCols,
                              function_ref<bool(const Tuple &)> Fn) const {
  scanFrames(Pattern, OutputCols, [&](const BindingFrame &F) {
    return Fn(F.toTuple(F.bound()));
  });
}

void ConcurrentRelation::scanFrames(
    const Tuple &Pattern, ColumnSet OutputCols,
    function_ref<bool(const BindingFrame &)> Fn) const {
  // NOTE: the callback runs inside a shard's epoch section (or under
  // its reader lock on the fallback path), so unlike the sequential
  // engine's reentrant scans it must not issue operations on this
  // ConcurrentRelation (a nested mutation deadlocks against its own
  // section or lock), and it must not block indefinitely (a stalled
  // section stalls writer fences).
  if (Router.routes(Pattern.columns())) {
    Core.readOne(Router.shardOf(Pattern), [&](const SynthesizedRelation &S) {
      S.scanFrames(Pattern, OutputCols, Fn);
    });
    return;
  }
  bool Stopped = false;
  Core.readEach([&](const SynthesizedRelation &S) {
    S.scanFrames(Pattern, OutputCols, [&](const BindingFrame &F) {
      Stopped = !Fn(F);
      return !Stopped;
    });
    return !Stopped;
  });
}

void ConcurrentRelation::scanFramesParallel(
    const Tuple &Pattern, ColumnSet OutputCols,
    function_ref<bool(const BindingFrame &)> Fn) const {
  // Routed patterns touch one shard: nothing to fan out.
  if (Router.routes(Pattern.columns())) {
    scanFrames(Pattern, OutputCols, Fn);
    return;
  }
  // Frames are copied to cross threads — the price of the hand-off;
  // the borrowed-frame zero-allocation contract still holds per shard,
  // and frames over catalogs within BindingFrame::InlineColumns copy
  // without heap traffic.
  Core.parallelScan<BindingFrame>(
      [&](const SynthesizedRelation &S, auto &Push) {
        S.scanFrames(Pattern, OutputCols, [&](const BindingFrame &F) {
          return Push(BindingFrame(F));
        });
      },
      Fn);
}

void ConcurrentRelation::scanParallel(const Tuple &Pattern,
                                      ColumnSet OutputCols,
                                      function_ref<bool(const Tuple &)> Fn) const {
  scanFramesParallel(Pattern, OutputCols, [&](const BindingFrame &F) {
    return Fn(F.toTuple(F.bound()));
  });
}

bool ConcurrentRelation::contains(const Tuple &Pattern) const {
  bool Found = false;
  scanFrames(Pattern, ColumnSet(), [&](const BindingFrame &) {
    Found = true;
    return false;
  });
  return Found;
}

void ConcurrentRelation::clear() { Core.clear(); }

ConcurrentRelation::Snapshot ConcurrentRelation::snapshot() const {
  // The commit ticket belongs to the same cut as the shard pointers:
  // writers hold their stripes across mutation and ticket draw, and
  // the core reads both under its all-stripe shared hold.
  Snapshot Snap;
  Snap.Pinned = Core.snapshot([&] {
    Snap.Ticket = TxTickets.load(std::memory_order_relaxed) - 1;
  });
  return Snap;
}

void ConcurrentRelation::Snapshot::scanFrames(
    const Tuple &Pattern, ColumnSet OutputCols,
    function_ref<bool(const BindingFrame &)> Fn) const {
  bool Stopped = false;
  for (unsigned I = 0; I != numShards() && !Stopped; ++I)
    shard(I).scanFrames(Pattern, OutputCols, [&](const BindingFrame &F) {
      Stopped = !Fn(F);
      return !Stopped;
    });
}

Relation ConcurrentRelation::Snapshot::toRelation() const {
  assert(valid() && "toRelation on an empty snapshot handle");
  Relation Result(shard(0).catalog().allColumns());
  for (unsigned I = 0; I != numShards(); ++I)
    Result.unionIn(shard(I).toRelation());
  return Result;
}

size_t ConcurrentRelation::Snapshot::liveInstances() const {
  size_t Live = 0;
  for (unsigned I = 0; I != numShards(); ++I)
    Live += shard(I).liveInstances();
  return Live;
}

Relation ConcurrentRelation::toRelation() const {
  // The stripes are held only for snapshot()'s O(shards) pointer grab;
  // the O(n) extraction runs against the pinned handle, lock-free.
  return snapshot().toRelation();
}

size_t ConcurrentRelation::liveInstances() const {
  return snapshot().liveInstances();
}

void ConcurrentRelation::reoptimize() {
  // The writer fence also drains wait-free readers, who may hold
  // pointers into the plan caches this replaces; snapshot-pinned
  // shards are COW-cloned first (their plan caches are shared with the
  // handles).
  Core.writeAll([&] {
    for (unsigned S = 0; S != numShards(); ++S)
      Core.writable(S).reoptimize();
  });
}
