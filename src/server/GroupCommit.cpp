//===- server/GroupCommit.cpp - Batched durable commit --------------------===//
//
// Part of the RelC data representation synthesis library.
//
//===----------------------------------------------------------------------===//

#include "server/GroupCommit.h"

#include <algorithm>
#include <cassert>

using namespace relc;

GroupCommit::GroupCommit(ConcurrentRelation &Rel, Wal *Log, Options Opts)
    : Rel(Rel), Log(Log), Opts(Opts) {
  assert(Opts.MaxGroup > 0 && "a commit group holds at least one txn");
  AllStripes.resize(Rel.numShards());
  for (unsigned I = 0; I != Rel.numShards(); ++I)
    AllStripes[I] = I;
}

GroupCommit::~GroupCommit() { stop(); }

void GroupCommit::start() {
  std::lock_guard<std::mutex> Lock(Mu);
  assert(!Started && "start() is one-shot");
  Started = true;
  Committer = std::thread([this] { run(); });
}

void GroupCommit::stop() {
  {
    std::lock_guard<std::mutex> Lock(Mu);
    if (!Started || Stopping)
      return;
    Stopping = true;
  }
  Cv.notify_all();
  Committer.join();
}

void GroupCommit::submit(std::vector<TxOp> Ops, DoneFn Done) {
  Item It;
  It.Plan = Rel.transactLockPlan(Ops); // lock-free; off the committer
  It.Ops = std::move(Ops);
  It.Done = std::move(Done);
  {
    std::lock_guard<std::mutex> Lock(Mu);
    ++Stats.Submitted;
    Queue.push_back(std::move(It));
  }
  Cv.notify_all();
}

void GroupCommit::barrier(std::function<void()> Fn) {
  Item It;
  It.BarrierFn = std::move(Fn);
  {
    std::lock_guard<std::mutex> Lock(Mu);
    Queue.push_back(std::move(It));
  }
  Cv.notify_all();
}

void GroupCommit::pause() {
  std::lock_guard<std::mutex> Lock(Mu);
  Paused = true;
}

void GroupCommit::resume() {
  {
    std::lock_guard<std::mutex> Lock(Mu);
    Paused = false;
  }
  Cv.notify_all();
}

GroupCommitStats GroupCommit::stats() const {
  std::lock_guard<std::mutex> Lock(Mu);
  return Stats;
}

/// Whether \p Plan can join a group whose footprint is \p Union
/// (growing \p Union on success). Policy, not correctness — see the
/// header comment.
static bool foldInto(ConcurrentRelation::TxLockPlan &Union,
                     const ConcurrentRelation::TxLockPlan &Plan) {
  if (Union.AllShards)
    return true; // the group already holds everything
  if (Plan.AllShards)
    return false; // don't widen a routed group to a full sweep
  // Plan.Stripes and Union.Stripes are both sorted ascending.
  bool Subset = std::includes(Union.Stripes.begin(), Union.Stripes.end(),
                              Plan.Stripes.begin(), Plan.Stripes.end());
  if (Subset)
    return true;
  std::vector<unsigned> Inter;
  std::set_intersection(Union.Stripes.begin(), Union.Stripes.end(),
                        Plan.Stripes.begin(), Plan.Stripes.end(),
                        std::back_inserter(Inter));
  if (!Inter.empty())
    return false; // partial overlap: end the group, keep FIFO
  std::vector<unsigned> Merged;
  std::merge(Union.Stripes.begin(), Union.Stripes.end(),
             Plan.Stripes.begin(), Plan.Stripes.end(),
             std::back_inserter(Merged));
  Union.Stripes = std::move(Merged);
  return true;
}

void GroupCommit::run() {
  for (;;) {
    std::deque<Item> Local;
    {
      std::unique_lock<std::mutex> Lock(Mu);
      Cv.wait(Lock, [this] {
        return Stopping || (!Paused && !Queue.empty());
      });
      if (Queue.empty() && Stopping)
        return;
      // On stop, drain even while paused — submitted work always
      // completes (and its Done always fires) before join.
      Local.swap(Queue);
    }
    size_t I = 0;
    while (I != Local.size()) {
      if (Local[I].BarrierFn) {
        Local[I].BarrierFn();
        ++I;
        continue;
      }
      std::vector<Item> Group;
      ConcurrentRelation::TxLockPlan Union = Local[I].Plan;
      Group.push_back(std::move(Local[I]));
      ++I;
      while (I != Local.size() && Group.size() < Opts.MaxGroup &&
             !Local[I].BarrierFn && foldInto(Union, Local[I].Plan)) {
        Group.push_back(std::move(Local[I]));
        ++I;
      }
      // Apply under one acquisition of the union footprint. The scope
      // handed to each member is the whole footprint: a superset of
      // the member's own plan, which transactPreLocked accepts (size
      // accounting spans the scope either way).
      const std::vector<unsigned> &Scope =
          Union.AllShards ? AllStripes : Union.Stripes;
      std::vector<TxResult> Results(Group.size());
      Rel.withTxLocks(Union, [&] {
        for (size_t G = 0; G != Group.size(); ++G)
          Results[G] = Rel.transactPreLocked(Group[G].Ops, Scope);
      });
      // One sync covers every commit in the group.
      size_t NumCommitted = 0;
      for (const TxResult &R : Results)
        NumCommitted += R.Committed;
      bool Durable = true;
      bool Synced = false;
      if (Log && NumCommitted != 0) {
        Durable = Log->sync();
        Synced = true;
      }
      // Stats first, completions second: an observer that has seen a
      // member's ack (sent from its Done) must also see the group in
      // stats(), or a stats read racing the committer reports a state
      // where acked commits belong to no group.
      {
        std::lock_guard<std::mutex> Lock(Mu);
        ++Stats.Groups;
        Stats.Committed += NumCommitted;
        Stats.Aborted += Group.size() - NumCommitted;
        Stats.MultiTxGroups += Group.size() > 1;
        Stats.MaxGroupSize = std::max<uint64_t>(Stats.MaxGroupSize,
                                                Group.size());
        Stats.Syncs += Synced;
        Stats.SyncFailures += Synced && !Durable;
      }
      for (size_t G = 0; G != Group.size(); ++G)
        if (Group[G].Done)
          Group[G].Done(Results[G],
                        Results[G].Committed ? Durable : true);
    }
  }
}
