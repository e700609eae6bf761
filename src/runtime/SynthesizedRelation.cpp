//===- runtime/SynthesizedRelation.cpp - Public relation facade --------------===//
//
// Part of the RelC data representation synthesis library.
//
//===----------------------------------------------------------------------===//

#include "runtime/SynthesizedRelation.h"

#include "instance/Abstraction.h"
#include "query/Exec.h"

#include <algorithm>
#include <unordered_set>

using namespace relc;

SynthesizedRelation::SynthesizedRelation(Decomposition D, CostParams Params)
    : D(std::make_shared<Decomposition>(std::move(D))),
      Arena(std::make_shared<SlabArena>()), Plans(this->D, std::move(Params)),
      Graph(this->D, Arena) {
  [[maybe_unused]] AdequacyResult A = checkAdequacy(*this->D);
  assert(A.Ok && "decomposition is not adequate for its specification");
}

bool SynthesizedRelation::insert(const Tuple &T) {
  bool Changed = dinsert(Graph, T, Scratch);
  if (Changed)
    ++Size;
  return Changed;
}

size_t SynthesizedRelation::remove(const Tuple &Pattern) {
  size_t Removed = dremove(Graph, Pattern, Plans, Scratch);
  assert(Removed <= Size && "removed more tuples than were present");
  Size -= Removed;
  return Removed;
}

size_t SynthesizedRelation::update(const Tuple &Pattern,
                                   const Tuple &Changes) {
  return dupdate(Graph, Pattern, Changes, Plans, Scratch);
}

bool SynthesizedRelation::upsert(
    const Tuple &Key, function_ref<void(const BindingFrame *, Tuple &)> Fn) {
  assert(spec()->fds().isKey(Key.columns(), spec()->columns()) &&
         "upsert pattern must be a key");
  ColumnSet Rest = spec()->columns().minus(Key.columns());
  Tuple Values;
  bool Found = false;
  // The pattern is a key: at most one match. Fn runs inside the scan,
  // where the borrowed frame is valid; the mutation itself waits until
  // the scan (and its container iterators) is finished.
  scanFrames(Key, Rest, [&](const BindingFrame &F) {
    Found = true;
    Fn(&F, Values);
    return false;
  });
  if (!Found) {
    Fn(nullptr, Values);
    assert(Values.columns() == Rest &&
           "upsert must bind every non-key column when inserting");
    [[maybe_unused]] bool Changed = insert(Key.merge(Values));
    assert(Changed && "upsert insert collided with an existing tuple");
    return true;
  }
  assert(Values.columns().subsetOf(Rest) &&
         "upsert values must not rebind key columns");
  if (!Values.empty())
    update(Key, Values);
  return false;
}

bool SynthesizedRelation::insertConflictsFds(const Tuple &T,
                                             const Tuple *Exclude) const {
  ColumnSet All = spec()->columns();
  assert(T.columns() == All && "conflict check needs a full tuple");
  // A relation satisfies ∆ iff it satisfies each declared dependency,
  // so probing the declared ones (not the entailed closure) is enough:
  // inserting T violates X → Y iff some live tuple agrees with T on X
  // but not on Y.
  for (const FuncDep &Fd : spec()->fds().deps()) {
    Tuple Probe = T.project(Fd.Lhs);
    Tuple Rhs = T.project(Fd.Rhs);
    bool Conflict = false;
    scanFrames(Probe, All, [&](const BindingFrame &F) {
      Tuple Cur = F.toTuple(All);
      if (Exclude && Cur == *Exclude)
        return true;
      if (!Cur.extends(Rhs)) {
        Conflict = true;
        return false;
      }
      return true;
    });
    if (Conflict)
      return true;
  }
  return false;
}

bool SynthesizedRelation::applyTxOp(const TxOp &Op, std::vector<TxOp> &Undo) {
  ColumnSet All = spec()->columns();
  // The tail of update and found-upsert ops: move the tuple \p Old that
  // key Op.A matched to Old.merge(\p Values), FD-checked, and record
  // the inverse.
  auto UpdateMatch = [&](const Tuple &Old, const Tuple &Values) {
    Tuple Merged = Old.merge(Values);
    if (Merged == Old)
      return true;
    if (insertConflictsFds(Merged, &Old))
      return false;
    update(Op.A, Values);
    Undo.push_back(TxOp::update(Op.A, Old.project(Values.columns())));
    return true;
  };
  switch (Op.Op) {
  case TxOp::Insert: {
    assert(Op.A.columns() == All && "insert must bind every column");
    if (insertConflictsFds(Op.A))
      return false;
    if (insert(Op.A))
      Undo.push_back(TxOp::remove(Op.A));
    return true; // exact duplicate: a committed no-op
  }
  case TxOp::Remove: {
    // Capture the matching tuples before removal; each becomes an
    // inverse insert. Removal never conflicts. (scanFrames does not
    // deduplicate, so collapse plans that reach a tuple twice.)
    std::vector<Tuple> Victims;
    scanFrames(Op.A, All, [&](const BindingFrame &F) {
      Victims.push_back(F.toTuple(All));
      return true;
    });
    std::sort(Victims.begin(), Victims.end());
    Victims.erase(std::unique(Victims.begin(), Victims.end()),
                  Victims.end());
    if (Victims.empty())
      return true;
    [[maybe_unused]] size_t Removed = remove(Op.A);
    assert(Removed == Victims.size() && "scan and remove disagree");
    for (Tuple &V : Victims)
      Undo.push_back(TxOp::insert(std::move(V)));
    return true;
  }
  case TxOp::Update: {
    assert(spec()->fds().isKey(Op.A.columns(), All) &&
           "update pattern must be a key");
    assert(!Op.A.columns().intersects(Op.B.columns()) &&
           "update changes must be disjoint from the pattern");
    Tuple Old;
    bool Found = false;
    scanFrames(Op.A, All, [&](const BindingFrame &F) {
      Old = F.toTuple(All);
      Found = true;
      return false; // the pattern is a key: at most one match
    });
    if (!Found)
      return true; // no match: a committed no-op, as for update()
    return UpdateMatch(Old, Op.B);
  }
  case TxOp::Upsert: {
    assert(spec()->fds().isKey(Op.A.columns(), All) &&
           "upsert pattern must be a key");
    assert((Op.Fn || Op.FnChecked) && "upsert op needs a callback");
    ColumnSet Rest = All.minus(Op.A.columns());
    Tuple Old, Values;
    bool Found = false, Vetoed = false;
    scanFrames(Op.A, Rest, [&](const BindingFrame &F) {
      Found = true;
      Old = F.toTuple(All);
      Vetoed = !Op.runUpsertFn(&F, Values);
      return false; // the pattern is a key: at most one match
    });
    if (Vetoed)
      return false; // checked callback refused: a defined abort
    if (!Found) {
      if (!Op.runUpsertFn(nullptr, Values))
        return false;
      // Unlike the standalone upsert (which asserts), an incomplete
      // insert is a *defined* abort: the callback's way of saying
      // "only proceed if the tuple exists".
      if (Values.columns() != Rest)
        return false;
      Tuple Full = Op.A.merge(Values);
      if (insertConflictsFds(Full))
        return false;
      [[maybe_unused]] bool Changed = insert(Full);
      assert(Changed && "conflict-free upsert insert must change");
      Undo.push_back(TxOp::remove(std::move(Full)));
      return true;
    }
    assert(Values.columns().subsetOf(Rest) &&
           "upsert values must not rebind key columns");
    return UpdateMatch(Old, Values);
  }
  }
  assert(false && "unknown TxOp kind");
  return false;
}

void SynthesizedRelation::applyTxUndo(const TxOp &U) {
  switch (U.Op) {
  case TxOp::Insert: {
    [[maybe_unused]] bool Changed = insert(U.A);
    assert(Changed && "undo insert collided with a live tuple");
    return;
  }
  case TxOp::Remove: {
    // Undo removes are always exact full tuples.
    [[maybe_unused]] size_t Removed = remove(U.A);
    assert(Removed == 1 && "undo remove missed its tuple");
    return;
  }
  case TxOp::Update:
    update(U.A, U.B);
    return;
  case TxOp::Upsert:
    break;
  }
  assert(false && "upserts never appear in undo logs");
}

TxResult SynthesizedRelation::transact(const std::vector<TxOp> &Ops) {
  std::vector<TxOp> Undo;
  for (size_t I = 0; I != Ops.size(); ++I) {
    if (!applyTxOp(Ops[I], Undo)) {
      for (size_t J = Undo.size(); J != 0; --J)
        applyTxUndo(Undo[J - 1]);
      return TxResult{false, I, 0};
    }
  }
  return TxResult{true, 0, 0};
}

TxResult SynthesizedRelation::transact(function_ref<void(TxBatch &)> Build) {
  TxBatch Tx;
  Build(Tx);
  return transact(Tx.ops());
}

std::vector<Tuple> SynthesizedRelation::query(const Tuple &Pattern,
                                              ColumnSet OutputCols) const {
  std::vector<Tuple> Result;
  std::unordered_set<Tuple> Seen;
  // Project straight off the binding frame: one tuple per result, no
  // intermediate full-binding materialization.
  scanFrames(Pattern, OutputCols, [&](const BindingFrame &F) {
    Tuple Projected = F.toTuple(OutputCols);
    if (Seen.insert(Projected).second)
      Result.push_back(std::move(Projected));
    return true;
  });
  return Result;
}

void SynthesizedRelation::scan(const Tuple &Pattern, ColumnSet OutputCols,
                               function_ref<bool(const Tuple &)> Fn) const {
  // One row tuple per scan, refilled from the frame for each result.
  Tuple Row;
  scanFrames(Pattern, OutputCols, [&](const BindingFrame &F) {
    F.toTuple(F.bound(), Row);
    return Fn(Row);
  });
}

void SynthesizedRelation::scanFrames(
    const Tuple &Pattern, ColumnSet OutputCols,
    function_ref<bool(const BindingFrame &)> Fn) const {
  const QueryPlan *Plan = Plans.plan(Pattern.columns(), OutputCols);
  assert(Plan && "no valid plan for this query shape");
  // The frame is a stack local (no heap traffic for catalogs within
  // BindingFrame::InlineColumns), so scans stay reentrant: a scan
  // callback may issue nested scans on the same relation.
  BindingFrame Frame;
  execPlan(*Plan, Graph, Pattern, Frame, Fn);
}

bool SynthesizedRelation::contains(const Tuple &Pattern) const {
  bool Found = false;
  scanFrames(Pattern, ColumnSet(), [&](const BindingFrame &) {
    Found = true;
    return false;
  });
  return Found;
}

void SynthesizedRelation::clear() {
  Graph.clear();
  Size = 0;
}

const QueryPlan *SynthesizedRelation::planFor(ColumnSet InputCols,
                                              ColumnSet OutputCols) const {
  return Plans.plan(InputCols, OutputCols);
}

Relation SynthesizedRelation::abstractionOf() const {
  return abstractInstance(Graph);
}

CostParams SynthesizedRelation::profileCostParams() const {
  // Average container size per edge = total entries / live parent
  // instances, measured by one walk over the instance graph.
  struct Totals {
    double Entries = 0;
    double Parents = 0;
  };
  std::vector<Totals> PerEdge(D->numEdges());
  std::vector<const NodeInstance *> Work = {Graph.root()};
  std::unordered_set<const NodeInstance *> Seen = {Graph.root()};
  while (!Work.empty()) {
    const NodeInstance *N = Work.back();
    Work.pop_back();
    for (EdgeId E : D->outgoing(N->id())) {
      const MapEdge &Edge = D->edge(E);
      const EdgeMap &Map = N->edgeMap(Edge.OrdinalInFrom);
      PerEdge[E].Entries += static_cast<double>(Map.size());
      PerEdge[E].Parents += 1;
      Map.forEach([&](const Tuple &, NodeInstance *Child) {
        if (Seen.insert(Child).second)
          Work.push_back(Child);
        return true;
      });
    }
  }
  CostParams Params = Plans.costParams();
  for (EdgeId E = 0; E != D->numEdges(); ++E)
    if (PerEdge[E].Parents > 0)
      Params.setFanout(E, PerEdge[E].Entries / PerEdge[E].Parents);
  return Params;
}
