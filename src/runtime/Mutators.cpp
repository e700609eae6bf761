//===- runtime/Mutators.cpp - dinsert / dremove / dupdate --------------------===//
//
// Part of the RelC data representation synthesis library.
//
//===----------------------------------------------------------------------===//
//
// Containers are probed with borrowed TupleViews of the subject tuple
// (lookup/erase never materialize a key); a key Tuple is built only
// when an entry is actually inserted. Per-node instance tables and the
// match list live in the caller's MutatorScratch, so steady-state
// mutation loops reuse their working storage.
//
//===----------------------------------------------------------------------===//

#include "runtime/Mutators.h"

#include "query/Exec.h"
#include "rel/TupleView.h"
#include "support/Checks.h"

#include <cassert>
#include <vector>

using namespace relc;

namespace {

/// Finds the instance of every X node along full tuple \p T's path,
/// navigating parent containers from the root (parents of X nodes are
/// always X, since no edge crosses Y → X). Results land in \p Inst.
///
/// With \p AllowMissing, unresolvable nodes stay null: while dremove
/// walks its match list, an earlier match that shared path structure
/// with \p T may already have removed parts of T's X path (e.g. two
/// matches differing only below a common crossing entry). Without it,
/// a missing instance is a precondition violation and asserts.
void navigateX(InstanceGraph &G, const Tuple &T, const Cut &C,
               bool AllowMissing, std::vector<NodeInstance *> &Inst) {
  const Decomposition &D = G.decomp();
  Inst.assign(D.numNodes(), nullptr);
  for (NodeId Id : D.topo()) {
    if (C.inY(Id))
      continue;
    if (Id == D.root()) {
      Inst[Id] = G.root();
      continue;
    }
    // Resolve through any incoming edge whose parent survives;
    // adequacy's (AMAP) conditions make all live paths agree.
    for (EdgeId E : D.incoming(Id)) {
      const MapEdge &Edge = D.edge(E);
      NodeInstance *P = Inst[Edge.From];
      if (!P) {
        assert(AllowMissing &&
               "X ancestor instance missing for a represented tuple");
        continue;
      }
      NodeInstance *Child =
          P->edgeMap(Edge.OrdinalInFrom).lookup(TupleView(T, Edge.KeyCols));
      if (!Child) {
        assert(AllowMissing &&
               "X instance missing for a represented tuple");
        continue;
      }
      Inst[Id] = Child;
      break;
    }
  }
}

/// Finds the below-cut instances along full tuple \p T through \p Steps
/// (one of the cut's resolution lists, parents first) into \p YInst.
/// A step whose parent is unresolved or whose entry is gone leaves its
/// node null: in dremove, an earlier match may have severed that part
/// of T's path already.
void resolveY(const Decomposition &D, const Tuple &T, const Cut &C,
              const std::vector<EdgeId> &Steps,
              const std::vector<NodeInstance *> &Inst,
              std::vector<NodeInstance *> &YInst) {
  YInst.assign(D.numNodes(), nullptr);
  for (EdgeId E : Steps) {
    const MapEdge &Edge = D.edge(E);
    NodeInstance *P = C.inY(Edge.From) ? YInst[Edge.From] : Inst[Edge.From];
    if (P)
      YInst[Edge.To] =
          P->edgeMap(Edge.OrdinalInFrom).lookup(TupleView(T, Edge.KeyCols));
  }
}

/// After breaking a tuple's crossing edges, interior X instances may be
/// left representing the empty relation ("devoid of children"); unlink
/// and release them, cascading upward (children come before parents in
/// let order, the root is last and never cleaned).
void cleanupEmptyX(InstanceGraph &G, const Tuple &T, const Cut &C,
                   std::vector<NodeInstance *> &Inst) {
  const Decomposition &D = G.decomp();
  for (NodeId Id = 0; Id + 1 < D.numNodes(); ++Id) {
    if (C.inY(Id))
      continue;
    NodeInstance *N = Inst[Id];
    if (!N || !N->representsEmpty())
      continue;
    for (EdgeId E : D.incoming(Id)) {
      const MapEdge &Edge = D.edge(E);
      if (!Inst[Edge.From])
        continue; // parent branch already removed with an earlier match
      EdgeMap &Map = Inst[Edge.From]->edgeMap(Edge.OrdinalInFrom);
      bool Removed;
      if (dsSupportsEraseByNode(Edge.Ds))
        Removed = Map.eraseNode(N);
      else
        Removed = Map.erase(TupleView(T, Edge.KeyCols)) == N;
      assert(Removed && "parent entry missing during cleanup");
      (void)Removed;
      G.release(N);
    }
    Inst[Id] = nullptr;
  }
}

/// Breaks all edges crossing the cut for one represented tuple \p T,
/// releasing the detached Y-side instances (Fig. 9 right-to-left).
void removeTuple(InstanceGraph &G, const Tuple &T, const Cut &C,
                 MutatorScratch &Scratch) {
  const Decomposition &D = G.decomp();
  navigateX(G, T, C, /*AllowMissing=*/true, Scratch.Inst);

  // Break every crossing edge. A Y node is known before its first
  // break when the cut resolves it up front: its first crossing edge is
  // an intrusive list, so it is found through its Y parent instead (for
  // ztopo's remove-by-tile: x→y hash, then y→w over a tile's states).
  // Otherwise the first break per Y node resolves the child by key.
  // Every break into a known child uses the intrusive fast path (no
  // search) when ψ supports it — this is the payoff of sharing with
  // intrusive containers (Section 6.1): "find node w using either path
  // and remove it from both paths without any additional lookups".
  //
  // A crossing edge may already be broken: one X-side entry (say the
  // root's ns-map entry for a remove-by-ns) covers *all* matching
  // tuples, and an earlier iteration of the per-tuple loop in dremove
  // severed it — releasing the subtree below, so the entry (and
  // possibly the child) is gone. Skipping is sound because the set of
  // matches was collected before any mutation. A child resolved up
  // front stays live until its own last crossing entry is broken: had
  // an earlier match severed that entry, it would have severed the
  // child's Y ancestors' too, and the lookup would have found nothing.
  resolveY(D, T, C, C.RemoveResolve, Scratch.Inst, Scratch.YInst);
  for (EdgeId E : C.CrossingEdges) {
    const MapEdge &Edge = D.edge(E);
    if (!Scratch.Inst[Edge.From])
      continue; // X side already removed along with an earlier match
    EdgeMap &Map = Scratch.Inst[Edge.From]->edgeMap(Edge.OrdinalInFrom);
    NodeInstance *Child = Scratch.YInst[Edge.To];
    if (Child && dsSupportsEraseByNode(Edge.Ds)) {
      if (Map.eraseNode(Child))
        G.release(Child);
    } else if ((Child = Map.erase(TupleView(T, Edge.KeyCols)))) {
      Scratch.YInst[Edge.To] = Child;
      G.release(Child);
    }
  }

  cleanupEmptyX(G, T, C, Scratch.Inst);
}

} // namespace

bool relc::dinsert(InstanceGraph &G, const Tuple &T, MutatorScratch &Scratch) {
  const Decomposition &D = G.decomp();
  assert(T.columns() == D.spec()->columns() &&
         "insert requires a full tuple over the relation's columns");

  std::vector<NodeInstance *> &Inst = Scratch.Inst;
  Inst.assign(D.numNodes(), nullptr);
  bool Changed = false;
  for (NodeId Id : D.topo()) {
    if (Id == D.root()) {
      Inst[Id] = G.root();
      continue;
    }
    const DecompNode &Node = D.node(Id);

    // One probe decides existence: in a well-formed instance a node
    // either has an entry in *every* incoming edge instance or in none
    // (WFMAP's exactness + the sharing conditions of (AMAP)), and a
    // freshly created parent has an empty container — which is also a
    // correct verdict, since an existing child implies all its parents
    // existed before this insert. Probe the cheapest edge.
    EdgeId ProbeE = D.cheapestIncoming(Id);
    const MapEdge &Probe = D.edge(ProbeE);
    assert(Inst[Probe.From] && "parent instance missing in topo insert");
    NodeInstance *N = Inst[Probe.From]
                          ->edgeMap(Probe.OrdinalInFrom)
                          .lookup(TupleView(T, Probe.KeyCols));

    if (!N) {
      N = G.create(Id, T.project(Node.Bound));
      for (PrimId U : D.unitsOf(Id))
        N->setUnitValues(U, T.project(D.prim(U).Cols));
      // A fresh node appears in no container yet: link it through
      // every incoming edge, no pre-lookup required.
      for (EdgeId E : D.incoming(Id)) {
        const MapEdge &Edge = D.edge(E);
        EdgeMap &Map = Inst[Edge.From]->edgeMap(Edge.OrdinalInFrom);
        RELC_EXPENSIVE_ASSERT(!Map.lookup(TupleView(T, Edge.KeyCols)) &&
                              "fresh node already linked");
        Map.insert(T.project(Edge.KeyCols), N);
        N->retain();
      }
      Changed = true;
    } else {
#ifndef NDEBUG
      // Lemma 4(a)'s precondition: the insert preserves the FDs, so an
      // existing instance must already carry exactly these values.
      for (PrimId U : D.unitsOf(Id))
        assert(N->unitValues(U) == T.project(D.prim(U).Cols) &&
               "insert violates the relation's functional dependencies");
#endif
    }
    Inst[Id] = N;
  }
  return Changed;
}

bool relc::dinsert(InstanceGraph &G, const Tuple &T) {
  MutatorScratch Scratch;
  return dinsert(G, T, Scratch);
}

size_t relc::dremove(InstanceGraph &G, const Tuple &Pattern, PlanCache &Plans,
                     MutatorScratch &Scratch) {
  const Decomposition &D = G.decomp();
  ColumnSet All = D.spec()->columns();
  assert(Pattern.columns().subsetOf(All) && "pattern has foreign columns");

  // Locate the full matching tuples first (the mutation below cannot
  // run concurrently with the traversal that finds them). Each match
  // is materialized once, straight from the binding frame.
  const QueryPlan *QP = Plans.plan(Pattern.columns(), All);
  assert(QP && "no valid plan to locate tuples for removal");
  std::vector<Tuple> &Matches = Scratch.Matches;
  Matches.clear();
  execPlan(*QP, G, Pattern, Scratch.Frame, [&](const BindingFrame &F) {
    Matches.push_back(F.toTuple(All));
    return true;
  });
  if (Matches.empty())
    return 0;

  if (Pattern.empty()) {
    // Removing with the empty pattern empties the relation.
    G.clear();
    return Matches.size();
  }

  const Cut &C = Plans.cut(Pattern.columns());
  for (const Tuple &T : Matches)
    removeTuple(G, T, C, Scratch);
  return Matches.size();
}

size_t relc::dremove(InstanceGraph &G, const Tuple &Pattern,
                     PlanCache &Plans) {
  MutatorScratch Scratch;
  return dremove(G, Pattern, Plans, Scratch);
}

size_t relc::dupdate(InstanceGraph &G, const Tuple &Pattern,
                     const Tuple &Changes, PlanCache &Plans,
                     MutatorScratch &Scratch) {
  const Decomposition &D = G.decomp();
  const FuncDeps &Fds = D.spec()->fds();
  ColumnSet All = D.spec()->columns();
  assert(Fds.isKey(Pattern.columns(), All) &&
         "update pattern must be a key for the relation");
  assert(!Pattern.columns().intersects(Changes.columns()) &&
         "update changes must not touch pattern columns");
  assert(Changes.columns().subsetOf(All) && "changes have foreign columns");
  (void)Fds;

  // The pattern is a key: at most one tuple matches.
  const QueryPlan *QP = Plans.plan(Pattern.columns(), All);
  assert(QP && "no valid plan to locate the tuple for update");
  Tuple TOld;
  bool Found = false;
  execPlan(*QP, G, Pattern, Scratch.Frame, [&](const BindingFrame &F) {
    TOld = F.toTuple(All);
    Found = true;
    return false;
  });
  if (!Found)
    return 0;
  Tuple TNew = TOld.merge(Changes);
  if (TNew == TOld)
    return 1;

  const Cut &C = Plans.cut(Pattern.columns());
  std::vector<NodeInstance *> &Inst = Scratch.Inst;
  navigateX(G, TOld, C, /*AllowMissing=*/false, Inst);

  // Resolve the (unique, since the pattern is a key) Y instance of
  // every below-cut node along TOld.
  std::vector<NodeInstance *> &YInst = Scratch.YInst;
  resolveY(D, TOld, C, C.UpdateResolve, Inst, YInst);
#ifndef NDEBUG
  for (EdgeId E : C.UpdateResolve)
    assert(YInst[D.edge(E).To] && "Y instance missing for a represented tuple");
#endif

  // Detach: unlink the below-cut subgraph from its X parents without
  // releasing references — the same instances are reattached below
  // (this is the in-place reuse of Section 4.5).
  for (EdgeId E : C.CrossingEdges) {
    const MapEdge &Edge = D.edge(E);
    EdgeMap &Map = Inst[Edge.From]->edgeMap(Edge.OrdinalInFrom);
    bool Removed;
    if (dsSupportsEraseByNode(Edge.Ds))
      Removed = Map.eraseNode(YInst[Edge.To]);
    else
      Removed = Map.erase(TupleView(TOld, Edge.KeyCols)) == YInst[Edge.To];
    assert(Removed && "crossing entry missing during update detach");
    (void)Removed;
  }

  // Reposition Y-internal entries whose keys change.
  for (EdgeId E = 0; E != D.numEdges(); ++E) {
    const MapEdge &Edge = D.edge(E);
    if (!C.inY(Edge.From) || !Edge.KeyCols.intersects(Changes.columns()))
      continue;
    EdgeMap &Map = YInst[Edge.From]->edgeMap(Edge.OrdinalInFrom);
    NodeInstance *Child = Map.erase(TupleView(TOld, Edge.KeyCols));
    assert(Child == YInst[Edge.To] && "misaligned Y-internal entry");
    Map.insert(TNew.project(Edge.KeyCols), Child);
  }

  // Rewrite bound valuations and affected unit values in place.
  for (NodeId Id = 0; Id != D.numNodes(); ++Id) {
    NodeInstance *N = C.inY(Id) ? YInst[Id] : Inst[Id];
    if (!N)
      continue;
    if (C.inY(Id)) {
      N->setBound(TNew.project(D.node(Id).Bound));
      for (PrimId U : D.unitsOf(Id))
        if (D.prim(U).Cols.intersects(Changes.columns()))
          N->setUnitValues(U, TNew.project(D.prim(U).Cols));
    } else if (!D.node(Id).Bound.intersects(Changes.columns())) {
      // X instance that keeps representing the updated tuple: its units
      // may carry changed columns (the FD precondition guarantees this
      // stays consistent for every other tuple it represents).
      for (PrimId U : D.unitsOf(Id))
        if (D.prim(U).Cols.intersects(Changes.columns()))
          N->setUnitValues(U, TNew.project(D.prim(U).Cols));
    }
  }

  // Reattach along the new tuple's path, creating X instances as
  // needed (bound columns of X nodes may have changed). The graph now
  // represents r \ {t_old}, so the single-probe existence rule of
  // dinsert applies verbatim.
  std::vector<NodeInstance *> &NewInst = Scratch.NewInst;
  NewInst.assign(D.numNodes(), nullptr);
  for (NodeId Id : D.topo()) {
    if (C.inY(Id))
      continue;
    if (Id == D.root()) {
      NewInst[Id] = G.root();
      continue;
    }
    EdgeId ProbeE = D.cheapestIncoming(Id);
    const MapEdge &Probe = D.edge(ProbeE);
    NodeInstance *N = NewInst[Probe.From]
                          ->edgeMap(Probe.OrdinalInFrom)
                          .lookup(TupleView(TNew, Probe.KeyCols));
    if (!N) {
      N = G.create(Id, TNew.project(D.node(Id).Bound));
      for (PrimId U : D.unitsOf(Id))
        N->setUnitValues(U, TNew.project(D.prim(U).Cols));
      for (EdgeId E : D.incoming(Id)) {
        const MapEdge &Edge = D.edge(E);
        EdgeMap &Map = NewInst[Edge.From]->edgeMap(Edge.OrdinalInFrom);
        Map.insert(TNew.project(Edge.KeyCols), N);
        N->retain();
      }
    }
    NewInst[Id] = N;
  }
  for (EdgeId E : C.CrossingEdges) {
    const MapEdge &Edge = D.edge(E);
    EdgeMap &Map = NewInst[Edge.From]->edgeMap(Edge.OrdinalInFrom);
    RELC_EXPENSIVE_ASSERT(
        Map.lookup(TupleView(TNew, Edge.KeyCols)) == nullptr &&
        "update would merge with an existing tuple");
    Map.insert(TNew.project(Edge.KeyCols), YInst[Edge.To]);
    // Reference transferred from the detached entry; no retain.
  }

  // Old X instances that no longer represent anything.
  cleanupEmptyX(G, TOld, C, Inst);
  return 1;
}

size_t relc::dupdate(InstanceGraph &G, const Tuple &Pattern,
                     const Tuple &Changes, PlanCache &Plans) {
  MutatorScratch Scratch;
  return dupdate(G, Pattern, Changes, Plans, Scratch);
}
