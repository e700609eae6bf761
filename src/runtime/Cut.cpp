//===- runtime/Cut.cpp - Decomposition cuts ----------------------------------===//
//
// Part of the RelC data representation synthesis library.
//
//===----------------------------------------------------------------------===//

#include "runtime/Cut.h"

#include <cassert>

using namespace relc;

Cut relc::computeCut(const Decomposition &D, ColumnSet PatternCols) {
  Cut Result;
  Result.PatternCols = PatternCols;
  Result.InY.resize(D.numNodes());
  const FuncDeps &Fds = D.spec()->fds();
  for (NodeId Id = 0; Id != D.numNodes(); ++Id)
    Result.InY[Id] = Fds.implies(D.node(Id).Bound, PatternCols);
  for (EdgeId E = 0; E != D.numEdges(); ++E) {
    const MapEdge &Edge = D.edge(E);
    // Adequacy: a child binds at least its parent's columns, so the FD
    // B_child → C follows from B_parent → C; edges never cross Y → X.
    assert(!(Result.InY[Edge.From] && !Result.InY[Edge.To]) &&
           "cut violated: edge from Y into X");
    if (Result.crossing(Edge))
      Result.CrossingEdges.push_back(E);
  }

  // Per Y node: the edge that resolves it, and whether dremove gains by
  // resolving it up front. It does when the node has a Y parent to be
  // found through and its first crossing edge is an intrusive list,
  // whose key erase is a linear search but whose eraseNode is O(1). (An
  // intrusive tree's eraseNode re-finds the hook's key, so resolving
  // first buys it nothing.)
  unsigned N = D.numNodes();
  std::vector<EdgeId> Via(N, InvalidIndex);
  std::vector<bool> Needed(N, false);
  for (NodeId Id = 0; Id != N; ++Id) {
    if (!Result.InY[Id] || D.incoming(Id).empty())
      continue;
    Via[Id] = D.cheapestIncoming(Id);
    bool HasYParent = false;
    for (EdgeId E : D.incoming(Id)) {
      if (!Result.InY[D.edge(E).From])
        continue;
      if (!HasYParent ||
          dsProbeRank(D.edge(E).Ds) < dsProbeRank(D.edge(Via[Id]).Ds))
        Via[Id] = E;
      HasYParent = true;
    }
    for (EdgeId E : Result.CrossingEdges)
      if (D.edge(E).To == Id) {
        Needed[Id] = HasYParent && D.edge(E).Ds == DsKind::IList;
        break;
      }
  }
  // Children come before parents in let order, so one ascending pass
  // marks the Y ancestors a needed node is found through.
  for (NodeId Id = 0; Id != N; ++Id)
    if (Needed[Id] && Result.InY[D.edge(Via[Id]).From])
      Needed[D.edge(Via[Id]).From] = true;
  for (NodeId Id : D.topo()) {
    if (Via[Id] == InvalidIndex)
      continue;
    Result.UpdateResolve.push_back(Via[Id]);
    if (Needed[Id])
      Result.RemoveResolve.push_back(Via[Id]);
  }
  return Result;
}
