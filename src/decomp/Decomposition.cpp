//===- decomp/Decomposition.cpp - The decomposition language ---------------===//
//
// Part of the RelC data representation synthesis library.
//
//===----------------------------------------------------------------------===//

#include "decomp/Decomposition.h"

#include <algorithm>
#include <cassert>

using namespace relc;

std::vector<NodeId> Decomposition::topoOrder() const {
  // Defined via topo() so the parents-first invariant has one source
  // of truth (see TopoRange).
  std::vector<NodeId> Order;
  Order.reserve(Nodes.size());
  for (NodeId Id : topo())
    Order.push_back(Id);
  return Order;
}

EdgeId Decomposition::cheapestIncoming(NodeId Id) const {
  assert(!Incoming[Id].empty() && "the root has no incoming edge");
  EdgeId Best = Incoming[Id].front();
  for (EdgeId E : Incoming[Id])
    if (dsProbeRank(Edges[E].Ds) < dsProbeRank(Edges[Best].Ds))
      Best = E;
  return Best;
}

NodeId Decomposition::nodeByName(std::string_view Name) const {
  for (NodeId Id = 0; Id != numNodes(); ++Id)
    if (Nodes[Id].Name == Name)
      return Id;
  assert(false && "unknown decomposition node name");
  return InvalidIndex;
}

namespace {

/// Canonicalizer: renders a decomposition up to node naming, let order
/// and join nesting/operand order. Joins are associative and
/// commutative both semantically and physically (a node's storage is
/// its set of units and map containers, however the join tree groups
/// them), so a node's primitive is treated as a multiset of leaves.
/// Sharing is preserved through canonical node ids assigned by a DFS
/// that visits each node's leaves in sorted order.
class Canonicalizer {
public:
  Canonicalizer(const Decomposition &D, bool IncludeDs)
      : D(D), IncludeDs(IncludeDs), InlineKeys(D.numNodes()),
        Ids(D.numNodes(), InvalidIndex) {}

  std::string run() {
    assignIds(D.root());
    // Render in canonical-id order.
    std::vector<std::string> Rows(Order.size());
    for (NodeId Node : Order) {
      std::string Row = std::to_string(Ids[Node]) + ":b" +
                        std::to_string(D.node(Node).Bound.mask()) + "=";
      std::vector<std::string> Rendered;
      for (PrimId Leaf : sortedLeaves(Node))
        Rendered.push_back(renderLeaf(Leaf));
      std::sort(Rendered.begin(), Rendered.end());
      for (size_t I = 0; I != Rendered.size(); ++I)
        Row += (I ? "*" : "") + Rendered[I];
      Rows[Ids[Node]] = std::move(Row);
    }
    std::string Out;
    for (const std::string &Row : Rows) {
      Out += Row;
      Out += ";";
    }
    return Out;
  }

private:
  /// Structural key of a node with children fully inlined (ignores
  /// sharing; used only to order siblings deterministically).
  const std::string &inlineKey(NodeId Node) {
    std::string &Key = InlineKeys[Node];
    if (!Key.empty())
      return Key;
    std::vector<std::string> Parts;
    for (PrimId Leaf : leavesOf(Node)) {
      const PrimNode &P = D.prim(Leaf);
      if (P.Kind == PrimKind::Unit) {
        Parts.push_back("u" + std::to_string(P.Cols.mask()));
        continue;
      }
      std::string S = "m" + std::to_string(P.Cols.mask());
      if (IncludeDs)
        S += std::string("/") + dsKindName(P.Ds);
      S += "{" + inlineKey(P.Target) + "}";
      Parts.push_back(std::move(S));
    }
    std::sort(Parts.begin(), Parts.end());
    Key = "b" + std::to_string(D.node(Node).Bound.mask()) + ":";
    for (const std::string &S : Parts)
      Key += S;
    return Key;
  }

  /// Leaves (units and maps) of a node's join tree, in tree order.
  std::vector<PrimId> leavesOf(NodeId Node) {
    std::vector<PrimId> Leaves;
    collect(D.node(Node).Prim, Leaves);
    return Leaves;
  }

  void collect(PrimId P, std::vector<PrimId> &Leaves) {
    const PrimNode &Prim = D.prim(P);
    if (Prim.Kind == PrimKind::Join) {
      collect(Prim.Left, Leaves);
      collect(Prim.Right, Leaves);
      return;
    }
    Leaves.push_back(P);
  }

  /// Leaves ordered by their structural key (stable for ties).
  std::vector<PrimId> sortedLeaves(NodeId Node) {
    std::vector<PrimId> Leaves = leavesOf(Node);
    std::stable_sort(Leaves.begin(), Leaves.end(),
                     [&](PrimId A, PrimId B) {
                       return leafKey(A) < leafKey(B);
                     });
    return Leaves;
  }

  std::string leafKey(PrimId P) {
    const PrimNode &Prim = D.prim(P);
    if (Prim.Kind == PrimKind::Unit)
      return "u" + std::to_string(Prim.Cols.mask());
    std::string S = "m" + std::to_string(Prim.Cols.mask());
    if (IncludeDs)
      S += std::string("/") + dsKindName(Prim.Ds);
    return S + "{" + inlineKey(Prim.Target) + "}";
  }

  void assignIds(NodeId Node) {
    if (Ids[Node] != InvalidIndex)
      return;
    Ids[Node] = static_cast<NodeId>(Order.size());
    Order.push_back(Node);
    for (PrimId Leaf : sortedLeaves(Node)) {
      const PrimNode &P = D.prim(Leaf);
      if (P.Kind == PrimKind::Map)
        assignIds(P.Target);
    }
  }

  std::string renderLeaf(PrimId P) {
    const PrimNode &Prim = D.prim(P);
    if (Prim.Kind == PrimKind::Unit)
      return "u" + std::to_string(Prim.Cols.mask());
    std::string S = "m" + std::to_string(Prim.Cols.mask());
    if (IncludeDs)
      S += std::string("/") + dsKindName(Prim.Ds);
    return S + ">" + std::to_string(Ids[Prim.Target]);
  }

  const Decomposition &D;
  bool IncludeDs;
  std::vector<std::string> InlineKeys;
  std::vector<NodeId> Ids;
  std::vector<NodeId> Order;
};

} // namespace

std::string Decomposition::canonicalString(bool IncludeDs) const {
  return Canonicalizer(*this, IncludeDs).run();
}
