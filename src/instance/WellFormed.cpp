//===- instance/WellFormed.cpp - Well-formedness of instances ---------------===//
//
// Part of the RelC data representation synthesis library.
//
//===----------------------------------------------------------------------===//

#include "instance/WellFormed.h"

#include "instance/Abstraction.h"

#include <map>
#include <unordered_map>
#include <unordered_set>

using namespace relc;

namespace {

class WfChecker {
public:
  explicit WfChecker(const InstanceGraph &G) : G(G), D(G.decomp()) {}

  WfResult run() {
    NodeInstance *Root = G.root();
    if (Root->id() != D.root())
      return WfResult::failure("root instance is not of the root node");
    if (!Root->bound().empty())
      return WfResult::failure("root instance binds columns");

    WfResult R = visit(Root);
    if (!R.Ok)
      return R;

    // Reference counts: the graph holds one reference on the root, each
    // container entry holds one on its child.
    for (const auto &[N, Count] : IncomingRefs) {
      unsigned Expected = Count + (N == Root ? 1 : 0);
      if (N->refCount() != Expected)
        return WfResult::failure(
            "refcount mismatch on node '" + N->node().Name + "': have " +
            std::to_string(N->refCount()) + ", expected " +
            std::to_string(Expected));
    }
    return WfResult::success();
  }

private:
  WfResult visit(NodeInstance *N) {
    IncomingRefs.try_emplace(N, 0);
    if (!Visited.insert(N).second)
      return WfResult::success();

    const DecompNode &Node = D.node(N->id());

    // (WFLET): the bound valuation covers exactly B.
    if (N->bound().columns() != Node.Bound)
      return WfResult::failure(
          "instance of '" + Node.Name + "' binds " +
          D.catalog().setToString(N->bound().columns()) + ", declared " +
          D.catalog().setToString(Node.Bound));

    // Canonical sharing: one instance per (node, valuation).
    auto [It, Fresh] =
        Canonical.try_emplace(std::make_pair(N->id(), N->bound()), N);
    if (!Fresh && It->second != N)
      return WfResult::failure("duplicate instance of node '" + Node.Name +
                               "' for valuation " +
                               N->bound().str(D.catalog()));

    // (WFUNIT): stored unit tuples cover exactly their columns.
    for (PrimId U : D.unitsOf(N->id()))
      if (N->unitValues(U).columns() != D.prim(U).Cols)
        return WfResult::failure(
            "unit of node '" + Node.Name + "' stores " +
            N->unitValues(U).str(D.catalog()) + ", declared columns " +
            D.catalog().setToString(D.prim(U).Cols));

    // (WFMAP) per outgoing edge.
    for (EdgeId E : D.outgoing(N->id())) {
      const MapEdge &Edge = D.edge(E);
      const EdgeMap &Map = N->edgeMap(Edge.OrdinalInFrom);
      WfResult R = WfResult::success();
      Map.forEach([&](const Tuple &Key, NodeInstance *Child) {
        R = checkEntry(N, Edge, Key, Child);
        return R.Ok;
      });
      if (!R.Ok)
        return R;
    }

    // (WFJOIN) for every join in the primitive tree.
    WfResult R = checkJoins(N, Node.Prim);
    if (!R.Ok)
      return R;

    // Recurse.
    for (EdgeId E : D.outgoing(N->id())) {
      const MapEdge &Edge = D.edge(E);
      WfResult Sub = WfResult::success();
      N->edgeMap(Edge.OrdinalInFrom)
          .forEach([&](const Tuple &, NodeInstance *Child) {
            Sub = visit(Child);
            return Sub.Ok;
          });
      if (!Sub.Ok)
        return Sub;
    }
    return WfResult::success();
  }

  WfResult checkEntry(NodeInstance *Parent, const MapEdge &Edge,
                      const Tuple &Key, NodeInstance *Child) {
    ++IncomingRefs[Child];

    if (Key.columns() != Edge.KeyCols)
      return WfResult::failure(
          "entry key " + Key.str(D.catalog()) + " does not cover edge key "
          "columns " + D.catalog().setToString(Edge.KeyCols));

    if (Child->id() != Edge.To)
      return WfResult::failure("edge entry points at an instance of the "
                               "wrong node");

    // The child's valuation must agree with the path that reached it.
    Tuple PathBound = Parent->bound().merge(Key);
    if (!Child->bound().extends(PathBound))
      return WfResult::failure(
          "child of '" + Parent->node().Name + "' bound " +
          Child->bound().str(D.catalog()) + " does not extend path "
          "valuation " + PathBound.str(D.catalog()));

    // (WFMAP): t ∼ α(v_t').
    Relation ChildRel = abstractNode(Child);
    for (const Tuple &T : ChildRel.tuples())
      if (!T.matches(Key))
        return WfResult::failure(
            "entry key " + Key.str(D.catalog()) + " conflicts with child "
            "tuple " + T.str(D.catalog()));
    return WfResult::success();
  }

  WfResult checkJoins(NodeInstance *N, PrimId Id) {
    const PrimNode &P = D.prim(Id);
    if (P.Kind != PrimKind::Join)
      return WfResult::success();
    WfResult L = checkJoins(N, P.Left);
    if (!L.Ok)
      return L;
    WfResult R = checkJoins(N, P.Right);
    if (!R.Ok)
      return R;

    // (WFJOIN): no dangling tuples on either side.
    Relation R1 = alphaPrim(N, P.Left);
    Relation R2 = alphaPrim(N, P.Right);
    ColumnSet Common = R1.columns().intersect(R2.columns());
    if (R1.project(Common) != R2.project(Common))
      return WfResult::failure(
          "join sides of node '" + N->node().Name + "' disagree: " +
          R1.str(D.catalog()) + " vs " + R2.str(D.catalog()));
    return WfResult::success();
  }

  /// α of one primitive subtree of a node (the Abstraction module only
  /// exposes whole nodes).
  Relation alphaPrim(NodeInstance *N, PrimId Id) {
    const PrimNode &P = D.prim(Id);
    switch (P.Kind) {
    case PrimKind::Unit: {
      Relation R(P.Cols);
      R.insert(N->unitValues(Id));
      return R;
    }
    case PrimKind::Map: {
      const MapEdge &Edge = D.edge(P.Edge);
      Relation Result(P.Cols.unionWith(D.node(P.Target).Defines));
      N->edgeMap(Edge.OrdinalInFrom)
          .forEach([&](const Tuple &Key, NodeInstance *Child) {
            Relation KeyRel(Key.columns());
            KeyRel.insert(Key);
            Result.unionIn(Relation::join(KeyRel, abstractNode(Child)));
            return true;
          });
      return Result;
    }
    case PrimKind::Join:
      return Relation::join(alphaPrim(N, P.Left), alphaPrim(N, P.Right));
    }
    assert(false && "unknown PrimKind");
    return Relation();
  }

  const InstanceGraph &G;
  const Decomposition &D;
  std::unordered_set<const NodeInstance *> Visited;
  std::map<std::pair<NodeId, Tuple>, NodeInstance *> Canonical;
  std::unordered_map<NodeInstance *, unsigned> IncomingRefs;
};

} // namespace

WfResult relc::checkWellFormed(const InstanceGraph &G) {
  return WfChecker(G).run();
}
