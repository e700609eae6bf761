//===- instance/Abstraction.cpp - The abstraction function α ----------------===//
//
// Part of the RelC data representation synthesis library.
//
//===----------------------------------------------------------------------===//

#include "instance/Abstraction.h"

#include <unordered_map>

using namespace relc;

namespace {

/// Memoizes per-instance results: shared nodes (the whole point of the
/// decomposition language) would otherwise be recomputed once per path.
class Abstractor {
public:
  /// The reference stays valid for the Abstractor's lifetime
  /// (unordered_map nodes never move).
  const Relation &alphaNode(const NodeInstance *N) {
    auto It = Memo.find(N);
    if (It != Memo.end())
      return It->second;
    Relation R = alphaPrim(N, N->node().Prim);
    return Memo.emplace(N, std::move(R)).first->second;
  }

private:
  Relation alphaPrim(const NodeInstance *N, PrimId Id) {
    const Decomposition &D = N->decomp();
    const PrimNode &P = D.prim(Id);
    switch (P.Kind) {
    case PrimKind::Unit: {
      // α(t, Γ) = {t}.
      Relation R(P.Cols);
      R.insert(N->unitValues(Id));
      return R;
    }
    case PrimKind::Map: {
      // α({t ↦ v_t'}) = ⋃ {t} ⋈ α(v_t').
      const MapEdge &Edge = D.edge(P.Edge);
      Relation Result(P.Cols.unionWith(D.node(P.Target).Defines));
      const EdgeMap &Map = N->edgeMap(Edge.OrdinalInFrom);
      Map.forEach([&](const Tuple &Key, NodeInstance *Child) {
        Relation KeyRel(Key.columns());
        KeyRel.insert(Key);
        Result.unionIn(Relation::join(KeyRel, alphaNode(Child)));
        return true;
      });
      return Result;
    }
    case PrimKind::Join:
      // α(p1 ⋈ p2) = α(p1) ⋈ α(p2).
      return Relation::join(alphaPrim(N, P.Left), alphaPrim(N, P.Right));
    }
    assert(false && "unknown PrimKind");
    return Relation();
  }

  std::unordered_map<const NodeInstance *, Relation> Memo;
};

} // namespace

Relation relc::abstractNode(const NodeInstance *N) {
  return Abstractor().alphaNode(N);
}

Relation relc::abstractInstance(const InstanceGraph &G) {
  return Abstractor().alphaNode(G.root());
}
