//===- decomp/Decomposition.h - The decomposition language ------*- C++ -*-===//
//
// Part of the RelC data representation synthesis library.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Decompositions per Section 3.1 (Fig. 3): a rooted DAG of let-bound
/// nodes describing how a relation is laid out in memory. Each node is
/// annotated with a pair of column sets B . C (columns bound on paths
/// from the root, and columns represented by the subgraph), and carries
/// a primitive expression whose leaves are units (single tuples) or map
/// edges (associative containers keyed by columns), with natural joins
/// above.
///
/// Nodes are stored in let order (a node is defined before any node
/// that references it), so reverse order is a parents-first topological
/// order. Primitives live in one index-based pool so decompositions are
/// cheap to copy — the autotuner copies and mutates them freely.
///
//===----------------------------------------------------------------------===//

#ifndef RELC_DECOMP_DECOMPOSITION_H
#define RELC_DECOMP_DECOMPOSITION_H

#include "ds/DsKind.h"
#include "rel/RelSpec.h"

#include <limits>
#include <string>
#include <vector>

namespace relc {

using NodeId = unsigned;
using EdgeId = unsigned;
using PrimId = unsigned;

inline constexpr unsigned InvalidIndex = std::numeric_limits<unsigned>::max();

enum class PrimKind {
  Unit, ///< C — a single tuple with columns C.
  Map,  ///< C —ψ→ v — an associative container keyed by C.
  Join, ///< p1 ⋈ p2 — natural join of two sub-decompositions.
};

/// One vertex of a primitive expression tree. Which fields are
/// meaningful depends on Kind.
struct PrimNode {
  PrimKind Kind;

  /// Unit: the tuple's columns (may be empty for pure set membership).
  /// Map: the key columns (non-empty).
  ColumnSet Cols;

  /// Map: the backing data structure ψ.
  DsKind Ds = DsKind::HashTable;
  /// Map: the target decomposition node v.
  NodeId Target = InvalidIndex;
  /// Map: dense edge id (index into Decomposition::edges()).
  EdgeId Edge = InvalidIndex;

  /// Join: children in the primitive pool.
  PrimId Left = InvalidIndex;
  PrimId Right = InvalidIndex;
};

/// One let-bound node "let v : B . C = prim".
struct DecompNode {
  std::string Name;
  ColumnSet Bound;    ///< B: one instance exists per valuation of B.
  ColumnSet Defines;  ///< C: columns represented by the subgraph (computed).
  PrimId Prim;        ///< Root of the primitive expression.
  unsigned HookSlots = 0; ///< Number of incoming intrusive edges.
};

/// Derived, flattened view of one map edge for fast access by the
/// planner, mutators and instance layer.
struct MapEdge {
  NodeId From;
  NodeId To;
  ColumnSet KeyCols;
  DsKind Ds;
  PrimId Prim;            ///< The PrimNode this edge came from.
  unsigned OrdinalInFrom; ///< Index among From's outgoing edges.
  unsigned HookSlot;      ///< Slot in To's hooks if intrusive, else InvalidIndex.
};

/// An immutable decomposition for one relational specification.
/// Construct through DecompBuilder or parseDecomposition.
class Decomposition {
public:
  const RelSpecRef &spec() const { return Spec; }
  const Catalog &catalog() const { return Spec->catalog(); }

  NodeId root() const { return static_cast<NodeId>(Nodes.size() - 1); }

  unsigned numNodes() const { return static_cast<unsigned>(Nodes.size()); }
  const DecompNode &node(NodeId Id) const { return Nodes[Id]; }
  const std::vector<DecompNode> &nodes() const { return Nodes; }

  const PrimNode &prim(PrimId Id) const { return Prims[Id]; }

  unsigned numEdges() const { return static_cast<unsigned>(Edges.size()); }
  const MapEdge &edge(EdgeId Id) const { return Edges[Id]; }
  const std::vector<MapEdge> &edges() const { return Edges; }

  /// Edge ids leaving node \p Id, in ordinal order.
  const std::vector<EdgeId> &outgoing(NodeId Id) const {
    return Outgoing[Id];
  }
  /// Edge ids entering node \p Id.
  const std::vector<EdgeId> &incoming(NodeId Id) const {
    return Incoming[Id];
  }
  /// The incoming edge of non-root node \p Id with the cheapest point
  /// lookup (dsProbeRank; the first such edge on ties).
  EdgeId cheapestIncoming(NodeId Id) const;

  /// Unit PrimIds appearing in node \p Id's primitive, in tree order.
  const std::vector<PrimId> &unitsOf(NodeId Id) const { return Units[Id]; }

  /// Node ids parents-first (reverse let order, starting at the root).
  std::vector<NodeId> topoOrder() const;

  /// Allocation-free topological iteration: nodes are stored in let
  /// order, so parents-first is simply descending ids. The mutation
  /// hot paths iterate this instead of materializing topoOrder().
  class TopoRange {
  public:
    class iterator {
    public:
      explicit iterator(unsigned Next) : Next(Next) {}
      NodeId operator*() const { return static_cast<NodeId>(Next - 1); }
      iterator &operator++() {
        --Next;
        return *this;
      }
      bool operator!=(const iterator &O) const { return Next != O.Next; }

    private:
      unsigned Next; ///< One past the id to yield (counts down to 0).
    };

    explicit TopoRange(unsigned NumNodes) : NumNodes(NumNodes) {}
    iterator begin() const { return iterator(NumNodes); }
    iterator end() const { return iterator(0); }

  private:
    unsigned NumNodes;
  };

  TopoRange topo() const { return TopoRange(numNodes()); }

  /// Looks up a node by name.
  NodeId nodeByName(std::string_view Name) const;

  /// Structural identity ignoring node names (used by the autotuner to
  /// deduplicate enumerated decompositions). Includes data structures;
  /// pass IncludeDs=false to compare shapes only.
  std::string canonicalString(bool IncludeDs = true) const;

private:
  friend class DecompBuilder;

  RelSpecRef Spec;
  std::vector<DecompNode> Nodes;
  std::vector<PrimNode> Prims;
  std::vector<MapEdge> Edges;
  std::vector<std::vector<EdgeId>> Outgoing;
  std::vector<std::vector<EdgeId>> Incoming;
  std::vector<std::vector<PrimId>> Units;
};

} // namespace relc

#endif // RELC_DECOMP_DECOMPOSITION_H
