//===- runtime/Cut.h - Decomposition cuts -----------------------*- C++ -*-===//
//
// Part of the RelC data representation synthesis library.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Cuts per Section 4.5 (Fig. 10): for a pattern binding columns C, the
/// nodes of a decomposition partition into X (instances may represent
/// tuples *not* matching the pattern: ∆ ⊬ B → C) and Y (instances are
/// specific to one valuation of C: ∆ ⊢ B → C). Removal breaks exactly
/// the edges crossing from X into Y; update detaches and reattaches
/// across them. Adequacy guarantees no edge points from Y back into X,
/// and that the cut exists and is unique.
///
//===----------------------------------------------------------------------===//

#ifndef RELC_RUNTIME_CUT_H
#define RELC_RUNTIME_CUT_H

#include "decomp/Decomposition.h"

#include <vector>

namespace relc {

/// The cut (X, Y) of a decomposition for one pattern column set.
struct Cut {
  ColumnSet PatternCols;
  std::vector<bool> InY; ///< Indexed by NodeId.
  std::vector<EdgeId> CrossingEdges; ///< Edges with From ∈ X, To ∈ Y.

  /// Edges that find the below-cut instances along one represented
  /// tuple before any crossing edge is broken, parents first: each step
  /// looks Edge.To up in its parent's container. A node with a Y parent
  /// is found through it — every tuple below a Y instance matches the
  /// pattern, so for a key pattern that container holds a handful of
  /// entries — and a node without one through its cheapest incoming
  /// edge. UpdateResolve covers every Y node (dupdate reuses them all).
  /// RemoveResolve covers only the Y nodes whose first crossing break
  /// would otherwise search an intrusive list for the key, plus the Y
  /// ancestors they are found through; dremove then unlinks them with
  /// eraseNode (Section 6.1). It is empty for hash-first shapes, whose
  /// removal keeps resolving each child by its first crossing erase.
  std::vector<EdgeId> UpdateResolve;
  std::vector<EdgeId> RemoveResolve;

  bool inY(NodeId Id) const { return InY[Id]; }
  bool crossing(const MapEdge &E) const { return !InY[E.From] && InY[E.To]; }
};

/// Computes the cut for \p PatternCols: Y = { v | ∆ ⊢ B_v → C }.
/// Asserts the no-Y-to-X-edge property that adequacy guarantees.
Cut computeCut(const Decomposition &D, ColumnSet PatternCols);

} // namespace relc

#endif // RELC_RUNTIME_CUT_H
