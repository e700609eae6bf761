//===- tests/runtime/CutTest.cpp - Decomposition cut tests -------*- C++ -*-===//
//
// Part of the RelC data representation synthesis library.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Tests cut computation (Section 4.5, Fig. 10): the X/Y partition for
/// a pattern's columns, the crossing-edge set, and the no-Y-to-X-edge
/// property adequacy guarantees.
///
//===----------------------------------------------------------------------===//

#include "runtime/Cut.h"

#include "decomp/Builder.h"
#include "systems/SchedulerRelational.h"
#include "systems/ZtopoRelational.h"

#include <gtest/gtest.h>

using namespace relc;

namespace {

RelSpecRef schedulerSpec() {
  return RelSpec::make("scheduler", {"ns", "pid", "state", "cpu"},
                       {{"ns, pid", "state, cpu"}});
}

Decomposition fig2(const RelSpecRef &Spec) {
  DecompBuilder B(Spec);
  NodeId W = B.addNode("w", "ns, pid, state", B.unit("cpu"));
  NodeId Y = B.addNode("y", "ns", B.map("pid", DsKind::HashTable, W));
  NodeId Z = B.addNode("z", "state", B.map("ns, pid", DsKind::DList, W));
  B.addNode("x", "", B.join(B.map("ns", DsKind::HashTable, Y),
                            B.map("state", DsKind::Vector, Z)));
  return B.build();
}

TEST(CutTest, Fig10aCutForNsPid) {
  // Fig. 10(a): pattern {ns, pid} — only w lies below the cut.
  RelSpecRef Spec = schedulerSpec();
  Decomposition D = fig2(Spec);
  const Catalog &Cat = Spec->catalog();
  Cut C = computeCut(D, Cat.parseSet("ns, pid"));

  EXPECT_FALSE(C.inY(D.nodeByName("x")));
  EXPECT_FALSE(C.inY(D.nodeByName("y")));
  EXPECT_FALSE(C.inY(D.nodeByName("z")));
  EXPECT_TRUE(C.inY(D.nodeByName("w")));

  // Crossing edges: y→w and z→w.
  EXPECT_EQ(C.CrossingEdges.size(), 2u);
  for (EdgeId E : C.CrossingEdges)
    EXPECT_EQ(D.edge(E).To, D.nodeByName("w"));
}

TEST(CutTest, Fig10bCutForState) {
  // Fig. 10(b): pattern {state} — z and w lie below the cut.
  RelSpecRef Spec = schedulerSpec();
  Decomposition D = fig2(Spec);
  const Catalog &Cat = Spec->catalog();
  Cut C = computeCut(D, Cat.parseSet("state"));

  EXPECT_FALSE(C.inY(D.nodeByName("x")));
  EXPECT_FALSE(C.inY(D.nodeByName("y")));
  EXPECT_TRUE(C.inY(D.nodeByName("z")));
  EXPECT_TRUE(C.inY(D.nodeByName("w")));

  // Crossing: x→z and y→w (z→w is internal to Y).
  EXPECT_EQ(C.CrossingEdges.size(), 2u);
  std::set<std::pair<NodeId, NodeId>> Crossings;
  for (EdgeId E : C.CrossingEdges)
    Crossings.insert({D.edge(E).From, D.edge(E).To});
  EXPECT_TRUE(Crossings.count({D.nodeByName("x"), D.nodeByName("z")}));
  EXPECT_TRUE(Crossings.count({D.nodeByName("y"), D.nodeByName("w")}));
}

TEST(CutTest, CutForNs) {
  // Pattern {ns}: y (bound {ns}) and w (bound determines ns) are in Y;
  // z (bound {state}) is not.
  RelSpecRef Spec = schedulerSpec();
  Decomposition D = fig2(Spec);
  const Catalog &Cat = Spec->catalog();
  Cut C = computeCut(D, Cat.parseSet("ns"));
  EXPECT_TRUE(C.inY(D.nodeByName("y")));
  EXPECT_TRUE(C.inY(D.nodeByName("w")));
  EXPECT_FALSE(C.inY(D.nodeByName("z")));
  EXPECT_FALSE(C.inY(D.nodeByName("x")));
}

TEST(CutTest, EmptyPatternPutsOnlyRootInX) {
  // Pattern ∅: B → ∅ holds for every node, so everything (except the
  // root, whose instances must survive) is below the cut.
  RelSpecRef Spec = schedulerSpec();
  Decomposition D = fig2(Spec);
  Cut C = computeCut(D, ColumnSet());
  for (NodeId Id = 0; Id != D.numNodes(); ++Id) {
    if (Id == D.root())
      continue;
    EXPECT_TRUE(C.inY(Id)) << D.node(Id).Name;
  }
}

TEST(CutTest, FullPatternCutsBelowEveryKey) {
  RelSpecRef Spec = schedulerSpec();
  Decomposition D = fig2(Spec);
  Cut C = computeCut(D, Spec->columns());
  // Every non-root node's bound columns determine the full column set
  // here (w: key+state; y: ns alone does NOT determine all columns).
  EXPECT_FALSE(C.inY(D.nodeByName("y")));
  EXPECT_TRUE(C.inY(D.nodeByName("w")));
}

TEST(CutTest, NoEdgeFromYtoX) {
  // The structural property removal relies on, for several patterns.
  RelSpecRef Spec = schedulerSpec();
  Decomposition D = fig2(Spec);
  const Catalog &Cat = Spec->catalog();
  for (const char *Pattern :
       {"ns", "pid", "state", "cpu", "ns, pid", "ns, state", "pid, state",
        "ns, pid, state", "ns, pid, state, cpu"}) {
    Cut C = computeCut(D, Cat.parseSet(Pattern));
    for (const MapEdge &E : D.edges())
      EXPECT_FALSE(C.inY(E.From) && !C.inY(E.To))
          << "Y→X edge for pattern {" << Pattern << "}";
  }
}

TEST(CutTest, CrossingMatchesInY) {
  RelSpecRef Spec = schedulerSpec();
  Decomposition D = fig2(Spec);
  const Catalog &Cat = Spec->catalog();
  Cut C = computeCut(D, Cat.parseSet("state"));
  for (EdgeId E = 0; E != D.numEdges(); ++E) {
    bool Listed = std::find(C.CrossingEdges.begin(), C.CrossingEdges.end(),
                            E) != C.CrossingEdges.end();
    EXPECT_EQ(Listed, C.crossing(D.edge(E)));
  }
}

TEST(CutTest, DeterminedColumnsExtendY) {
  // Pattern {cpu} on a spec where cpu is determined by the key but
  // determines nothing: only nodes whose bound set implies cpu are in
  // Y. For fig2, no node's bound columns imply cpu (w's bound is the
  // key which *does* imply cpu via the FD).
  RelSpecRef Spec = schedulerSpec();
  Decomposition D = fig2(Spec);
  const Catalog &Cat = Spec->catalog();
  Cut C = computeCut(D, Cat.parseSet("cpu"));
  EXPECT_TRUE(C.inY(D.nodeByName("w"))); // ns,pid,state → cpu
  EXPECT_FALSE(C.inY(D.nodeByName("y")));
  EXPECT_FALSE(C.inY(D.nodeByName("z")));
}

/// The edge From → To of \p D, by node names.
EdgeId edgeBetween(const Decomposition &D, const char *From, const char *To) {
  for (EdgeId E = 0; E != D.numEdges(); ++E)
    if (D.edge(E).From == D.nodeByName(From) &&
        D.edge(E).To == D.nodeByName(To))
      return E;
  ADD_FAILURE() << "no edge " << From << " -> " << To;
  return InvalidIndex;
}

TEST(CutTest, ZtopoRemoveByTileResolvesTheSharedNodeThroughY) {
  // ztopo's w is reached by y→w (a tile's states) and z→w (a state's
  // tiles, an intrusive list). For {tile} the only crossing edge into w
  // is z→w, so dremove finds w through y first (x→y, then y→w) and
  // unlinks it from z's list with eraseNode instead of searching it.
  Decomposition D = ZtopoRelational::makeDefaultDecomposition(
      ZtopoRelational::makeSpec());
  Cut C = computeCut(D, D.spec()->catalog().parseSet("tile"));
  std::vector<EdgeId> Expected = {edgeBetween(D, "x", "y"),
                                  edgeBetween(D, "y", "w")};
  EXPECT_EQ(C.RemoveResolve, Expected);
  EXPECT_EQ(C.UpdateResolve, Expected);
}

TEST(CutTest, HashFirstRemovesResolveNothingUpFront) {
  // The scheduler's {ns, pid}: w's first crossing edge is y→w, a hash
  // table, whose erase finds w; the later z→w break reuses it. Nothing
  // pays for an up-front lookup, here or for {state} (x→z, y→w).
  Decomposition D = SchedulerRelational::makeDefaultDecomposition(
      SchedulerRelational::makeSpec());
  const Catalog &Cat = D.spec()->catalog();
  Cut Key = computeCut(D, Cat.parseSet("ns, pid"));
  EXPECT_TRUE(Key.RemoveResolve.empty());
  EXPECT_EQ(Key.UpdateResolve,
            std::vector<EdgeId>{edgeBetween(D, "y", "w")});
  EXPECT_TRUE(computeCut(D, Cat.parseSet("state")).RemoveResolve.empty());

  // {ns} puts y above w in Y, and w's only crossing edge is the
  // intrusive z→w list: resolved through y.
  Cut Ns = computeCut(D, Cat.parseSet("ns"));
  std::vector<EdgeId> Expected = {edgeBetween(D, "x", "y"),
                                  edgeBetween(D, "y", "w")};
  EXPECT_EQ(Ns.RemoveResolve, Expected);

  // A non-intrusive list gains nothing from knowing the node.
  Decomposition Plain = fig2(schedulerSpec());
  EXPECT_TRUE(computeCut(Plain, Plain.spec()->catalog().parseSet("ns"))
                  .RemoveResolve.empty());
}

} // namespace
