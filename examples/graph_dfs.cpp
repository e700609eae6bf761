//===- examples/graph_dfs.cpp - Section 6.1's graph client -------------------===//
//
// Part of the RelC data representation synthesis library.
//
//===----------------------------------------------------------------------===//
//
// The directed-graph benchmark client from Section 6.1: edges are a
// relation edges(src, dst, weight) with src,dst → weight, nodes a
// relation nodes(id). The same DFS code runs unchanged over three
// different decompositions (Fig. 12's 1, 5 and 9) with very different
// performance characteristics — that is the paper's point.
//
// Build & run:  ./build/examples/graph_dfs [grid-width]
//
//===----------------------------------------------------------------------===//

#include "support/CliArgs.h"
#include "systems/GraphRelational.h"
#include "workloads/RoadNetwork.h"

#include <chrono>
#include <cstdio>

using namespace relc;

namespace {

double seconds(std::chrono::steady_clock::duration D) {
  return std::chrono::duration<double>(D).count();
}

void runVariant(const char *Name, Decomposition D,
                const std::vector<RoadEdge> &Edges) {
  GraphRelational G(std::move(D));

  auto T0 = std::chrono::steady_clock::now();
  for (const RoadEdge &E : Edges)
    G.addEdge(E.Src, E.Dst, E.Weight);
  auto T1 = std::chrono::steady_clock::now();
  size_t Fwd = G.depthFirstSearch(0, /*Backward=*/false);
  auto T2 = std::chrono::steady_clock::now();
  size_t Bwd = G.depthFirstSearch(0, /*Backward=*/true);
  auto T3 = std::chrono::steady_clock::now();
  for (const RoadEdge &E : Edges)
    G.removeEdge(E.Src, E.Dst);
  auto T4 = std::chrono::steady_clock::now();

  std::printf("%-10s construct %.3fs  F-dfs %.3fs (%zu nodes)  "
              "B-dfs %.3fs (%zu nodes)  delete %.3fs\n",
              Name, seconds(T1 - T0), seconds(T2 - T1), Fwd,
              seconds(T3 - T2), Bwd, seconds(T4 - T3));
}

} // namespace

int main(int argc, char **argv) {
  PositionalArgs Args(argc, argv, 1, "usage: graph_dfs [grid-width]\n");
  RoadNetworkOptions Opts;
  Opts.Width = Args.get(1, 96u, 1u, 4096u);
  Opts.Height = Opts.Width;
  std::vector<RoadEdge> Edges = generateRoadNetwork(Opts);
  std::printf("synthetic road network: %llu nodes, %zu edges\n",
              static_cast<unsigned long long>(roadNetworkNodeCount(Opts)),
              Edges.size());

  RelSpecRef Spec = GraphRelational::makeSpec();
  // Fig. 12, decomposition 1: forward index only. Backward DFS must
  // scan — fine forward, quadratic backward.
  runVariant("forward", GraphRelational::makeForwardOnly(Spec), Edges);
  // Decomposition 5: both directions, shared weight node, intrusive
  // containers (removal unlinks both paths without extra lookups).
  runVariant("shared", GraphRelational::makeSharedBidirectional(Spec),
             Edges);
  // Decomposition 9: both directions, duplicated weight leaves.
  runVariant("unshared", GraphRelational::makeUnsharedBidirectional(Spec),
             Edges);
  return 0;
}
