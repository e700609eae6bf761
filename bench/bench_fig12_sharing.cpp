//===- bench/bench_fig12_sharing.cpp - Figure 12 reproduction ----------------===//
//
// Part of the RelC data representation synthesis library.
//
//===----------------------------------------------------------------------===//
//
// Figure 12: the three representative decompositions of the graph
// relation —
//   (1) forward-only chain,
//   (5) bidirectional with the weight node shared (intrusive maps),
//   (9) bidirectional with duplicated weight leaves —
// timed on the same phases as Fig. 11, plus the sharing ablation the
// paper discusses: node 5's sharing means fewer allocations and cheaper
// removal (the intrusive containers unlink a shared node from both
// paths without extra lookups).
//
//   bench_fig12_sharing [grid-width]
//
//===----------------------------------------------------------------------===//

#include "BenchCommon.h"

#include "systems/GraphRelational.h"
#include "workloads/RoadNetwork.h"

#include <cstdio>
#include <cstdlib>

using namespace relc;
using namespace relcbench;

namespace {

void run(const char *Name, Decomposition D,
         const std::vector<RoadEdge> &Edges) {
  GraphRelational G(std::move(D));

  Clock::time_point T0 = Clock::now();
  for (const RoadEdge &E : Edges)
    G.addEdge(E.Src, E.Dst, E.Weight);
  double Build = secondsSince(T0);
  size_t Live = G.relation().liveInstances();

  T0 = Clock::now();
  G.depthFirstSearch(0, /*Backward=*/false);
  double Fwd = secondsSince(T0);

  T0 = Clock::now();
  G.depthFirstSearch(0, /*Backward=*/true);
  double Bwd = secondsSince(T0);

  T0 = Clock::now();
  for (const RoadEdge &E : Edges)
    G.removeEdge(E.Src, E.Dst);
  double Del = secondsSince(T0);

  std::printf("%-22s build %7.4fs  F %7.4fs  B %8.4fs  delete %7.4fs  "
              "live-nodes %zu\n",
              Name, Build, Fwd, Bwd, Del, Live);
}

} // namespace

int main(int argc, char **argv) {
  PositionalArgs Args(argc, argv, 1, "usage: bench_fig12_sharing [width]\n");
  RoadNetworkOptions Net;
  Net.Width = Args.get(1, 72u, 1u, 100000u);
  Net.Height = Net.Width;
  std::vector<RoadEdge> Edges = generateRoadNetwork(Net);
  std::printf("# Figure 12: representative decompositions, %llu nodes / "
              "%zu edges\n\n",
              static_cast<unsigned long long>(roadNetworkNodeCount(Net)),
              Edges.size());

  RelSpecRef Spec = GraphRelational::makeSpec();
  run("decomposition-1", GraphRelational::makeForwardOnly(Spec), Edges);
  run("decomposition-5-shared", GraphRelational::makeSharedBidirectional(Spec),
      Edges);
  run("decomposition-9-unshared",
      GraphRelational::makeUnsharedBidirectional(Spec), Edges);

  // The ablation, quantified: instances allocated per edge.
  {
    GraphRelational S(GraphRelational::makeSharedBidirectional(Spec));
    GraphRelational U(GraphRelational::makeUnsharedBidirectional(Spec));
    for (const RoadEdge &E : Edges) {
      S.addEdge(E.Src, E.Dst, E.Weight);
      U.addEdge(E.Src, E.Dst, E.Weight);
    }
    std::printf("\n# sharing ablation: shared holds %zu live instances, "
                "unshared %zu (one duplicated weight leaf per edge)\n",
                S.relation().liveInstances(), U.relation().liveInstances());
  }
  return 0;
}
