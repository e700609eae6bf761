//===- examples/autotune_demo.cpp - The Section 5 autotuner ------------------===//
//
// Part of the RelC data representation synthesis library.
//
//===----------------------------------------------------------------------===//
//
// Demonstrates the autotuner: given only the relational specification
// of the graph edges and a benchmark callback, it enumerates every
// adequate decomposition up to an edge bound, measures each, and ranks
// them — the process behind Fig. 11.
//
// Build & run:  ./build/examples/autotune_demo [max-edges] [grid-width]
//
//===----------------------------------------------------------------------===//

#include "autotuner/Autotuner.h"
#include "decomp/Printer.h"
#include "runtime/SynthesizedRelation.h"
#include "support/CliArgs.h"
#include "workloads/RoadNetwork.h"

#include <chrono>
#include <cstdio>

using namespace relc;

int main(int argc, char **argv) {
  PositionalArgs Args(argc, argv, 2,
                      "usage: autotune_demo [max-edges] [grid-width]\n");
  RelSpecRef Spec = RelSpec::make("edges", {"src", "dst", "weight"},
                                  {{"src, dst", "weight"}});
  const Catalog &Cat = Spec->catalog();

  AutotunerOptions Opts;
  Opts.Enumerate.MaxEdges = Args.get(1, 3u, 1u, 64u);
  Opts.DsPalette = {DsKind::HashTable, DsKind::Btree};
  Opts.CostLimit = 2.0; // seconds; slower candidates count as timeouts

  RoadNetworkOptions Net;
  Net.Width = Args.get(2, 48u, 1u, 4096u);
  Net.Height = Net.Width;
  std::vector<RoadEdge> Edges = generateRoadNetwork(Net);
  std::printf("workload: build %zu edges, enumerate successors of every "
              "node, tear down\n\n",
              Edges.size());

  // The benchmark: construct, forward-traverse, destruct; elapsed
  // seconds is the cost. Any metric works (Section 5).
  BenchmarkFn Bench = [&](const Decomposition &D) -> double {
    auto T0 = std::chrono::steady_clock::now();
    SynthesizedRelation R{Decomposition(D)};
    for (const RoadEdge &E : Edges) {
      Tuple T = TupleBuilder(Cat)
                    .set("src", E.Src)
                    .set("dst", E.Dst)
                    .set("weight", E.Weight)
                    .build();
      R.insert(T);
      if (std::chrono::steady_clock::now() - T0 >
          std::chrono::duration<double>(Opts.CostLimit))
        return std::numeric_limits<double>::infinity();
    }
    size_t Sum = 0;
    for (int64_t N = 0; N != static_cast<int64_t>(roadNetworkNodeCount(Net));
         ++N)
      R.scan(TupleBuilder(Cat).set("src", N).build(), Cat.parseSet("dst"),
             [&](const Tuple &) {
               ++Sum;
               return true;
             });
    (void)Sum;
    return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                         T0)
        .count();
  };

  std::vector<TunedDecomposition> Ranked = autotune(Spec, Bench, Opts);

  std::printf("%zu decomposition structures ranked:\n\n", Ranked.size());
  unsigned Rank = 1;
  for (const TunedDecomposition &T : Ranked) {
    if (T.TimedOut) {
      std::printf("#%-3u TIMEOUT (> %.1fs)\n", Rank++, Opts.CostLimit);
      continue;
    }
    std::printf("#%-3u %.4fs\n%s\n", Rank++, T.Cost,
                printDecomposition(T.Decomp).c_str());
    if (Rank > 6 && !T.TimedOut) {
      std::printf("... (%zu more)\n", Ranked.size() - Rank + 1);
      break;
    }
  }
  return 0;
}
