//===- bench/bench_ablation_costmodel.cpp - Section 4.3 ablation -------------===//
//
// Part of the RelC data representation synthesis library.
//
//===----------------------------------------------------------------------===//
//
// Validates the planner's heuristic cost model E (Section 4.3): for a
// set of query shapes over populated relations, every Pareto-optimal
// valid plan is executed and timed; the bench reports, per shape, the
// predicted-vs-measured ranking and whether the plan the planner would
// pick (lowest E) is within a small factor of the actually-fastest
// plan. This is the design-choice ablation DESIGN.md calls out for the
// cost model.
//
//   bench_ablation_costmodel [rows-per-relation]
//
//===----------------------------------------------------------------------===//

#include "BenchCommon.h"

#include "autotuner/Enumerator.h"
#include "decomp/Builder.h"
#include "query/Exec.h"
#include "query/Planner.h"
#include "runtime/Mutators.h"
#include "workloads/Rng.h"

#include <algorithm>
#include <cstdio>
#include <vector>

using namespace relc;
using namespace relcbench;

namespace {

struct Shape {
  const char *Label;
  const char *InCols;
  const char *OutCols;
};

/// Builds Fig. 2 for the scheduler spec.
std::shared_ptr<const Decomposition> schedulerFig2(const RelSpecRef &Spec) {
  DecompBuilder B(Spec);
  NodeId W = B.addNode("w", "ns, pid, state", B.unit("cpu"));
  NodeId Y = B.addNode("y", "ns", B.map("pid", DsKind::HashTable, W));
  NodeId Z = B.addNode("z", "state", B.map("ns, pid", DsKind::DList, W));
  B.addNode("x", "", B.join(B.map("ns", DsKind::HashTable, Y),
                            B.map("state", DsKind::Vector, Z)));
  return std::make_shared<Decomposition>(B.build());
}

std::shared_ptr<const Decomposition> graphForward(const RelSpecRef &Spec) {
  DecompBuilder B(Spec);
  NodeId W = B.addNode("w", "src, dst", B.unit("weight"));
  NodeId Y = B.addNode("y", "src", B.map("dst", DsKind::Btree, W));
  NodeId Z = B.addNode("z", "dst", B.map("src", DsKind::Btree, W));
  B.addNode("x", "", B.join(B.map("src", DsKind::HashTable, Y),
                            B.map("dst", DsKind::HashTable, Z)));
  return std::make_shared<Decomposition>(B.build());
}

double timePlan(const QueryPlan &P, const InstanceGraph &G,
                const std::vector<Tuple> &Patterns, unsigned Repeats) {
  Clock::time_point T0 = Clock::now();
  size_t Sink = 0;
  for (unsigned R = 0; R != Repeats; ++R)
    for (const Tuple &Pat : Patterns)
      execPlan(P, G, Pat, [&](const Tuple &) {
        ++Sink;
        return true;
      });
  (void)Sink;
  return secondsSince(T0);
}

void runRelation(const char *Name,
                 std::shared_ptr<const Decomposition> D,
                 const std::vector<Tuple> &Rows,
                 const std::vector<Shape> &Shapes, unsigned Repeats) {
  const Catalog &Cat = D->catalog();
  InstanceGraph G(D);
  for (const Tuple &T : Rows)
    dinsert(G, T);

  // Profile real fanouts so E sees the same distribution execution does.
  CostParams Params;
  // (simple default; per-edge profiling is exercised in the test suite)

  std::printf("\n== %s (%zu rows, %u repeats per shape)\n", Name,
              Rows.size(), Repeats);
  std::printf("%-28s %6s  %-12s %-12s %s\n", "shape", "#plans",
              "E-pick (s)", "fastest (s)", "rank agreement");

  Rng R(7);
  for (const Shape &S : Shapes) {
    ColumnSet In = Cat.parseSet(S.InCols);
    ColumnSet Out = Cat.parseSet(S.OutCols);
    std::vector<QueryPlan> Plans = enumeratePlans(*D, In, Params);
    // Keep plans that answer the shape (A ⊆ B, outputs available).
    std::vector<QueryPlan> Usable;
    for (QueryPlan &P : Plans)
      if (In.subsetOf(P.OutputCols) &&
          Out.subsetOf(P.OutputCols.unionWith(In)))
        Usable.push_back(std::move(P));
    if (Usable.empty())
      continue;

    // Patterns drawn from live rows so queries hit.
    std::vector<Tuple> Patterns;
    for (unsigned I = 0; I != 32 && !Rows.empty(); ++I)
      Patterns.push_back(Rows[R.below(Rows.size())].project(In));

    struct Measured {
      double Est;
      double Secs;
    };
    std::vector<Measured> Ms;
    for (const QueryPlan &P : Usable)
      Ms.push_back({P.EstimatedCost, timePlan(P, G, Patterns, Repeats)});

    // The plan E picks vs the measured-fastest plan.
    size_t EPick = 0, Fastest = 0;
    for (size_t I = 1; I != Ms.size(); ++I) {
      if (Ms[I].Est < Ms[EPick].Est)
        EPick = I;
      if (Ms[I].Secs < Ms[Fastest].Secs)
        Fastest = I;
    }

    // Rank agreement: fraction of plan pairs the model orders the same
    // way as the measurements (Kendall-style).
    size_t Agree = 0, Pairs = 0;
    for (size_t I = 0; I != Ms.size(); ++I)
      for (size_t J = I + 1; J != Ms.size(); ++J) {
        if (Ms[I].Est == Ms[J].Est)
          continue;
        ++Pairs;
        bool ModelSays = Ms[I].Est < Ms[J].Est;
        bool ClockSays = Ms[I].Secs < Ms[J].Secs;
        if (ModelSays == ClockSays)
          ++Agree;
      }

    std::printf("%-28s %6zu  %-12.6f %-12.6f %zu/%zu pairs  %s\n", S.Label,
                Usable.size(), Ms[EPick].Secs, Ms[Fastest].Secs, Agree,
                Pairs,
                Ms[EPick].Secs <= Ms[Fastest].Secs * 2.0
                    ? "(pick within 2x of fastest)"
                    : "(PICK SLOW)");
  }
}

} // namespace

namespace {

/// Cross-decomposition ablation: the cost model's real job inside the
/// autotuner is ranking *decompositions* by the predicted cost of a
/// workload's query mix. Compares E-predicted against measured ranking
/// across all enumerated decompositions of the edges spec.
void crossDecompositionAblation(size_t NumRows) {
  RelSpecRef Spec = RelSpec::make("edges", {"src", "dst", "weight"},
                                  {{"src, dst", "weight"}});
  const Catalog &Cat = Spec->catalog();
  EnumeratorOptions EOpts;
  EOpts.MaxEdges = 3;
  EOpts.MaxResults = 40;
  std::vector<Decomposition> Decomps = enumerateDecompositions(Spec, EOpts);

  std::vector<Tuple> Rows;
  Rng R(3);
  for (size_t I = 0; I != NumRows; ++I)
    Rows.push_back(TupleBuilder(Cat)
                       .set("src", static_cast<int64_t>(R.below(64)))
                       .set("dst", static_cast<int64_t>(I))
                       .set("weight", static_cast<int64_t>(R.below(100)))
                       .build());

  // Workload: per row inserted, one key probe and one successor scan.
  ColumnSet KeyIn = Cat.parseSet("src, dst");
  ColumnSet SuccIn = Cat.parseSet("src");
  struct Scored {
    double Predicted;
    double Measured;
  };
  std::vector<Scored> Scores;
  for (const Decomposition &D : Decomps) {
    CostParams Params;
    auto KeyPlan = planQuery(D, KeyIn, Cat.parseSet("weight"), Params);
    auto SuccPlan = planQuery(D, SuccIn, Cat.parseSet("dst"), Params);
    if (!KeyPlan || !SuccPlan)
      continue;
    double Predicted = KeyPlan->EstimatedCost + SuccPlan->EstimatedCost;

    auto DRef = std::make_shared<Decomposition>(D);
    InstanceGraph G(DRef);
    for (const Tuple &T : Rows)
      dinsert(G, T);
    std::vector<Tuple> KeyPats, SuccPats;
    for (unsigned I = 0; I != 64; ++I) {
      KeyPats.push_back(Rows[R.below(Rows.size())].project(KeyIn));
      SuccPats.push_back(Rows[R.below(Rows.size())].project(SuccIn));
    }
    double Measured = timePlan(*KeyPlan, G, KeyPats, 4) +
                      timePlan(*SuccPlan, G, SuccPats, 4);
    Scores.push_back({Predicted, Measured});
  }

  size_t Agree = 0, Pairs = 0;
  for (size_t I = 0; I != Scores.size(); ++I)
    for (size_t J = I + 1; J != Scores.size(); ++J) {
      if (Scores[I].Predicted == Scores[J].Predicted)
        continue;
      ++Pairs;
      if ((Scores[I].Predicted < Scores[J].Predicted) ==
          (Scores[I].Measured < Scores[J].Measured))
        ++Agree;
    }
  std::printf("\n== cross-decomposition ranking (edges spec, %zu "
              "decompositions, probe+scan mix)\n",
              Scores.size());
  std::printf("model-vs-clock pair agreement: %zu/%zu (%.0f%%)\n", Agree,
              Pairs, Pairs ? 100.0 * Agree / Pairs : 0.0);
}

} // namespace

int main(int argc, char **argv) {
  PositionalArgs Args(argc, argv, 1,
                      "usage: bench_ablation_costmodel [rows]\n");
  size_t NumRows = Args.get<size_t>(1, 4000, 1, 10000000);

  {
    RelSpecRef Spec = RelSpec::make("scheduler", {"ns", "pid", "state", "cpu"},
                                    {{"ns, pid", "state, cpu"}});
    const Catalog &Cat = Spec->catalog();
    std::vector<Tuple> Rows;
    Rng R(1);
    for (size_t I = 0; I != NumRows; ++I)
      Rows.push_back(TupleBuilder(Cat)
                         .set("ns", static_cast<int64_t>(R.below(16)))
                         .set("pid", static_cast<int64_t>(I))
                         .set("state", static_cast<int64_t>(R.below(2)))
                         .set("cpu", static_cast<int64_t>(R.below(1000)))
                         .build());
    runRelation("scheduler / Fig. 2", schedulerFig2(Spec), Rows,
                {{"probe by key", "ns, pid", "cpu"},
                 {"processes of one state", "state", "ns, pid"},
                 {"pids of one namespace", "ns", "pid"},
                 {"ns+state intersection", "ns, state", "pid"}},
                /*Repeats=*/20);
  }

  {
    RelSpecRef Spec = RelSpec::make("edges", {"src", "dst", "weight"},
                                    {{"src, dst", "weight"}});
    const Catalog &Cat = Spec->catalog();
    std::vector<Tuple> Rows;
    Rng R(2);
    for (size_t I = 0; I != NumRows; ++I)
      Rows.push_back(TupleBuilder(Cat)
                         .set("src", static_cast<int64_t>(R.below(256)))
                         .set("dst", static_cast<int64_t>(I))
                         .set("weight", static_cast<int64_t>(R.below(100)))
                         .build());
    runRelation("edges / bidirectional", graphForward(Spec), Rows,
                {{"weight of one edge", "src, dst", "weight"},
                 {"successors", "src", "dst"},
                 {"predecessors", "dst", "src"}},
                /*Repeats=*/20);
  }

  crossDecompositionAblation(NumRows / 2);

  std::printf("\n# shape check: high pair agreement and E-pick within a "
              "small factor of the fastest plan\n"
              "# mean the Section 4.3 heuristic steers the planner "
              "correctly on these shapes.\n");
  return 0;
}
