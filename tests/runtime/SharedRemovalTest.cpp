//===- tests/runtime/SharedRemovalTest.cpp - Removal through shared nodes -===//
//
// Part of the RelC data representation synthesis library.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Removal from decompositions that share a node between two paths
/// (Section 6.1). dremove finds a below-cut node through its Y parent
/// when its only crossing edge is an intrusive list, then unlinks it
/// with eraseNode. These tests pin the cost of that path (removing
/// every tile of ztopo scales linearly) and its correctness for
/// non-key patterns, where one match's removal severs entries that
/// later matches would have used, against the Relation oracle.
///
//===----------------------------------------------------------------------===//

#include "runtime/SynthesizedRelation.h"

#include "decomp/Builder.h"
#include "systems/SchedulerRelational.h"
#include "systems/ZtopoRelational.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <functional>
#include <map>
#include <random>
#include <string>

using namespace relc;

namespace {

/// Seconds to remove, one `remove {tile}` each, all \p N tiles of a
/// ztopo relation whose tiles are spread over its three states (the
/// best of three runs, so a descheduled run does not skew a ratio). A
/// run stops early once it has taken \p GiveUpAfter seconds, so a
/// quadratic regression fails fast instead of running for a minute.
double removeAllTilesSeconds(int64_t N, double GiveUpAfter = 1e30) {
  double Best = 1e30;
  for (int Run = 0; Run < 3; ++Run) {
    SynthesizedRelation Rel(ZtopoRelational::makeDefaultDecomposition(
        ZtopoRelational::makeSpec()));
    const Catalog &Cat = Rel.catalog();
    ColumnId Tile = Cat.get("tile"), State = Cat.get("state"),
             Size = Cat.get("size"), Stamp = Cat.get("stamp");
    for (int64_t I = 0; I < N; ++I) {
      Tuple T;
      T.set(Tile, Value::ofInt(I));
      T.set(State, Value::ofInt(I % 3));
      T.set(Size, Value::ofInt(4096));
      T.set(Stamp, Value::ofInt(I));
      Rel.insert(T);
    }
    auto Start = std::chrono::steady_clock::now();
    auto Elapsed = [&] {
      return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                           Start)
          .count();
    };
    for (int64_t I = 0; I < N; ++I) {
      if (I % 256 == 0 && Elapsed() > GiveUpAfter)
        break;
      Tuple Key;
      Key.set(Tile, Value::ofInt(I));
      if (Rel.remove(Key) != 1) {
        ADD_FAILURE() << "tile " << I << " not removed";
        return 0;
      }
    }
    Best = std::min(Best, Elapsed());
  }
  return Best;
}

TEST(SharedRemovalTest, ZtopoRemoveByTileScalesLinearly) {
  // Linear work gives a ratio near 10. Searching z's per-state list
  // for every removed tile makes the work quadratic (a ratio near 100).
  // A ratio, unlike an absolute bound, holds under Debug and ASan.
  double Small = removeAllTilesSeconds(4000);
  double Large = removeAllTilesSeconds(40000, 30 * Small);
  ASSERT_GT(Small, 0);
  EXPECT_LT(Large / Small, 30.0)
      << "4k tiles: " << Small * 1e3 << " ms, 40k tiles: " << Large * 1e3
      << " ms";
}

/// A decomposition under test, the value domain of each column, and
/// the non-key remove patterns to exercise on it.
struct Shape {
  std::string Name;
  std::function<Decomposition()> Make;
  std::map<std::string, int64_t> Domain;
  std::vector<std::string> Patterns;
};

Decomposition intrusiveScheduler() {
  // The scheduler's Fig. 2 shape with both containers into the shared
  // w intrusive (an ITree over pid, an IList over ns, pid).
  RelSpecRef Spec = SchedulerRelational::makeSpec();
  DecompBuilder B(Spec);
  NodeId W = B.addNode("w", "ns, pid, state", B.unit("cpu"));
  NodeId Y = B.addNode("y", "ns", B.map("pid", DsKind::ITree, W));
  NodeId Z = B.addNode("z", "state", B.map("ns, pid", DsKind::IList, W));
  B.addNode("x", "", B.join(B.map("ns", DsKind::HashTable, Y),
                            B.map("state", DsKind::Vector, Z)));
  return B.build();
}

std::vector<Shape> shapes() {
  std::map<std::string, int64_t> Sched = {
      {"ns", 4}, {"pid", 8}, {"state", 3}, {"cpu", 5}};
  return {
      {"ztopo",
       [] {
         return ZtopoRelational::makeDefaultDecomposition(
             ZtopoRelational::makeSpec());
       },
       {{"tile", 40}, {"state", 3}, {"size", 4}, {"stamp", 6}},
       {"state", "size", "state, size", "tile"}},
      {"scheduler",
       [] {
         return SchedulerRelational::makeDefaultDecomposition(
             SchedulerRelational::makeSpec());
       },
       Sched,
       {"ns", "state", "ns, state", "ns, pid"}},
      {"intrusive", intrusiveScheduler, Sched, {"ns", "state", "ns, pid"}},
  };
}

TEST(SharedRemovalTest, NonKeyRemovesMatchTheOracle) {
  for (const Shape &S : shapes()) {
    SCOPED_TRACE(S.Name);
    SynthesizedRelation Rel(S.Make());
    const Catalog &Cat = Rel.catalog();
    Relation Oracle;
    std::mt19937_64 Rng(7);
    auto Pick = [&](int64_t Bound) {
      return static_cast<int64_t>(Rng() % static_cast<uint64_t>(Bound));
    };
    auto RandomTuple = [&](ColumnSet Cols) {
      Tuple T;
      for (ColumnId C : Cols)
        T.set(C, Value::ofInt(Pick(S.Domain.at(Cat.name(C)))));
      return T;
    };
    for (int Step = 0; Step < 400; ++Step) {
      if (Step % 4 != 3) {
        Tuple T = RandomTuple(Rel.spec()->columns());
        if (!Oracle.insertPreservesFds(T, Rel.spec()->fds()))
          continue;
        EXPECT_EQ(Rel.insert(T), !Oracle.contains(T));
        Oracle.insert(T);
      } else {
        const std::string &P = S.Patterns[Pick(S.Patterns.size())];
        Tuple Pattern = RandomTuple(Cat.parseSet(P));
        SCOPED_TRACE("remove " + Pattern.str(Cat));
        ASSERT_EQ(Rel.remove(Pattern), Oracle.remove(Pattern));
      }
      ASSERT_EQ(Rel.size(), Oracle.size());
      ASSERT_EQ(Rel.toRelation(), Oracle) << "step " << Step;
      WfResult Wf = Rel.checkWellFormed();
      ASSERT_TRUE(Wf.Ok) << "step " << Step << ": " << Wf.Error;
    }
    // Emptying by the first pattern leaves no instance behind.
    const std::string &P = S.Patterns.front();
    for (int64_t V = 0; V < S.Domain.at(P); ++V)
      Rel.remove(TupleBuilder(Cat).set(P, V).build());
    EXPECT_TRUE(Rel.empty());
    EXPECT_EQ(Rel.liveInstances(), SynthesizedRelation(S.Make()).liveInstances());
  }
}

} // namespace
