//===- tests/runtime/ScanRowTest.cpp - Row reuse in scan ---------*- C++ -*-===//
//
// Part of the RelC data representation synthesis library.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// SynthesizedRelation::scan hands its callback one row tuple that it
/// refills for every result. These tests pin what that contract keeps:
/// copies taken in the callback stay distinct, nested and stopped scans
/// still work, and a row wider than a Tuple's inline storage costs at
/// most one allocation per scan rather than one per row.
///
//===----------------------------------------------------------------------===//

#include "runtime/SynthesizedRelation.h"

#include "decomp/Builder.h"

#include <gtest/gtest.h>

#include <cstdlib>
#include <new>
#include <set>

// Counts every global operator new, so a scan's heap traffic is the
// difference of two readings.
static size_t AllocCount = 0;

void *operator new(size_t Sz) {
  ++AllocCount;
  if (void *P = std::malloc(Sz ? Sz : 1))
    return P;
  throw std::bad_alloc();
}
void operator delete(void *P) noexcept { std::free(P); }
void operator delete(void *P, size_t) noexcept { std::free(P); }

using namespace relc;

namespace {

/// A six-column relation (wider than a Tuple's four inline values):
/// x -a(htable)-> y -b(htable)-> unit {c, d, e, f}.
class ScanRowTest : public ::testing::Test {
protected:
  ScanRowTest()
      : Spec(RelSpec::make("wide", {"a", "b", "c", "d", "e", "f"},
                           {{"a, b", "c, d, e, f"}})),
        Rel(makeDecomp(Spec)), Cat(Spec->catalog()) {
    for (int64_t A = 0; A < 4; ++A)
      for (int64_t B = 0; B < 50; ++B)
        Rel.insert(row(A, B));
  }

  static Decomposition makeDecomp(const RelSpecRef &Spec) {
    DecompBuilder B(Spec);
    NodeId U = B.addNode("u", "a, b", B.unit("c, d, e, f"));
    NodeId Y = B.addNode("y", "a", B.map("b", DsKind::HashTable, U));
    B.addNode("x", "", B.map("a", DsKind::HashTable, Y));
    return B.build();
  }

  Tuple row(int64_t A, int64_t B) const {
    return TupleBuilder(Cat)
        .set("a", A)
        .set("b", B)
        .set("c", A + B)
        .set("d", A * B)
        .set("e", -A)
        .set("f", -B)
        .build();
  }

  RelSpecRef Spec;
  SynthesizedRelation Rel;
  const Catalog &Cat;
};

TEST_F(ScanRowTest, CopiedRowsStayDistinct) {
  std::vector<Tuple> Kept;
  Rel.scan(Tuple(), Spec->columns(), [&](const Tuple &T) {
    Kept.push_back(T);
    return true;
  });
  ASSERT_EQ(Kept.size(), 200u);
  std::set<Tuple> Distinct(Kept.begin(), Kept.end());
  EXPECT_EQ(Distinct.size(), 200u);
  for (const Tuple &T : Kept)
    EXPECT_EQ(T, row(T.get(Cat.get("a")).asInt(), T.get(Cat.get("b")).asInt()));
}

TEST_F(ScanRowTest, NestedScanInsideTheCallback) {
  // Each outer row scans the rows sharing its `a`; the inner scan has
  // its own row, so the outer one is intact when the inner returns.
  size_t Pairs = 0;
  ColumnId A = Cat.get("a");
  Rel.scan(Tuple(), Spec->columns(), [&](const Tuple &Outer) {
    Tuple Before = Outer;
    Tuple Pattern;
    Pattern.set(A, Outer.get(A));
    Rel.scan(Pattern, Spec->columns(), [&](const Tuple &Inner) {
      EXPECT_EQ(Inner.get(A), Outer.get(A));
      ++Pairs;
      return true;
    });
    EXPECT_EQ(Outer, Before);
    return true;
  });
  EXPECT_EQ(Pairs, 4u * 50u * 50u);
}

TEST_F(ScanRowTest, StopsEarly) {
  size_t Seen = 0;
  Rel.scan(Tuple(), Spec->columns(), [&](const Tuple &) {
    return ++Seen < 7;
  });
  EXPECT_EQ(Seen, 7u);
}

TEST_F(ScanRowTest, WideRowsAllocateOncePerScan) {
  auto ScanAll = [&] {
    size_t Rows = 0;
    Rel.scan(Tuple(), Spec->columns(), [&](const Tuple &T) {
      Rows += T.size() == 6;
      return true;
    });
    return Rows;
  };
  ASSERT_EQ(ScanAll(), 200u); // plans the shape
  size_t Before = AllocCount;
  EXPECT_EQ(ScanAll(), 200u);
  // The row grows past its inline storage on the first result only.
  EXPECT_LE(AllocCount - Before, 1u);
}

} // namespace
