//===- tests/rel/RelationTest.cpp - Spec-oracle relation tests ---*- C++ -*-===//
//
// Part of the RelC data representation synthesis library.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Tests the executable specification of Section 2: the five relational
/// operations and the relational algebra, including the paper's running
/// scheduler example (relation rs, Equation 1).
///
//===----------------------------------------------------------------------===//

#include "rel/Relation.h"

#include <gtest/gtest.h>

#include <algorithm>

using namespace relc;

namespace {

class RelationTest : public ::testing::Test {
protected:
  void SetUp() override {
    Cat.add("ns");
    Cat.add("pid");
    Cat.add("state");
    Cat.add("cpu");
    // The paper's FD: ns, pid → state, cpu.
    Fd.add(Cat.parseSet("ns, pid"), Cat.parseSet("state, cpu"));
  }

  Tuple proc(int64_t Ns, int64_t Pid, int64_t State, int64_t Cpu) {
    return TupleBuilder(Cat)
        .set("ns", Ns)
        .set("pid", Pid)
        .set("state", State)
        .set("cpu", Cpu)
        .build();
  }

  /// The relation rs of Equation (1); S=0, R=1.
  Relation paperExample() {
    Relation R;
    R.insert(proc(1, 1, 0, 7));
    R.insert(proc(1, 2, 1, 4));
    R.insert(proc(2, 1, 0, 5));
    return R;
  }

  Catalog Cat;
  FuncDeps Fd;
};

TEST_F(RelationTest, EmptyRelation) {
  Relation R;
  EXPECT_TRUE(R.empty());
  EXPECT_EQ(R.size(), 0u);
}

TEST_F(RelationTest, InsertIsSetUnion) {
  Relation R;
  R.insert(proc(1, 1, 0, 7));
  R.insert(proc(1, 1, 0, 7)); // duplicate collapses
  EXPECT_EQ(R.size(), 1u);
  EXPECT_TRUE(R.contains(proc(1, 1, 0, 7)));
}

TEST_F(RelationTest, QueryByState) {
  // query rs 〈state: R〉 {ns, pid} — the running processes.
  Relation R = paperExample();
  Tuple Pat = TupleBuilder(Cat).set("state", 1).build();
  auto Rows = R.query(Pat, Cat.parseSet("ns, pid"));
  ASSERT_EQ(Rows.size(), 1u);
  EXPECT_EQ(Rows[0].get(Cat.get("ns")).asInt(), 1);
  EXPECT_EQ(Rows[0].get(Cat.get("pid")).asInt(), 2);
}

TEST_F(RelationTest, QueryByKey) {
  // query rs 〈ns: 2, pid: 1〉 {state, cpu}.
  Relation R = paperExample();
  Tuple Pat = TupleBuilder(Cat).set("ns", 2).set("pid", 1).build();
  auto Rows = R.query(Pat, Cat.parseSet("state, cpu"));
  ASSERT_EQ(Rows.size(), 1u);
  EXPECT_EQ(Rows[0].get(Cat.get("cpu")).asInt(), 5);
}

TEST_F(RelationTest, QueryEmptyPatternReturnsAll) {
  Relation R = paperExample();
  auto Rows = R.query(Tuple(), Cat.allColumns());
  EXPECT_EQ(Rows.size(), 3u);
}

TEST_F(RelationTest, QueryProjectionDeduplicates) {
  // Two sleeping processes project onto state={S} as one row.
  Relation R = paperExample();
  auto Rows = R.query(Tuple(), Cat.parseSet("state"));
  EXPECT_EQ(Rows.size(), 2u); // states {S, R}
}

TEST_F(RelationTest, QueryNoMatch) {
  Relation R = paperExample();
  Tuple Pat = TupleBuilder(Cat).set("ns", 99).build();
  EXPECT_TRUE(R.query(Pat, Cat.parseSet("pid")).empty());
}

TEST_F(RelationTest, RemoveByPartialPattern) {
  // remove r 〈ns: 1〉 removes both namespace-1 processes.
  Relation R = paperExample();
  Tuple Pat = TupleBuilder(Cat).set("ns", 1).build();
  EXPECT_EQ(R.remove(Pat), 2u);
  EXPECT_EQ(R.size(), 1u);
  EXPECT_TRUE(R.contains(proc(2, 1, 0, 5)));
}

TEST_F(RelationTest, RemoveByKey) {
  Relation R = paperExample();
  Tuple Pat = TupleBuilder(Cat).set("ns", 1).set("pid", 2).build();
  EXPECT_EQ(R.remove(Pat), 1u);
  EXPECT_EQ(R.size(), 2u);
}

TEST_F(RelationTest, RemoveEmptyPatternClearsAll) {
  Relation R = paperExample();
  EXPECT_EQ(R.remove(Tuple()), 3u);
  EXPECT_TRUE(R.empty());
}

TEST_F(RelationTest, RemoveNoMatch) {
  Relation R = paperExample();
  Tuple Pat = TupleBuilder(Cat).set("ns", 42).build();
  EXPECT_EQ(R.remove(Pat), 0u);
  EXPECT_EQ(R.size(), 3u);
}

TEST_F(RelationTest, UpdateMarksProcessSleeping) {
  // update r 〈ns: 1, pid: 2〉 〈state: S〉 — the paper's example.
  Relation R = paperExample();
  Tuple Pat = TupleBuilder(Cat).set("ns", 1).set("pid", 2).build();
  Tuple Chg = TupleBuilder(Cat).set("state", 0).build();
  EXPECT_EQ(R.update(Pat, Chg), 1u);
  EXPECT_TRUE(R.contains(proc(1, 2, 0, 4)));
  EXPECT_FALSE(R.contains(proc(1, 2, 1, 4)));
  EXPECT_EQ(R.size(), 3u);
}

TEST_F(RelationTest, UpdateNonKeyPatternTouchesAllMatches) {
  Relation R = paperExample();
  Tuple Pat = TupleBuilder(Cat).set("state", 0).build();
  Tuple Chg = TupleBuilder(Cat).set("cpu", 0).build();
  EXPECT_EQ(R.update(Pat, Chg), 2u);
  EXPECT_TRUE(R.contains(proc(1, 1, 0, 0)));
  EXPECT_TRUE(R.contains(proc(2, 1, 0, 0)));
}

TEST_F(RelationTest, UpdateMergingTuplesShrinksRelation) {
  // Updating a non-key pattern can merge tuples (update semantics are a
  // set comprehension — the spec allows it even though decompositions
  // restrict it).
  Relation R;
  R.insert(proc(1, 1, 0, 7));
  R.insert(proc(1, 2, 0, 7));
  Tuple Pat = TupleBuilder(Cat).set("state", 0).build();
  Tuple Chg = TupleBuilder(Cat).set("pid", 9).build();
  R.update(Pat, Chg);
  EXPECT_EQ(R.size(), 1u);
  EXPECT_TRUE(R.contains(proc(1, 9, 0, 7)));
}

TEST_F(RelationTest, SatisfiesFds) {
  Relation R = paperExample();
  EXPECT_TRUE(R.satisfies(Fd));

  // The paper's r' counterexample (Section 3.4) violates ns,pid → state.
  Relation Bad;
  Bad.insert(proc(1, 2, 0, 42));
  Bad.insert(proc(1, 2, 1, 34));
  EXPECT_FALSE(Bad.satisfies(Fd));
}

TEST_F(RelationTest, InsertPreservesFdsCheck) {
  Relation R = paperExample();
  EXPECT_TRUE(R.insertPreservesFds(proc(3, 1, 1, 0), Fd));
  // Same key, different cpu: would violate the FD.
  EXPECT_FALSE(R.insertPreservesFds(proc(1, 1, 0, 999), Fd));
  // Exact duplicate: fine.
  EXPECT_TRUE(R.insertPreservesFds(proc(1, 1, 0, 7), Fd));
}

TEST_F(RelationTest, ProjectAlgebra) {
  Relation R = paperExample();
  Relation P = R.project(Cat.parseSet("ns"));
  EXPECT_EQ(P.size(), 2u); // ns ∈ {1, 2}
  EXPECT_EQ(P.columns(), Cat.parseSet("ns"));
}

TEST_F(RelationTest, NaturalJoinRecombines) {
  // π_{ns,pid,state} r ⋈ π_{ns,pid,cpu} r = r when ns,pid is a key.
  Relation R = paperExample();
  Relation L = R.project(Cat.parseSet("ns, pid, state"));
  Relation Rt = R.project(Cat.parseSet("ns, pid, cpu"));
  EXPECT_EQ(Relation::join(L, Rt), R);
}

TEST_F(RelationTest, JoinDisjointColumnsIsCrossProduct) {
  Catalog C2;
  C2.add("a");
  C2.add("b");
  Relation L(ColumnSet({0}));
  Relation Rr(ColumnSet({1}));
  for (int I = 0; I < 3; ++I) {
    Tuple T;
    T.set(0, Value::ofInt(I));
    L.insert(T);
  }
  for (int I = 0; I < 2; ++I) {
    Tuple T;
    T.set(1, Value::ofInt(I));
    Rr.insert(T);
  }
  EXPECT_EQ(Relation::join(L, Rr).size(), 6u);
}

TEST_F(RelationTest, JoinWithEmptyIsEmpty) {
  Relation R = paperExample();
  Relation Empty(R.columns());
  EXPECT_TRUE(Relation::join(R, Empty).empty());
}

TEST_F(RelationTest, UnionWith) {
  Relation A;
  A.insert(proc(1, 1, 0, 7));
  Relation B;
  B.insert(proc(1, 1, 0, 7));
  B.insert(proc(2, 2, 1, 3));
  Relation U = Relation::unionWith(A, B);
  EXPECT_EQ(U.size(), 2u);
}

TEST_F(RelationTest, UnionInAccumulatesInPlace) {
  Relation B;
  B.insert(proc(1, 1, 0, 7));
  B.insert(proc(2, 2, 1, 3));
  // A columnless-empty accumulator takes the other side's columns.
  Relation Acc;
  Acc.unionIn(B);
  EXPECT_EQ(Acc, B);
  EXPECT_EQ(Acc.columns(), B.columns());
  // A columnless-empty right side is a no-op.
  Acc.unionIn(Relation());
  EXPECT_EQ(Acc, B);
  Relation C;
  C.insert(proc(2, 2, 1, 3));
  C.insert(proc(3, 1, 0, 1));
  Acc.unionIn(C);
  EXPECT_EQ(Acc.size(), 3u);
  EXPECT_EQ(Acc, Relation::unionWith(B, C));
}

TEST_F(RelationTest, EqualityIsSetEquality) {
  Relation A = paperExample();
  Relation B;
  // Insert in a different order.
  B.insert(proc(2, 1, 0, 5));
  B.insert(proc(1, 2, 1, 4));
  B.insert(proc(1, 1, 0, 7));
  EXPECT_EQ(A, B);
  B.remove(TupleBuilder(Cat).set("ns", 2).build());
  EXPECT_NE(A, B);
}

TEST_F(RelationTest, TuplesReturnsAllRows) {
  Relation R = paperExample();
  auto All = R.tuples();
  EXPECT_EQ(All.size(), 3u);
  EXPECT_NE(std::find(All.begin(), All.end(), proc(1, 2, 1, 4)), All.end());
}

} // namespace
