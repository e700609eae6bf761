//===- rel/Relation.cpp - Reference relation (spec oracle) -----------------===//
//
// Part of the RelC data representation synthesis library.
//
//===----------------------------------------------------------------------===//

#include "rel/Relation.h"

#include <algorithm>

using namespace relc;

void Relation::fixColumns(ColumnSet C) {
  if (!HaveCols) {
    Cols = C;
    HaveCols = true;
    return;
  }
  assert(Cols == C && "all tuples of a relation share one column set");
}

void Relation::insert(const Tuple &T) {
  fixColumns(T.columns());
  Tuples.insert(T);
}

size_t Relation::remove(const Tuple &S) {
  size_t Removed = 0;
  for (auto It = Tuples.begin(); It != Tuples.end();) {
    if (It->extends(S)) {
      It = Tuples.erase(It);
      ++Removed;
    } else {
      ++It;
    }
  }
  return Removed;
}

size_t Relation::update(const Tuple &S, const Tuple &U) {
  std::vector<Tuple> Changed;
  size_t Updated = 0;
  for (auto It = Tuples.begin(); It != Tuples.end();) {
    if (It->extends(S)) {
      Changed.push_back(It->merge(U));
      It = Tuples.erase(It);
      ++Updated;
    } else {
      ++It;
    }
  }
  for (Tuple &T : Changed)
    Tuples.insert(std::move(T));
  return Updated;
}

std::vector<Tuple> Relation::query(const Tuple &S, ColumnSet C) const {
  std::unordered_set<Tuple> Seen;
  std::vector<Tuple> Result;
  for (const Tuple &T : Tuples) {
    if (!T.extends(S))
      continue;
    Tuple Projected = T.project(C);
    if (Seen.insert(Projected).second)
      Result.push_back(std::move(Projected));
  }
  return Result;
}

std::vector<Tuple> Relation::tuples() const {
  return std::vector<Tuple>(Tuples.begin(), Tuples.end());
}

bool Relation::satisfies(const FuncDeps &Deps) const {
  // Quadratic check; the oracle is only used on test-sized relations.
  std::vector<Tuple> All = tuples();
  for (const FuncDep &Dep : Deps.deps())
    for (size_t I = 0; I != All.size(); ++I)
      for (size_t J = I + 1; J != All.size(); ++J) {
        const Tuple &A = All[I];
        const Tuple &B = All[J];
        if (A.project(Dep.Lhs) == B.project(Dep.Lhs) &&
            A.project(Dep.Rhs) != B.project(Dep.Rhs))
          return false;
      }
  return true;
}

bool Relation::insertPreservesFds(const Tuple &T,
                                  const FuncDeps &Deps) const {
  for (const FuncDep &Dep : Deps.deps()) {
    Tuple Key = T.project(Dep.Lhs);
    Tuple Val = T.project(Dep.Rhs);
    for (const Tuple &Existing : Tuples)
      if (Existing.project(Dep.Lhs) == Key &&
          Existing.project(Dep.Rhs) != Val)
        return false;
  }
  return true;
}

Relation Relation::project(ColumnSet C) const {
  Relation Result(Cols.intersect(C));
  for (const Tuple &T : Tuples)
    Result.insert(T.project(Cols.intersect(C)));
  return Result;
}

Relation Relation::join(const Relation &R1, const Relation &R2) {
  Relation Result(R1.Cols.unionWith(R2.Cols));
  for (const Tuple &A : R1.Tuples)
    for (const Tuple &B : R2.Tuples)
      if (A.matches(B))
        Result.insert(A.merge(B));
  return Result;
}

Relation Relation::unionWith(const Relation &R1, const Relation &R2) {
  Relation Result = R1;
  Result.unionIn(R2);
  return Result;
}

void Relation::unionIn(const Relation &R2) {
  if (R2.empty() && !R2.HaveCols)
    return;
  if (empty() && !HaveCols) {
    *this = R2;
    return;
  }
  for (const Tuple &T : R2.Tuples)
    insert(T);
}

bool Relation::operator==(const Relation &Other) const {
  if (Tuples.size() != Other.Tuples.size())
    return false;
  for (const Tuple &T : Tuples)
    if (!Other.contains(T))
      return false;
  return true;
}

std::string Relation::str(const Catalog &Cat) const {
  std::vector<Tuple> All = tuples();
  std::sort(All.begin(), All.end());
  std::string Result = "{";
  bool NeedComma = false;
  for (const Tuple &T : All) {
    if (NeedComma)
      Result += ", ";
    Result += T.str(Cat);
    NeedComma = true;
  }
  Result += "}";
  return Result;
}
