//===- rel/Tuple.cpp - Partial tuples --------------------------------------===//
//
// Part of the RelC data representation synthesis library.
//
//===----------------------------------------------------------------------===//

#include "rel/Tuple.h"

#include "support/Hashing.h"

using namespace relc;

void Tuple::set(ColumnId Id, Value V) {
  if (has(Id)) {
    Vals[rank(Id)] = V;
    return;
  }
  unsigned Idx = rank(Id);
  Cols.insert(Id);
  Vals.insert(Vals.begin() + Idx, V);
}

void Tuple::unset(ColumnId Id) {
  if (!has(Id))
    return;
  unsigned Idx = rank(Id);
  Vals.erase(Vals.begin() + Idx);
  Cols.erase(Id);
}

void Tuple::assignDense(ColumnSet C, const Value *Regs) {
  Cols = C;
  Vals.resize(C.size());
  unsigned Idx = 0;
  for (ColumnId Id : C)
    Vals[Idx++] = Regs[Id];
}

bool Tuple::extends(const Tuple &S) const {
  if (!S.Cols.subsetOf(Cols))
    return false;
  for (ColumnId Id : S.Cols)
    if (!(get(Id) == S.get(Id)))
      return false;
  return true;
}

bool Tuple::matches(const Tuple &S) const {
  ColumnSet Common = Cols.intersect(S.Cols);
  for (ColumnId Id : Common)
    if (!(get(Id) == S.get(Id)))
      return false;
  return true;
}

Tuple Tuple::project(ColumnSet C) const {
  assert(C.subsetOf(Cols) && "projection columns must be bound");
  return projectIfPresent(C);
}

Tuple Tuple::projectIfPresent(ColumnSet C) const {
  Tuple Result;
  Result.Cols = Cols.intersect(C);
  forEach([&](ColumnId Id, const Value &V) {
    if (Result.Cols.contains(Id))
      Result.Vals.push_back(V);
  });
  return Result;
}

Tuple Tuple::merge(const Tuple &U) const {
  Tuple Result = *this;
  U.forEach([&](ColumnId Id, const Value &V) { Result.set(Id, V); });
  return Result;
}

bool Tuple::operator<(const Tuple &Other) const {
  if (Cols != Other.Cols)
    return Cols < Other.Cols;
  return Vals < Other.Vals;
}

size_t Tuple::hash() const {
  size_t Seed = std::hash<uint64_t>()(Cols.mask());
  for (const Value &V : Vals)
    Seed = hashCombine(Seed, V.hash());
  return Seed;
}

std::string Tuple::str(const Catalog &Cat) const {
  std::string Result = "<";
  bool NeedComma = false;
  forEach([&](ColumnId Id, const Value &V) {
    if (NeedComma)
      Result += ", ";
    Result += Cat.name(Id);
    Result += ": ";
    Result += V.str();
    NeedComma = true;
  });
  Result += ">";
  return Result;
}

std::string Tuple::valuesStr() const {
  std::string Result = "(";
  bool NeedComma = false;
  for (const Value &V : Vals) {
    if (NeedComma)
      Result += ", ";
    Result += V.str();
    NeedComma = true;
  }
  Result += ")";
  return Result;
}
