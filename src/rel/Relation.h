//===- rel/Relation.h - Reference relation (spec oracle) --------*- C++ -*-===//
//
// Part of the RelC data representation synthesis library.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The executable specification of Section 2: a relation as a plain set
/// of tuples with the five operations (empty/insert/remove/update/query)
/// and the relational algebra used by the abstraction function α. The
/// synthesized representations are tested against this oracle.
///
//===----------------------------------------------------------------------===//

#ifndef RELC_REL_RELATION_H
#define RELC_REL_RELATION_H

#include "rel/FunctionalDeps.h"
#include "rel/Tuple.h"

#include <unordered_set>
#include <vector>

namespace relc {

/// A set of tuples over identical columns. Insertion order is not
/// semantically meaningful; comparisons are set comparisons.
class Relation {
public:
  /// An empty relation with no columns fixed yet (columns are set by the
  /// first insertion or by the explicit constructor).
  Relation() = default;

  /// An empty relation over \p Columns.
  explicit Relation(ColumnSet Columns) : Cols(Columns), HaveCols(true) {}

  ColumnSet columns() const { return Cols; }
  size_t size() const { return Tuples.size(); }
  bool empty() const { return Tuples.empty(); }

  bool contains(const Tuple &T) const { return Tuples.count(T) != 0; }

  /// insert r t — set union with {t}. \p T must be a full tuple.
  void insert(const Tuple &T);

  /// remove r s — removes all tuples extending \p S.
  /// \returns the number of tuples removed.
  size_t remove(const Tuple &S);

  /// update r s u — merges \p U into every tuple extending \p S.
  /// \returns the number of tuples updated.
  size_t update(const Tuple &S, const Tuple &U);

  /// query r s C — the projection onto \p C of tuples extending \p S.
  /// The result is a set (duplicates collapse).
  std::vector<Tuple> query(const Tuple &S, ColumnSet C) const;

  /// All tuples, in unspecified order.
  std::vector<Tuple> tuples() const;

  /// True if the FDs ∆ hold on this relation (r |=fd ∆).
  bool satisfies(const FuncDeps &Deps) const;

  /// True if inserting \p T would keep \p Deps satisfied.
  bool insertPreservesFds(const Tuple &T, const FuncDeps &Deps) const;

  //===--------------------------------------------------------------------===
  // Relational algebra (used by the abstraction function and tests).
  //===--------------------------------------------------------------------===

  /// π_C r.
  Relation project(ColumnSet C) const;

  /// r1 ⋈ r2 (natural join).
  static Relation join(const Relation &R1, const Relation &R2);

  /// r1 ∪ r2; columns must agree (or either side may be columnless-empty).
  static Relation unionWith(const Relation &R1, const Relation &R2);

  /// r := r ∪ r2, in place: O(|r2|), where unionWith also copies r.
  /// Same column rules as unionWith.
  void unionIn(const Relation &R2);

  bool operator==(const Relation &Other) const;
  bool operator!=(const Relation &Other) const { return !(*this == Other); }

  std::string str(const Catalog &Cat) const;

private:
  void fixColumns(ColumnSet C);

  ColumnSet Cols;
  bool HaveCols = false;
  std::unordered_set<Tuple> Tuples;
};

} // namespace relc

#endif // RELC_REL_RELATION_H
