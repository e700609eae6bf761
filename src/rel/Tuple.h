//===- rel/Tuple.h - Partial tuples ------------------------------*- C++ -*-===//
//
// Part of the RelC data representation synthesis library.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Tuples per Section 2 of the paper: a mapping from a set of columns to
/// values. Tuples may be partial (query/remove/update patterns bind only
/// some columns). Values are stored densely in increasing ColumnId order.
///
//===----------------------------------------------------------------------===//

#ifndef RELC_REL_TUPLE_H
#define RELC_REL_TUPLE_H

#include "rel/Catalog.h"
#include "rel/ColumnSet.h"
#include "support/Bits.h"
#include "support/SmallVector.h"
#include "support/Value.h"

#include <string>
#include <type_traits>

namespace relc {

/// A (possibly partial) tuple: a valuation for the columns in columns().
class Tuple {
public:
  /// The empty tuple 〈〉.
  Tuple() = default;

  ColumnSet columns() const { return Cols; }
  bool empty() const { return Cols.empty(); }
  unsigned size() const { return Cols.size(); }

  bool has(ColumnId Id) const { return Cols.contains(Id); }

  /// \returns the value of column \p Id; asserts that it is bound.
  const Value &get(ColumnId Id) const {
    assert(has(Id) && "column not bound in tuple");
    return Vals[rank(Id)];
  }

  /// The dense value array, ordered by increasing ColumnId (the
  /// borrowed-view machinery in TupleView indexes this directly).
  const Value *data() const { return Vals.begin(); }

  /// Calls \p Fn(ColumnId, const Value &) per bound column in
  /// increasing column order — one pass, no per-column rank
  /// recomputation. \p Fn may return void, or bool (false stops the
  /// iteration early). \returns false if stopped.
  template <typename FnT> bool forEach(FnT &&Fn) const {
    unsigned Idx = 0;
    for (ColumnId Id : Cols) {
      if constexpr (std::is_void_v<
                        std::invoke_result_t<FnT &, ColumnId, const Value &>>) {
        Fn(Id, Vals[Idx]);
      } else {
        if (!Fn(Id, Vals[Idx]))
          return false;
      }
      ++Idx;
    }
    return true;
  }

  /// Binds or overwrites column \p Id with \p V.
  void set(ColumnId Id, Value V);

  /// Drops column \p Id if bound.
  void unset(ColumnId Id);

  /// Rebinds this tuple to exactly the columns \p C, column Id taking
  /// \p Regs[Id] (a dense register file indexed by ColumnId, as in
  /// BindingFrame). Reuses the value storage: refilling a tuple with a
  /// row no wider than one it held before never allocates.
  void assignDense(ColumnSet C, const Value *Regs);

  /// True if this tuple extends \p S (written t ⊇ s): every column of
  /// \p S is bound here with an equal value.
  bool extends(const Tuple &S) const;

  /// True if the tuples agree on all common columns (written t ∼ s).
  bool matches(const Tuple &S) const;

  /// Projection π_C; requires C ⊆ columns().
  Tuple project(ColumnSet C) const;

  /// Projection onto columns() ∩ C (no requirement that C be bound).
  Tuple projectIfPresent(ColumnSet C) const;

  /// Merge s ◁ u per the paper: values from \p U win wherever both bind
  /// a column.
  Tuple merge(const Tuple &U) const;

  bool operator==(const Tuple &Other) const {
    return Cols == Other.Cols && Vals == Other.Vals;
  }
  bool operator!=(const Tuple &Other) const { return !(*this == Other); }

  /// Arbitrary-but-total order usable as a container key (column mask
  /// first, then values lexicographically).
  bool operator<(const Tuple &Other) const;

  size_t hash() const;

  /// Renders "〈ns: 1, pid: 2〉" with names from \p Cat.
  std::string str(const Catalog &Cat) const;

  /// Renders values only, e.g. "(1, 2)".
  std::string valuesStr() const;

private:
  /// Index of \p Id within Vals: the number of bound columns below it.
  unsigned rank(ColumnId Id) const {
    uint64_t Below = Cols.mask() & ((uint64_t(1) << Id) - 1);
    return bits::popcount(Below);
  }

  ColumnSet Cols;
  SmallVector<Value, 4> Vals;
};

/// Convenience builder for tests/examples:
///   TupleBuilder(Cat).set("ns", 1).set("name", "foo").build()
class TupleBuilder {
public:
  explicit TupleBuilder(const Catalog &Cat) : Cat(Cat) {}

  TupleBuilder &set(std::string_view Col, int64_t V) {
    T.set(Cat.get(Col), Value::ofInt(V));
    return *this;
  }
  TupleBuilder &set(std::string_view Col, std::string_view V) {
    T.set(Cat.get(Col), Value::ofString(V));
    return *this;
  }
  TupleBuilder &set(std::string_view Col, Value V) {
    T.set(Cat.get(Col), V);
    return *this;
  }

  Tuple build() const { return T; }

private:
  const Catalog &Cat;
  Tuple T;
};

} // namespace relc

template <> struct std::hash<relc::Tuple> {
  size_t operator()(const relc::Tuple &T) const { return T.hash(); }
};

#endif // RELC_REL_TUPLE_H
