//===- rel/BindingFrame.h - Dense binding register file ---------*- C++ -*-===//
//
// Part of the RelC data representation synthesis library.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The execution-time binding state of one query: a dense Value
/// register per catalog column plus a ColumnSet mask of which registers
/// are bound. The plan interpreter threads ONE mutable frame through
/// the whole plan instead of materializing a merged Tuple per step —
/// binding a column is a store + bit set, and undoing everything a
/// subplan bound is restoring the saved mask (stale register values
/// become unreachable; they are never cleared).
///
/// Frames are stack-friendly: for catalogs of up to
/// BindingFrame::InlineColumns columns (every system in this repo) a
/// frame performs no heap allocation at all.
///
//===----------------------------------------------------------------------===//

#ifndef RELC_REL_BINDINGFRAME_H
#define RELC_REL_BINDINGFRAME_H

#include "rel/Tuple.h"
#include "rel/TupleView.h"

namespace relc {

class BindingFrame {
public:
  /// Catalogs at most this wide never heap-allocate a frame.
  static constexpr unsigned InlineColumns = 8;

  BindingFrame() = default;

  /// A frame with registers for columns 0..NumColumns-1, all unbound.
  explicit BindingFrame(unsigned NumColumns) { reset(NumColumns); }

  /// Re-sizes to \p NumColumns registers and unbinds everything.
  void reset(unsigned NumColumns) {
    assert(NumColumns <= 64 && "catalogs are limited to 64 columns");
    Regs.resize(NumColumns);
    Mask = ColumnSet();
  }

  unsigned numColumns() const { return static_cast<unsigned>(Regs.size()); }

  /// The currently-bound columns.
  ColumnSet bound() const { return Mask; }
  bool has(ColumnId Id) const { return Mask.contains(Id); }

  const Value &get(ColumnId Id) const {
    assert(has(Id) && "column not bound in frame");
    return Regs[Id];
  }

  /// Binds or overwrites register \p Id. O(1).
  void bind(ColumnId Id, const Value &V) {
    assert(Id < Regs.size() && "column beyond the frame's registers");
    Regs[Id] = V;
    Mask.insert(Id);
  }

  /// Unbinds register \p Id (the value goes stale in place). O(1).
  void unbind(ColumnId Id) { Mask.erase(Id); }

  /// Binds every column of \p T (values from \p T win).
  void bind(const Tuple &T) {
    T.forEach([&](ColumnId Id, const Value &V) { bind(Id, V); });
  }

  /// Cheap checkpoint of the bound mask. Values bound after a save
  /// stay in their registers, but restore() makes them unreachable —
  /// this is what makes per-plan-step backtracking O(1).
  ColumnSet save() const { return Mask; }
  void restore(ColumnSet Saved) { Mask = Saved; }

  /// True if \p T agrees with the frame on every commonly-bound column
  /// (the frame analogue of Tuple::matches).
  bool matches(const Tuple &T) const {
    return T.forEach([&](ColumnId Id, const Value &V) {
      return !has(Id) || Regs[Id] == V;
    });
  }

  /// Filters and extends in one pass: if \p T agrees on all commonly-
  /// bound columns, binds T's remaining columns and returns true.
  /// On mismatch returns false; columns bound before the mismatch stay
  /// bound — callers bracket the call with save()/restore(), which
  /// undoes them wholesale.
  bool matchAndBind(const Tuple &T) {
    return T.forEach([&](ColumnId Id, const Value &V) {
      if (has(Id))
        return Regs[Id] == V;
      bind(Id, V);
      return true;
    });
  }

  /// Borrowed view of bound columns \p C (for heterogeneous map
  /// probes); requires C ⊆ bound().
  TupleView view(ColumnSet C) const {
    assert(C.subsetOf(Mask) && "view of unbound frame columns");
    return TupleView(Regs.begin(), denseMask(), C);
  }

  /// Materializes the projection onto \p C; requires C ⊆ bound().
  Tuple toTuple(ColumnSet C) const {
    Tuple T;
    toTuple(C, T);
    return T;
  }

  /// As above, refilling \p Out in place: a caller reusing one tuple
  /// per row (SynthesizedRelation::scan) allocates at most once.
  void toTuple(ColumnSet C, Tuple &Out) const {
    assert(C.subsetOf(Mask) && "projection of unbound frame columns");
    Out.assignDense(C, Regs.begin());
  }

private:
  /// The mask the register array covers: every catalog column.
  uint64_t denseMask() const {
    return ColumnSet::allOf(numColumns()).mask();
  }

  SmallVector<Value, InlineColumns> Regs;
  ColumnSet Mask;
};

} // namespace relc

#endif // RELC_REL_BINDINGFRAME_H
