//===- ds/DsKind.h - Primitive data structure kinds -------------*- C++ -*-===//
//
// Part of the RelC data representation synthesis library.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The ψ of a map decomposition: which primitive data structure backs a
/// map edge (Fig. 3). Each kind advertises its lookup cost mψ(n) for the
/// query cost model of Section 4.3 and its capabilities (erase-by-node
/// for intrusive structures, dense-integer keying for vectors).
///
//===----------------------------------------------------------------------===//

#ifndef RELC_DS_DSKIND_H
#define RELC_DS_DSKIND_H

#include <cassert>
#include <cmath>
#include <optional>
#include <string_view>

namespace relc {

/// The primitive container kinds shipped with RelC. The set is
/// extensible: the paper's requirement is only a key-value associative
/// map interface (see EdgeMap).
enum class DsKind {
  DList,     ///< Non-intrusive doubly-linked list of key/value pairs.
  HashTable, ///< Chained hash table.
  Btree,     ///< Ordered tree map (AVL; the paper's std::map role).
  Vector,    ///< Dense array indexed by a small integer key.
  IList,     ///< Intrusive doubly-linked list (hooks live in the child).
  ITree,     ///< Intrusive ordered tree (hooks live in the child).
};

inline constexpr DsKind AllDsKinds[] = {DsKind::DList,  DsKind::HashTable,
                                        DsKind::Btree,  DsKind::Vector,
                                        DsKind::IList,  DsKind::ITree};

inline const char *dsKindName(DsKind K) {
  switch (K) {
  case DsKind::DList:
    return "dlist";
  case DsKind::HashTable:
    return "htable";
  case DsKind::Btree:
    return "btree";
  case DsKind::Vector:
    return "vector";
  case DsKind::IList:
    return "ilist";
  case DsKind::ITree:
    return "itree";
  }
  assert(false && "unknown DsKind");
  return "?";
}

inline std::optional<DsKind> parseDsKind(std::string_view Name) {
  for (DsKind K : AllDsKinds)
    if (Name == dsKindName(K))
      return K;
  return std::nullopt;
}

/// mψ(n): estimated memory accesses to look up a key among \p N entries
/// (Section 4.3). Chosen to reproduce the paper's examples (log2 n for
/// trees, n for lists).
inline double dsLookupCost(DsKind K, double N) {
  double N1 = N < 1 ? 1 : N;
  switch (K) {
  case DsKind::DList:
  case DsKind::IList:
    return N1;
  case DsKind::HashTable:
    return 1.5;
  case DsKind::Btree:
  case DsKind::ITree:
    return std::log2(N1) + 1;
  case DsKind::Vector:
    return 1.0;
  }
  assert(false && "unknown DsKind");
  return N1;
}

/// True for intrusive structures, where an entry can be unlinked given
/// only the child node (no key search). Enables the cheaper removal
/// plans of Section 4.5.
inline bool dsSupportsEraseByNode(DsKind K) {
  return K == DsKind::IList || K == DsKind::ITree;
}

/// Relative cost of one point lookup, for choosing among containers
/// that reach the same node: 0 dense/hashed, 1 ordered, 2 linear.
inline int dsProbeRank(DsKind K) {
  switch (K) {
  case DsKind::Vector:
  case DsKind::HashTable:
    return 0;
  case DsKind::Btree:
  case DsKind::ITree:
    return 1;
  case DsKind::DList:
  case DsKind::IList:
    return 2;
  }
  assert(false && "unknown DsKind");
  return 3;
}

/// True if ψ requires keys to be single non-negative machine integers.
inline bool dsRequiresDenseIntKey(DsKind K) { return K == DsKind::Vector; }

/// True if scans yield keys in sorted order.
inline bool dsOrderedScan(DsKind K) {
  return K == DsKind::Btree || K == DsKind::ITree || K == DsKind::Vector;
}

} // namespace relc

#endif // RELC_DS_DSKIND_H
