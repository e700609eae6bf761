//===- systems/ZtopoRelational.h - Synthesized tile cache -------*- C++ -*-===//
//
// Part of the RelC data representation synthesis library.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// ZTopo's tile cache as a relation (Section 6.2):
/// 〈tile, state, size, stamp〉 with tile → state,size,stamp. The
/// decomposition mirrors the original structure — a hash table over
/// tiles joined with per-state intrusive lists — but the agreement
/// between the two views, which the original asserted dynamically, is
/// guaranteed by construction here (the paper notes those assertions
/// were simply deleted in the synthesized version). LRU recency is the
/// `stamp` column; eviction scans the state's list for the minimum.
///
//===----------------------------------------------------------------------===//

#ifndef RELC_SYSTEMS_ZTOPORELATIONAL_H
#define RELC_SYSTEMS_ZTOPORELATIONAL_H

#include <cstddef>
#include "baselines/ZtopoBaseline.h" // for TileState
#include "runtime/SynthesizedRelation.h"

namespace relc {

class ZtopoRelational {
public:
  static RelSpecRef makeSpec();
  static Decomposition makeDefaultDecomposition(const RelSpecRef &Spec);

  ZtopoRelational();
  explicit ZtopoRelational(Decomposition D);

  bool touchTile(int64_t TileId, TileState &StateOut);
  void addTile(int64_t TileId, TileState State, int64_t Size);
  bool setState(int64_t TileId, TileState State);
  std::vector<int64_t> evictToBudget(TileState State, int64_t Budget);

  size_t numTiles() const { return Rel.size(); }
  int64_t bytesIn(TileState State) const {
    return StateBytes[static_cast<int>(State)];
  }

  const SynthesizedRelation &relation() const { return Rel; }

private:
  /// An eviction candidate, ordered by stamp.
  struct Victim {
    int64_t Stamp, Tile, Size;
    bool operator<(const Victim &O) const { return Stamp < O.Stamp; }
  };

  SynthesizedRelation Rel;
  ColumnId ColTile, ColState, ColSize, ColStamp;
  /// evictToBudget's max-heap, kept so calls reuse its storage.
  std::vector<Victim> EvictHeap;
  int64_t StateBytes[3] = {0, 0, 0};
  int64_t Clock = 0;
};

} // namespace relc

#endif // RELC_SYSTEMS_ZTOPORELATIONAL_H
