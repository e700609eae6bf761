//===- systems/ZtopoRelational.cpp - Synthesized tile cache ------------------===//
//
// Part of the RelC data representation synthesis library.
//
//===----------------------------------------------------------------------===//

#include "systems/ZtopoRelational.h"

#include "decomp/Builder.h"

#include <algorithm>

using namespace relc;

RelSpecRef ZtopoRelational::makeSpec() {
  return RelSpec::make("tiles", {"tile", "state", "size", "stamp"},
                       {{"tile", "state, size, stamp"}});
}

Decomposition
ZtopoRelational::makeDefaultDecomposition(const RelSpecRef &Spec) {
  // Hash over tiles joined with per-state intrusive lists over shared
  // per-tile nodes — the original's hash-table-plus-state-lists layout.
  DecompBuilder B(Spec);
  NodeId W = B.addNode("w", "tile, state", B.unit("size, stamp"));
  NodeId Y = B.addNode("y", "tile", B.map("state", DsKind::DList, W));
  NodeId Z = B.addNode("z", "state", B.map("tile", DsKind::IList, W));
  B.addNode("x", "",
            B.join(B.map("tile", DsKind::HashTable, Y),
                   B.map("state", DsKind::Vector, Z)));
  return B.build();
}

ZtopoRelational::ZtopoRelational()
    : ZtopoRelational(makeDefaultDecomposition(makeSpec())) {}

ZtopoRelational::ZtopoRelational(Decomposition D) : Rel(std::move(D)) {
  const Catalog &Cat = Rel.catalog();
  ColTile = Cat.get("tile");
  ColState = Cat.get("state");
  ColSize = Cat.get("size");
  ColStamp = Cat.get("stamp");
}

bool ZtopoRelational::touchTile(int64_t TileId, TileState &StateOut) {
  Tuple Pattern;
  Pattern.set(ColTile, Value::ofInt(TileId));
  bool Found = false;
  Rel.scan(Pattern, ColumnSet({ColState}), [&](const Tuple &T) {
    StateOut = static_cast<TileState>(T.get(ColState).asInt());
    Found = true;
    return false;
  });
  if (!Found)
    return false;
  Tuple Changes;
  Changes.set(ColStamp, Value::ofInt(++Clock));
  Rel.update(Pattern, Changes);
  return true;
}

void ZtopoRelational::addTile(int64_t TileId, TileState State,
                              int64_t Size) {
  Tuple T;
  T.set(ColTile, Value::ofInt(TileId));
  T.set(ColState, Value::ofInt(static_cast<int64_t>(State)));
  T.set(ColSize, Value::ofInt(Size));
  T.set(ColStamp, Value::ofInt(++Clock));
  if (Rel.insert(T))
    StateBytes[static_cast<int>(State)] += Size;
}

bool ZtopoRelational::setState(int64_t TileId, TileState State) {
  Tuple Pattern;
  Pattern.set(ColTile, Value::ofInt(TileId));
  TileState Old;
  int64_t Size = -1;
  Rel.scan(Pattern, ColumnSet({ColState, ColSize}), [&](const Tuple &T) {
    Old = static_cast<TileState>(T.get(ColState).asInt());
    Size = T.get(ColSize).asInt();
    return false;
  });
  if (Size < 0)
    return false;
  if (Old == State)
    return true;
  Tuple Changes;
  Changes.set(ColState, Value::ofInt(static_cast<int64_t>(State)));
  Rel.update(Pattern, Changes);
  StateBytes[static_cast<int>(Old)] -= Size;
  StateBytes[static_cast<int>(State)] += Size;
  return true;
}

std::vector<int64_t> ZtopoRelational::evictToBudget(TileState State,
                                                    int64_t Budget) {
  std::vector<int64_t> Evicted;
  int S = static_cast<int>(State);
  int64_t Excess = StateBytes[S] - Budget;
  if (Excess <= 0)
    return Evicted;
  // One scan of this state's list keeps, in a max-heap on stamp, the
  // least-recently-stamped tiles that cover the excess: a tile joins
  // while the heap falls short or when it is older than the heap's
  // newest, and the newest leave while the rest still cover. What is
  // left is exactly what evicting the oldest tile one at a time takes.
  std::vector<Victim> &Heap = EvictHeap;
  Heap.clear();
  int64_t Covered = 0;
  Tuple Pattern;
  Pattern.set(ColState, Value::ofInt(static_cast<int64_t>(State)));
  Rel.scanFrames(Pattern, ColumnSet({ColTile, ColSize, ColStamp}),
                 [&](const BindingFrame &F) {
                   Victim V{F.get(ColStamp).asInt(), F.get(ColTile).asInt(),
                            F.get(ColSize).asInt()};
                   if (Covered >= Excess && !(V < Heap.front()))
                     return true;
                   Heap.push_back(V);
                   std::push_heap(Heap.begin(), Heap.end());
                   Covered += V.Size;
                   while (Covered - Heap.front().Size >= Excess) {
                     Covered -= Heap.front().Size;
                     std::pop_heap(Heap.begin(), Heap.end());
                     Heap.pop_back();
                   }
                   return true;
                 });
  // Oldest first, as the one-at-a-time loop would evict them.
  std::sort_heap(Heap.begin(), Heap.end());
  for (const Victim &V : Heap) {
    Tuple Key;
    Key.set(ColTile, Value::ofInt(V.Tile));
    Rel.remove(Key);
    StateBytes[S] -= V.Size;
    Evicted.push_back(V.Tile);
  }
  return Evicted;
}
