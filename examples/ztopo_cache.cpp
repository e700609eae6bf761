//===- examples/ztopo_cache.cpp - Map-tile cache -----------------------------===//
//
// Part of the RelC data representation synthesis library.
//
//===----------------------------------------------------------------------===//
//
// The ZTopo scenario of Section 6.2: a topographic map viewer keeps a
// cache of image tiles with a state (loading / in memory / on disk), a
// size, and an LRU stamp. The original code kept a hash table plus
// per-state linked lists in sync with hand-written assertions; here the
// tile cache is one synthesized relation and the invariant holds by
// construction.
//
// Build & run:  ./build/examples/ztopo_cache [num-requests]
//
//===----------------------------------------------------------------------===//

#include "support/CliArgs.h"
#include "systems/ZtopoRelational.h"
#include "workloads/TileTrace.h"

#include <chrono>
#include <cstdio>

using namespace relc;

int main(int argc, char **argv) {
  PositionalArgs Args(argc, argv, 1, "usage: ztopo_cache [num-requests]\n");
  TileTraceOptions Opts;
  Opts.NumRequests = Args.get<size_t>(1, 200000, 1, 100000000);
  std::vector<TileRequest> Trace = generateTileTrace(Opts);
  std::printf("replaying %zu tile requests (pan probability %.2f)\n",
              Trace.size(), Opts.PanProbability);

  constexpr int64_t MemoryBudget = 8 * 1024 * 1024;
  ZtopoRelational Cache;
  size_t Hits = 0, Misses = 0, Evictions = 0;

  auto T0 = std::chrono::steady_clock::now();
  for (const TileRequest &Q : Trace) {
    TileState State;
    if (Cache.touchTile(Q.TileId, State)) {
      ++Hits;
    } else {
      ++Misses;
      // "Fetch over HTTP", then insert as in-memory.
      Cache.addTile(Q.TileId, TileState::InMemory, Q.Size);
    }
    if (Cache.bytesIn(TileState::InMemory) > MemoryBudget)
      Evictions +=
          Cache.evictToBudget(TileState::InMemory, MemoryBudget).size();
  }
  auto T1 = std::chrono::steady_clock::now();

  std::printf("hits %zu (%.1f%%), misses %zu, evictions %zu, "
              "resident %lld bytes in %zu tiles, %.3fs\n",
              Hits, 100.0 * Hits / Trace.size(), Misses, Evictions,
              static_cast<long long>(Cache.bytesIn(TileState::InMemory)),
              Cache.numTiles(),
              std::chrono::duration<double>(T1 - T0).count());

  // The invariant ZTopo originally asserted by hand.
  WfResult Wf = Cache.relation().checkWellFormed();
  std::printf("cache representation well-formed: %s\n",
              Wf.Ok ? "yes" : Wf.Error.c_str());
  return Wf.Ok ? 0 : 1;
}
