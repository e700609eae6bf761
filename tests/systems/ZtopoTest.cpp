//===- tests/systems/ZtopoTest.cpp - ZTopo tile cache tests ------*- C++ -*-===//
//
// Part of the RelC data representation synthesis library.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Tests the ZTopo tile-cache system (Section 6.2): per-state byte
/// accounting and LRU-style eviction, relational vs. baseline. The
/// paper notes the original code carried dynamic assertions keeping two
/// tile-state representations in sync — here the decomposition
/// maintains that invariant by construction.
///
//===----------------------------------------------------------------------===//

#include "systems/ZtopoRelational.h"

#include "baselines/ZtopoBaseline.h"
#include "workloads/TileTrace.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <functional>

using namespace relc;

namespace {

TEST(ZtopoTest, AddAndTouch) {
  ZtopoRelational Z;
  Z.addTile(tileId(3, 1, 2), TileState::InMemory, 1000);
  TileState S;
  EXPECT_TRUE(Z.touchTile(tileId(3, 1, 2), S));
  EXPECT_EQ(S, TileState::InMemory);
  EXPECT_FALSE(Z.touchTile(tileId(3, 9, 9), S));
  EXPECT_EQ(Z.numTiles(), 1u);
}

TEST(ZtopoTest, BytesPerStateTracked) {
  ZtopoRelational Z;
  Z.addTile(1, TileState::InMemory, 100);
  Z.addTile(2, TileState::InMemory, 200);
  Z.addTile(3, TileState::OnDisk, 400);
  EXPECT_EQ(Z.bytesIn(TileState::InMemory), 300);
  EXPECT_EQ(Z.bytesIn(TileState::OnDisk), 400);
  EXPECT_EQ(Z.bytesIn(TileState::Loading), 0);
}

TEST(ZtopoTest, SetStateMovesBytes) {
  ZtopoRelational Z;
  Z.addTile(1, TileState::Loading, 128);
  EXPECT_TRUE(Z.setState(1, TileState::InMemory));
  EXPECT_EQ(Z.bytesIn(TileState::Loading), 0);
  EXPECT_EQ(Z.bytesIn(TileState::InMemory), 128);
  EXPECT_FALSE(Z.setState(99, TileState::OnDisk));
}

TEST(ZtopoTest, EvictToBudgetDropsLeastRecentlyUsed) {
  ZtopoRelational Z;
  for (int64_t I = 0; I < 10; ++I)
    Z.addTile(I, TileState::InMemory, 100);
  // Touch tiles 5..9 so 0..4 are the LRU candidates.
  TileState S;
  for (int64_t I = 5; I < 10; ++I)
    Z.touchTile(I, S);
  auto Evicted = Z.evictToBudget(TileState::InMemory, 500);
  EXPECT_EQ(Z.bytesIn(TileState::InMemory), 500);
  EXPECT_EQ(Evicted.size(), 5u);
  for (int64_t Id : Evicted)
    EXPECT_LT(Id, 5); // the untouched half went first
  // Evicted tiles leave the cache entirely (the viewer re-fetches them
  // on demand); writing to disk is the client's move.
  EXPECT_EQ(Z.numTiles(), 5u);
  EXPECT_EQ(Z.bytesIn(TileState::OnDisk), 0);
}

TEST(ZtopoTest, EvictNoopWhenUnderBudget) {
  ZtopoRelational Z;
  Z.addTile(1, TileState::InMemory, 100);
  EXPECT_TRUE(Z.evictToBudget(TileState::InMemory, 1000).empty());
  EXPECT_EQ(Z.numTiles(), 1u);
}

TEST(ZtopoTest, MatchesBaselineOnTrace) {
  ZtopoRelational Z;
  ZtopoBaseline B;
  TileTraceOptions Opts;
  Opts.NumRequests = 4000;
  Opts.MapWidth = 64;
  Opts.Seed = 17;
  std::vector<TileRequest> Trace = generateTileTrace(Opts);

  constexpr int64_t MemBudget = 64 * 1024;
  for (const TileRequest &Q : Trace) {
    TileState Sz, Sb;
    bool Hz = Z.touchTile(Q.TileId, Sz);
    bool Hb = B.touchTile(Q.TileId, Sb);
    ASSERT_EQ(Hz, Hb);
    if (Hz) {
      ASSERT_EQ(Sz, Sb);
      if (Sz == TileState::OnDisk) {
        // Simulate reading from disk back into memory.
        Z.setState(Q.TileId, TileState::InMemory);
        B.setState(Q.TileId, TileState::InMemory);
      }
    } else {
      Z.addTile(Q.TileId, TileState::InMemory, Q.Size);
      B.addTile(Q.TileId, TileState::InMemory, Q.Size);
    }
    if (Z.bytesIn(TileState::InMemory) > MemBudget) {
      auto Ez = Z.evictToBudget(TileState::InMemory, MemBudget);
      auto Eb = B.evictToBudget(TileState::InMemory, MemBudget);
      std::sort(Ez.begin(), Ez.end());
      std::sort(Eb.begin(), Eb.end());
      ASSERT_EQ(Ez, Eb);
    }
    ASSERT_EQ(Z.numTiles(), B.numTiles());
    ASSERT_EQ(Z.bytesIn(TileState::InMemory), B.bytesIn(TileState::InMemory));
    ASSERT_EQ(Z.bytesIn(TileState::OnDisk), B.bytesIn(TileState::OnDisk));
  }
  WfResult Wf = Z.relation().checkWellFormed();
  EXPECT_TRUE(Wf.Ok) << Wf.Error;
}

TEST(ZtopoTest, MultiVictimEvictionsMatchBaselineInOrder) {
  // Budgets that take many victims at once: half the bytes, zero, and
  // one byte below the smallest tile. The relational cache must evict
  // the same tiles as the hand-coded LRU list, oldest first.
  struct BudgetCase {
    const char *Name;
    std::function<int64_t(int64_t Total, int64_t Smallest)> Budget;
  };
  const BudgetCase Cases[] = {
      {"half", [](int64_t Total, int64_t) { return Total / 2; }},
      {"zero", [](int64_t, int64_t) { return int64_t(0); }},
      {"below smallest",
       [](int64_t, int64_t Smallest) { return Smallest - 1; }},
  };
  for (const BudgetCase &C : Cases) {
    SCOPED_TRACE(C.Name);
    ZtopoRelational Z;
    ZtopoBaseline B;
    int64_t Smallest = INT64_MAX;
    for (int64_t I = 0; I < 60; ++I) {
      int64_t Size = 100 + (I * 37) % 400;
      TileState St = I % 5 == 0 ? TileState::OnDisk : TileState::InMemory;
      Z.addTile(I, St, Size);
      B.addTile(I, St, Size);
      if (St == TileState::InMemory)
        Smallest = std::min(Smallest, Size);
    }
    // Refresh every third tile, newest-added first, so recency is not
    // insertion order.
    for (int64_t I = 59; I >= 0; I -= 3) {
      TileState Sz, Sb;
      ASSERT_TRUE(Z.touchTile(I, Sz));
      ASSERT_TRUE(B.touchTile(I, Sb));
    }
    int64_t Budget =
        C.Budget(Z.bytesIn(TileState::InMemory), Smallest);
    std::vector<int64_t> Ez = Z.evictToBudget(TileState::InMemory, Budget);
    std::vector<int64_t> Eb = B.evictToBudget(TileState::InMemory, Budget);
    EXPECT_GT(Ez.size(), 1u);
    EXPECT_EQ(Ez, Eb);
    EXPECT_LE(Z.bytesIn(TileState::InMemory), Budget);
    EXPECT_EQ(Z.bytesIn(TileState::InMemory), B.bytesIn(TileState::InMemory));
    EXPECT_EQ(Z.bytesIn(TileState::OnDisk), B.bytesIn(TileState::OnDisk));
    EXPECT_EQ(Z.numTiles(), B.numTiles());
    WfResult Wf = Z.relation().checkWellFormed();
    EXPECT_TRUE(Wf.Ok) << Wf.Error;
  }
}

} // namespace
