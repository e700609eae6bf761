//===- concurrent/ShardedFacade.h - Spec-independent sharded core -*- C++ -*-===//
//
// Part of the RelC data representation synthesis library.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The part of a sharded thread-safe facade that does not depend on the
/// relation's spec, written once: shard slots and pin counters, one
/// stripe and one epoch gate per shard, the wait-free read path, write
/// helpers that lock, fence and keep the size counter, copy-on-write
/// snapshots, and the pooled parallel fan-out. The interpreted
/// ConcurrentRelation instantiates it over SynthesizedRelation; every
/// relc-generated `<class>_concurrent` over the emitted sequential
/// class. Bodies are template parameters, so calls through the core
/// inline like hand-written code; only the cold shard factory and clone
/// hooks are type-erased. docs/CONCURRENCY.md has the lock order and
/// visibility guarantees.
///
//===----------------------------------------------------------------------===//

#ifndef RELC_CONCURRENT_SHARDEDFACADE_H
#define RELC_CONCURRENT_SHARDEDFACADE_H

#include "concurrent/BoundedQueue.h"
#include "concurrent/Epoch.h"
#include "concurrent/ScanPool.h"
#include "concurrent/StripedLock.h"

#include <algorithm>
#include <array>
#include <atomic>
#include <cassert>
#include <cstddef>
#include <functional>
#include <iterator>
#include <memory>
#include <type_traits>
#include <utility>
#include <vector>

namespace relc {

template <typename ShardT> class ShardedFacade {
public:
  /// Rows per chunk of a parallel fan-out: rows cross the merge queue
  /// in batches, so its mutex is taken once per chunk, not per row.
  static constexpr size_t ScanChunkRows = 128;
  /// Chunks the merge queue holds before shard workers block.
  static constexpr size_t ScanQueueChunks = 8;

  /// How the core makes and copies shard instances (cold paths only).
  struct ShardOps {
    /// A fresh, empty shard instance.
    std::function<std::shared_ptr<ShardT>()> Fresh;
    /// Copies every row of \p From into the empty \p To (the COW clone).
    std::function<void(const ShardT &From, ShardT &To)> Copy;
    /// Optional: called on an instance about to be frozen behind
    /// snapshot handles and retired.
    std::function<void(ShardT &)> Freeze;
  };

  /// The ops of a generated sequential class: default-constructed
  /// shards, cloned row by row through scanRows + insert.
  static ShardOps rowOps() {
    return {[] { return std::make_shared<ShardT>(); },
            [](const ShardT &From, ShardT &To) {
              From.scanRows([&](auto... Row) { To.insert(Row...); });
            },
            nullptr};
  }

  explicit ShardedFacade(unsigned NumShards, ShardOps Fns = rowOps())
      : Ops(std::move(Fns)), Gates(std::make_unique<EpochGate[]>(NumShards)),
        AllIdx(std::make_unique<unsigned[]>(NumShards)), Locks(NumShards) {
    assert(NumShards >= 1 && NumShards <= MaxShards &&
           "shard count must be in [1, MaxShards]");
    Slots.reserve(NumShards);
    for (unsigned S = 0; S != NumShards; ++S) {
      AllIdx[S] = S;
      Slots.push_back({Ops.Fresh(), freshPins()});
    }
  }

  ShardedFacade(const ShardedFacade &) = delete;
  ShardedFacade &operator=(const ShardedFacade &) = delete;

  unsigned numShards() const { return static_cast<unsigned>(Slots.size()); }

  /// Lock-free; exact whenever it does not race a mutation.
  size_t size() const { return Count.load(std::memory_order_relaxed); }

  /// The live instance of shard \p S. Readers call this only inside a
  /// read or write helper body, or with every writer quiesced (tests,
  /// benches): writers COW-swap the slot under the shard's stripe.
  const ShardT &shard(unsigned S) const {
    assert(S < Slots.size() && "shard index out of range");
    return *Slots[S].Shard;
  }

  //===--------------------------------------------------------------------===
  // Reads.
  //===--------------------------------------------------------------------===

  /// Runs \p Body(const ShardT &) over shard \p S and returns its result:
  /// wait-free inside an epoch section tagged with the shard's gate
  /// when no writer is active on it, else under the shard's reader
  /// lock. The epoch attempt is abandoned before Body starts, so Body
  /// runs exactly once. Body must not block or call back into the
  /// facade (a nested mutation deadlocks against its own section).
  template <typename BodyT>
  decltype(auto) readOne(unsigned S, BodyT &&Body) const {
    {
      EpochGuard Guard(&Gates[S]);
      if (!Gates[S].writerActive())
        return Body(shard(S));
    }
    auto Lock = Locks.shared(S);
    return Body(shard(S));
  }

  /// readOne over every shard in index order: each shard is read
  /// consistently, but a writer may commit between shards. A Body
  /// returning bool stops the walk by returning false.
  template <typename BodyT> void readEach(BodyT &&Body) const {
    for (unsigned S = 0; S != numShards(); ++S)
      if (!proceed([&] { return readOne(S, Body); }))
        return;
  }

  /// Pooled parallel fan-out: one ScanPool task per shard runs
  /// \p Produce(const ShardT &, Push) under that shard's reader lock
  /// (not an epoch section: a task may block on queue backpressure,
  /// which would stall writer fences), and Push(RowT &&) -> bool feeds
  /// rows into the bounded merge queue in ScanChunkRows-row chunks
  /// (false once the consumer stopped). \p Consume(const RowT &) runs on
  /// the calling thread, sees every shard's rows in arbitrary
  /// chunk-interleaved order, and may stop the scan by returning false.
  /// Neither callback may call back into the facade.
  template <typename RowT, typename ProduceT, typename ConsumeT>
  void parallelScan(ProduceT &&Produce, ConsumeT &&Consume) const {
    using Chunk = std::vector<RowT>;
    BoundedQueue<Chunk> Queue(ScanQueueChunks, numShards());
    ScanPool::TaskGroup Tasks(ScanPool::global());
    for (unsigned S = 0; S != numShards(); ++S)
      Tasks.submit([&, S] {
        Chunk C;
        C.reserve(ScanChunkRows);
        bool Open = true;
        auto Push = [&](RowT &&Row) {
          if (!Open)
            return false;
          C.push_back(std::move(Row));
          if (C.size() == ScanChunkRows) {
            // push fails only after close(): the consumer stopped.
            Open = Queue.push(std::move(C));
            C.clear();
            C.reserve(ScanChunkRows);
          }
          return Open;
        };
        {
          auto Lock = Locks.shared(S);
          Produce(shard(S), Push);
        }
        if (Open && !C.empty())
          Queue.push(std::move(C));
        Queue.producerDone();
      });
    Chunk Rows;
    bool Stopped = false;
    while (!Stopped && Queue.pop(Rows))
      for (const RowT &Row : Rows)
        if (!proceed([&] { return Consume(Row); })) {
          Stopped = true;
          Queue.close();
          break;
        }
    // Tasks reference Queue and the callers' captures: wait them out.
    Tasks.wait();
  }

  //===--------------------------------------------------------------------===
  // Writes. Each helper holds its stripes exclusively with their gates
  // raised for the whole body, and moves the count by the held shards'
  // size delta once the body returns — so a body never maintains the
  // count, and an FD-violating no-op reinsert cannot make it drift.
  //===--------------------------------------------------------------------===

  /// Runs \p Body(ShardT &) on the writable instance of shard \p S.
  template <typename BodyT>
  decltype(auto) writeOne(unsigned S, BodyT &&Body) {
    auto Lock = Locks.exclusive(S);
    EpochWriterFence Fence(Gates[S]);
    return counted(&S, 1,
                   [&]() -> decltype(auto) { return Body(writable(S)); });
  }

  /// As writeOne, probing first: when a snapshot pins shard \p S and
  /// \p Probe(const ShardT &) reports that Body would find nothing,
  /// returns a value-initialized result without cloning the shard.
  /// (An unpinned shard is mutated in place, so no probe is needed.)
  template <typename ProbeT, typename BodyT>
  auto writeOneIf(unsigned S, ProbeT &&Probe, BodyT &&Body) {
    auto Lock = Locks.exclusive(S);
    EpochWriterFence Fence(Gates[S]);
    return counted(&S, 1, [&] {
      ShardT *W = writableIf(S, Probe);
      return W ? Body(*W) : decltype(Body(*W))();
    });
  }

  /// Runs \p Body() holding the stripes \p Idx[0..N), which must be
  /// ascending and duplicate-free (two-phase locking: every stripe is
  /// taken before the body's first mutation and all are released
  /// together). Inside, the body reaches shards through shard() and
  /// writable(); it must touch no shard outside the set.
  template <typename BodyT>
  decltype(auto) writeStripes(const unsigned *Idx, size_t N, BodyT &&Body) {
    Locks.lockSet(Idx, N);
    struct Unlock {
      const StripedLockSet &L;
      const unsigned *Idx;
      size_t N;
      ~Unlock() { L.unlockSet(Idx, N); }
    } Release{Locks, Idx, N};
    EpochWriterFence Fence(Gates.get(), Idx, N);
    return counted(Idx, N, Body);
  }

  /// writeStripes over the owners of \p K keys, in any order and with
  /// repeats: sorted and deduplicated on the stack, no allocation.
  template <size_t K, typename BodyT>
  decltype(auto) writeSet(const unsigned (&Stripes)[K], BodyT &&Body) {
    std::array<unsigned, K> Idx;
    std::copy(std::begin(Stripes), std::end(Stripes), Idx.begin());
    std::sort(Idx.begin(), Idx.end());
    size_t N = size_t(std::unique(Idx.begin(), Idx.end()) - Idx.begin());
    return writeStripes(Idx.data(), N, Body);
  }

  /// Runs \p Body() holding every stripe (fan-out mutations).
  template <typename BodyT> decltype(auto) writeAll(BodyT &&Body) {
    AllShardsGuard Guard(Locks);
    EpochWriterFence Fence(Gates.get(), AllIdx.get(), numShards());
    return counted(AllIdx.get(), numShards(), Body);
  }

  /// The copy-on-write gate every mutation goes through; the caller
  /// holds shard \p S's stripe exclusively with its gate raised (inside
  /// a write helper body). Unpinned (pin count 0), the live instance is
  /// mutated in place — the steady-state fast path. Pinned by a
  /// snapshot, it is cloned (the one-time O(shard) cost of the first
  /// write after a snapshot), the original frozen and retired, and the
  /// clone swapped in with a fresh pin generation.
  /// The probe is sound and race-free: the 0 -> 1 transition happens
  /// only under snapshot()'s all-stripe SHARED hold (excluded by our
  /// exclusive stripe), handle copies increment a count their source
  /// keeps above zero, and handle drops decrement with RELEASE order —
  /// so reading zero with ACQUIRE happens-after every read a dropped
  /// handle made. A drop racing the load at worst costs a spurious
  /// clone.
  ShardT &writable(unsigned S) {
    Slot &Sl = Slots[S];
    if (Sl.Pins->load(std::memory_order_acquire) == 0)
      return *Sl.Shard;
    std::shared_ptr<ShardT> Fresh = Ops.Fresh();
    Ops.Copy(*Sl.Shard, *Fresh);
    replace(Sl, std::move(Fresh));
    return *Sl.Shard;
  }

  /// writable(\p S), unless a snapshot pins the shard and
  /// \p Probe(const ShardT &) is false — then nullptr, and no clone:
  /// a mutation that would find nothing must not copy a pinned shard.
  template <typename ProbeT> ShardT *writableIf(unsigned S, ProbeT &&Probe) {
    if (Slots[S].Pins->load(std::memory_order_acquire) != 0 &&
        !Probe(shard(S)))
      return nullptr;
    return &writable(S);
  }

  /// Inside a writeAll body: the first shard whose live state satisfies
  /// \p Probe(const ShardT &), or numShards() if none does.
  template <typename ProbeT> unsigned findShard(ProbeT &&Probe) const {
    unsigned S = 0;
    while (S != numShards() && !Probe(shard(S)))
      ++S;
    return S;
  }

  /// Empties every shard under every stripe. Shards a snapshot pins are
  /// replaced by fresh instances and retired, not reset in place (no
  /// clone needed: the post-clear state is empty).
  void clear() {
    writeAll([&] {
      for (Slot &Sl : Slots) {
        if (Sl.Pins->load(std::memory_order_acquire) == 0)
          Sl.Shard->clear();
        else
          replace(Sl, Ops.Fresh());
      }
    });
  }

  //===--------------------------------------------------------------------===
  // Consistent snapshots (COW shard state + RCU reclamation).
  //===--------------------------------------------------------------------===

  /// A refcounted, immutable, globally consistent view of the whole
  /// relation: the shard instances live at acquisition, pinned. Writers
  /// that later touch a pinned shard clone it (see writable()), so the
  /// handle reads frozen state, lock-free, for as long as it lives.
  /// The frozen instances are reclaimed once the epoch grace period has
  /// passed and the last handle pinning them drops. Copyable and
  /// movable; a default-constructed handle is empty (valid() == false).
  class Snapshot {
  public:
    Snapshot() = default;
    /// Copies share the pinned generation: the source already holds
    /// every count above zero, so relaxed increments suffice.
    Snapshot(const Snapshot &O) : Pinned(O.Pinned), Count(O.Count) {
      for (const PinnedSlot &P : Pinned)
        P.Pins->fetch_add(1, std::memory_order_relaxed);
    }
    Snapshot &operator=(const Snapshot &O) {
      if (this != &O) {
        Snapshot Tmp(O);
        *this = std::move(Tmp);
      }
      return *this;
    }
    /// A moved-from vector is empty, so a moved-from handle holds no
    /// pins and its destructor is a no-op.
    Snapshot(Snapshot &&O) noexcept = default;
    Snapshot &operator=(Snapshot &&O) noexcept {
      if (this != &O) {
        unpinAll();
        Pinned = std::move(O.Pinned);
        Count = O.Count;
        O.Pinned.clear();
      }
      return *this;
    }
    ~Snapshot() { unpinAll(); }

    bool valid() const { return !Pinned.empty(); }
    unsigned numShards() const { return static_cast<unsigned>(Pinned.size()); }
    /// Tuples across the pinned shards, exact: counted under the same
    /// acquisition that pinned them.
    size_t size() const { return Count; }
    bool empty() const { return Count == 0; }
    /// Pinned shard \p I: immutable, readable from any thread, no locks.
    const ShardT &shard(unsigned I) const {
      assert(I < Pinned.size() && "shard index out of range");
      return *Pinned[I].Shard;
    }
    /// Visits every row, shard by shard (generated shards: their
    /// scanRows, ascending column order).
    template <typename FnT> void scanRows(FnT &&Emit) const {
      for (const PinnedSlot &P : Pinned)
        P.Shard->scanRows(Emit);
    }

  private:
    friend class ShardedFacade;
    struct PinnedSlot {
      std::shared_ptr<const ShardT> Shard;
      /// The counter of the pinned generation (a COW swap installs a
      /// fresh counter with the fresh state, so this one stays put).
      std::shared_ptr<std::atomic<size_t>> Pins;
    };
    /// Release-decrements pair with writable()'s acquire probe.
    void unpinAll() {
      for (const PinnedSlot &P : Pinned)
        P.Pins->fetch_sub(1, std::memory_order_release);
    }
    std::vector<PinnedSlot> Pinned;
    size_t Count = 0;
  };

  /// Acquires a consistent snapshot in O(shards), no per-tuple work:
  /// one brief all-stripe SHARED hold (writers excluded, readers
  /// admitted) covers copying the shard pointers and the count, and
  /// running \p UnderLock() — where a caller reads whatever else must
  /// belong to the same cut (the interpreted facade's commit ticket).
  template <typename UnderLockT>
  Snapshot snapshot(UnderLockT &&UnderLock) const {
    Snapshot Snap;
    Snap.Pinned.reserve(numShards());
    AllShardsGuard Guard(Locks, AllShardsGuard::Shared);
    for (const Slot &Sl : Slots) {
      Snap.Pinned.push_back({Sl.Shard, Sl.Pins});
      // The only 0 -> 1 transition: writers are excluded by the shared
      // hold, so relaxed suffices — the edge writers need comes from
      // the handle's release decrement at drop time.
      Sl.Pins->fetch_add(1, std::memory_order_relaxed);
    }
    Snap.Count = Count.load(std::memory_order_relaxed);
    UnderLock();
    return Snap;
  }
  Snapshot snapshot() const {
    return snapshot([] {});
  }

private:
  struct Slot {
    std::shared_ptr<ShardT> Shard;
    /// How many live Snapshot handles pin this state generation. A
    /// shared_ptr because handles may outlive the facade.
    std::shared_ptr<std::atomic<size_t>> Pins;
  };

  static std::shared_ptr<std::atomic<size_t>> freshPins() {
    return std::make_shared<std::atomic<size_t>>(0);
  }

  /// Freezes and retires the slot's instance and installs \p Fresh with
  /// a new pin generation: handles pinning the frozen state keep their
  /// (now detached) counter; the slot starts unpinned again. The
  /// facade's reference is retired through EpochManager, so the frozen
  /// instance dies after the grace period AND the last handle drop.
  void replace(Slot &Sl, std::shared_ptr<ShardT> Fresh) {
    if (Ops.Freeze)
      Ops.Freeze(*Sl.Shard);
    EpochManager::global().retireObject(
        new std::shared_ptr<ShardT>(std::move(Sl.Shard)));
    Sl.Shard = std::move(Fresh);
    Sl.Pins = freshPins();
  }

  /// Calls \p Fn(); true unless it returned false (void means go on).
  template <typename FnT> static bool proceed(FnT &&Fn) {
    if constexpr (std::is_void_v<decltype(Fn())>) {
      Fn();
      return true;
    } else {
      return Fn();
    }
  }

  /// Runs \p Body() and moves the count by the size delta of shards
  /// \p Idx[0..N). The update stays inside the stripe hold: snapshot()
  /// cuts {shard pointers, count} under the all-stripe shared hold, so
  /// a later update could land on the far side of a snapshot that
  /// already saw the changed shard.
  template <typename BodyT>
  decltype(auto) counted(const unsigned *Idx, size_t N, BodyT &&Body) {
    auto Sizes = [&] {
      size_t Total = 0;
      for (size_t I = 0; I != N; ++I)
        Total += Slots[Idx[I]].Shard->size();
      return Total;
    };
    size_t Before = Sizes();
    if constexpr (std::is_void_v<decltype(Body())>) {
      Body();
      settle(Before, Sizes());
    } else {
      auto Result = Body();
      settle(Before, Sizes());
      return Result;
    }
  }

  void settle(size_t Before, size_t After) {
    if (After > Before)
      Count.fetch_add(After - Before, std::memory_order_relaxed);
    else if (Before > After)
      Count.fetch_sub(Before - After, std::memory_order_relaxed);
  }

  // Read-mostly: every operation loads these.
  ShardOps Ops;
  /// One writer gate per shard for the epoch read path (cache-line
  /// padded, like the stripes).
  std::unique_ptr<EpochGate[]> Gates;
  /// 0..NumShards-1, for all-gate fences.
  std::unique_ptr<unsigned[]> AllIdx;
  /// Each slot is read or written only under its stripe / gate
  /// discipline, never concurrently with a COW swap.
  std::vector<Slot> Slots;
  // Written by writers (the stripes' seniority-ticket counter, the
  // count): each on its own cache line, so writes do not invalidate the
  // line readers load the fields above from.
  alignas(64) StripedLockSet Locks;
  alignas(64) std::atomic<size_t> Count{0};
};

} // namespace relc

#endif // RELC_CONCURRENT_SHARDEDFACADE_H
