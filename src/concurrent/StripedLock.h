//===- concurrent/StripedLock.h - Striped reader-writer locks ---*- C++ -*-===//
//
// Part of the RelC data representation synthesis library.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The lock striping underneath ConcurrentRelation: one cache-line-
/// padded std::shared_mutex per shard, so readers of different shards
/// never touch the same line and writers serialize only within a
/// shard. The discipline (documented in docs/CONCURRENCY.md) follows
/// the classic partitioned-lock recipe: single-shard operations take
/// exactly one stripe; operations that must see or mutate every shard
/// acquire stripes in ascending index order, which makes deadlock
/// impossible because every multi-stripe acquisition respects the same
/// total order.
///
/// Fairness. std::shared_mutex promises no acquisition order, so under
/// contention two starvation patterns appear: a stream of back-to-back
/// fan-out transactions (AllShardsGuard) can shut routed single-stripe
/// writers out of the stripes it keeps re-acquiring, and conversely a
/// hammering routed writer can keep winning the one stripe a fan-out
/// acquisition is still missing, parking the fan-out forever mid-
/// climb. The remedy is a wound-wait-flavored ticket protocol layered
/// over the mutexes: every exclusive acquisition draws a monotone
/// seniority ticket and advertises it on the stripes it is about to
/// take (a per-stripe "claim" slot holding the most senior waiter's
/// ticket); before touching any mutex — and only while holding none,
/// which keeps the ascending-order deadlock argument intact — an
/// acquirer politely yields to claims older than its own. Claims are
/// advisory (correctness never depends on them): a claim is cleared
/// the moment its owner acquires that stripe's mutex, and a younger
/// claim may be displaced by a more senior one. The effect is FIFO-ish
/// seniority ordering in both directions: routed writers queue behind
/// an older fan-out's claim instead of stealing its missing stripe,
/// and a fresh fan-out queues behind older routed claims instead of
/// locking them out for another full sweep.
///
/// The deferral phase runs strictly before the first mutex
/// acquisition, so it cannot introduce lock-order inversions; the
/// oldest active ticket never defers, so by induction on ticket order
/// every waiter's deferral terminates. Callers must not take a stripe
/// while already holding another one except through the multi-stripe
/// guards (ConcurrentRelation's discipline already guarantees this).
///
//===----------------------------------------------------------------------===//

#ifndef RELC_CONCURRENT_STRIPEDLOCK_H
#define RELC_CONCURRENT_STRIPEDLOCK_H

#include <algorithm>
#include <atomic>
#include <cassert>
#include <cstdint>
#include <memory>
#include <mutex>
#include <shared_mutex>
#include <thread>
#include <vector>

namespace relc {

/// A set of shared_mutexes, one per stripe, each on its own cache line,
/// plus the seniority-ticket fairness machinery described above.
class StripedLockSet {
public:
  explicit StripedLockSet(unsigned NumStripes)
      : Stripes(std::make_unique<PaddedStripe[]>(NumStripes)),
        Count(NumStripes) {
    assert(NumStripes > 0 && "lock set needs at least one stripe");
  }

  StripedLockSet(const StripedLockSet &) = delete;
  StripedLockSet &operator=(const StripedLockSet &) = delete;

  unsigned numStripes() const { return Count; }

  std::shared_mutex &stripe(unsigned I) const {
    assert(I < Count && "stripe index out of range");
    return Stripes[I].Mu;
  }

  /// Reader lock on one stripe. Readers draw no ticket and register no
  /// claim, but they do yield to pending exclusive claims so a reader
  /// stream cannot starve a claimed writer out of its stripe.
  std::shared_lock<std::shared_mutex> shared(unsigned I) const {
    deferToOlder(I, UINT64_MAX);
    return std::shared_lock<std::shared_mutex>(stripe(I));
  }

  /// Writer lock on one stripe: draw a ticket, advertise the claim,
  /// defer to more senior claimants, then lock. Must not be called
  /// while holding any other stripe (use lockSet for sets).
  std::unique_lock<std::shared_mutex> exclusive(unsigned I) const {
    uint64_t T = drawTicket();
    claimStripe(I, T);
    deferToOlder(I, T);
    std::unique_lock<std::shared_mutex> L(stripe(I));
    clearClaim(I, T);
    return L;
  }

  //===--------------------------------------------------------------------===
  // Ticket/claim protocol (used by the guards below; exposed so tests
  // can observe the fairness mechanism directly).
  //===--------------------------------------------------------------------===

  /// Monotone seniority ticket; smaller = more senior.
  uint64_t drawTicket() const {
    return Tickets.fetch_add(1, std::memory_order_relaxed);
  }

  /// Advertises \p Ticket as a waiter on stripe \p I. The slot keeps
  /// the most senior claim: a younger claim never displaces an older
  /// one (it would hide the senior waiter from newcomers).
  void claimStripe(unsigned I, uint64_t Ticket) const {
    std::atomic<uint64_t> &C = Stripes[I].Claim;
    uint64_t Cur = C.load(std::memory_order_relaxed);
    while ((Cur == 0 || Ticket < Cur) &&
           !C.compare_exchange_weak(Cur, Ticket, std::memory_order_relaxed)) {
    }
  }

  /// Withdraws \p Ticket's claim on stripe \p I (no-op if a more
  /// senior claim displaced it).
  void clearClaim(unsigned I, uint64_t Ticket) const {
    std::atomic<uint64_t> &C = Stripes[I].Claim;
    uint64_t Cur = Ticket;
    C.compare_exchange_strong(Cur, 0, std::memory_order_relaxed);
  }

  /// Spins (yielding) while a claim more senior than \p Ticket is
  /// advertised on stripe \p I. Must only be called while holding NO
  /// stripe mutex; claims are always cleared by their owners'
  /// acquisitions, so termination follows from ticket induction.
  void deferToOlder(unsigned I, uint64_t Ticket) const {
    for (;;) {
      uint64_t C = Stripes[I].Claim.load(std::memory_order_relaxed);
      if (C == 0 || C >= Ticket)
        return;
      std::this_thread::yield();
    }
  }

  /// Exclusive acquisition of the ascending, duplicate-free stripes
  /// \p Idx[0..N) under one seniority ticket: claims first, deferral to
  /// older claimants while holding nothing, then the ascending climb,
  /// clearing each claim as its stripe is won. Allocation-free; the
  /// caller owns the index array and releases with unlockSet.
  void lockSet(const unsigned *Idx, size_t N) const {
    uint64_t T = drawTicket();
    for (size_t I = 0; I != N; ++I) {
      assert(Idx[I] < Count && "stripe index out of range");
      assert((I == 0 || Idx[I - 1] < Idx[I]) &&
             "stripe set must be ascending and duplicate-free");
      claimStripe(Idx[I], T);
    }
    for (size_t I = 0; I != N; ++I)
      deferToOlder(Idx[I], T);
    for (size_t I = 0; I != N; ++I) {
      stripe(Idx[I]).lock();
      clearClaim(Idx[I], T);
    }
  }

  /// Releases a lockSet acquisition, in reverse order.
  void unlockSet(const unsigned *Idx, size_t N) const {
    for (size_t I = N; I != 0; --I)
      stripe(Idx[I - 1]).unlock();
  }

  /// The currently advertised claim ticket on \p I (0 = none); for
  /// tests asserting the fairness protocol.
  uint64_t claimOf(unsigned I) const {
    return Stripes[I].Claim.load(std::memory_order_relaxed);
  }

private:
  /// Padded to a cache line so contended stripes do not false-share.
  /// (std::hardware_destructive_interference_size is not implemented
  /// by every standard library this builds against; 64 is right for
  /// the x86-64/AArch64 machines the benches run on.)
  struct alignas(64) PaddedStripe {
    mutable std::shared_mutex Mu;
    /// Most senior waiting exclusive ticket, 0 when unclaimed.
    mutable std::atomic<uint64_t> Claim{0};
  };

  std::unique_ptr<PaddedStripe[]> Stripes;
  unsigned Count;
  /// Seniority tickets start at 1 (0 means "no claim").
  mutable std::atomic<uint64_t> Tickets{1};
};

/// RAII acquisition of EVERY stripe of a StripedLockSet, in ascending
/// index order (the global lock order) and released in reverse. The
/// exclusive mode backs the fan-out mutations, which must be atomic
/// across shards; the shared mode gives whole-relation reads (e.g.
/// snapshot extraction) a globally consistent view while still
/// admitting concurrent readers. Both modes respect the same total
/// acquisition order, so they cannot deadlock against each other or
/// against single-stripe operations. Exclusive acquisitions run the
/// ticket protocol: claims on every stripe, deferral to seniors before
/// the first lock, each claim cleared as its stripe is won — so routed
/// writers cannot park the sweep on its last missing stripe forever,
/// and back-to-back sweeps cannot lock routed writers out.
class AllShardsGuard {
public:
  enum Mode { Exclusive, Shared };

  explicit AllShardsGuard(const StripedLockSet &Locks, Mode M = Exclusive)
      : Locks(Locks), M(M) {
    if (M == Exclusive) {
      uint64_t T = Locks.drawTicket();
      for (unsigned I = 0; I != Locks.numStripes(); ++I)
        Locks.claimStripe(I, T);
      for (unsigned I = 0; I != Locks.numStripes(); ++I)
        Locks.deferToOlder(I, T);
      for (unsigned I = 0; I != Locks.numStripes(); ++I) {
        Locks.stripe(I).lock();
        Locks.clearClaim(I, T);
      }
      return;
    }
    // Deferral strictly precedes the first acquisition (deferring
    // mid-climb while holding earlier stripes could park this guard
    // behind a claimant that is itself blocked on a stripe we hold).
    for (unsigned I = 0; I != Locks.numStripes(); ++I)
      Locks.deferToOlder(I, UINT64_MAX);
    for (unsigned I = 0; I != Locks.numStripes(); ++I)
      Locks.stripe(I).lock_shared();
  }
  ~AllShardsGuard() {
    for (unsigned I = Locks.numStripes(); I != 0; --I) {
      if (M == Exclusive)
        Locks.stripe(I - 1).unlock();
      else
        Locks.stripe(I - 1).unlock_shared();
    }
  }

  AllShardsGuard(const AllShardsGuard &) = delete;
  AllShardsGuard &operator=(const AllShardsGuard &) = delete;

private:
  const StripedLockSet &Locks;
  Mode M;
};

/// RAII writer acquisition of an ARBITRARY SUBSET of stripes — the
/// growing phase of the two-phase locking behind multi-key
/// transactions: every stripe a transaction touches is taken before
/// its first mutation, and all are released together at the end
/// (destruction, in reverse). The requested indices are sorted and
/// deduplicated on construction, so any two overlapping acquisitions
/// respect the same ascending total order as AllShardsGuard and the
/// single-stripe operations — deadlock-free by the usual
/// ordered-acquisition argument, whatever subsets concurrent
/// transactions pick. Acquisition runs the seniority-ticket protocol
/// (see StripedLockSet): claims first, deferral to older claimants
/// while holding nothing, then the ascending climb, clearing each
/// claim as its stripe is won.
class ShardSetGuard {
public:
  ShardSetGuard(const StripedLockSet &Locks, std::vector<unsigned> Stripes)
      : Locks(Locks), Indices(std::move(Stripes)) {
    std::sort(Indices.begin(), Indices.end());
    Indices.erase(std::unique(Indices.begin(), Indices.end()),
                  Indices.end());
    Locks.lockSet(Indices.data(), Indices.size());
  }
  ~ShardSetGuard() { Locks.unlockSet(Indices.data(), Indices.size()); }

  ShardSetGuard(const ShardSetGuard &) = delete;
  ShardSetGuard &operator=(const ShardSetGuard &) = delete;

  /// The stripes actually held: sorted ascending, deduplicated (the
  /// acquisition order — tests assert the discipline through this).
  const std::vector<unsigned> &stripes() const { return Indices; }

private:
  const StripedLockSet &Locks;
  std::vector<unsigned> Indices;
};

} // namespace relc

#endif // RELC_CONCURRENT_STRIPEDLOCK_H
