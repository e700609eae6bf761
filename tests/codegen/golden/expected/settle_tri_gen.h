// Generated by RELC for specification ledger(bank, acct, balance) with {bank, acct} -> {balance}
// Decomposition: 0:b0=m1/htable>1;1:b1=m2/htable>2;2:b3=u4;
// Do not edit.
#ifndef RELCGEN_LEDGER_H
#define RELCGEN_LEDGER_H

#include "ds/AvlMap.h"
#include "ds/DListMap.h"
#include "ds/HashMap.h"
#include "ds/IntrusiveAvl.h"
#include "ds/IntrusiveList.h"
#include "ds/VectorMap.h"
#include "support/Arena.h"
#include "concurrent/ShardedFacade.h"
#include "support/Hashing.h"

#include <array>
#include <cassert>
#include <cstddef>
#include <cstdint>
#include <type_traits>
#include <vector>

namespace genconc {

  class ledger {
    public:
      ledger(const ledger &) = delete;
      ledger &operator=(const ledger &) = delete;
      size_t size() const { return Size; }
      bool empty() const { return Size == 0; }

    private:
      static size_t toIndex(int64_t V) {
      assert(V >= 0 && "vector-mapped keys must be non-negative");
      return static_cast<size_t>(V);
    }
      static size_t hashKey(int64_t K) {
        return relc::hashMix64(static_cast<uint64_t>(K));
      }
      template <size_t N>
      static size_t hashKey(const std::array<int64_t, N> &K) {
      size_t H = 0;
      for (int64_t V : K)
        H = relc::hashCombine(H, relc::hashMix64(static_cast<uint64_t>(V)));
      return H;
    }

      struct Node_u {
      int64_t b_bank;
      int64_t b_acct;
      int64_t u0_balance;
      unsigned Ref = 0;
    };

      struct TraitsE0 {
      using KeyT = int64_t;
      using NodeT = Node_u;
      static bool equal(const KeyT &A, const KeyT &B) { return A == B; }
      static bool less(const KeyT &A, const KeyT &B) { return A < B; }
      static size_t hash(const KeyT &K) { return hashKey(K); }
    };
      struct Node_y {
      int64_t b_bank;
      relc::HashMap<TraitsE0> e0;
      unsigned Ref = 0;
    };

      struct TraitsE1 {
      using KeyT = int64_t;
      using NodeT = Node_y;
      static bool equal(const KeyT &A, const KeyT &B) { return A == B; }
      static bool less(const KeyT &A, const KeyT &B) { return A < B; }
      static size_t hash(const KeyT &K) { return hashKey(K); }
    };
      struct Node_x {
      relc::HashMap<TraitsE1> e1;
      unsigned Ref = 0;
    };

      Node_u *makeNode_u() {
      auto *N = Arena.create<Node_u>();
      return N;
    }

      Node_y *makeNode_y() {
      auto *N = Arena.create<Node_y>();
      N->e0.setArena(relc::ArenaRef(&Arena));
      return N;
    }

      Node_x *makeNode_x() {
      auto *N = Arena.create<Node_x>();
      N->e1.setArena(relc::ArenaRef(&Arena));
      return N;
    }

      void destroy(Node_u *N) {
      Arena.destroy(N);
    }
      void release(Node_u *N) { if (--N->Ref == 0) destroy(N); }

      void destroy(Node_y *N) {
      std::vector<Node_u *> c0;
      N->e0.forEach([&](const auto &, Node_u *Child) {
        c0.push_back(Child);
        return true;
      });
      Arena.destroy(N);
      for (auto *Child : c0)
        release(Child);
    }
      void release(Node_y *N) { if (--N->Ref == 0) destroy(N); }

      void destroy(Node_x *N) {
      std::vector<Node_y *> c1;
      N->e1.forEach([&](const auto &, Node_y *Child) {
        c1.push_back(Child);
        return true;
      });
      Arena.destroy(N);
      for (auto *Child : c1)
        release(Child);
    }
      void release(Node_x *N) { if (--N->Ref == 0) destroy(N); }

    public:
      ledger() { Root = makeNode_x(); Root->Ref = 1; }
      ~ledger() { Arena.reset(); }
      void clear() {
      Arena.reset();
      Root = makeNode_x();
      Root->Ref = 1;
      Size = 0;
    }
      /// Allocator counters of this instance's private arena.
      relc::ArenaStats arenaStats() const { return Arena.stats(); }

      /// insert r t; returns true if the relation changed.
      bool insert(int64_t v_bank, int64_t v_acct, int64_t v_balance) {
      bool Changed = false;
      Node_x *n_x = Root;
      Node_y *n_y = n_x->e1.lookup(v_bank);
      if (!n_y) {
        n_y = makeNode_y();
        n_y->b_bank = v_bank;
        n_x->e1.insert(v_bank, n_y);
        ++n_y->Ref;
        Changed = true;
      }
      Node_u *n_u = n_y->e0.lookup(v_acct);
      if (!n_u) {
        n_u = makeNode_u();
        n_u->b_bank = v_bank;
        n_u->b_acct = v_acct;
        n_u->u0_balance = v_balance;
        n_y->e0.insert(v_acct, n_u);
        ++n_u->Ref;
        Changed = true;
      } else {
        assert(n_u->u0_balance == v_balance && "insert violates the functional dependencies");
      }
      if (Changed) ++Size;
      return Changed;
    }

      /// all: plan qscan(qscan(qunit))
      template <typename FnT> void all(FnT &&Emit) const {
      Root->e1.forEach([&](const auto &k2, Node_y *n2) {
        (void)n2;
        n2->e0.forEach([&](const auto &k1, Node_u *n1) {
          (void)n1;
          if (n1->b_bank == k2 && n1->b_acct == k1) {
            Emit(k2, k1, n1->u0_balance);
          }
          return true;
        });
        return true;
      });
    }

      /// remove r s for key pattern {bank_acct}; returns true if a tuple was removed.
      bool remove_by_bank_acct(int64_t q_bank, int64_t q_acct) {
      bool Found = false;
      int64_t c_balance = 0;
      auto *n2 = Root->e1.lookup(q_bank);
      if (n2) {
        auto *n1 = n2->e0.lookup(q_acct);
        if (n1) {
          if (n1->b_bank == q_bank && n1->b_acct == q_acct) {
            Found = true;
            c_balance = n1->u0_balance;
          }
        }
      }
      if (!Found) return false;
      (void)c_balance;
      Node_x *x_x = Root;
      Node_y *x_y = nullptr;
      if (!x_y) x_y = x_x->e1.lookup(q_bank);
      assert(x_y && "X instance missing");
      Node_u *y_u = x_y->e0.erase(q_acct);
      assert(y_u && "crossing entry missing");
      release(y_u);
      if (x_y->e0.empty()) {
        x_x->e1.erase(q_bank);
        release(x_y);
      }
      --Size;
      return true;
    }

      /// Resolves the non-key columns of the tuple matching key
      /// pattern {bank_acct} into the out-params (ascending column
      /// order); returns false (out-params untouched) if none.
      bool lookup_by_bank_acct(int64_t q_bank, int64_t q_acct, int64_t &c_balance) const {
      bool Found = false;
      auto *n2 = Root->e1.lookup(q_bank);
      if (n2) {
        auto *n1 = n2->e0.lookup(q_acct);
        if (n1) {
          if (n1->b_bank == q_bank && n1->b_acct == q_acct) {
            Found = true;
            c_balance = n1->u0_balance;
          }
        }
      }
      return Found;
    }

      /// Atomic read-modify-write for key pattern {bank_acct}: calls
      /// Fn(bool Found, int64_t &...) with the current non-key values in
      /// ascending column order (zeros when absent, Found == false); Fn
      /// mutates them and the tuple is reinserted (or inserted fresh).
      /// Returns true if a new tuple was inserted.
      template <typename FnT> bool upsert_by_bank_acct(int64_t q_bank, int64_t q_acct, FnT &&Fn) {
      int64_t c_balance = 0;
      bool Found = lookup_by_bank_acct(q_bank, q_acct, c_balance);
      Fn(Found, c_balance);
      if (Found)
        remove_by_bank_acct(q_bank, q_acct);
      insert(q_bank, q_acct, c_balance);
      return !Found;
    }

      /// Visits every row once, all columns in ascending order; the
      /// concurrent facade's snapshot machinery clones shards
      /// through this scan. Plan qscan(qscan(qunit))
      template <typename FnT> void scanRows(FnT &&Emit) const {
      Root->e1.forEach([&](const auto &k2, Node_y *n2) {
        (void)n2;
        n2->e0.forEach([&](const auto &k1, Node_u *n1) {
          (void)n1;
          if (n1->b_bank == k2 && n1->b_acct == k1) {
            Emit(k2, k1, n1->u0_balance);
          }
          return true;
        });
        return true;
      });
    }

      /// Backs every node and container cell of this instance;
      /// one arena per instance keeps shard allocation private
      /// (see support/Arena.h).
      relc::SlabArena Arena;
      Node_x *Root;
      size_t Size = 0;
  };

  /// Sharded thread-safe facade over ledger: the relation is hash-
  /// partitioned across NumShards ledger sub-instances by column
  /// 'bank'. Operations whose pattern binds the shard column take
  /// one stripe; the rest fan out. Each method hands a typed body to
  /// relc::ShardedFacade (concurrent/ShardedFacade.h), which owns the
  /// locking, the wait-free read path, copy-on-write snapshots and the
  /// parallel fan-out, shared with the interpreted
  /// relc::ConcurrentRelation (docs/CONCURRENCY.md).
  class ledger_concurrent {
    public:
      static constexpr unsigned NumShards = 8;
      using Snapshot = relc::ShardedFacade<ledger>::Snapshot;
      ledger_concurrent() = default;
      ledger_concurrent(const ledger_concurrent &) = delete;
      ledger_concurrent &operator=(const ledger_concurrent &) = delete;
      /// Lock-free; exact whenever it does not race a mutation.
      size_t size() const { return Core.size(); }
      bool empty() const { return size() == 0; }
      /// Direct shard access for tests and benches; the caller is
      /// responsible for exclusion.
      const ledger &shard(unsigned I) const { return Core.shard(I); }

      /// insert r t, routed to the owning shard under its writer lock.
      bool insert(int64_t v_bank, int64_t v_acct, int64_t v_balance) {
      return Core.writeOne(shardOf(v_bank), [&](ledger &Sh) {
        return Sh.insert(v_bank, v_acct, v_balance);
      });
    }

      /// all: fan-out, each shard in turn (per-shard-consistent,
      /// not a global snapshot).
      template <typename FnT> void all(FnT &&Emit) const {
      Core.readEach([&](const ledger &Sh) { Sh.all(Emit); });
    }

      /// As all, with one pooled worker per shard feeding a bounded
      /// merge queue: the same multiset of rows, in arbitrary order. Emit
      /// runs on the calling thread and must not call back into this facade.
      template <typename FnT> void all_parallel(FnT &&Emit) const {
      using Row = std::array<int64_t, 3>;
      auto Produce = [&](const ledger &Sh, auto &Push) {
        Sh.all([&](int64_t r0, int64_t r1, int64_t r2) { Push({r0, r1, r2}); });
      };
      Core.parallelScan<Row>(Produce, [&](const Row &R) { Emit(R[0], R[1], R[2]); });
    }

      /// remove_by_bank_acct: routed, one shard under its writer lock.
      bool remove_by_bank_acct(int64_t q_bank, int64_t q_acct) {
      auto Holds = [&](const ledger &Sh) {
        int64_t c_balance = 0;
        return Sh.lookup_by_bank_acct(q_bank, q_acct, c_balance);
      };
      return Core.writeOneIf(shardOf(q_bank), Holds, [&](ledger &Sh) {
        return Sh.remove_by_bank_acct(q_bank, q_acct);
      });
    }

      /// upsert_by_bank_acct: the atomic read-modify-write, routed — ONE shard
      /// writer lock linearizes the whole cycle (see the sequential
      /// upsert_by_bank_acct for the callback contract).
      template <typename FnT> bool upsert_by_bank_acct(int64_t q_bank, int64_t q_acct, FnT &&Fn) {
      return Core.writeOne(shardOf(q_bank), [&](ledger &Sh) {
        return Sh.upsert_by_bank_acct(q_bank, q_acct, Fn);
      });
    }

      /// transact3_by_bank_acct: atomic 3-key read-modify-write over key pattern
      /// {bank_acct}. Resolves every side, calls Fn(bool FoundA, int64_t &a_...,
      /// ...) exactly once with the pre-transaction non-key values (zeros when
      /// absent), then writes every side back — an absent side is inserted
      /// with whatever values Fn leaves. Fn may return false to abort
      /// (nothing is written); a void Fn always commits. Returns true if
      /// the transaction committed.
      /// Locking: exactly the owning shard stripes, ascending (two-phase locking).
      template <typename FnT> bool transact3_by_bank_acct(int64_t a_bank, int64_t a_acct, int64_t b_bank, int64_t b_acct, int64_t c_bank, int64_t c_acct, FnT &&Fn) {
      unsigned SA = shardOf(a_bank);
      unsigned SB = shardOf(b_bank);
      unsigned SC = shardOf(c_bank);
      return Core.writeSet({SA, SB, SC}, [&] {
        int64_t a_balance = 0;
        int64_t b_balance = 0;
        int64_t c_balance = 0;
        bool FoundA = Core.shard(SA).lookup_by_bank_acct(a_bank, a_acct, a_balance);
        bool FoundB = Core.shard(SB).lookup_by_bank_acct(b_bank, b_acct, b_balance);
        bool FoundC = Core.shard(SC).lookup_by_bank_acct(c_bank, c_acct, c_balance);
        bool Commit = true;
        if constexpr (std::is_void_v<decltype(Fn(FoundA, a_balance, FoundB, b_balance, FoundC, c_balance))>)
          Fn(FoundA, a_balance, FoundB, b_balance, FoundC, c_balance);
        else
          Commit = Fn(FoundA, a_balance, FoundB, b_balance, FoundC, c_balance);
        if (!Commit)
          return false;
        tx_apply3_by_bank_acct(SA, a_bank, a_acct, a_balance);
        tx_apply3_by_bank_acct(SB, b_bank, b_acct, b_balance);
        tx_apply3_by_bank_acct(SC, c_bank, c_acct, c_balance);
        return true;
      });
    }

    private:
      /// Write-back half of transact3_by_bank_acct: upserts the key to the given values.
      void tx_apply3_by_bank_acct(unsigned S, int64_t q_bank, int64_t q_acct, int64_t c_balance) {
      Core.writable(S).upsert_by_bank_acct(q_bank, q_acct, [&](bool, int64_t &r_balance) {
        r_balance = c_balance;
      });
    }

    public:

      /// Empties every shard (all writer locks).
      void clear() { Core.clear(); }

      /// A consistent point-in-time view of the whole relation in
      /// O(NumShards): the handle pins the current shards, writers
      /// copy-on-write around them, and reads need no locks.
      Snapshot snapshot() const { return Core.snapshot(); }

    private:
      static unsigned shardOf(int64_t V) {
      return static_cast<unsigned>(relc::hashMix64(static_cast<uint64_t>(V)) % NumShards);
    }
      relc::ShardedFacade<ledger> Core{NumShards};
  };

} // namespace genconc

#endif
