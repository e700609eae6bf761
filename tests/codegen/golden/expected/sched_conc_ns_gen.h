// Generated by RELC for specification scheduler(ns, pid, state, cpu) with {ns, pid} -> {state, cpu}
// Decomposition: 0:b0=m1/htable>1*m4/vector>3;1:b1=m2/htable>2;2:b7=u8;3:b4=m3/ilist>2;
// Do not edit.
#ifndef RELCGEN_SCHED_NS_H
#define RELCGEN_SCHED_NS_H

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

  class sched_ns {
    public:
      sched_ns(const sched_ns &) = delete;
      sched_ns &operator=(const sched_ns &) = delete;
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

      struct Node_w {
      int64_t b_ns;
      int64_t b_pid;
      int64_t b_state;
      int64_t u0_cpu;
      relc::MapHook<Node_w, std::array<int64_t, 2>> h0;
      unsigned Ref = 0;
      ~Node_w() { h0 = decltype(h0)(); }
    };

      struct TraitsE0 {
      using KeyT = int64_t;
      using NodeT = Node_w;
      static bool equal(const KeyT &A, const KeyT &B) { return A == B; }
      static bool less(const KeyT &A, const KeyT &B) { return A < B; }
      static size_t hash(const KeyT &K) { return hashKey(K); }
    };
      struct Node_y {
      int64_t b_ns;
      relc::HashMap<TraitsE0> e0;
      unsigned Ref = 0;
    };

      struct TraitsE1 {
      using KeyT = std::array<int64_t, 2>;
      using NodeT = Node_w;
      static bool equal(const KeyT &A, const KeyT &B) { return A == B; }
      static bool less(const KeyT &A, const KeyT &B) { return A < B; }
      static size_t hash(const KeyT &K) { return hashKey(K); }
      static relc::MapHook<NodeT, KeyT> &hook(NodeT *N, unsigned) { return N->h0; }
    };
      struct Node_z {
      int64_t b_state;
      relc::IntrusiveList<TraitsE1> e1{0};
      unsigned Ref = 0;
    };

      struct TraitsE2 {
      using KeyT = int64_t;
      using NodeT = Node_y;
      static bool equal(const KeyT &A, const KeyT &B) { return A == B; }
      static bool less(const KeyT &A, const KeyT &B) { return A < B; }
      static size_t hash(const KeyT &K) { return hashKey(K); }
    };
      struct Node_x {
      relc::HashMap<TraitsE2> e2;
      relc::VectorMap<Node_z> e3;
      unsigned Ref = 0;
    };

      Node_w *makeNode_w() {
      auto *N = Arena.create<Node_w>();
      return N;
    }

      Node_y *makeNode_y() {
      auto *N = Arena.create<Node_y>();
      N->e0.setArena(relc::ArenaRef(&Arena));
      return N;
    }

      Node_z *makeNode_z() {
      auto *N = Arena.create<Node_z>();
      return N;
    }

      Node_x *makeNode_x() {
      auto *N = Arena.create<Node_x>();
      N->e2.setArena(relc::ArenaRef(&Arena));
      return N;
    }

      void destroy(Node_w *N) {
      Arena.destroy(N);
    }
      void release(Node_w *N) { if (--N->Ref == 0) destroy(N); }

      void destroy(Node_y *N) {
      std::vector<Node_w *> c0;
      N->e0.forEach([&](const auto &, Node_w *Child) {
        c0.push_back(Child);
        return true;
      });
      Arena.destroy(N);
      for (auto *Child : c0)
        release(Child);
    }
      void release(Node_y *N) { if (--N->Ref == 0) destroy(N); }

      void destroy(Node_z *N) {
      std::vector<Node_w *> c1;
      N->e1.forEach([&](const auto &, Node_w *Child) {
        c1.push_back(Child);
        return true;
      });
      Arena.destroy(N);
      for (auto *Child : c1)
        release(Child);
    }
      void release(Node_z *N) { if (--N->Ref == 0) destroy(N); }

      void destroy(Node_x *N) {
      std::vector<Node_y *> c2;
      N->e2.forEach([&](const auto &, Node_y *Child) {
        c2.push_back(Child);
        return true;
      });
      std::vector<Node_z *> c3;
      N->e3.forEach([&](const auto &, Node_z *Child) {
        c3.push_back(Child);
        return true;
      });
      Arena.destroy(N);
      for (auto *Child : c2)
        release(Child);
      for (auto *Child : c3)
        release(Child);
    }
      void release(Node_x *N) { if (--N->Ref == 0) destroy(N); }

    public:
      sched_ns() { Root = makeNode_x(); Root->Ref = 1; }
      ~sched_ns() { Arena.reset(); }
      void clear() {
      Arena.reset();
      Root = makeNode_x();
      Root->Ref = 1;
      Size = 0;
    }
      /// Allocator counters of this instance's private arena.
      relc::ArenaStats arenaStats() const { return Arena.stats(); }

      /// insert r t; returns true if the relation changed.
      bool insert(int64_t v_ns, int64_t v_pid, int64_t v_state, int64_t v_cpu) {
      bool Changed = false;
      Node_x *n_x = Root;
      Node_z *n_z = n_x->e3.lookup(toIndex(v_state));
      if (!n_z) {
        n_z = makeNode_z();
        n_z->b_state = v_state;
        n_x->e3.insert(toIndex(v_state), n_z);
        ++n_z->Ref;
        Changed = true;
      }
      Node_y *n_y = n_x->e2.lookup(v_ns);
      if (!n_y) {
        n_y = makeNode_y();
        n_y->b_ns = v_ns;
        n_x->e2.insert(v_ns, n_y);
        ++n_y->Ref;
        Changed = true;
      }
      Node_w *n_w = n_y->e0.lookup(v_pid);
      if (!n_w) {
        n_w = makeNode_w();
        n_w->b_ns = v_ns;
        n_w->b_pid = v_pid;
        n_w->b_state = v_state;
        n_w->u0_cpu = v_cpu;
        n_y->e0.insert(v_pid, n_w);
        ++n_w->Ref;
        n_z->e1.insert(std::array<int64_t, 2>{v_ns, v_pid}, n_w);
        ++n_w->Ref;
        Changed = true;
      } else {
        assert(n_w->u0_cpu == v_cpu && "insert violates the functional dependencies");
      }
      if (Changed) ++Size;
      return Changed;
    }

      /// all: plan qlr(qscan(qscan(qunit)), left)
      template <typename FnT> void all(FnT &&Emit) const {
      Root->e2.forEach([&](const auto &k2, Node_y *n2) {
        (void)n2;
        n2->e0.forEach([&](const auto &k1, Node_w *n1) {
          (void)n1;
          if (n1->b_ns == k2 && n1->b_pid == k1) {
            Emit(k2, k1, n1->b_state, n1->u0_cpu);
          }
          return true;
        });
        return true;
      });
    }

      /// by_state: plan qlr(qlookup(qscan(qunit)), right)
      template <typename FnT> void by_state(int64_t q_state, FnT &&Emit) const {
      auto *n2 = Root->e3.lookup(toIndex(q_state));
      if (n2) {
        n2->e1.forEach([&](const auto &k1, Node_w *n1) {
          (void)n1;
          if (n1->b_ns == k1[0] && n1->b_pid == k1[1] && n1->b_state == q_state) {
            Emit(k1[0], k1[1]);
          }
          return true;
        });
      }
    }

      /// remove r s for key pattern {ns_pid}; returns true if a tuple was removed.
      bool remove_by_ns_pid(int64_t q_ns, int64_t q_pid) {
      bool Found = false;
      int64_t c_state = 0;
      int64_t c_cpu = 0;
      auto *n2 = Root->e2.lookup(q_ns);
      if (n2) {
        auto *n1 = n2->e0.lookup(q_pid);
        if (n1) {
          if (n1->b_ns == q_ns && n1->b_pid == q_pid) {
            Found = true;
            c_state = n1->b_state;
            c_cpu = n1->u0_cpu;
          }
        }
      }
      if (!Found) return false;
      (void)c_state;
      (void)c_cpu;
      Node_x *x_x = Root;
      Node_z *x_z = nullptr;
      if (!x_z) x_z = x_x->e3.lookup(toIndex(c_state));
      assert(x_z && "X instance missing");
      Node_y *x_y = nullptr;
      if (!x_y) x_y = x_x->e2.lookup(q_ns);
      assert(x_y && "X instance missing");
      Node_w *y_w = x_y->e0.erase(q_pid);
      assert(y_w && "crossing entry missing");
      release(y_w);
      x_z->e1.eraseNode(y_w);
      release(y_w);
      if (x_y->e0.empty()) {
        x_x->e2.erase(q_ns);
        release(x_y);
      }
      if (x_z->e1.empty()) {
        x_x->e3.erase(toIndex(c_state));
        release(x_z);
      }
      --Size;
      return true;
    }

      /// update r s u for key pattern {ns_pid}, replacing every non-key column (remove + reinsert,
      /// semantically equal per Section 4.5); returns true if a
      /// tuple matched.
      bool update_by_ns_pid(int64_t q_ns, int64_t q_pid, int64_t v_state, int64_t v_cpu) {
      if (!remove_by_ns_pid(q_ns, q_pid)) return false;
      insert(q_ns, q_pid, v_state, v_cpu);
      return true;
    }

      /// Resolves the non-key columns of the tuple matching key
      /// pattern {ns_pid} into the out-params (ascending column
      /// order); returns false (out-params untouched) if none.
      bool lookup_by_ns_pid(int64_t q_ns, int64_t q_pid, int64_t &c_state, int64_t &c_cpu) const {
      bool Found = false;
      auto *n2 = Root->e2.lookup(q_ns);
      if (n2) {
        auto *n1 = n2->e0.lookup(q_pid);
        if (n1) {
          if (n1->b_ns == q_ns && n1->b_pid == q_pid) {
            Found = true;
            c_state = n1->b_state;
            c_cpu = n1->u0_cpu;
          }
        }
      }
      return Found;
    }

      /// Atomic read-modify-write for key pattern {ns_pid}: calls
      /// Fn(bool Found, int64_t &...) with the current non-key values in
      /// ascending column order (zeros when absent, Found == false); Fn
      /// mutates them and the tuple is reinserted (or inserted fresh).
      /// Returns true if a new tuple was inserted.
      template <typename FnT> bool upsert_by_ns_pid(int64_t q_ns, int64_t q_pid, FnT &&Fn) {
      int64_t c_state = 0;
      int64_t c_cpu = 0;
      bool Found = lookup_by_ns_pid(q_ns, q_pid, c_state, c_cpu);
      Fn(Found, c_state, c_cpu);
      if (Found)
        remove_by_ns_pid(q_ns, q_pid);
      insert(q_ns, q_pid, c_state, c_cpu);
      return !Found;
    }

      /// Visits every row once, all columns in ascending order; the
      /// concurrent facade's snapshot machinery clones shards
      /// through this scan. Plan qlr(qscan(qscan(qunit)), left)
      template <typename FnT> void scanRows(FnT &&Emit) const {
      Root->e2.forEach([&](const auto &k2, Node_y *n2) {
        (void)n2;
        n2->e0.forEach([&](const auto &k1, Node_w *n1) {
          (void)n1;
          if (n1->b_ns == k2 && n1->b_pid == k1) {
            Emit(k2, k1, n1->b_state, n1->u0_cpu);
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

  /// Sharded thread-safe facade over sched_ns: the relation is hash-
  /// partitioned across NumShards sched_ns sub-instances by column
  /// 'ns'. Operations whose pattern binds the shard column take
  /// one stripe; the rest fan out. Each method hands a typed body to
  /// relc::ShardedFacade (concurrent/ShardedFacade.h), which owns the
  /// locking, the wait-free read path, copy-on-write snapshots and the
  /// parallel fan-out, shared with the interpreted
  /// relc::ConcurrentRelation (docs/CONCURRENCY.md).
  class sched_ns_concurrent {
    public:
      static constexpr unsigned NumShards = 4;
      using Snapshot = relc::ShardedFacade<sched_ns>::Snapshot;
      sched_ns_concurrent() = default;
      sched_ns_concurrent(const sched_ns_concurrent &) = delete;
      sched_ns_concurrent &operator=(const sched_ns_concurrent &) = delete;
      /// Lock-free; exact whenever it does not race a mutation.
      size_t size() const { return Core.size(); }
      bool empty() const { return size() == 0; }
      /// Direct shard access for tests and benches; the caller is
      /// responsible for exclusion.
      const sched_ns &shard(unsigned I) const { return Core.shard(I); }

      /// insert r t, routed to the owning shard under its writer lock.
      bool insert(int64_t v_ns, int64_t v_pid, int64_t v_state, int64_t v_cpu) {
      return Core.writeOne(shardOf(v_ns), [&](sched_ns &Sh) {
        return Sh.insert(v_ns, v_pid, v_state, v_cpu);
      });
    }

      /// all: fan-out, each shard in turn (per-shard-consistent,
      /// not a global snapshot).
      template <typename FnT> void all(FnT &&Emit) const {
      Core.readEach([&](const sched_ns &Sh) { Sh.all(Emit); });
    }

      /// As all, with one pooled worker per shard feeding a bounded
      /// merge queue: the same multiset of rows, in arbitrary order. Emit
      /// runs on the calling thread and must not call back into this facade.
      template <typename FnT> void all_parallel(FnT &&Emit) const {
      using Row = std::array<int64_t, 4>;
      auto Produce = [&](const sched_ns &Sh, auto &Push) {
        Sh.all([&](int64_t r0, int64_t r1, int64_t r2, int64_t r3) { Push({r0, r1, r2, r3}); });
      };
      Core.parallelScan<Row>(Produce, [&](const Row &R) { Emit(R[0], R[1], R[2], R[3]); });
    }

      /// by_state: fan-out, each shard in turn (per-shard-consistent,
      /// not a global snapshot).
      template <typename FnT> void by_state(int64_t q_state, FnT &&Emit) const {
      Core.readEach([&](const sched_ns &Sh) { Sh.by_state(q_state, Emit); });
    }

      /// As by_state, with one pooled worker per shard feeding a bounded
      /// merge queue: the same multiset of rows, in arbitrary order. Emit
      /// runs on the calling thread and must not call back into this facade.
      template <typename FnT> void by_state_parallel(int64_t q_state, FnT &&Emit) const {
      using Row = std::array<int64_t, 2>;
      auto Produce = [&](const sched_ns &Sh, auto &Push) {
        Sh.by_state(q_state, [&](int64_t r0, int64_t r1) { Push({r0, r1}); });
      };
      Core.parallelScan<Row>(Produce, [&](const Row &R) { Emit(R[0], R[1]); });
    }

      /// remove_by_ns_pid: routed, one shard under its writer lock.
      bool remove_by_ns_pid(int64_t q_ns, int64_t q_pid) {
      auto Holds = [&](const sched_ns &Sh) {
        int64_t c_state = 0;
        int64_t c_cpu = 0;
        return Sh.lookup_by_ns_pid(q_ns, q_pid, c_state, c_cpu);
      };
      return Core.writeOneIf(shardOf(q_ns), Holds, [&](sched_ns &Sh) {
        return Sh.remove_by_ns_pid(q_ns, q_pid);
      });
    }

      /// update_by_ns_pid: routed (the key binds 'ns' and the new
      /// values cannot rewrite it), one shard under its writer lock.
      bool update_by_ns_pid(int64_t q_ns, int64_t q_pid, int64_t v_state, int64_t v_cpu) {
      auto Holds = [&](const sched_ns &Sh) {
        int64_t c_state = 0;
        int64_t c_cpu = 0;
        return Sh.lookup_by_ns_pid(q_ns, q_pid, c_state, c_cpu);
      };
      return Core.writeOneIf(shardOf(q_ns), Holds, [&](sched_ns &Sh) {
        return Sh.update_by_ns_pid(q_ns, q_pid, v_state, v_cpu);
      });
    }

      /// upsert_by_ns_pid: the atomic read-modify-write, routed — ONE shard
      /// writer lock linearizes the whole cycle (see the sequential
      /// upsert_by_ns_pid for the callback contract).
      template <typename FnT> bool upsert_by_ns_pid(int64_t q_ns, int64_t q_pid, FnT &&Fn) {
      return Core.writeOne(shardOf(q_ns), [&](sched_ns &Sh) {
        return Sh.upsert_by_ns_pid(q_ns, q_pid, Fn);
      });
    }

      /// transact_by_ns_pid: atomic 2-key read-modify-write over key pattern
      /// {ns_pid}. Resolves every side, calls Fn(bool FoundA, int64_t &a_...,
      /// ...) exactly once with the pre-transaction non-key values (zeros when
      /// absent), then writes every side back — an absent side is inserted
      /// with whatever values Fn leaves. Fn may return false to abort
      /// (nothing is written); a void Fn always commits. Returns true if
      /// the transaction committed.
      /// Locking: exactly the owning shard stripes, ascending (two-phase locking).
      template <typename FnT> bool transact_by_ns_pid(int64_t a_ns, int64_t a_pid, int64_t b_ns, int64_t b_pid, FnT &&Fn) {
      unsigned SA = shardOf(a_ns);
      unsigned SB = shardOf(b_ns);
      return Core.writeSet({SA, SB}, [&] {
        int64_t a_state = 0;
        int64_t b_state = 0;
        int64_t a_cpu = 0;
        int64_t b_cpu = 0;
        bool FoundA = Core.shard(SA).lookup_by_ns_pid(a_ns, a_pid, a_state, a_cpu);
        bool FoundB = Core.shard(SB).lookup_by_ns_pid(b_ns, b_pid, b_state, b_cpu);
        bool Commit = true;
        if constexpr (std::is_void_v<decltype(Fn(FoundA, a_state, a_cpu, FoundB, b_state, b_cpu))>)
          Fn(FoundA, a_state, a_cpu, FoundB, b_state, b_cpu);
        else
          Commit = Fn(FoundA, a_state, a_cpu, FoundB, b_state, b_cpu);
        if (!Commit)
          return false;
        tx_apply_by_ns_pid(SA, a_ns, a_pid, a_state, a_cpu);
        tx_apply_by_ns_pid(SB, b_ns, b_pid, b_state, b_cpu);
        return true;
      });
    }

    private:
      /// Write-back half of transact_by_ns_pid: upserts the key to the given values.
      void tx_apply_by_ns_pid(unsigned S, int64_t q_ns, int64_t q_pid, int64_t c_state, int64_t c_cpu) {
      Core.writable(S).upsert_by_ns_pid(q_ns, q_pid, [&](bool, int64_t &r_state, int64_t &r_cpu) {
        r_state = c_state;
        r_cpu = c_cpu;
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
      relc::ShardedFacade<sched_ns> Core{NumShards};
  };

} // namespace genconc

#endif
