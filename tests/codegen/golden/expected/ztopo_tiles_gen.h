// Generated by RELC for specification tiles(tile, state, size, stamp) with {tile} -> {state, size, stamp}
// Decomposition: 0:b0=m1/htable>1*m2/vector>3;1:b1=m2/dlist>2;2:b3=u12;3:b2=m1/ilist>2;
// Do not edit.
#ifndef RELCGEN_ZTOPO_TILES_H
#define RELCGEN_ZTOPO_TILES_H

#include "ds/AvlMap.h"
#include "ds/DListMap.h"
#include "ds/HashMap.h"
#include "ds/IntrusiveAvl.h"
#include "ds/IntrusiveList.h"
#include "ds/VectorMap.h"
#include "support/Arena.h"
#include "support/Hashing.h"

#include <array>
#include <cassert>
#include <cstddef>
#include <cstdint>
#include <vector>

namespace genztopo {

  class ztopo_tiles {
    public:
      ztopo_tiles(const ztopo_tiles &) = delete;
      ztopo_tiles &operator=(const ztopo_tiles &) = delete;
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
      int64_t b_tile;
      int64_t b_state;
      int64_t u0_size;
      int64_t u0_stamp;
      relc::MapHook<Node_w, int64_t> h0;
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
      int64_t b_tile;
      relc::DListMap<TraitsE0> e0;
      unsigned Ref = 0;
    };

      struct TraitsE1 {
      using KeyT = int64_t;
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
      ztopo_tiles() { Root = makeNode_x(); Root->Ref = 1; }
      ~ztopo_tiles() { Arena.reset(); }
      void clear() {
      Arena.reset();
      Root = makeNode_x();
      Root->Ref = 1;
      Size = 0;
    }
      /// Allocator counters of this instance's private arena.
      relc::ArenaStats arenaStats() const { return Arena.stats(); }

      /// insert r t; returns true if the relation changed.
      bool insert(int64_t v_tile, int64_t v_state, int64_t v_size, int64_t v_stamp) {
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
      Node_y *n_y = n_x->e2.lookup(v_tile);
      if (!n_y) {
        n_y = makeNode_y();
        n_y->b_tile = v_tile;
        n_x->e2.insert(v_tile, n_y);
        ++n_y->Ref;
        Changed = true;
      }
      Node_w *n_w = n_y->e0.lookup(v_state);
      if (!n_w) {
        n_w = makeNode_w();
        n_w->b_tile = v_tile;
        n_w->b_state = v_state;
        n_w->u0_size = v_size;
        n_w->u0_stamp = v_stamp;
        n_y->e0.insert(v_state, n_w);
        ++n_w->Ref;
        n_z->e1.insert(v_tile, n_w);
        ++n_w->Ref;
        Changed = true;
      } else {
        assert(n_w->u0_size == v_size && "insert violates the functional dependencies");
        assert(n_w->u0_stamp == v_stamp && "insert violates the functional dependencies");
      }
      if (Changed) ++Size;
      return Changed;
    }

      /// by_state: plan qlr(qlookup(qscan(qunit)), right)
      template <typename FnT> void by_state(int64_t q_state, FnT &&Emit) const {
      auto *n2 = Root->e3.lookup(toIndex(q_state));
      if (n2) {
        n2->e1.forEach([&](const auto &k1, Node_w *n1) {
          (void)n1;
          if (n1->b_tile == k1 && n1->b_state == q_state) {
            Emit(k1, n1->u0_size, n1->u0_stamp);
          }
          return true;
        });
      }
    }

      /// remove r s for key pattern {tile}; returns true if a tuple was removed.
      bool remove_by_tile(int64_t q_tile) {
      bool Found = false;
      int64_t c_state = 0;
      int64_t c_size = 0;
      int64_t c_stamp = 0;
      auto *n2 = Root->e2.lookup(q_tile);
      if (n2) {
        n2->e0.forEach([&](const auto &k1, Node_w *n1) {
          (void)n1;
          if (n1->b_tile == q_tile && n1->b_state == k1) {
            Found = true;
            c_state = k1;
            c_size = n1->u0_size;
            c_stamp = n1->u0_stamp;
          }
          return true;
        });
      }
      if (!Found) return false;
      (void)c_state;
      (void)c_size;
      (void)c_stamp;
      Node_x *x_x = Root;
      Node_z *x_z = nullptr;
      if (!x_z) x_z = x_x->e3.lookup(toIndex(c_state));
      assert(x_z && "X instance missing");
      Node_y *y_y = x_x->e2.lookup(q_tile);
      assert(y_y && "Y instance missing");
      Node_w *y_w = y_y->e0.lookup(c_state);
      assert(y_w && "Y instance missing");
      x_z->e1.eraseNode(y_w);
      release(y_w);
      x_x->e2.erase(q_tile);
      release(y_y);
      if (x_z->e1.empty()) {
        x_x->e3.erase(toIndex(c_state));
        release(x_z);
      }
      --Size;
      return true;
    }

      /// update r s u for key pattern {tile}, replacing every non-key column (remove + reinsert,
      /// semantically equal per Section 4.5); returns true if a
      /// tuple matched.
      bool update_by_tile(int64_t q_tile, int64_t v_state, int64_t v_size, int64_t v_stamp) {
      if (!remove_by_tile(q_tile)) return false;
      insert(q_tile, v_state, v_size, v_stamp);
      return true;
    }

      /// Backs every node and container cell of this instance;
      /// one arena per instance keeps shard allocation private
      /// (see support/Arena.h).
      relc::SlabArena Arena;
      Node_x *Root;
      size_t Size = 0;
  };

} // namespace genztopo

#endif
