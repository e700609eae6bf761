//===- runtime/SynthesizedRelation.h - Public relation facade ---*- C++ -*-===//
//
// Part of the RelC data representation synthesis library.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The synthesized data representation a client programs against: the
/// five relational operations of Section 2 (empty/insert/remove/update/
/// query) executed over a decomposition instance, with query planning
/// cached per operation shape. This is the dynamic-engine counterpart
/// of the C++ class RELC emits (the code generator in codegen/ produces
/// the static version).
///
/// Correctness contract (Theorem 5): provided each operation satisfies
/// the FD preconditions of Lemma 4, the represented relation equals the
/// one the relational specification prescribes. Tests assert this via
/// the α function after every operation.
///
//===----------------------------------------------------------------------===//

#ifndef RELC_RUNTIME_SYNTHESIZEDRELATION_H
#define RELC_RUNTIME_SYNTHESIZEDRELATION_H

#include "decomp/Adequacy.h"
#include "instance/WellFormed.h"
#include "rel/Relation.h"
#include "runtime/Mutators.h"
#include "runtime/Transaction.h"

#include <memory>
#include <vector>

namespace relc {

class SynthesizedRelation {
public:
  /// Takes ownership of \p D, which must be adequate for its spec —
  /// inadequate decompositions cannot represent all FD-respecting
  /// relations (Lemma 1) and are refused (assert). Use checkAdequacy
  /// beforehand for a recoverable check.
  explicit SynthesizedRelation(Decomposition D,
                               CostParams Params = CostParams());

  const Decomposition &decomp() const { return *D; }
  const RelSpecRef &spec() const { return D->spec(); }
  const Catalog &catalog() const { return D->spec()->catalog(); }

  //===--------------------------------------------------------------------===
  // The relational interface (Section 2).
  //===--------------------------------------------------------------------===

  /// insert r t. \p T must bind every column. \returns true if the
  /// relation changed (false: duplicate). Precondition: r ∪ {t} |= ∆.
  bool insert(const Tuple &T);

  /// remove r s. \returns the number of tuples removed.
  size_t remove(const Tuple &Pattern);

  /// update r s u. \p Pattern must be a key; \p Changes disjoint from
  /// it (Section 4.5's restriction). \returns tuples updated (0 or 1).
  /// Precondition: the updated relation satisfies ∆.
  size_t update(const Tuple &Pattern, const Tuple &Changes);

  /// Atomic read-modify-write: \p Key must be a key pattern (it
  /// functionally determines every column). \p Fn is called exactly
  /// once — with the matching tuple's binding frame if one exists, or
  /// nullptr if not — and fills \p Values with new values for non-key
  /// columns. If no tuple matched, \p Values must bind every non-key
  /// column and Key ∪ Values is inserted; otherwise the matching tuple
  /// is updated with \p Values (which may bind any subset; an empty
  /// \p Values leaves the tuple unchanged). \returns true if a new
  /// tuple was inserted. \p Fn must not operate on this relation.
  ///
  /// This is the one implementation of the upsert primitive: the
  /// sequential engine is trivially atomic, and ConcurrentRelation
  /// exposes the same operation under a single shard writer lock.
  bool upsert(const Tuple &Key,
              function_ref<void(const BindingFrame *, Tuple &)> Fn);

  /// transact: applies \p Ops in order as ONE unit — every op applies
  /// or none does. Structural preconditions (key patterns, disjoint
  /// changes, full insert tuples) are asserted exactly as for the
  /// standalone methods; FD conflicts — which the standalone methods
  /// treat as caller bugs — are *detected* here before any mutation of
  /// the offending op, the already-applied prefix is rolled back via
  /// the recorded inverse ops, and the failing op's index is reported.
  /// An upsert op whose key matches nothing and whose callback binds
  /// fewer than all non-key columns also aborts the batch (the
  /// conditional-abort hook; the standalone upsert asserts instead).
  TxResult transact(const std::vector<TxOp> &Ops);

  /// As above, with the batch assembled by \p Build (see TxBatch).
  TxResult transact(function_ref<void(TxBatch &)> Build);

  /// One op of a transact batch. On success returns true, having
  /// appended to \p Undo the inverse ops that — applied in reverse
  /// order via applyTxUndo — restore the prior state. On FD conflict
  /// (or upsert conditional abort) returns false with the relation
  /// unchanged by this op. Building block for transact, shared with
  /// ConcurrentRelation::transact, whose undo log spans shards.
  bool applyTxOp(const TxOp &Op, std::vector<TxOp> &Undo);

  /// Applies one recorded inverse op (only Insert/Remove/Update kinds
  /// appear in undo logs).
  void applyTxUndo(const TxOp &U);

  /// True if inserting full tuple \p T would violate an FD against a
  /// live tuple other than \p Exclude: some tuple agrees with T on a
  /// dependency's left-hand side but disagrees on its right. An exact
  /// duplicate of \p T is NOT a conflict (insert would no-op). Pass
  /// \p Exclude when validating an update, to ignore the tuple being
  /// rewritten.
  bool insertConflictsFds(const Tuple &T, const Tuple *Exclude = nullptr) const;

  /// query r s C: the projection onto \p OutputCols of tuples extending
  /// \p Pattern, deduplicated (matches the relational semantics).
  std::vector<Tuple> query(const Tuple &Pattern, ColumnSet OutputCols) const;

  /// Streaming query: calls \p Fn per matching tuple with a binding of
  /// at least OutputCols ∪ pattern columns; \p Fn returns false to stop.
  /// Constant space, no deduplication (Section 4.1's iterator
  /// semantics). The row is one tuple refilled for every result: it is
  /// valid only during the call, so copy it to keep it.
  void scan(const Tuple &Pattern, ColumnSet OutputCols,
            function_ref<bool(const Tuple &)> Fn) const;

  /// As scan, but delivers each result as a borrowed BindingFrame —
  /// no tuple is materialized at all; callers read columns straight
  /// from the frame's registers (or project exactly what they keep).
  /// The frame reference is valid only for the duration of each call.
  void scanFrames(const Tuple &Pattern, ColumnSet OutputCols,
                  function_ref<bool(const BindingFrame &)> Fn) const;

  /// True if some tuple extends \p Pattern.
  bool contains(const Tuple &Pattern) const;

  size_t size() const { return Size; }
  bool empty() const { return Size == 0; }
  void clear();

  //===--------------------------------------------------------------------===
  // Introspection (tests, benches, the autotuner).
  //===--------------------------------------------------------------------===

  /// The cached plan for a query shape (nullptr if no valid plan).
  const QueryPlan *planFor(ColumnSet InputCols, ColumnSet OutputCols) const;

  /// α(d): the relation currently represented (test-sized relations).
  Relation toRelation() const { return abstractionOf(); }

  /// Dynamic Fig. 5 check; cheap enough for test-sized relations only.
  WfResult checkWellFormed() const { return relc::checkWellFormed(Graph); }

  /// Live NodeInstances (memory accounting / leak checks).
  size_t liveInstances() const { return Graph.liveInstances(); }

  /// Allocator counters of this relation's private slab arena: slab
  /// count and bytes retained, live blocks (nodes + container cells),
  /// cumulative recycles. Server stats and benches read these.
  ArenaStats arenaStats() const { return Arena->stats(); }

  /// Measures per-edge fanout on the live instance and returns cost
  /// parameters seeded with it (profiling mode of Section 4.3).
  CostParams profileCostParams() const;

  /// Profiling-guided replanning: re-measures the live fanouts and
  /// clears the plan cache, so subsequent queries replan against the
  /// relation's actual shape (Section 4.3 suggests counts "recorded as
  /// part of a profiling run" — this is the online version). Call after
  /// the relation reaches a representative size.
  void reoptimize() { Plans.reoptimize(profileCostParams()); }

  /// As above with caller-supplied parameters.
  void reoptimize(CostParams Params) { Plans.reoptimize(std::move(Params)); }

  //===--------------------------------------------------------------------===
  // Concurrent use (src/concurrent/ConcurrentRelation).
  //===--------------------------------------------------------------------===

  /// Prepares this relation for concurrent const reads: queries are
  /// reentrant and touch no relation state except the memoizing plan
  /// cache, which this switches to internally-synchronized mode. After
  /// the call, any number of threads may run scan/scanFrames/query/
  /// contains concurrently with each other (but not with mutations —
  /// writer exclusion stays the caller's job; ConcurrentRelation does
  /// it with one shared_mutex per shard). One-way.
  void enableConcurrentReads() { Plans.enableThreadSafe(); }

  /// Routes freed NodeInstance memory through the global epoch retire
  /// list (concurrent/Epoch.h): mutators destruct unlinked nodes
  /// eagerly but return the memory to the allocator only after every
  /// epoch reader's grace period. Enabled by ConcurrentRelation
  /// alongside enableConcurrentReads(); one-way.
  void enableDeferredReclamation() { Graph.enableDeferredReclamation(); }

  /// The live instance graph (concurrent facade + tests; read-only).
  const InstanceGraph &instanceGraph() const { return Graph; }

  /// Detaches this relation's arena from the epoch hand-back protocol
  /// (SlabArena::freeze). Called by ConcurrentRelation when the
  /// instance is frozen into a COW snapshot: reads continue against
  /// the frozen state, but in-flight deferred hand-backs from earlier
  /// mutations must drop at the generation check instead of landing in
  /// a pending stack no writer will ever drain. Caller holds the shard
  /// stripe exclusively.
  void freezeArena() { Arena->freeze(); }

private:
  Relation abstractionOf() const;

  std::shared_ptr<const Decomposition> D;
  /// Private slab arena backing every NodeInstance and container cell
  /// of this relation. One arena per relation means one arena per
  /// ConcurrentRelation shard: all allocation happens under the shard's
  /// writer stripe, pages are first touched by the threads that use
  /// them, and clear() rewinds in O(slabs). Shared with the instance
  /// graph, which hands it to epoch-deferred free contexts.
  std::shared_ptr<SlabArena> Arena;
  mutable PlanCache Plans;
  InstanceGraph Graph;
  /// Reused by insert/remove/update so steady-state mutation loops do
  /// not re-allocate their per-node working tables. Like the plan
  /// cache, this makes operations non-reentrant and the object not
  /// thread-safe for concurrent mutation (queries use stack frames and
  /// stay reentrant).
  MutatorScratch Scratch;
  size_t Size = 0;
};

} // namespace relc

#endif // RELC_RUNTIME_SYNTHESIZEDRELATION_H
