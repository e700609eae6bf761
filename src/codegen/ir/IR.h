//===- codegen/ir/IR.h - Typed codegen IR -----------------------*- C++ -*-===//
//
// Part of the RelC data representation synthesis library.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The typed intermediate representation between the spec front end and
/// the emission backends. An ir::Module is the complete, explicit
/// description of one compilation: the decomposition it specializes,
/// the facade configuration, and one MethodOp per method of the
/// generated class(es), in emission order.
///
/// Every decision a backend used to make mid-emission is a field here:
///  - which methods exist at all (lowering materializes the support
///    closure — e.g. upsert needs lookup + remove — and the
///    DeadIndexElimination pass prunes unreachable support ops);
///  - duplicates (the old ad-hoc `dedup(allRemoveKeys)`) are merged by
///    the MethodDedup pass;
///  - lock/routing choices (routed single-stripe vs all-stripe fan-out,
///    stripe counts for N-key transactions) are stamped on each facade
///    op by the LockPlanPrecompute pass.
///
/// Backends (codegen/backend/Backend.h) are pure visitors over
/// Module::Ops: they may choose *syntax*, never *method sets* or *lock
/// plans*.
///
//===----------------------------------------------------------------------===//

#ifndef RELC_CODEGEN_IR_IR_H
#define RELC_CODEGEN_IR_IR_H

#include "decomp/Decomposition.h"
#include "query/Plan.h"
#include "rel/ColumnSet.h"
#include "runtime/Cut.h"

#include <memory>
#include <string>
#include <vector>

namespace relc::ir {

/// What a MethodOp does. One enumerator per distinct method shape of
/// the generated classes.
enum class OpKind {
  Insert,       ///< insert(all columns)
  Query,        ///< query method from a planner QueryPlan
  ParallelScan, ///< facade-only: fan-out query with per-shard workers
  RemoveBy,     ///< remove_by_<key>
  UpdateBy,     ///< update_by_<key> (remove + reinsert)
  LookupBy,     ///< lookup_by_<key> (resolve non-key columns)
  UpsertBy,     ///< upsert_by_<key> (atomic read-modify-write)
  TransactBy,   ///< facade-only: atomic N-key read-modify-write
  Clear,        ///< facade clear() (the sequential clear is lifecycle)
};

/// Which generated class an op belongs to.
enum class Layer {
  Sequential, ///< the single-threaded class
  Facade,     ///< the sharded `<class>_concurrent` wrapper
};

/// Why an op exists. Requested ops come from spec directives and are
/// the roots of the liveness analysis; Support ops were materialized by
/// lowering because some other op's body calls them, and may be pruned
/// by DeadIndexElimination when nothing live reaches them.
enum class Origin {
  Requested,
  Support,
};

/// The compile-time lock plan of a facade op, stamped by the
/// LockPlanPrecompute pass (sequential ops get Kind::None). Backends
/// must not re-derive routing: they read Routed/Mode/MaxStripes.
struct LockPlan {
  enum Kind {
    Unset,        ///< not yet stamped (invalid to emit)
    None,         ///< sequential op: no locking
    SharedOne,    ///< one reader stripe (routed read)
    SharedEach,   ///< every stripe in turn, successive reader locks
    ExclusiveOne, ///< one writer stripe (routed mutation)
    ExclusiveSet, ///< the owning stripes, ascending (routed transact)
    ExclusiveAll, ///< every writer stripe, ascending (fan-out mutation)
  };
  Kind Mode = Unset;
  /// True when the op's pattern binds the shard column, so owners are
  /// computed instead of searched.
  bool Routed = false;
  /// Upper bound on stripes held at once (0 = unknown/unlimited; for
  /// ExclusiveSet this is the transaction arity).
  unsigned MaxStripes = 0;
  /// Shared-mode reads only: the op takes an epoch read-side section
  /// (concurrent/Epoch.h) per shard and falls back to the reader
  /// stripe only while a writer gate is up, so its common path does no
  /// shared write at all. Exclusive-mode ops instead drain such
  /// sections with a writer fence before mutating. Stamped by
  /// LockPlanPrecompute; backends read it, they never re-derive it.
  bool WaitFree = false;
};

/// Human-readable name of a lock-plan mode (for dumps and logs).
const char *lockModeName(LockPlan::Kind K);

/// One method of a generated class. Which fields are meaningful depends
/// on Kind; see Lowering.cpp for the exact invariants.
struct MethodOp {
  OpKind Kind;
  Layer Where = Layer::Sequential;
  Origin Provenance = Origin::Requested;
  /// Emitted method name (e.g. "query_by_ns", "transact3_by_bank_acct").
  std::string Name;
  /// Key pattern of *By ops and TransactBy.
  ColumnSet Key;
  /// Query/ParallelScan: bound input pattern / delivered outputs.
  ColumnSet InputCols;
  ColumnSet OutputCols;
  /// TransactBy: number of key tuples (>= 2).
  unsigned Arity = 0;
  /// Facade ops: stamped by LockPlanPrecompute.
  LockPlan Lock;
  /// ParallelScan: name of the underlying per-shard query method.
  std::string Callee;
  /// Query/RemoveBy/LookupBy (sequential): the planner's chosen plan.
  std::shared_ptr<const QueryPlan> Plan;
  /// RemoveBy (sequential): the X/Y cut driving the removal.
  std::shared_ptr<const Cut> RemoveCut;
};

/// One compilation unit: everything a backend needs, nothing it must
/// derive. Non-owning view of the Decomposition — the caller keeps it
/// alive across lowering, passes, and emission.
struct Module {
  const Decomposition *Decomp = nullptr;
  std::string ClassName;
  std::string Namespace;
  /// Facade configuration; Shards == 0 means no facade (and no
  /// Layer::Facade ops).
  unsigned Shards = 0;
  /// Resolved shard column (meaningful iff Shards > 0).
  ColumnId ShardColumn = 0;
  /// Facade modules only: the planner's full-row scan (no inputs, all
  /// columns out), stamped by lowering. Backends emit the sequential
  /// class's `scanRows` from it, which the facade core uses to clone
  /// shards copy-on-write and to visit snapshot rows. A Module field rather than a Support MethodOp on purpose:
  /// it exists independently of the requested method set, is never a
  /// dedup/liveness subject, and so emits identically under --no-opt.
  std::shared_ptr<const QueryPlan> RowScanPlan;
  /// All methods, in emission order: sequential ops first, then facade
  /// ops. Backends iterate this vector; they never invent methods.
  std::vector<MethodOp> Ops;
  /// One line per pass action, appended as passes run (surfaced by
  /// --dump-ir).
  std::vector<std::string> PassLog;

  bool hasFacade() const { return Shards > 0; }
  bool hasTransactions() const;
  /// First op matching (Kind, Where, Key) — and Arity, when nonzero.
  /// Queries are matched by Name instead (keys don't identify them).
  const MethodOp *find(OpKind K, Layer L, ColumnSet Key,
                       unsigned Arity = 0) const;
  const MethodOp *findByName(Layer L, const std::string &Name) const;
};

} // namespace relc::ir

#endif // RELC_CODEGEN_IR_IR_H
