//===- codegen/Options.h - RELC method-set options --------------*- C++ -*-===//
//
// Part of the RelC data representation synthesis library.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The method set a relc compilation synthesizes, as resolved from the
/// spec file (or built programmatically): which queries, key-pattern
/// mutators, transactions, and concurrency configuration the generated
/// class must offer. This is pure front-end data — the Lowering stage
/// (codegen/ir/Lowering.h) turns it into the typed IR the passes and
/// backends consume.
///
//===----------------------------------------------------------------------===//

#ifndef RELC_CODEGEN_OPTIONS_H
#define RELC_CODEGEN_OPTIONS_H

#include "query/CostModel.h"
#include "rel/ColumnSet.h"

#include <optional>
#include <string>
#include <vector>

namespace relc {

/// One query method to synthesize: inputs bound by the pattern, outputs
/// delivered to the callback.
struct QueryShape {
  std::string Name; ///< Method name, e.g. "query_by_src".
  ColumnSet InputCols;
  ColumnSet OutputCols;
};

/// One multi-key transaction shape: an atomic read-modify-write over
/// \p Arity tuples addressed by the same key pattern (the `transaction
/// c1, c2 [x N]` directive). Arity 2 is the classic transfer; larger
/// arities cover settlement-style batches.
struct TransactShape {
  ColumnSet Key;
  unsigned Arity = 2;
};

/// Maximum number of key tuples a `transaction` directive may name:
/// the generated signature takes Arity copies of the key columns and
/// the callback takes Arity (Found, values...) groups, so the bound is
/// a readability cap, not a locking limit.
inline constexpr unsigned MaxTransactArity = 8;

struct EmitterOptions {
  std::string ClassName = "relation";
  std::string Namespace = "relcgen";
  std::vector<QueryShape> Queries;
  /// Key patterns to emit remove_by_<cols> for (each must functionally
  /// determine all columns).
  std::vector<ColumnSet> RemoveKeys;
  /// Emit update_by_<cols>(keys..., values...) for these key patterns
  /// (updates every non-key column).
  std::vector<ColumnSet> UpdateKeys;
  /// Emit the atomic read-modify-write pair lookup_by_<cols> /
  /// upsert_by_<cols>(keys..., fn) for these key patterns. The
  /// supporting remove_by_<cols> is lowered automatically (as it is
  /// for update keys).
  std::vector<ColumnSet> UpsertKeys;
  /// Emit, on the concurrent facade, the atomic N-key
  /// read-modify-write `transact_by_<cols>` / `transact<N>_by_<cols>`
  /// for these shapes (multi-key transactions: every tuple is
  /// resolved, fn runs once over all sides, all are written back —
  /// under the writer locks of exactly the owning shard stripes,
  /// acquired in ascending order). Requires ConcurrentShards > 0; the
  /// supporting lookup/upsert/remove methods are lowered
  /// automatically on the sequential class.
  std::vector<TransactShape> Transactions;
  /// When positive, also emit a sharded thread-safe facade class
  /// `<ClassName>_concurrent` wrapping this many generated
  /// sub-instances behind striped reader-writer locks — the static
  /// mirror of src/concurrent/ConcurrentRelation. Fan-out queries
  /// additionally get a `<name>_parallel` variant (one worker per
  /// shard, bounded merge queue).
  unsigned ConcurrentShards = 0;
  /// Shard column of the emitted facade; defaults to
  /// ShardRouter::defaultShardColumn of the decomposition.
  std::optional<ColumnId> ConcurrentShardColumn;
  CostParams Params;
};

} // namespace relc

#endif // RELC_CODEGEN_OPTIONS_H
