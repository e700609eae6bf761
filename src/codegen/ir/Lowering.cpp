//===- codegen/ir/Lowering.cpp - SpecFile options -> IR -----------------------===//
//
// Part of the RelC data representation synthesis library.
//
//===----------------------------------------------------------------------===//
//
// Op order is emission order, kept identical to the historical emitter
// so that `relc --no-opt` reproduces pre-IR output byte for byte:
//
//   sequential: insert, queries, remove_by_* (remove ∪ update ∪ upsert
//   ∪ transact keys), update_by_*, (lookup_by_*, upsert_by_*) pairs
//   (upsert ∪ transact keys), then — facade modules only — the
//   lookup_by_* probes of the remove and update keys;
//   facade: insert, (query, parallel scan) pairs, remove_by_*,
//   update_by_*, upsert_by_*, transact*_by_*, clear.
//
// Lowering is deliberately duplication-blind: repeated directives lower
// to repeated ops, merged by the MethodDedup pass (provenance ORed so a
// requested duplicate keeps the survivor alive).
//
//===----------------------------------------------------------------------===//

#include "codegen/ir/Lowering.h"

#include "concurrent/ShardRouter.h"
#include "decomp/Adequacy.h"
#include "query/Planner.h"

#include <cassert>

using namespace relc;
using namespace relc::ir;

namespace {

std::string colsSuffix(const Catalog &Cat, ColumnSet Cols) {
  std::string Out;
  for (ColumnId C : Cols) {
    if (!Out.empty())
      Out += "_";
    Out += Cat.name(C);
  }
  return Out;
}

class LoweringCtx {
public:
  LoweringCtx(const Decomposition &D, const EmitterOptions &Opts)
      : D(D), Opts(Opts), Cat(D.catalog()), All(D.spec()->columns()) {}

  Module run() {
    assert(checkAdequacy(D).Ok &&
           "lowering an inadequate decomposition");
    assert((Opts.Transactions.empty() || Opts.ConcurrentShards > 0) &&
           "transact_by_* lives on the concurrent facade");

    M.Decomp = &D;
    M.ClassName = Opts.ClassName;
    M.Namespace = Opts.Namespace;
    M.Shards = Opts.ConcurrentShards;
    if (M.Shards > 0)
      M.ShardColumn = Opts.ConcurrentShardColumn
                          ? *Opts.ConcurrentShardColumn
                          : ShardRouter::defaultShardColumn(D);

    lowerSequential();
    if (M.hasFacade()) {
      // The full-row scan behind the facade's snapshot machinery
      // (scanRows + COW shard cloning). Always plannable: adequacy
      // means the unconstrained scan reaches every column.
      auto Plan = planQuery(D, ColumnSet(), All, Opts.Params);
      assert(Plan && "adequate decomposition has no full-row scan");
      M.RowScanPlan = std::make_shared<QueryPlan>(std::move(*Plan));
      lowerFacade();
    }
    return std::move(M);
  }

private:
  /// Every key pattern needing remove_by_*: the remove, update, upsert,
  /// and transaction lists concatenated, with the provenance of each
  /// entry (Requested only for the explicit `remove` directives — the
  /// rest exist because some caller's body removes).
  std::vector<std::pair<ColumnSet, Origin>> allRemoveKeys() const {
    std::vector<std::pair<ColumnSet, Origin>> Keys;
    for (ColumnSet K : Opts.RemoveKeys)
      Keys.push_back({K, Origin::Requested});
    for (ColumnSet K : Opts.UpdateKeys)
      Keys.push_back({K, Origin::Support});
    for (ColumnSet K : Opts.UpsertKeys)
      Keys.push_back({K, Origin::Support});
    for (const TransactShape &T : Opts.Transactions)
      Keys.push_back({T.Key, Origin::Support});
    return Keys;
  }

  /// Upsert-pair keys: the upsert directives plus the transaction
  /// keys (transact_by_* is built from the lookup/upsert pair).
  std::vector<std::pair<ColumnSet, Origin>> allUpsertKeys() const {
    std::vector<std::pair<ColumnSet, Origin>> Keys;
    for (ColumnSet K : Opts.UpsertKeys)
      Keys.push_back({K, Origin::Requested});
    for (const TransactShape &T : Opts.Transactions)
      Keys.push_back({T.Key, Origin::Support});
    return Keys;
  }

  std::shared_ptr<const QueryPlan> keyPlan(ColumnSet Key,
                                           const char *What) const {
    assert(D.spec()->fds().isKey(Key, All) && "pattern is not a key");
    (void)What;
    auto Plan = planQuery(D, Key, All, Opts.Params);
    assert(Plan && "no plan to resolve the full tuple");
    return std::make_shared<QueryPlan>(std::move(*Plan));
  }

  void lowerSequential() {
    {
      MethodOp Op;
      Op.Kind = OpKind::Insert;
      Op.Name = "insert";
      M.Ops.push_back(std::move(Op));
    }
    for (const QueryShape &Q : Opts.Queries) {
      auto Plan = planQuery(D, Q.InputCols, Q.OutputCols, Opts.Params);
      assert(Plan && "requested query shape is not plannable");
      MethodOp Op;
      Op.Kind = OpKind::Query;
      Op.Name = Q.Name;
      Op.InputCols = Q.InputCols;
      Op.OutputCols = Q.OutputCols;
      Op.Plan = std::make_shared<QueryPlan>(std::move(*Plan));
      M.Ops.push_back(std::move(Op));
    }
    for (auto [Key, P] : allRemoveKeys()) {
      MethodOp Op;
      Op.Kind = OpKind::RemoveBy;
      Op.Provenance = P;
      Op.Name = "remove_by_" + colsSuffix(Cat, Key);
      Op.Key = Key;
      Op.Plan = keyPlan(Key, "removal");
      Op.RemoveCut = std::make_shared<Cut>(computeCut(D, Key));
      M.Ops.push_back(std::move(Op));
    }
    for (ColumnSet Key : Opts.UpdateKeys) {
      MethodOp Op;
      Op.Kind = OpKind::UpdateBy;
      Op.Name = "update_by_" + colsSuffix(Cat, Key);
      Op.Key = Key;
      M.Ops.push_back(std::move(Op));
    }
    for (auto [Key, P] : allUpsertKeys()) {
      MethodOp Lookup;
      Lookup.Kind = OpKind::LookupBy;
      Lookup.Provenance = P;
      Lookup.Name = "lookup_by_" + colsSuffix(Cat, Key);
      Lookup.Key = Key;
      Lookup.Plan = keyPlan(Key, "lookup");
      M.Ops.push_back(std::move(Lookup));
      MethodOp Upsert;
      Upsert.Kind = OpKind::UpsertBy;
      Upsert.Provenance = P;
      Upsert.Name = "upsert_by_" + colsSuffix(Cat, Key);
      Upsert.Key = Key;
      M.Ops.push_back(std::move(Upsert));
    }
    // Facade remove/update wrappers probe the key with lookup_by_*
    // before the copy-on-write gate (a miss must not clone a shard a
    // snapshot pins). Listed after the upsert pairs, so MethodDedup
    // keeps a pair's lookup where one exists.
    if (Opts.ConcurrentShards > 0) {
      std::vector<ColumnSet> ProbeKeys = Opts.RemoveKeys;
      ProbeKeys.insert(ProbeKeys.end(), Opts.UpdateKeys.begin(),
                       Opts.UpdateKeys.end());
      for (ColumnSet Key : ProbeKeys) {
        MethodOp Lookup;
        Lookup.Kind = OpKind::LookupBy;
        Lookup.Provenance = Origin::Support;
        Lookup.Name = "lookup_by_" + colsSuffix(Cat, Key);
        Lookup.Key = Key;
        Lookup.Plan = keyPlan(Key, "lookup");
        M.Ops.push_back(std::move(Lookup));
      }
    }
  }

  void lowerFacade() {
    auto facadeOp = [&](OpKind K, Origin P) {
      MethodOp Op;
      Op.Kind = K;
      Op.Where = Layer::Facade;
      Op.Provenance = P;
      return Op;
    };
    {
      MethodOp Op = facadeOp(OpKind::Insert, Origin::Requested);
      Op.Name = "insert";
      M.Ops.push_back(std::move(Op));
    }
    for (const QueryShape &Q : Opts.Queries) {
      MethodOp Op = facadeOp(OpKind::Query, Origin::Requested);
      Op.Name = Q.Name;
      Op.InputCols = Q.InputCols;
      Op.OutputCols = Q.OutputCols;
      M.Ops.push_back(std::move(Op));
      // Every fan-out query with outputs grows a parallel variant; the
      // LockPlanPrecompute pass erases the ones routing makes
      // pointless (routed queries touch one shard — nothing to fan
      // out) and the zero-output ones (nothing to merge).
      MethodOp Par = facadeOp(OpKind::ParallelScan, Origin::Requested);
      Par.Name = Q.Name + "_parallel";
      Par.Callee = Q.Name;
      Par.InputCols = Q.InputCols;
      Par.OutputCols = Q.OutputCols;
      M.Ops.push_back(std::move(Par));
    }
    for (auto [Key, P] : allRemoveKeys()) {
      // A facade wrapper is only *requested* when the directive asked
      // for removal; support copies exist so wrappers stay in lockstep
      // with the sequential class until liveness prunes them.
      MethodOp Op = facadeOp(OpKind::RemoveBy, P);
      Op.Name = "remove_by_" + colsSuffix(Cat, Key);
      Op.Key = Key;
      M.Ops.push_back(std::move(Op));
    }
    for (ColumnSet Key : Opts.UpdateKeys) {
      MethodOp Op = facadeOp(OpKind::UpdateBy, Origin::Requested);
      Op.Name = "update_by_" + colsSuffix(Cat, Key);
      Op.Key = Key;
      M.Ops.push_back(std::move(Op));
    }
    for (auto [Key, P] : allUpsertKeys()) {
      MethodOp Op = facadeOp(OpKind::UpsertBy, P);
      Op.Name = "upsert_by_" + colsSuffix(Cat, Key);
      Op.Key = Key;
      M.Ops.push_back(std::move(Op));
    }
    for (const TransactShape &T : Opts.Transactions) {
      assert(T.Arity >= 2 && T.Arity <= MaxTransactArity &&
             "transaction arity out of range");
      MethodOp Op = facadeOp(OpKind::TransactBy, Origin::Requested);
      std::string Suffix = colsSuffix(Cat, T.Key);
      Op.Name = T.Arity == 2
                    ? "transact_by_" + Suffix
                    : "transact" + std::to_string(T.Arity) + "_by_" + Suffix;
      Op.Key = T.Key;
      Op.Arity = T.Arity;
      M.Ops.push_back(std::move(Op));
    }
    {
      MethodOp Op = facadeOp(OpKind::Clear, Origin::Requested);
      Op.Name = "clear";
      M.Ops.push_back(std::move(Op));
    }
  }

  const Decomposition &D;
  const EmitterOptions &Opts;
  const Catalog &Cat;
  ColumnSet All;
  Module M;
};

} // namespace

ir::Module relc::lowerToIr(const Decomposition &D,
                           const EmitterOptions &Opts) {
  return LoweringCtx(D, Opts).run();
}
