//===- codegen/ir/Passes.cpp - IR pass pipeline -------------------------------===//
//
// Part of the RelC data representation synthesis library.
//
//===----------------------------------------------------------------------===//

#include "codegen/ir/Passes.h"

#include <algorithm>
#include <cassert>
#include <string>

using namespace relc;
using namespace relc::ir;

namespace {

const char *layerName(Layer L) {
  return L == Layer::Sequential ? "sequential" : "facade";
}

/// Identity of a method for dedup/liveness purposes. Queries and
/// parallel scans are identified by name (their key fields are empty);
/// *By ops by (kind, layer, key, arity).
struct OpIdent {
  OpKind Kind;
  Layer Where;
  uint64_t KeyBits;
  unsigned Arity;
  std::string Name;

  static OpIdent of(const MethodOp &Op) {
    OpIdent Id;
    Id.Kind = Op.Kind;
    Id.Where = Op.Where;
    Id.KeyBits = 0;
    for (ColumnId C : Op.Key)
      Id.KeyBits |= uint64_t(1) << C;
    Id.Arity = Op.Arity;
    Id.Name = Op.Name;
    return Id;
  }
  bool operator==(const OpIdent &O) const {
    return Kind == O.Kind && Where == O.Where && KeyBits == O.KeyBits &&
           Arity == O.Arity && Name == O.Name;
  }
};

//===--------------------------------------------------------------------===//
// MethodDedup
//===--------------------------------------------------------------------===//

class MethodDedupPass : public Pass {
public:
  std::string_view name() const override { return "method-dedup"; }
  bool isCanonicalization() const override { return true; }

  bool run(Module &M) override {
    std::vector<MethodOp> Out;
    std::vector<OpIdent> Seen;
    bool Changed = false;
    for (MethodOp &Op : M.Ops) {
      OpIdent Id = OpIdent::of(Op);
      auto It = std::find(Seen.begin(), Seen.end(), Id);
      if (It == Seen.end()) {
        Seen.push_back(std::move(Id));
        Out.push_back(std::move(Op));
        continue;
      }
      // First occurrence wins the slot; a requested duplicate keeps
      // the survivor alive through liveness.
      MethodOp &Kept = Out[size_t(It - Seen.begin())];
      if (Op.Provenance == Origin::Requested &&
          Kept.Provenance != Origin::Requested) {
        Kept.Provenance = Origin::Requested;
        M.PassLog.push_back("method-dedup: duplicate " +
                            std::string(layerName(Op.Where)) + " " +
                            Op.Name + " upgrades survivor to requested");
      } else {
        M.PassLog.push_back("method-dedup: merged duplicate " +
                            std::string(layerName(Op.Where)) + " " +
                            Op.Name);
      }
      Changed = true;
    }
    M.Ops = std::move(Out);
    return Changed;
  }

private:
  // Dedup must keep the *first* occurrence: emission order is the
  // order directives appeared in, and the sequential class emits
  // (lookup, upsert) pairs adjacently — dropping later duplicates
  // preserves both.
};

//===--------------------------------------------------------------------===//
// DeadIndexElimination
//===--------------------------------------------------------------------===//

class DeadIndexEliminationPass : public Pass {
public:
  std::string_view name() const override { return "dead-index-elim"; }

  bool run(Module &M) override {
    // Mark: ops a live op's body calls are live. The edge set mirrors
    // the backend method bodies exactly (CppBackend.cpp) — when a body
    // grows a new call, this list must grow with it.
    std::vector<bool> Live(M.Ops.size(), false);
    std::vector<size_t> Work;
    for (size_t I = 0; I != M.Ops.size(); ++I)
      if (M.Ops[I].Provenance == Origin::Requested) {
        Live[I] = true;
        Work.push_back(I);
      }
    auto mark = [&](const MethodOp *Target) {
      if (!Target)
        return;
      size_t I = size_t(Target - M.Ops.data());
      if (!Live[I]) {
        Live[I] = true;
        Work.push_back(I);
      }
    };
    while (!Work.empty()) {
      const MethodOp &Op = M.Ops[Work.back()];
      Work.pop_back();
      constexpr Layer Seq = Layer::Sequential;
      switch (Op.Kind) {
      case OpKind::UpdateBy:
        // The facade wrapper probes the key before the COW gate.
        if (Op.Where == Layer::Facade) {
          mark(M.find(OpKind::UpdateBy, Seq, Op.Key));
          mark(M.find(OpKind::LookupBy, Seq, Op.Key));
        }
        mark(M.find(OpKind::RemoveBy, Seq, Op.Key));
        mark(M.find(OpKind::Insert, Seq, ColumnSet()));
        break;
      case OpKind::UpsertBy:
        if (Op.Where == Layer::Facade)
          mark(M.find(OpKind::UpsertBy, Seq, Op.Key));
        mark(M.find(OpKind::LookupBy, Seq, Op.Key));
        mark(M.find(OpKind::RemoveBy, Seq, Op.Key));
        mark(M.find(OpKind::Insert, Seq, ColumnSet()));
        break;
      case OpKind::TransactBy:
        // Both the routed and the fan-out body resolve via lookup and
        // write back via the upsert pair (which migrates through
        // remove + insert in the fan-out case).
        mark(M.find(OpKind::LookupBy, Seq, Op.Key));
        mark(M.find(OpKind::UpsertBy, Seq, Op.Key));
        mark(M.find(OpKind::RemoveBy, Seq, Op.Key));
        mark(M.find(OpKind::Insert, Seq, ColumnSet()));
        break;
      case OpKind::RemoveBy:
        if (Op.Where == Layer::Facade) {
          mark(M.find(OpKind::RemoveBy, Seq, Op.Key));
          mark(M.find(OpKind::LookupBy, Seq, Op.Key));
        }
        break;
      case OpKind::Query:
        if (Op.Where == Layer::Facade)
          mark(M.findByName(Seq, Op.Name));
        break;
      case OpKind::ParallelScan:
        mark(M.findByName(Seq, Op.Callee));
        break;
      case OpKind::Insert:
        if (Op.Where == Layer::Facade)
          mark(M.find(OpKind::Insert, Seq, ColumnSet()));
        break;
      case OpKind::LookupBy:
      case OpKind::Clear:
        break;
      }
    }

    // Sweep.
    std::vector<MethodOp> Out;
    bool Changed = false;
    for (size_t I = 0; I != M.Ops.size(); ++I) {
      if (Live[I]) {
        Out.push_back(std::move(M.Ops[I]));
        continue;
      }
      M.PassLog.push_back("dead-index-elim: removed " +
                          std::string(layerName(M.Ops[I].Where)) + " " +
                          M.Ops[I].Name + " (unreachable support)");
      Changed = true;
    }
    M.Ops = std::move(Out);
    return Changed;
  }
};

//===--------------------------------------------------------------------===//
// LockPlanPrecompute
//===--------------------------------------------------------------------===//

class LockPlanPrecomputePass : public Pass {
public:
  std::string_view name() const override { return "lock-plan"; }
  bool isCanonicalization() const override { return true; }

  bool run(Module &M) override {
    bool Changed = false;
    // Decide first, apply after: the decisions read other ops (a
    // scan's base query), so M.Ops must stay intact while deciding.
    std::vector<LockPlan> Plans(M.Ops.size());
    std::vector<bool> Erase(M.Ops.size(), false);
    for (size_t I = 0; I != M.Ops.size(); ++I) {
      MethodOp &Op = M.Ops[I];
      if (Op.Where == Layer::Sequential) {
        Plans[I] = {LockPlan::None, false, 0};
        Changed |= Op.Lock.Mode != LockPlan::None;
        continue;
      }
      bool Routed = bindsShardColumn(M, Op);
      LockPlan Plan;
      Plan.Routed = Routed;
      switch (Op.Kind) {
      case OpKind::Insert:
        // Full tuples always bind the shard column.
        Plan = {LockPlan::ExclusiveOne, true, 1};
        break;
      case OpKind::Query:
        Plan.Mode = Routed ? LockPlan::SharedOne : LockPlan::SharedEach;
        Plan.MaxStripes = 1;
        // Plain shared reads go wait-free: an epoch section per shard,
        // reader stripe only as the writer-gate fallback. ParallelScan
        // stays locked — its pooled workers may block on merge-queue
        // backpressure, which an epoch section must never do.
        Plan.WaitFree = true;
        break;
      case OpKind::ParallelScan: {
        // A routed base query touches one shard (nothing to fan out)
        // and a zero-output one feeds no merge queue: erase, don't
        // stamp.
        const MethodOp *Base = M.findByName(Layer::Sequential, Op.Callee);
        bool BaseRouted =
            Base && Base->InputCols.contains(M.ShardColumn);
        if (BaseRouted || Op.OutputCols.size() == 0) {
          M.PassLog.push_back(
              "lock-plan: erased " + Op.Name +
              (BaseRouted ? " (base query is routed)"
                          : " (no output columns to merge)"));
          Erase[I] = true;
          Changed = true;
          continue;
        }
        Plan.Mode = LockPlan::SharedEach;
        Plan.Routed = false;
        Plan.MaxStripes = M.Shards;
        break;
      }
      case OpKind::RemoveBy:
      case OpKind::UpdateBy:
      case OpKind::UpsertBy:
        if (Routed)
          Plan = {LockPlan::ExclusiveOne, true, 1};
        else
          Plan = {LockPlan::ExclusiveAll, false, M.Shards};
        break;
      case OpKind::TransactBy:
        if (Routed) {
          // Exactly the owning stripes, ascending — at most one per
          // key tuple.
          Plan = {LockPlan::ExclusiveSet, true, Op.Arity};
        } else {
          // Degrade to all stripes: the key misses the shard column,
          // so owners are unknown and write-backs may migrate.
          Plan = {LockPlan::ExclusiveAll, false, M.Shards};
          M.PassLog.push_back("lock-plan: " + Op.Name +
                              " degrades to all stripes (key misses "
                              "the shard column)");
        }
        break;
      case OpKind::Clear:
        Plan = {LockPlan::ExclusiveAll, false, M.Shards};
        break;
      case OpKind::LookupBy:
        assert(false && "lookup_by_* is never a facade op");
        break;
      }
      Changed |= Op.Lock.Mode != Plan.Mode || Op.Lock.Routed != Plan.Routed ||
                 Op.Lock.MaxStripes != Plan.MaxStripes ||
                 Op.Lock.WaitFree != Plan.WaitFree;
      Plans[I] = Plan;
    }
    std::vector<MethodOp> Out;
    Out.reserve(M.Ops.size());
    for (size_t I = 0; I != M.Ops.size(); ++I) {
      if (Erase[I])
        continue;
      M.Ops[I].Lock = Plans[I];
      Out.push_back(std::move(M.Ops[I]));
    }
    M.Ops = std::move(Out);
    return Changed;
  }

private:
  /// Does the op's binding pattern include the shard column? Queries
  /// route by their input pattern, keyed mutations by their key;
  /// inserts bind every column.
  static bool bindsShardColumn(const Module &M, const MethodOp &Op) {
    switch (Op.Kind) {
    case OpKind::Insert:
      return true;
    case OpKind::Query:
    case OpKind::ParallelScan:
      return Op.InputCols.contains(M.ShardColumn);
    default:
      return Op.Key.contains(M.ShardColumn);
    }
  }
};

} // namespace

std::unique_ptr<Pass> ir::createMethodDedupPass() {
  return std::make_unique<MethodDedupPass>();
}
std::unique_ptr<Pass> ir::createDeadIndexEliminationPass() {
  return std::make_unique<DeadIndexEliminationPass>();
}
std::unique_ptr<Pass> ir::createLockPlanPrecomputePass() {
  return std::make_unique<LockPlanPrecomputePass>();
}

bool PassManager::run(Module &M, bool RunOptimizations) const {
  bool Changed = false;
  for (const std::unique_ptr<Pass> &P : Passes) {
    if (!RunOptimizations && !P->isCanonicalization()) {
      M.PassLog.push_back("pipeline: skipped " + std::string(P->name()) +
                          " (--no-opt)");
      continue;
    }
    Changed |= P->run(M);
  }
  return Changed;
}

void ir::addDefaultPasses(PassManager &PM) {
  PM.add(createMethodDedupPass());
  PM.add(createDeadIndexEliminationPass());
  PM.add(createLockPlanPrecomputePass());
}
