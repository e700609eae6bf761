//===- codegen/ir/IrPrinter.cpp - Textual IR dumps ----------------------------===//
//
// Part of the RelC data representation synthesis library.
//
//===----------------------------------------------------------------------===//

#include "codegen/ir/IrPrinter.h"

#include <cassert>

using namespace relc;
using namespace relc::ir;

namespace {

const char *kindName(OpKind K) {
  switch (K) {
  case OpKind::Insert:
    return "insert";
  case OpKind::Query:
    return "query";
  case OpKind::ParallelScan:
    return "parallel-scan";
  case OpKind::RemoveBy:
    return "remove";
  case OpKind::UpdateBy:
    return "update";
  case OpKind::LookupBy:
    return "lookup";
  case OpKind::UpsertBy:
    return "upsert";
  case OpKind::TransactBy:
    return "transact";
  case OpKind::Clear:
    return "clear";
  }
  return "?";
}

std::string colTuple(const Catalog &Cat, ColumnSet Cols) {
  std::string Out = "(";
  bool First = true;
  for (ColumnId C : Cols) {
    if (!First)
      Out += ", ";
    Out += Cat.name(C);
    First = false;
  }
  return Out + ")";
}

} // namespace

std::string ir::printModule(const Module &M) {
  assert(M.Decomp && "printing a module with no decomposition");
  const Catalog &Cat = M.Decomp->catalog();
  std::string Out;
  Out += "module " + M.ClassName + " (namespace " + M.Namespace + ")\n";
  Out += "  spec: " + M.Decomp->spec()->str() + "\n";
  Out += "  decomposition: " +
         M.Decomp->canonicalString(/*IncludeDs=*/true) + "\n";
  if (M.hasFacade())
    Out += "  shards: " + std::to_string(M.Shards) + " on " +
           Cat.name(M.ShardColumn) + "\n";
  else
    Out += "  shards: none\n";

  Out += "  ops:\n";
  for (const MethodOp &Op : M.Ops) {
    std::string Line = "    ";
    Line += Op.Where == Layer::Sequential ? "seq " : "fac ";
    Line += kindName(Op.Kind);
    Line += " ";
    Line += Op.Name;
    if (Op.Kind == OpKind::Query || Op.Kind == OpKind::ParallelScan)
      Line += " " + colTuple(Cat, Op.InputCols) + " -> " +
              colTuple(Cat, Op.OutputCols);
    else if (Op.Key.size() > 0)
      Line += " key=" + colTuple(Cat, Op.Key);
    if (Op.Arity != 0)
      Line += " arity=" + std::to_string(Op.Arity);
    Line += Op.Provenance == Origin::Requested ? " [requested]"
                                               : " [support]";
    Line += " lock=";
    Line += lockModeName(Op.Lock.Mode);
    if (Op.Lock.Routed)
      Line += " routed";
    if (Op.Lock.WaitFree)
      Line += " wait_free";
    if (Op.Lock.MaxStripes != 0)
      Line += " max_stripes=" + std::to_string(Op.Lock.MaxStripes);
    if (Op.Plan)
      Line += " plan={" + Op.Plan->str() + "}";
    Out += Line + "\n";
  }

  if (!M.PassLog.empty()) {
    Out += "  passes:\n";
    for (const std::string &L : M.PassLog)
      Out += "    " + L + "\n";
  }
  return Out;
}
