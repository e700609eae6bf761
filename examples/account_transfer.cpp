//===- examples/account_transfer.cpp - Multi-key transactions ----------------===//
//
// Part of the RelC data representation synthesis library.
//
//===----------------------------------------------------------------------===//
//
// The worked transfer example for ConcurrentRelation::transact: an
// account(owner, acct, balance) relation sharded by owner, with writer
// threads moving balance between random account pairs as atomic
// two-upsert transactions. Each transfer locks exactly the one or two
// owning shard stripes (ascending order, two-phase locking — print the
// lock plan with --plan to see the stripe sets), so transfers on
// disjoint owners run fully in parallel while rivals on shared owners
// serialize. The invariant the transactions exist for: the TOTAL
// balance is conserved exactly, which no sequence of independent
// single-key upserts can promise once a debit and its credit can
// interleave with a rival's.
//
//   account_transfer [--threads N] [--accounts N] [--transfers N] [--plan]
//
// The same relation compiled to static code (the `transaction`
// directive) is tests/codegen/golden/account_tx.relc; this example
// drives the interpreted engine.
//
//===----------------------------------------------------------------------===//

#include "concurrent/ConcurrentRelation.h"

#include "decomp/Builder.h"
#include "support/CliArgs.h"
#include "workloads/Rng.h"

#include <atomic>
#include <cstdio>
#include <thread>
#include <vector>

using namespace relc;

namespace {

RelSpecRef accountSpec() {
  return RelSpec::make("account", {"owner", "acct", "balance"},
                       {{"owner, acct", "balance"}});
}

/// owner -> acct -> unit{balance}: the natural two-level decomposition
/// (the golden account_tx.relc spells the same shape in the Fig. 3
/// let-language).
Decomposition accountDecomp(const RelSpecRef &Spec) {
  DecompBuilder B(Spec);
  NodeId U = B.addNode("u", "owner, acct", B.unit("balance"));
  NodeId Y = B.addNode("y", "owner", B.map("acct", DsKind::HashTable, U));
  B.addNode("x", "", B.map("owner", DsKind::HashTable, Y));
  return B.build();
}

} // namespace

int main(int argc, char **argv) {
  const int64_t Threads = intFlag(argc, argv, "--threads", 4, 1, 256);
  const int64_t Accounts =
      intFlag(argc, argv, "--accounts", 64, 2, 10000000);
  const int64_t Transfers =
      intFlag(argc, argv, "--transfers", 20000, 0, 1000000000);
  const bool ShowPlan = hasArg(argc, argv, "--plan");
  const int64_t Initial = 1000;

  RelSpecRef Spec = accountSpec();
  const Catalog &Cat = Spec->catalog();
  ColumnId ColBal = Cat.get("balance");
  ConcurrentOptions Opts;
  Opts.NumShards = 8; // sharded by owner (the root key head) by default
  ConcurrentRelation Accts(accountDecomp(Spec), Opts);

  for (int64_t A = 0; A != Accounts; ++A)
    Accts.insert(TupleBuilder(Cat)
                     .set("owner", A / 4)
                     .set("acct", A % 4)
                     .set("balance", Initial)
                     .build());
  const int64_t Total = Accounts * Initial;

  auto KeyOf = [&](int64_t A) {
    return TupleBuilder(Cat).set("owner", A / 4).set("acct", A % 4).build();
  };

  if (ShowPlan) {
    // A sample transfer's lock footprint: two routed upserts touch at
    // most two stripes — never all of them.
    std::vector<TxOp> Sample;
    auto Noop = [](const BindingFrame *, Tuple &) {};
    Sample.push_back(TxOp::upsert(KeyOf(0), Noop));
    Sample.push_back(TxOp::upsert(KeyOf(Accounts - 1), Noop));
    ConcurrentRelation::TxLockPlan Plan = Accts.transactLockPlan(Sample);
    std::printf("lock plan for transfer(%lld -> %lld): %s stripes {",
                0LL, static_cast<long long>(Accounts - 1),
                Plan.AllShards ? "ALL" : "routed");
    for (size_t I = 0; I != Plan.Stripes.size(); ++I)
      std::printf("%s%u", I ? ", " : "", Plan.Stripes[I]);
    std::printf("} of %u\n", Accts.numShards());
  }

  std::atomic<uint64_t> Committed{0};
  std::vector<std::thread> Workers;
  for (int64_t T = 0; T != Threads; ++T)
    Workers.emplace_back([&, T] {
      Rng R(0xacc0 + static_cast<uint64_t>(T));
      for (int64_t I = T; I < Transfers; I += Threads) {
        int64_t From = R.range(0, Accounts - 1);
        int64_t To = R.range(0, Accounts - 1);
        if (To == From)
          To = (To + 1) % Accounts;
        int64_t Amount = R.range(1, 50);
        // Debit and credit as ONE serializable unit: the debit's Fn
        // clamps to the live balance it observes under the held shard
        // locks, so balances never go negative and no increment is
        // ever lost, however the threads interleave.
        int64_t Moved = 0;
        TxResult Res = Accts.transact([&](TxBatch &Tx) {
          Tx.upsert(KeyOf(From), [&](const BindingFrame *Cur, Tuple &V) {
            int64_t Bal = Cur ? Cur->get(ColBal).asInt() : 0;
            Moved = Amount < Bal ? Amount : Bal;
            V.set(ColBal, Value::ofInt(Bal - Moved));
          });
          Tx.upsert(KeyOf(To), [&](const BindingFrame *Cur, Tuple &V) {
            int64_t Bal = Cur ? Cur->get(ColBal).asInt() : 0;
            V.set(ColBal, Value::ofInt(Bal + Moved));
          });
        });
        if (Res.Committed)
          Committed.fetch_add(1, std::memory_order_relaxed);
      }
    });
  for (std::thread &W : Workers)
    W.join();

  int64_t Sum = 0;
  size_t Rows = 0;
  Accts.scanFrames(Tuple(), Cat.parseSet("balance"),
                   [&](const BindingFrame &F) {
                     Sum += F.get(ColBal).asInt();
                     ++Rows;
                     return true;
                   });

  std::printf("accounts: %lld, transfers: %lld over %lld threads, "
              "committed: %llu\n",
              static_cast<long long>(Accounts),
              static_cast<long long>(Transfers),
              static_cast<long long>(Threads),
              static_cast<unsigned long long>(Committed.load()));
  std::printf("total balance: %lld (expected %lld) across %zu accounts\n",
              static_cast<long long>(Sum), static_cast<long long>(Total),
              Rows);
  if (Sum != Total || Rows != static_cast<size_t>(Accounts)) {
    std::printf("CONSERVATION VIOLATED\n");
    return 1;
  }
  std::printf("conserved: every debit matched its credit exactly\n");
  return 0;
}
