//===- perfbench/cpp/AccountMix.h - The account traffic mix -----*- C++ -*-===//
//
// Part of the RelC data representation synthesis library.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The operation mix that sharded-mix and server-durable both drive
/// against relserved's account(owner, acct, balance) relation, and the
/// bookkeeping that makes its final state exactly predictable.
///
/// 100,000 shared accounts (owner = a / 4, acct = a % 4) start at 1000.
/// Each client thread draws:
///   - 60% point balance reads: a uniform shared account, or one of the
///     thread's own open accounts one time in ten;
///   - 30% transfers between two distinct shared accounts, each picked
///     from the 1,000 hot accounts half the time (skew makes transfers
///     conflict), guarded by a floor of 0 on the source: a floor abort
///     is a legitimate outcome. Amounts are 1-10, except that one
///     transfer in a hundred asks for 5,000, which aborts unless its
///     source has grown that rich;
///   - 10% opens or closes of the thread's own accounts (owners
///     1,000,000 + k * 4 + thread, balance 100, at most 256 open), which
///     no other thread touches.
/// Every committed transfer's delta is recorded per account, so the
/// expected final balance of each shared account is exact whatever
/// the interleaving, and each thread knows its open set exactly.
///
//===----------------------------------------------------------------------===//

#ifndef PERFBENCH_ACCOUNTMIX_H
#define PERFBENCH_ACCOUNTMIX_H

#include "Bench.h"

#include "decomp/Builder.h"
#include "workloads/Rng.h"

#include <algorithm>
#include <array>
#include <cstdint>
#include <string>
#include <vector>

namespace pb {

constexpr int64_t SharedAccounts = 100000;
constexpr int64_t HotAccounts = 1000;
constexpr int64_t InitialBalance = 1000;
constexpr int64_t OwnBalance = 100;
constexpr int64_t OwnOwnerBase = 1000000;
constexpr unsigned MixThreads = 4;

inline int64_t ownerOf(int64_t A) { return A / 4; }
inline int64_t acctOf(int64_t A) { return A % 4; }
inline bool isShared(int64_t Owner) { return Owner < OwnOwnerBase; }

/// relserved's decomposition of account: owner -> acct -> balance, both
/// maps hash tables.
inline relc::Decomposition accountDecomposition() {
  relc::RelSpecRef Spec = relc::RelSpec::make(
      "account", {"owner", "acct", "balance"}, {{"owner, acct", "balance"}});
  relc::DecompBuilder B(Spec);
  relc::NodeId U = B.addNode("u", "owner, acct", B.unit("balance"));
  relc::NodeId Y =
      B.addNode("y", "owner", B.map("acct", relc::DsKind::HashTable, U));
  B.addNode("x", "", B.map("owner", relc::DsKind::HashTable, Y));
  return B.build();
}

struct MixOp {
  enum Kind { Read, Transfer, Open, Close } K = Read;
  /// Read: the shared account index, or with Own the owner of one of
  /// the thread's accounts (acct 0). Transfer: source (A) and
  /// destination (B) shared account indices. Open/Close: the own
  /// account's owner in A (acct 0).
  int64_t A = 0, B = 0;
  int64_t Amount = 0;
  bool Own = false;

  int64_t owner() const { return Own ? A : ownerOf(A); }
  int64_t acct() const { return Own ? 0 : acctOf(A); }
};

/// One client thread's generator and ledger.
class AccountMix {
public:
  AccountMix(uint64_t Seed, unsigned Thread)
      : R(Seed * 0x9e3779b97f4a7c15ULL + 0x51ed + Thread),
        NextOwn(OwnOwnerBase + int64_t(Thread)),
        Delta(SharedAccounts, 0) {}

  MixOp next() {
    MixOp Op;
    uint64_t Dice = R.below(10);
    if (Dice < 6) {
      Op.K = MixOp::Read;
      Op.Own = !Open.empty() && R.below(10) == 0;
      Op.A = Op.Own ? Open[R.below(Open.size())]
                    : static_cast<int64_t>(R.below(SharedAccounts));
    } else if (Dice < 9) {
      Op.K = MixOp::Transfer;
      Op.A = skewed();
      do
        Op.B = skewed();
      while (Op.B == Op.A);
      // One transfer in a hundred asks for more than any account starts
      // with, so floor aborts occur from the first second on.
      Op.Amount = R.below(100) ? 1 + static_cast<int64_t>(R.below(10))
                               : 5 * InitialBalance;
    } else if (Open.size() < 32 || (Open.size() < 256 && R.below(2) == 0)) {
      Op.K = MixOp::Open;
      Op.A = NextOwn;
      NextOwn += MixThreads;
    } else {
      Op.K = MixOp::Close;
      size_t I = R.below(Open.size());
      Op.A = Open[I];
      Open[I] = Open.back();
      Open.pop_back();
    }
    return Op;
  }

  void opened(int64_t Owner) { Open.push_back(Owner); }
  void committed(const MixOp &Op) {
    Delta[Op.A] -= Op.Amount;
    Delta[Op.B] += Op.Amount;
  }

  const std::vector<int64_t> &delta() const { return Delta; }
  const std::vector<int64_t> &open() const { return Open; }

private:
  int64_t skewed() {
    return static_cast<int64_t>(R.below(2) ? R.below(HotAccounts)
                                           : R.below(SharedAccounts));
  }

  relc::Rng R;
  int64_t NextOwn;
  std::vector<int64_t> Delta;
  std::vector<int64_t> Open;
};

/// Checks a final account relation, given as its rows, against the
/// ledgers: every shared account at its exact balance, the shared total
/// conserved, every thread's open accounts present at OwnBalance, and
/// nothing else. Each mismatch is one failed check in \p R; \p Total is
/// the expected shared total (perturbed by the self-test).
inline void checkFinal(const std::vector<std::array<int64_t, 3>> &Rows,
                       const std::vector<AccountMix> &Mixes, int64_t Total,
                       Report &R, const std::string &Where) {
  std::vector<int64_t> Want(SharedAccounts, InitialBalance);
  for (const AccountMix &M : Mixes)
    for (int64_t A = 0; A != SharedAccounts; ++A)
      Want[A] += M.delta()[A];
  std::vector<int64_t> Seen(SharedAccounts, -1);
  size_t OwnWant = 0, OwnSeen = 0;
  for (const AccountMix &M : Mixes)
    OwnWant += M.open().size();
  int64_t Sum = 0;
  uint64_t Wrong = 0;
  for (const auto &Row : Rows) {
    if (isShared(Row[0])) {
      int64_t A = Row[0] * 4 + Row[1];
      if (Row[1] < 0 || Row[1] > 3 || A >= SharedAccounts || Seen[A] != -1) {
        ++Wrong;
        continue;
      }
      Seen[A] = Row[2];
      Sum += Row[2];
      continue;
    }
    size_t T = size_t((Row[0] - OwnOwnerBase) % MixThreads);
    bool Mine = T < Mixes.size() && Row[1] == 0 && Row[2] == OwnBalance;
    if (Mine) {
      const std::vector<int64_t> &O = Mixes[T].open();
      Mine = std::find(O.begin(), O.end(), Row[0]) != O.end();
    }
    Wrong += !Mine;
    OwnSeen += Mine;
  }
  for (int64_t A = 0; A != SharedAccounts; ++A)
    Wrong += Seen[A] != Want[A];
  R.attempted(Rows.size());
  R.check(Sum == Total, Where + ": shared balances do not sum to the total");
  R.check(OwnSeen == OwnWant, Where + ": open account sets differ");
  if (Wrong) {
    R.Failed.fetch_add(Wrong - 1, std::memory_order_relaxed);
    R.check(false, Where + ": " + std::to_string(Wrong) +
                       " rows differ from the expected relation");
  }
}

} // namespace pb

#endif // PERFBENCH_ACCOUNTMIX_H
