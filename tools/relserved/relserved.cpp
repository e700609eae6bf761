//===- tools/relserved/relserved.cpp - Relation server daemon -------------===//
//
// Part of the RelC data representation synthesis library.
//
//===----------------------------------------------------------------------===//
//
// The relserved daemon: the account(owner, acct, balance) relation of
// examples/account_transfer.cpp (and of the golden account_tx.relc)
// served over the server/Wire.h protocol with group commit and a
// write-ahead log. Three modes, so one binary covers the CI crash
// smoke test end to end:
//
//   relserved [--port N] [--port-file P] [--wal P] [--shards N]
//             [--max-group N] [--checkpoint-every N]
//     Serve until SIGTERM/SIGINT (clean stop) — or SIGKILL, which is
//     the point: restart with the same --wal and recovery replays
//     every acknowledged commit.
//
//   relserved --workload --port N [--accounts N] [--transfers N]
//             [--threads N] [--seed-only] [--seed-batch N]
//             [--checkpoint-during]
//     Client mode: seed the accounts (idempotent: an already-seeded
//     account aborts the insert harmlessly; --seed-batch groups
//     seeding into N-insert transact batches so large account counts
//     seed in few round trips), then run random floor-guarded
//     transfers as two-`add` transact batches. Prints "acked <n>" —
//     every counted transfer holds a durable ack. With
//     --checkpoint-during, the main thread issues Checkpoint requests
//     while the transfer threads run and fails unless every
//     checkpoint succeeds AND transfer acks landed while checkpoints
//     were in flight — the off-committer snapshot claim (commits
//     don't stall behind checkpoint serialization) checked against
//     the real daemon.
//
//   relserved --verify --port N [--accounts N]
//     Client mode: asserts the conservation invariant — exactly
//     N accounts, total balance N * 1000 — and exits nonzero on any
//     violation. Run after a SIGKILL + restart to prove recovery.
//
// Each mode parses its own flags strictly: an unknown flag, a missing
// value or a malformed number prints the usage and exits 2 before any
// socket is opened; --help prints it and exits 0.
//
//===----------------------------------------------------------------------===//

#include "decomp/Builder.h"
#include "server/Client.h"
#include "server/Server.h"
#include "support/ParseInt.h"

#include <atomic>
#include <chrono>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <map>
#include <string>
#include <thread>
#include <vector>

using namespace relc;

namespace {

constexpr int64_t InitialBalance = 1000;

RelSpecRef accountSpec() {
  return RelSpec::make("account", {"owner", "acct", "balance"},
                       {{"owner, acct", "balance"}});
}

Decomposition accountDecomp(const RelSpecRef &Spec) {
  DecompBuilder B(Spec);
  NodeId U = B.addNode("u", "owner, acct", B.unit("balance"));
  NodeId Y = B.addNode("y", "owner", B.map("acct", DsKind::HashTable, U));
  B.addNode("x", "", B.map("owner", DsKind::HashTable, Y));
  return B.build();
}

constexpr const char *Usage =
    "usage: relserved [--port N] [--port-file P] [--wal P] [--shards N]\n"
    "                 [--max-group N] [--checkpoint-every N]\n"
    "       relserved --workload --port N [--accounts N] [--transfers N]\n"
    "                 [--threads N] [--seed-only] [--seed-batch N]\n"
    "                 [--checkpoint-during]\n"
    "       relserved --verify --port N [--accounts N]\n"
    "       relserved --help\n";

/// One flag a mode accepts: a switch, a string, or an integer in
/// [Min, Max].
struct FlagSpec {
  const char *Name;
  enum Kind { Switch, String, Int } K;
  int64_t Min = 0, Max = 0;
};

/// A mode's command line, parsed strictly against its flag table: an
/// unknown flag, a repeated one, a missing value or a value that is
/// not a decimal integer in range is an error.
class Args {
public:
  bool parse(int argc, char **argv, const std::vector<FlagSpec> &Flags,
             std::string &Err) {
    for (int I = 1; I < argc; ++I) {
      const FlagSpec *F = nullptr;
      for (const FlagSpec &Cand : Flags)
        if (std::strcmp(argv[I], Cand.Name) == 0)
          F = &Cand;
      if (!F) {
        Err = std::string("unknown argument '") + argv[I] + "'";
        return false;
      }
      if (Values.count(F->Name)) {
        Err = std::string(F->Name) + " given twice";
        return false;
      }
      if (F->K == FlagSpec::Switch) {
        Values[F->Name] = "";
        continue;
      }
      if (I + 1 == argc) {
        Err = std::string(F->Name) + " needs a value";
        return false;
      }
      const char *V = argv[++I];
      int64_t N = 0;
      if (F->K == FlagSpec::Int && !parseInt(V, F->Min, F->Max, N)) {
        Err = std::string(F->Name) + " needs an integer in [" +
              std::to_string(F->Min) + ", " + std::to_string(F->Max) +
              "], got '" + V + "'";
        return false;
      }
      Values[F->Name] = V;
    }
    return true;
  }

  bool has(const char *Flag) const { return Values.count(Flag) != 0; }
  const char *str(const char *Flag) const {
    auto It = Values.find(Flag);
    return It == Values.end() ? nullptr : It->second.c_str();
  }
  int64_t num(const char *Flag, int64_t Default) const {
    const char *V = str(Flag);
    return V ? std::strtoll(V, nullptr, 10) : Default;
  }

private:
  std::map<std::string, std::string> Values;
};

constexpr int64_t MaxCount = int64_t(1) << 40;
const FlagSpec PortFlag{"--port", FlagSpec::Int, 0, 65535};
const FlagSpec AccountsFlag{"--accounts", FlagSpec::Int, 1, MaxCount};

volatile std::sig_atomic_t StopRequested = 0;
void onSignal(int) { StopRequested = 1; }

//===----------------------------------------------------------------------===//
// Serve mode
//===----------------------------------------------------------------------===//

const std::vector<FlagSpec> ServeFlags = {
    PortFlag,
    {"--port-file", FlagSpec::String},
    {"--wal", FlagSpec::String},
    {"--shards", FlagSpec::Int, 1, int64_t(MaxShards)},
    {"--max-group", FlagSpec::Int, 1, MaxCount},
    {"--checkpoint-every", FlagSpec::Int, 0, MaxCount}};

int serveMain(const Args &A) {
  ServerOptions Opts;
  Opts.Port = static_cast<uint16_t>(A.num("--port", 0));
  if (const char *Wal = A.str("--wal"))
    Opts.WalPath = Wal;
  Opts.Concurrent.NumShards = static_cast<unsigned>(A.num("--shards", 8));
  Opts.MaxGroup = static_cast<size_t>(A.num("--max-group", 64));
  Opts.CheckpointEvery =
      static_cast<uint64_t>(A.num("--checkpoint-every", 0));

  RelSpecRef Spec = accountSpec();
  RelServer Server(accountDecomp(Spec), Opts);
  std::string Err;
  if (!Server.start(&Err)) {
    std::fprintf(stderr, "relserved: %s\n", Err.c_str());
    return 1;
  }
  std::fprintf(stderr, "relserved: serving account on 127.0.0.1:%u",
               Server.port());
  if (!Opts.WalPath.empty())
    std::fprintf(stderr, ", wal %s (%llu txns recovered)",
                 Opts.WalPath.c_str(),
                 static_cast<unsigned long long>(Server.recoveredTxns()));
  std::fprintf(stderr, "\n");

  if (const char *PortFile = A.str("--port-file")) {
    // Write-then-rename so a polling reader never sees a half-written
    // port number.
    std::string Tmp = std::string(PortFile) + ".tmp";
    std::ofstream Out(Tmp);
    Out << Server.port() << "\n";
    Out.close();
    std::rename(Tmp.c_str(), PortFile);
  }

  std::signal(SIGINT, onSignal);
  std::signal(SIGTERM, onSignal);
  while (!StopRequested)
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
  Server.stop();
  return 0;
}

//===----------------------------------------------------------------------===//
// Workload mode (client)
//===----------------------------------------------------------------------===//

Tuple accountKey(const Catalog &Cat, int64_t A) {
  return TupleBuilder(Cat).set("owner", A / 4).set("acct", A % 4).build();
}

const std::vector<FlagSpec> WorkloadFlags = {
    {"--workload", FlagSpec::Switch},
    PortFlag,
    AccountsFlag,
    {"--transfers", FlagSpec::Int, 0, MaxCount},
    {"--threads", FlagSpec::Int, 1, 1024},
    {"--seed-only", FlagSpec::Switch},
    {"--seed-batch", FlagSpec::Int, 1, MaxCount},
    {"--checkpoint-during", FlagSpec::Switch}};

int workloadMain(const Args &A) {
  uint16_t Port = static_cast<uint16_t>(A.num("--port", 0));
  int64_t Accounts = A.num("--accounts", 64);
  int64_t Transfers = A.num("--transfers", 5000);
  int64_t Threads = A.num("--threads", 4);
  bool SeedOnly = A.has("--seed-only");
  int64_t SeedBatch = A.num("--seed-batch", 1);
  bool CkptDuring = A.has("--checkpoint-during");

  RelSpecRef Spec = accountSpec();
  const Catalog &Cat = Spec->catalog();
  ColumnId ColBal = Cat.get("balance");

  {
    RelClient Seeder;
    std::string Err;
    if (!Seeder.connect(Port, &Err)) {
      std::fprintf(stderr, "workload: %s\n", Err.c_str());
      return 1;
    }
    for (int64_t A = 0; A != Accounts;) {
      // An abort means an account survived a previous run with some
      // other balance — exactly what recovery is supposed to produce.
      // (With --seed-batch the whole batch aborts; also harmless, the
      // batch's accounts all exist already.)
      std::vector<wire::WireTxOp> Batch;
      for (int64_t E = std::min(Accounts, A + SeedBatch); A != E; ++A)
        Batch.push_back(wire::WireTxOp::insert(TupleBuilder(Cat)
                                                   .set("owner", A / 4)
                                                   .set("acct", A % 4)
                                                   .set("balance",
                                                        InitialBalance)
                                                   .build()));
      RelClient::Reply R;
      if (!Seeder.transact(Batch, &R) || R.St == wire::Status::Error) {
        std::fprintf(stderr, "workload: seeding failed\n");
        return 1;
      }
    }
  }
  if (SeedOnly) {
    std::printf("seeded %lld\n", static_cast<long long>(Accounts));
    return 0;
  }

  std::atomic<uint64_t> Acked{0}, Aborted{0};
  std::atomic<int64_t> WorkersLive{Threads};
  std::vector<std::thread> Workers;
  for (int64_t W = 0; W != Threads; ++W)
    Workers.emplace_back([&, W] {
      struct Live {
        std::atomic<int64_t> &L;
        ~Live() { L.fetch_sub(1); }
      } Dec{WorkersLive};
      RelClient Cli;
      if (!Cli.connect(Port, nullptr))
        return;
      uint64_t State = 0x9E3779B97F4A7C15ull * (W + 1) + 1;
      auto Rnd = [&State](uint64_t Mod) {
        State = State * 6364136223846793005ull + 1442695040888963407ull;
        return (State >> 33) % Mod;
      };
      for (int64_t T = 0; T != Transfers; ++T) {
        int64_t From = static_cast<int64_t>(Rnd(Accounts));
        int64_t To = static_cast<int64_t>(Rnd(Accounts));
        if (From == To)
          continue;
        int64_t Amt = 1 + static_cast<int64_t>(Rnd(10));
        std::vector<wire::WireTxOp> Ops;
        Ops.push_back(
            wire::WireTxOp::add(accountKey(Cat, From), ColBal, -Amt, 0));
        Ops.push_back(wire::WireTxOp::add(accountKey(Cat, To), ColBal, Amt));
        RelClient::Reply R;
        if (!Cli.transact(Ops, &R))
          return; // server gone (the SIGKILL case): unacked, uncounted
        if (R.ok())
          Acked.fetch_add(1);
        else if (R.aborted())
          Aborted.fetch_add(1);
      }
    });
  // Checkpoint while the transfer threads hammer the server: bracket
  // each Checkpoint round trip with reads of the ack counter. The
  // snapshot barrier is O(shards) and serialization runs on the
  // dedicated checkpoint thread, so acks must keep landing while the
  // checkpoint is in flight — zero acks across every checkpoint means
  // commits stalled behind it, the exact regression this guards.
  uint64_t CkptRuns = 0, AckedDuring = 0;
  bool CkptFailed = false;
  if (CkptDuring) {
    RelClient Ck;
    std::string Err;
    if (!Ck.connect(Port, &Err)) {
      std::fprintf(stderr, "workload: checkpoint client: %s\n", Err.c_str());
      CkptFailed = true;
    } else {
      while (Acked.load() == 0 && WorkersLive.load() > 0)
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
      while (WorkersLive.load() > 0) {
        uint64_t Before = Acked.load();
        RelClient::Reply R;
        if (!Ck.checkpoint(&R) || !R.ok()) {
          std::fprintf(stderr, "workload: checkpoint failed: %s\n",
                       R.Error.c_str());
          CkptFailed = true;
          break;
        }
        AckedDuring += Acked.load() - Before;
        ++CkptRuns;
        std::this_thread::sleep_for(std::chrono::milliseconds(50));
      }
    }
  }
  for (std::thread &T : Workers)
    T.join();
  std::printf("acked %llu\naborted %llu\n",
              static_cast<unsigned long long>(Acked.load()),
              static_cast<unsigned long long>(Aborted.load()));
  if (CkptDuring) {
    std::printf("checkpoints %llu acked-during %llu\n",
                static_cast<unsigned long long>(CkptRuns),
                static_cast<unsigned long long>(AckedDuring));
    if (CkptFailed || CkptRuns == 0 || AckedDuring == 0) {
      std::fprintf(stderr,
                   "workload: checkpoint-under-load FAILED (commits "
                   "stalled or checkpoint errored)\n");
      return 1;
    }
  }
  return 0;
}

const std::vector<FlagSpec> VerifyFlags = {
    {"--verify", FlagSpec::Switch}, PortFlag, AccountsFlag};

int verifyMain(const Args &A) {
  uint16_t Port = static_cast<uint16_t>(A.num("--port", 0));
  int64_t Accounts = A.num("--accounts", 64);

  RelSpecRef Spec = accountSpec();
  const Catalog &Cat = Spec->catalog();
  RelClient Cli;
  std::string Err;
  if (!Cli.connect(Port, &Err)) {
    std::fprintf(stderr, "verify: %s\n", Err.c_str());
    return 1;
  }
  uint64_t N = 0;
  if (!Cli.size(N)) {
    std::fprintf(stderr, "verify: size failed\n");
    return 1;
  }
  std::vector<Tuple> Rows;
  if (!Cli.query(Tuple(), Spec->columns(), Rows)) {
    std::fprintf(stderr, "verify: query failed\n");
    return 1;
  }
  int64_t Total = 0;
  for (const Tuple &T : Rows)
    Total += T.get(Cat.get("balance")).asInt();
  int64_t WantTotal = Accounts * InitialBalance;
  std::printf("accounts %llu total %lld\n",
              static_cast<unsigned long long>(N),
              static_cast<long long>(Total));
  if (static_cast<int64_t>(N) != Accounts || Total != WantTotal ||
      Rows.size() != static_cast<size_t>(Accounts)) {
    std::fprintf(stderr,
                 "verify: INVARIANT VIOLATED (want %lld accounts, "
                 "total %lld)\n",
                 static_cast<long long>(Accounts),
                 static_cast<long long>(WantTotal));
    return 1;
  }
  return 0;
}

} // namespace

int main(int argc, char **argv) {
  // The mode switch picks the flag table; everything is parsed before
  // any socket is opened, and a bad command line exits 2.
  bool Workload = false, Verify = false;
  for (int I = 1; I < argc; ++I) {
    if (std::strcmp(argv[I], "--help") == 0) {
      std::fputs(Usage, stdout);
      return 0;
    }
    Workload |= std::strcmp(argv[I], "--workload") == 0;
    Verify |= std::strcmp(argv[I], "--verify") == 0;
  }
  Args A;
  std::string Err;
  if (Workload && Verify)
    Err = "--workload and --verify are separate modes";
  else
    A.parse(argc, argv,
            Workload ? WorkloadFlags : Verify ? VerifyFlags : ServeFlags, Err);
  if (!Err.empty()) {
    std::fprintf(stderr, "relserved: %s\n%s", Err.c_str(), Usage);
    return 2;
  }
  if (Workload)
    return workloadMain(A);
  if (Verify)
    return verifyMain(A);
  return serveMain(A);
}
