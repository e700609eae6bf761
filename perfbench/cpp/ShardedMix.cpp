//===- perfbench/cpp/ShardedMix.cpp - The sharded-mix workload ------------===//
//
// Part of the RelC data representation synthesis library.
//
//===----------------------------------------------------------------------===//
//
// Two threads in one process drive the account mix (AccountMix.h)
// against relserved's account relation, first through the runtime's
// ConcurrentRelation and then through the relc-emitted
// account_concurrent facade, each with 100,000 accounts seeded. Every
// other 200 ms interval the same threads drive the mix through a
// hand-coded striped hash map instead, the control against which the
// end-to-end figures are taken. Thread 0 also takes a consistent
// snapshot in each facade interval and scans it whole, checking that
// the shared total is conserved inside it. The wire, group commit and
// WAL are bypassed: this is the concurrent layer's workload.
//
//===----------------------------------------------------------------------===//

#include "AccountMix.h"
#include "Bench.h"

#include "concurrent/ConcurrentRelation.h"

#include "account_gen.h"

#include <cmath>
#include <memory>
#include <mutex>
#include <thread>
#include <unordered_map>

using namespace relc;
using namespace pb;

namespace {

/// Facade and control intervals alternate (see runPhase); thread 0
/// takes a snapshot half-way into each facade interval.
constexpr uint64_t MaxIntervalNs = 200'000'000;
/// The control's rate on the reference host (see runPhase); about what
/// it reaches on a shared 4-vCPU host, so reference figures stay close
/// to wall-clock ones there.
constexpr double RefControlOpsS = 1.5e6;
/// Client threads: half the host's four vCPUs, so that other busy
/// processes on the host do not preempt a thread inside a stripe. With
/// four, such spells tripled the write p99 of whole runs.
constexpr unsigned ShardedThreads = 2;
/// Set-up/measure alternations per run (see runShardedMix).
constexpr int Chunks = 5;

/// The runtime facade, behind the calls the mix makes.
struct RuntimeFacade {
  static constexpr const char *Layer = "concurrent";
  ConcurrentRelation Rel;
  ColumnId Owner, Acct, Bal;

  RuntimeFacade() : Rel(accountDecomposition(), options()) {
    const Catalog &Cat = Rel.catalog();
    Owner = Cat.get("owner");
    Acct = Cat.get("acct");
    Bal = Cat.get("balance");
  }
  static ConcurrentOptions options() {
    ConcurrentOptions O;
    O.NumShards = 8;
    return O;
  }
  Tuple key(int64_t O, int64_t A) const {
    Tuple K;
    K.set(Owner, Value::ofInt(O));
    K.set(Acct, Value::ofInt(A));
    return K;
  }
  Tuple row(int64_t O, int64_t A, int64_t B) const {
    Tuple T = key(O, A);
    T.set(Bal, Value::ofInt(B));
    return T;
  }
  bool insert(int64_t O, int64_t A, int64_t B) { return Rel.insert(row(O, A, B)); }
  bool read(int64_t O, int64_t A, int64_t &Out) const {
    bool Found = false;
    Rel.scanFrames(key(O, A), ColumnSet({Bal}), [&](const BindingFrame &F) {
      Out = F.get(Bal).asInt();
      Found = true;
      return false;
    });
    return Found;
  }
  bool transfer(int64_t From, int64_t To, int64_t Amount) {
    ColumnId Col = Bal;
    auto Add = [Col](int64_t Delta, bool Floor) {
      return [Col, Delta, Floor](const BindingFrame *F, Tuple &V) {
        if (!F)
          return false;
        int64_t Next = F->get(Col).asInt() + Delta;
        if (Floor && Next < 0)
          return false;
        V.set(Col, Value::ofInt(Next));
        return true;
      };
    };
    std::vector<TxOp> Ops;
    Ops.push_back(TxOp::upsertChecked(key(ownerOf(From), acctOf(From)),
                                      Add(-Amount, true)));
    Ops.push_back(
        TxOp::upsertChecked(key(ownerOf(To), acctOf(To)), Add(Amount, false)));
    return Rel.transact(Ops).Committed;
  }
  bool remove(int64_t O, int64_t A) { return Rel.remove(key(O, A)) == 1; }
  /// Acquires a snapshot (timed into \p AcquireNs) and visits its rows.
  template <typename FnT> void scanSnapshot(uint64_t &AcquireNs, FnT &&Fn) const {
    uint64_t T0 = nowNs();
    ConcurrentRelation::Snapshot S = Rel.snapshot();
    AcquireNs = nowNs() - T0;
    S.scanFrames(Tuple(), ColumnSet({Owner, Acct, Bal}),
                 [&](const BindingFrame &F) {
                   Fn(F.get(Owner).asInt(), F.get(Acct).asInt(),
                      F.get(Bal).asInt());
                   return true;
                 });
  }
  double arenaBytes() const { return double(Rel.arenaStats().Bytes); }
};

/// The generated facade, behind the same calls.
struct GeneratedFacade {
  static constexpr const char *Layer = "gen_concurrent";
  pbgen::account_concurrent G;

  bool insert(int64_t O, int64_t A, int64_t B) { return G.insert(O, A, B); }
  bool read(int64_t O, int64_t A, int64_t &Out) const {
    bool Found = false;
    G.balance_of(O, A, [&](int64_t B) {
      Out = B;
      Found = true;
    });
    return Found;
  }
  bool transfer(int64_t From, int64_t To, int64_t Amount) {
    return G.transact_by_owner_acct(
        ownerOf(From), acctOf(From), ownerOf(To), acctOf(To),
        [Amount](bool FoundA, int64_t &A, bool FoundB, int64_t &B) {
          if (!FoundA || !FoundB || A - Amount < 0)
            return false;
          A -= Amount;
          B += Amount;
          return true;
        });
  }
  bool remove(int64_t O, int64_t A) { return G.remove_by_owner_acct(O, A); }
  template <typename FnT> void scanSnapshot(uint64_t &AcquireNs, FnT &&Fn) const {
    uint64_t T0 = nowNs();
    auto S = G.snapshot();
    AcquireNs = nowNs() - T0;
    S.scanRows(Fn);
  }
};

/// The hand-coded control: the account relation as a striped hash map,
/// one std::unordered_map under a std::mutex per stripe, with as many
/// stripes as either facade has shards. The same threads drive the same
/// mix through it in every other interval (see runPhase): it is the
/// yardstick for the host's speed, as baselines/ is for systems-replay.
class ControlStore {
public:
  ControlStore() : Stripes(new Stripe[NumStripes]) {}

  bool insert(int64_t O, int64_t A, int64_t B) {
    int64_t K = key(O, A);
    Stripe &S = of(K);
    std::lock_guard<std::mutex> L(S.Mu);
    return S.Bal.emplace(K, B).second;
  }
  bool read(int64_t O, int64_t A, int64_t &Out) const {
    int64_t K = key(O, A);
    Stripe &S = of(K);
    std::lock_guard<std::mutex> L(S.Mu);
    auto It = S.Bal.find(K);
    if (It == S.Bal.end())
      return false;
    Out = It->second;
    return true;
  }
  bool transfer(int64_t From, int64_t To, int64_t Amount) {
    int64_t KA = key(ownerOf(From), acctOf(From)),
            KB = key(ownerOf(To), acctOf(To));
    Stripe &SA = of(KA), &SB = of(KB);
    // Two stripes lock in address order.
    std::unique_lock<std::mutex> First(std::min(&SA, &SB)->Mu), Second;
    if (&SA != &SB)
      Second = std::unique_lock<std::mutex>(std::max(&SA, &SB)->Mu);
    auto IA = SA.Bal.find(KA), IB = SB.Bal.find(KB);
    if (IA == SA.Bal.end() || IB == SB.Bal.end() || IA->second < Amount)
      return false;
    IA->second -= Amount;
    IB->second += Amount;
    return true;
  }
  bool remove(int64_t O, int64_t A) {
    int64_t K = key(O, A);
    Stripe &S = of(K);
    std::lock_guard<std::mutex> L(S.Mu);
    return S.Bal.erase(K) == 1;
  }
  /// Visits every row, stripe by stripe (only called between phases).
  template <typename FnT> void scanSnapshot(uint64_t &AcquireNs, FnT &&Fn) const {
    AcquireNs = 0;
    for (unsigned I = 0; I != NumStripes; ++I) {
      std::lock_guard<std::mutex> L(Stripes[I].Mu);
      for (const auto &KB : Stripes[I].Bal)
        Fn(KB.first / 4, KB.first % 4, KB.second);
    }
  }

private:
  static constexpr unsigned NumStripes = 8;
  struct alignas(64) Stripe {
    std::mutex Mu;
    std::unordered_map<int64_t, int64_t> Bal;
  };
  static int64_t key(int64_t O, int64_t A) { return O * 4 + A; }
  Stripe &of(int64_t K) const {
    return Stripes[(uint64_t(K) * 0x9e3779b97f4a7c15ULL) >> 61];
  }
  std::unique_ptr<Stripe[]> Stripes;
};

template <class F> void seed(F &Fac) {
  for (int64_t A = 0; A != SharedAccounts; ++A)
    Fac.insert(ownerOf(A), acctOf(A), InitialBalance);
}

template <class F> std::vector<std::array<int64_t, 3>> rowsOf(const F &Fac) {
  std::vector<std::array<int64_t, 3>> Rows;
  uint64_t Ignored;
  Fac.scanSnapshot(Ignored, [&](int64_t O, int64_t A, int64_t B) {
    Rows.push_back({O, A, B});
  });
  return Rows;
}

/// One interval's writes from every thread. Threads hand their part in
/// as they move on; the last hand-in reduces the interval to its
/// figures and frees the samples, so memory stays at a few intervals
/// whatever the run length. A sample is a write's latency in
/// microseconds, negated when a snapshot handle was live.
struct Slot {
  std::mutex Mu;
  std::vector<float> Us;
  uint64_t Ops = 0;
  unsigned Pending = 0;
  double P50 = 0, P99 = 0, SteadyP99 = 0;

  void handIn(std::vector<float> &Part, uint64_t PartOps) {
    std::lock_guard<std::mutex> L(Mu);
    Us.insert(Us.end(), Part.begin(), Part.end());
    Ops += PartOps;
    if (--Pending)
      return;
    Samples All, Steady;
    All.reserve(Us.size());
    for (float V : Us) {
      All.add(std::fabs(V));
      if (V >= 0)
        Steady.add(V);
    }
    P50 = All.pct(0.5);
    P99 = All.pct(0.99);
    SteadyP99 = Steady.pct(0.99);
    std::vector<float>().swap(Us);
  }
};

/// One facade's (or one thread's) results, accumulated over a run.
struct PhaseOut {
  uint64_t Ops = 0, Writes = 0, Transfers = 0, Aborts = 0;
  Samples AfterSnapUs, SnapAcquireUs, SnapScanMs;
  /// Per whole facade interval: the ops rate, the write p50 and p99,
  /// and the p99 of the writes that ran with no snapshot handle live.
  Samples Rate, P50, P99, SteadyP99;
  /// The same rate and latencies in reference time, and the host's
  /// speed they were scaled by (see runPhase).
  Samples RefRate, RefP50, RefP99, Speed;

  double opsS() const { return nearBestRate(Rate); }
  double writeP50Us() const { return nearBestLatency(P50); }
  double writeP99Us() const { return nearBestLatency(P99); }
};

/// Span kinds of one facade's calls.
struct Kinds {
  uint16_t Read = 0, Transfer = 0, Open = 0, Close = 0;
  Kinds() = default;
  explicit Kinds(const std::string &L)
      : Read(tracer::kind(L + ".read")), Transfer(tracer::kind(L + ".transfer")),
        Open(tracer::kind(L + ".open")), Close(tracer::kind(L + ".close")) {}
};

/// Performs \p Op through \p Store, in a span when \p Traced (the
/// control never is). Returns false when the answer was wrong; sets
/// \p Write for writes and counts transfers and aborts into \p O.
template <bool Traced, class S>
bool step(S &Store, AccountMix &M, const MixOp &Op, const Kinds &K,
          PhaseOut &O, bool &Write) {
  switch (Op.K) {
  case MixOp::Read: {
    int64_t Bal = -1;
    bool Found;
    {
      MaybeSpan<Traced> Sp(K.Read);
      Found = Store.read(Op.owner(), Op.acct(), Bal);
    }
    return Found && (Op.Own ? Bal == OwnBalance : Bal >= 0);
  }
  case MixOp::Transfer: {
    Write = true;
    bool Committed;
    {
      MaybeSpan<Traced> Sp(K.Transfer);
      Committed = Store.transfer(Op.A, Op.B, Op.Amount);
    }
    ++O.Transfers;
    if (Committed)
      M.committed(Op);
    else
      ++O.Aborts;
    return true;
  }
  case MixOp::Open: {
    Write = true;
    bool Ok;
    {
      MaybeSpan<Traced> Sp(K.Open);
      Ok = Store.insert(Op.A, 0, OwnBalance);
    }
    if (Ok)
      M.opened(Op.A);
    return Ok;
  }
  case MixOp::Close: {
    Write = true;
    MaybeSpan<Traced> Sp(K.Close);
    return Store.remove(Op.A, 0);
  }
  }
  return false;
}

/// Drives the mix for \p Seconds, through \p Fac in the even intervals
/// and through the control \p Ctl in the odd ones, on the same threads;
/// then checks both final relations. Adds the results to \p All.
///
/// The host's speed moves with its other tenants, in spells of seconds
/// and from run to run, and the control, a fraction of a second away,
/// moves with it. So each facade interval is also taken in reference
/// time: its rate relative to the mean rate of the control intervals
/// beside it, scaled to a host on which the control runs at
/// RefControlOpsS, and its latencies scaled by the inverse factor.
template <class F>
void runPhase(F &Fac, std::vector<AccountMix> &Mixes, ControlStore &Ctl,
              std::vector<AccountMix> &CtlMixes, double Seconds, Report &R,
              bool CorruptExpected, PhaseOut &All) {
  std::string L = F::Layer;
  Kinds K(L);
  uint16_t KAcquire = tracer::kind(L + ".snapshot_acquire"),
           KScan = tracer::kind(L + ".snapshot_scan");
  std::atomic<bool> SnapLive{false};
  std::vector<PhaseOut> Outs(Mixes.size()), CtlOuts(Mixes.size());
  uint64_t Span = uint64_t(Seconds * 1e9);
  // At least four intervals, so a short run still has two of each.
  uint64_t IntervalNs = std::min(MaxIntervalNs, Span / 4);
  uint64_t Start = nowNs(), End = Start + Span;
  size_t NumSlots = size_t((Span + IntervalNs - 1) / IntervalNs);
  std::vector<Slot> Slots(NumSlots);
  for (Slot &S : Slots)
    S.Pending = unsigned(Mixes.size());
  int64_t Total = SharedAccounts * InitialBalance + (CorruptExpected ? 1 : 0);

  auto Body = [&](unsigned T) {
    PhaseOut &O = Outs[T];
    std::vector<float> Part;
    uint64_t PartOps = 0;
    size_t Cur = 0;
    // Hands in every interval before \p Upto (the first with this
    // thread's samples, any skipped ones empty).
    auto HandInUpTo = [&](size_t Upto) {
      for (; Cur < Upto; ++Cur) {
        Slots[Cur].handIn(Part, PartOps);
        Part.clear();
        PartOps = 0;
      }
    };
    // Thread 0 takes a snapshot half-way into each facade interval.
    uint64_t NextSnap = Start + IntervalNs / 2;
    uint64_t Now = nowNs();
    while (Now < End) {
      // An op after a snapshot scan that ran past the deadline counts
      // into the last interval.
      size_t I = std::min<size_t>((Now - Start) / IntervalNs, NumSlots - 1);
      bool OnFacade = I % 2 == 0;
      if (T == 0 && OnFacade && Now >= NextSnap) {
        SnapLive.store(true, std::memory_order_relaxed);
        uint64_t Acq = 0, T0 = nowNs();
        int64_t Sum = 0, Shared = 0;
        {
          SpanScope Sp(KScan);
          Fac.scanSnapshot(Acq, [&](int64_t Ow, int64_t, int64_t B) {
            if (isShared(Ow)) {
              Sum += B;
              ++Shared;
            }
          });
        }
        uint64_t T1 = nowNs();
        SnapLive.store(false, std::memory_order_relaxed);
        if (tracer::On.load(std::memory_order_relaxed))
          tracer::record(KAcquire, T0, T0 + Acq, 0);
        O.SnapAcquireUs.add(double(Acq) * 1e-3);
        O.SnapScanMs.add(double(T1 - T0 - Acq) * 1e-6);
        R.check(Sum == Total && Shared == SharedAccounts,
                L + ": a snapshot's shared balances do not sum to the total");
        NextSnap = Start + (I + 2) * IntervalNs + IntervalNs / 2;
        Now = T1;
        continue;
      }
      HandInUpTo(I);
      AccountMix &M = OnFacade ? Mixes[T] : CtlMixes[T];
      MixOp Op = M.next();
      bool AfterSnap = OnFacade && SnapLive.load(std::memory_order_relaxed);
      bool Write = false;
      uint64_t T0 = nowNs();
      bool Ok = OnFacade ? step<true>(Fac, M, Op, K, O, Write)
                         : step<false>(Ctl, M, Op, Kinds(), CtlOuts[T], Write);
      Now = nowNs();
      ++PartOps;
      if (Write) {
        float Us = float(double(Now - T0) * 1e-3);
        Part.push_back(AfterSnap ? -Us : Us);
        if (OnFacade)
          ++O.Writes;
        if (AfterSnap)
          O.AfterSnapUs.add(Us);
      }
      ++(OnFacade ? O : CtlOuts[T]).Ops;
      if (!Ok)
        R.fail((OnFacade ? L : std::string("control")) +
               (Write ? ": an open or close failed"
                      : ": a read missed its account or saw a wrong balance"));
    }
    HandInUpTo(NumSlots);
  };
  std::vector<std::thread> Threads;
  for (unsigned T = 1; T < Mixes.size(); ++T)
    Threads.emplace_back(Body, T);
  Body(0);
  for (std::thread &T : Threads)
    T.join();

  uint64_t Ops = 0;
  for (PhaseOut &O : Outs) {
    All.Ops += O.Ops;
    All.Writes += O.Writes;
    All.Transfers += O.Transfers;
    All.Aborts += O.Aborts;
    All.AfterSnapUs.append(O.AfterSnapUs);
    All.SnapAcquireUs.append(O.SnapAcquireUs);
    All.SnapScanMs.append(O.SnapScanMs);
    Ops += O.Ops;
  }
  for (const PhaseOut &O : CtlOuts)
    Ops += O.Ops;
  // Whole intervals only: the last one is cut short by the deadline.
  size_t Whole = size_t(Span / IntervalNs);
  double IntervalS = double(IntervalNs) * 1e-9;
  auto Rate = [&](size_t I) { return double(Slots[I].Ops) / IntervalS; };
  for (size_t I = 0; I < Whole; I += 2) {
    All.Rate.add(Rate(I));
    All.P50.add(Slots[I].P50);
    All.P99.add(Slots[I].P99);
    All.SteadyP99.add(Slots[I].SteadyP99);
    double CtlRate = 0;
    unsigned N = 0;
    for (size_t J : {I - 1, I + 1})
      if (J < Whole) {
        CtlRate += Rate(J);
        ++N;
      }
    if (!N || CtlRate <= 0)
      continue;
    double Speed = CtlRate / N / RefControlOpsS;
    All.RefRate.add(Rate(I) / Speed);
    All.RefP50.add(Slots[I].P50 * Speed);
    All.RefP99.add(Slots[I].P99 * Speed);
    All.Speed.add(Speed);
  }
  R.attempted(Ops);
  checkFinal(rowsOf(Fac), Mixes, Total, R, L);
  checkFinal(rowsOf(Ctl), CtlMixes, SharedAccounts * InitialBalance, R,
             "control");
}

void emitPerLayer(const char *Layer, const PhaseOut &P, Report &R, double Arena) {
  std::string L = Layer;
  KindSummary Read = tracer::summary(L + ".read"),
              Transfer = tracer::summary(L + ".transfer"),
              Open = tracer::summary(L + ".open"),
              Close = tracer::summary(L + ".close");
  R.metric(L + ".read_p50_ns", Read.P50Ns, "ns");
  R.metric(L + ".read_p99_ns", Read.P99Ns, "ns");
  R.metric(L + ".transfer_p50_ns", Transfer.P50Ns, "ns");
  R.metric(L + ".transfer_p99_ns", Transfer.P99Ns, "ns");
  R.metric(L + ".open_close_p99_ns", std::max(Open.P99Ns, Close.P99Ns), "ns");
  R.metric(L + ".allocs_per_op.read", Read.AllocsPerCall, "count");
  R.metric(L + ".allocs_per_op.transfer", Transfer.AllocsPerCall, "count");
  uint64_t OpenClose = Open.Count + Close.Count;
  R.metric(L + ".allocs_per_op.open_close",
           OpenClose ? (Open.AllocsPerCall * double(Open.Count) +
                        Close.AllocsPerCall * double(Close.Count)) /
                           double(OpenClose)
                     : 0,
           "count");
  R.metric(L + ".write_p99_after_snapshot_us", P.AfterSnapUs.pct(0.99), "us");
  R.metric(L + ".write_p99_steady_us", P.SteadyP99.median(), "us");
  R.metric(L + ".snapshot_acquire_us", P.SnapAcquireUs.median(), "us");
  R.metric(L + ".snapshot_scan_ms", P.SnapScanMs.median(), "ms");
  R.metric(L + ".abort_ratio",
           P.Transfers ? double(P.Aborts) / double(P.Transfers) : 0, "ratio");
  if (Arena > 0)
    R.metric(L + ".arena_bytes", Arena, "bytes");
}

/// Both facades and the control, seeded, with a fresh ledger per
/// client thread.
struct Facades {
  RuntimeFacade Run;
  GeneratedFacade Gen;
  ControlStore Ctl;
  std::vector<AccountMix> RunMixes, GenMixes, CtlMixes;
  explicit Facades(uint64_t Seed) {
    seed(Run);
    seed(Gen);
    seed(Ctl);
    for (unsigned T = 0; T != ShardedThreads; ++T) {
      RunMixes.emplace_back(Seed, T);
      GenMixes.emplace_back(Seed, T);
      CtlMixes.emplace_back(Seed, T);
    }
  }
};

/// The end-to-end figures, in reference time: the medians over the
/// facade intervals. Both facades weigh the same: geometric means.
EndToEnd endToEnd(const PhaseOut &A, const PhaseOut &B) {
  auto Both = [](const Samples &X, const Samples &Y) {
    return std::sqrt(X.median() * Y.median());
  };
  return {Both(A.RefRate, B.RefRate), Both(A.RefP50, B.RefP50),
          Both(A.RefP99, B.RefP99)};
}

} // namespace

void pb::runShardedMix(const Config &C, Report &R) {
  // Set-up (both facades and the control built and seeded) and
  // measurement alternate, Chunks times, so both sample the whole run.
  // Each chunk drives the runtime facade, then the generated one; a
  // traced run does that once untraced and once with a span around
  // every call.
  PhaseOut A, B, TA, TB;
  double Arena = 0;
  double Part = C.Seconds / Chunks / (C.Trace ? 4 : 2);
  for (int K = 0; K != Chunks; ++K) {
    uint64_t T0 = nowNs();
    Facades F(C.Seed);
    R.Setup.add(secondsBetween(T0, nowNs()));
    auto Both = [&](PhaseOut &OnRun, PhaseOut &OnGen) {
      runPhase(F.Run, F.RunMixes, F.Ctl, F.CtlMixes, Part, R,
               C.CorruptExpected, OnRun);
      runPhase(F.Gen, F.GenMixes, F.Ctl, F.CtlMixes, Part, R,
               C.CorruptExpected, OnGen);
    };
    // The chunk's facade intervals start here; the host's speed over
    // them scales this set-up to reference time.
    size_t From[] = {A.Speed.size(), B.Speed.size(), TA.Speed.size(),
                     TB.Speed.size()};
    // Traced runs alternate which half goes first, so neither gets all
    // the freshly seeded state.
    bool TracedFirst = C.Trace && K % 2;
    if (!TracedFirst)
      Both(A, B);
    if (C.Trace) {
      tracer::enable(true);
      Both(TA, TB);
      tracer::enable(false);
      if (TracedFirst)
        Both(A, B);
      Arena = F.Run.arenaBytes();
    }
    Samples Speed;
    const PhaseOut *Outs[] = {&A, &B, &TA, &TB};
    for (int P = 0; P != 4; ++P) {
      const std::vector<double> &V = Outs[P]->Speed.values();
      for (size_t I = From[P]; I < V.size(); ++I)
        Speed.add(V[I]);
    }
    R.SetupSpeed.add(Speed.median());
  }
  EndToEnd U = endToEnd(A, B);
  R.metric("sharded_ops_s", A.opsS(), "1/s");
  R.metric("sharded_write_p99_us", A.writeP99Us(), "us");
  R.metric("gen_sharded_ops_s", B.opsS(), "1/s");
  R.metric("gen_sharded_write_p99_us", B.writeP99Us(), "us");
  R.metric("samples.intervals", double(A.Rate.size() + B.Rate.size()), "count");
  R.metric("samples.writes", double(A.Writes + B.Writes), "count");
  if (!C.Trace) {
    R.metric("ops_s", U.OpsS, "1/s");
    R.metric("lat_p50_us", U.LatP50Us, "us");
    R.metric("lat_p99_us", U.LatP99Us, "us");
    return;
  }
  emitPerLayer(RuntimeFacade::Layer, TA, R, Arena);
  emitPerLayer(GeneratedFacade::Layer, TB, R, 0);
  emitTraceOverhead(R, U, endToEnd(TA, TB));
  R.metric("trace.spans",
           double(tracer::writeSpans(C.OutDir + "/spans.bin")), "count");
}
