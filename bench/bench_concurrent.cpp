//===- bench/bench_concurrent.cpp - Sharded relation scaling -----------------===//
//
// Part of the RelC data representation synthesis library.
//
//===----------------------------------------------------------------------===//
//
// Thread-scaling loops over ConcurrentRelation for the scheduler,
// graph and ipcap systems: a parallel insert phase, a read-only key
// probe phase, a mixed phase (80% routed key queries, 10% updates,
// 10% duplicate inserts), an upsert phase (atomic read-modify-write
// on contended random keys — every writer races on the shard locks),
// a transact phase (transfer-style two-key transactions under
// shard-set two-phase locking), a full-scan phase (sequential
// fan-out at t=1, the parallel one-worker-per-shard merge-queue scan
// at t>1), a snapshot phase (O(shards) consistent-handle acquisition
// rate), and a ckptmix phase (upsert throughput while a dedicated
// checkpointer thread snapshots and extracts rows, as the server's
// off-committer checkpoint does), each run at 1/2/4/8 threads with
// total work held constant. Reports per-phase throughput
// and speedup over the single-thread run — the number the sharding
// exists for. --json <path> writes the machine-readable report (CI
// uploads it); --quick shrinks the loops; --threads caps the thread
// sweep (default 8, at most 256); --shards sets the shard count
// (default 16, at most MaxShards = 64); --rev stamps the report with a
// revision id (falls back to $GITHUB_SHA). A malformed or out-of-range
// count exits 2.
//
// Run on a single-core machine this degenerates to measuring lock
// overhead (speedup ≈ 1x or below); the scaling claims only mean
// something with >= 4 hardware threads.
//
//===----------------------------------------------------------------------===//

#include "BenchCommon.h"

#include "concurrent/ConcurrentRelation.h"
#include "systems/GraphRelational.h"
#include "systems/IpcapRelational.h"
#include "systems/SchedulerRelational.h"
#include "workloads/Rng.h"

#include <algorithm>
#include <atomic>
#include <cstdlib>
#include <functional>
#include <memory>
#include <new>
#include <thread>
#include <vector>

using namespace relc;
using namespace relcbench;

//===----------------------------------------------------------------------===//
// Allocation-counting hook, as in bench_hotpath but atomic: phases run
// on many threads, and a phase's global-heap traffic is the counter
// delta across it. The per-shard slab arenas exist precisely to keep
// this near zero on the steady-state insert path.
//===----------------------------------------------------------------------===//

static std::atomic<size_t> GlobalAllocCount{0};

static void *countedAlloc(size_t Sz) {
  GlobalAllocCount.fetch_add(1, std::memory_order_relaxed);
  if (void *P = std::malloc(Sz ? Sz : 1))
    return P;
  throw std::bad_alloc();
}

static void *countedAlignedAlloc(size_t Sz, std::align_val_t Al) {
  GlobalAllocCount.fetch_add(1, std::memory_order_relaxed);
  size_t Align = static_cast<size_t>(Al);
  // aligned_alloc requires the size to be a multiple of the alignment.
  size_t Rounded = (Sz + Align - 1) / Align * Align;
  if (void *P = std::aligned_alloc(Align, Rounded ? Rounded : Align))
    return P;
  throw std::bad_alloc();
}

void *operator new(size_t Sz) { return countedAlloc(Sz); }
void *operator new[](size_t Sz) { return countedAlloc(Sz); }
void *operator new(size_t Sz, std::align_val_t Al) {
  return countedAlignedAlloc(Sz, Al);
}
void *operator new[](size_t Sz, std::align_val_t Al) {
  return countedAlignedAlloc(Sz, Al);
}
void operator delete(void *P) noexcept { std::free(P); }
void operator delete[](void *P) noexcept { std::free(P); }
void operator delete(void *P, size_t) noexcept { std::free(P); }
void operator delete[](void *P, size_t) noexcept { std::free(P); }
void operator delete(void *P, std::align_val_t) noexcept { std::free(P); }
void operator delete[](void *P, std::align_val_t) noexcept { std::free(P); }

namespace {

struct Workload {
  std::string Name;
  RelSpecRef Spec;
  std::function<Decomposition()> MakeDecomp;
  std::function<Tuple(int64_t)> Make; ///< I-th full tuple, unique key.
  ColumnSet KeyCols;
  ColumnSet ValueCols;
  ColumnId UpdateCol; ///< Non-key column rewritten by mixed-loop updates.
};

Workload makeScheduler() {
  Workload W;
  W.Name = "scheduler";
  W.Spec = SchedulerRelational::makeSpec();
  W.MakeDecomp = [Spec = W.Spec] {
    return SchedulerRelational::makeDefaultDecomposition(Spec);
  };
  const Catalog &Cat = W.Spec->catalog();
  W.Make = [&Cat](int64_t I) {
    return TupleBuilder(Cat)
        .set("ns", I % 64)
        .set("pid", I)
        .set("state", I % 2)
        .set("cpu", I % 97)
        .build();
  };
  W.KeyCols = Cat.parseSet("ns, pid");
  W.ValueCols = Cat.parseSet("state, cpu");
  W.UpdateCol = Cat.get("cpu");
  return W;
}

Workload makeGraph() {
  Workload W;
  W.Name = "graph";
  W.Spec = GraphRelational::makeSpec();
  W.MakeDecomp = [Spec = W.Spec] {
    return GraphRelational::makeSharedBidirectional(Spec);
  };
  const Catalog &Cat = W.Spec->catalog();
  W.Make = [&Cat](int64_t I) {
    return TupleBuilder(Cat)
        .set("src", I % 512)
        .set("dst", I / 512)
        .set("weight", I % 1009)
        .build();
  };
  W.KeyCols = Cat.parseSet("src, dst");
  W.ValueCols = Cat.parseSet("weight");
  W.UpdateCol = Cat.get("weight");
  return W;
}

Workload makeIpcap() {
  Workload W;
  W.Name = "ipcap";
  W.Spec = IpcapRelational::makeSpec();
  W.MakeDecomp = [Spec = W.Spec] {
    return IpcapRelational::makeDefaultDecomposition(Spec);
  };
  const Catalog &Cat = W.Spec->catalog();
  W.Make = [&Cat](int64_t I) {
    return TupleBuilder(Cat)
        .set("local", I % 256)
        .set("remote", I)
        .set("bytes_in", I * 3 % 65536)
        .set("bytes_out", I * 7 % 65536)
        .set("packets", I % 1024)
        .build();
  };
  W.KeyCols = Cat.parseSet("local, remote");
  W.ValueCols = Cat.parseSet("bytes_in, bytes_out, packets");
  W.UpdateCol = Cat.get("packets");
  return W;
}

volatile int64_t BenchSinkStore = 0;
void benchSink(int64_t V) { BenchSinkStore = V; }

/// Runs \p Body on \p NumThreads threads (thread id passed in) and
/// returns the wall-clock seconds from first launch to last join.
template <typename FnT> double runThreads(unsigned NumThreads, FnT &&Body) {
  Clock::time_point Start = Clock::now();
  if (NumThreads == 1) {
    Body(0u); // in-line: a 1-thread baseline without spawn overhead
  } else {
    std::vector<std::thread> Threads;
    Threads.reserve(NumThreads);
    for (unsigned T = 0; T != NumThreads; ++T)
      Threads.emplace_back([&Body, T] { Body(T); });
    for (std::thread &Th : Threads)
      Th.join();
  }
  return secondsSince(Start);
}

struct PhaseResult {
  double Seconds = 0;
  size_t Ops = 0;
  size_t Allocs = 0; ///< Global-heap allocations across the phase.
  double opsPerSec() const { return Seconds > 0 ? double(Ops) / Seconds : 0; }
  double allocsPerOp() const { return Ops ? double(Allocs) / double(Ops) : 0; }
};


void report(JsonReporter &Json, const std::string &System, const char *Phase,
            unsigned Threads, const PhaseResult &M, double Baseline) {
  double Speedup = Baseline > 0 ? M.opsPerSec() / Baseline : 1.0;
  std::printf("  %-10s t=%u %12.0f ops/s   %5.2fx vs t=1   %6.3f allocs/op\n",
              Phase, Threads, M.opsPerSec(), Speedup, M.allocsPerOp());
  Json.record(System + "." + Phase + ".t" + std::to_string(Threads))
      .metric("threads", Threads)
      .metric("ops", double(M.Ops))
      .metric("seconds", M.Seconds)
      .metric("ops_per_sec", M.opsPerSec())
      .metric("speedup_vs_1", Speedup)
      .metric("allocs_per_op", M.allocsPerOp());
}

/// One system at one thread count. \returns the per-phase results
/// (insert, reinsert, query, mixed, upsert, transact, scan, snapshot,
/// ckptmix).
std::vector<PhaseResult> runSystem(const Workload &W, unsigned Shards,
                                   unsigned Threads, size_t N, size_t Probes,
                                   size_t MixedOps,
                                   const std::vector<Tuple> &Tuples,
                                   const std::vector<Tuple> &KeyPats) {
  ConcurrentOptions Opts;
  Opts.NumShards = Shards;
  ConcurrentRelation Rel(W.MakeDecomp(), Opts);

  // Parallel insert: thread T owns slice [T*N/Threads, (T+1)*N/Threads).
  // Cold: the shard arenas grow their slabs inside this phase. Each
  // phase brackets GlobalAllocCount to report its global-heap traffic.
  size_t AllocMark;
  PhaseResult Ins;
  Ins.Ops = N;
  auto InsertAll = [&] {
    return runThreads(Threads, [&](unsigned T) {
      size_t Lo = N * T / Threads, Hi = N * (T + 1) / Threads;
      for (size_t I = Lo; I != Hi; ++I)
        Rel.insert(Tuples[I]);
    });
  };
  AllocMark = GlobalAllocCount.load(std::memory_order_relaxed);
  Ins.Seconds = InsertAll();
  Ins.Allocs = GlobalAllocCount.load(std::memory_order_relaxed) - AllocMark;

  // Warm re-insert: clear() rewinds the slabs but retains them, so
  // this measures the fresh-insert steady state — nodes and cells come
  // from the warmed arenas, and global-heap traffic is only the
  // amortized residue (hash-bucket vector regrowth, per-node EdgeMap
  // wrappers), which main() asserts stays near zero.
  PhaseResult Reins;
  Reins.Ops = N;
  Rel.clear();
  AllocMark = GlobalAllocCount.load(std::memory_order_relaxed);
  Reins.Seconds = InsertAll();
  Reins.Allocs = GlobalAllocCount.load(std::memory_order_relaxed) - AllocMark;

  // Warm every shard's plan/cut caches so the measured loops are
  // steady state (as in bench_hotpath). Duplicate insert runs before
  // the update so the re-inserted tuple still matches the stored one
  // (inserting stale values after an update would violate the FD).
  ColumnId ValueCol = W.ValueCols.first();
  for (size_t I = 0; I != std::min<size_t>(N, 4 * Shards); ++I) {
    Rel.scanFrames(KeyPats[I], W.ValueCols,
                   [](const BindingFrame &) { return false; });
    Rel.insert(Tuples[I]);
    Tuple Changes;
    Changes.set(W.UpdateCol, Value::ofInt(0));
    Rel.update(KeyPats[I], Changes);
    Rel.remove(KeyPats[I]);
    Rel.insert(Tuples[I]);
  }

  // Read-only key probes, keys striped across threads.
  PhaseResult Probe;
  Probe.Ops = Probes;
  AllocMark = GlobalAllocCount.load(std::memory_order_relaxed);
  Probe.Seconds = runThreads(Threads, [&](unsigned T) {
    int64_t Sum = 0;
    for (size_t I = T; I < Probes; I += Threads) {
      const Tuple &Key = KeyPats[I % N];
      Rel.scanFrames(Key, W.ValueCols, [&](const BindingFrame &F) {
        Sum += F.get(ValueCol).asInt();
        return false;
      });
    }
    benchSink(Sum);
  });
  Probe.Allocs = GlobalAllocCount.load(std::memory_order_relaxed) - AllocMark;

  // Mixed: 80% routed key queries over any key, 10% updates, 10%
  // remove+reinsert churn. Mutations stay on thread-owned keys (key
  // index ≡ thread id mod Threads) so racing writers never re-insert
  // a tuple another thread's update made stale — the concurrent
  // analogue of the FD preconditions of Lemma 4.
  PhaseResult Mixed;
  Mixed.Ops = MixedOps;
  size_t OwnSlots = N / Threads;
  AllocMark = GlobalAllocCount.load(std::memory_order_relaxed);
  Mixed.Seconds = runThreads(Threads, [&](unsigned T) {
    Rng R(0x9e1ab0 + T);
    int64_t Sum = 0;
    for (size_t I = T; I < MixedOps; I += Threads) {
      uint64_t Dice = R.below(10);
      if (Dice < 8) {
        Rel.scanFrames(KeyPats[R.below(N)], W.ValueCols,
                       [&](const BindingFrame &F) {
                         Sum += F.get(ValueCol).asInt();
                         return false;
                       });
      } else {
        size_t K = T + Threads * R.below(OwnSlots);
        if (Dice == 8) {
          Tuple Changes;
          Changes.set(W.UpdateCol, Value::ofInt(int64_t(R.below(1009))));
          Rel.update(KeyPats[K], Changes);
        } else {
          Rel.remove(KeyPats[K]);
          Rel.insert(Tuples[K]);
        }
      }
    }
    benchSink(Sum);
  });
  Mixed.Allocs = GlobalAllocCount.load(std::memory_order_relaxed) - AllocMark;

  // Upsert: atomic read-modify-write on random keys across the WHOLE
  // keyspace — unlike the mixed loop, writers deliberately contend on
  // shared keys; the shard writer lock linearizes them (the primitive
  // replaces external ownership partitioning, see examples/
  // ipcap_daemon).
  PhaseResult Upsert;
  Upsert.Ops = MixedOps;
  AllocMark = GlobalAllocCount.load(std::memory_order_relaxed);
  Upsert.Seconds = runThreads(Threads, [&](unsigned T) {
    Rng R(0xa11ce + T);
    for (size_t I = T; I < MixedOps; I += Threads) {
      int64_t Delta = int64_t(R.below(997)) + 1;
      Rel.upsert(KeyPats[R.below(N)], [&](const BindingFrame *Cur,
                                          Tuple &Values) {
        for (ColumnId C : W.ValueCols) {
          int64_t V = Cur ? Cur->get(C).asInt() : 0;
          Values.set(C, Value::ofInt(C == W.UpdateCol ? (V + Delta) % 100000
                                                      : V));
        }
      });
    }
  });
  Upsert.Allocs = GlobalAllocCount.load(std::memory_order_relaxed) - AllocMark;

  // Transact: transfer-style two-key transactions over contended
  // random keys — debit one tuple, credit another as one atomic,
  // serializable unit. Each transaction locks exactly the two owning
  // stripes (ascending order, two-phase), so this measures the
  // multi-key extension of the upsert phase: rival transfers on
  // overlapping keys serialize on the stripes they share.
  PhaseResult Transact;
  Transact.Ops = MixedOps / 2;
  AllocMark = GlobalAllocCount.load(std::memory_order_relaxed);
  Transact.Seconds = runThreads(Threads, [&](unsigned T) {
    Rng R(0x7ab5a + T);
    for (size_t I = T; I < Transact.Ops; I += Threads) {
      size_t KA = R.below(N), KB = R.below(N);
      if (KB == KA)
        KB = (KB + 1) % N;
      int64_t Delta = int64_t(R.below(97)) + 1;
      auto Side = [&](int64_t Sign) {
        return [&, Sign](const BindingFrame *Cur, Tuple &Values) {
          for (ColumnId C : W.ValueCols) {
            int64_t V = Cur ? Cur->get(C).asInt() : 0;
            Values.set(C, Value::ofInt(C == W.UpdateCol
                                           ? (V + Sign * Delta + 100000) %
                                                 100000
                                           : V));
          }
        };
      };
      std::vector<TxOp> Ops;
      Ops.reserve(2);
      Ops.push_back(TxOp::upsert(KeyPats[KA], Side(-1)));
      Ops.push_back(TxOp::upsert(KeyPats[KB], Side(+1)));
      Rel.transact(Ops);
    }
  });
  Transact.Allocs =
      GlobalAllocCount.load(std::memory_order_relaxed) - AllocMark;

  // Full scans: the sequential fan-out at t=1 versus the parallel
  // one-worker-per-shard merge-queue scan at t>1 — speedup_vs_1 is
  // the parallel fan-out win. Every row crosses the bounded queue, so
  // on a single core this reads WELL below 1x (pure overhead, no
  // parallelism); the number only means something on multi-core CI.
  size_t ScanReps = std::max<size_t>(1, MixedOps / N);
  PhaseResult Scan;
  Scan.Ops = ScanReps * Rel.size();
  ColumnSet ScanCols = W.KeyCols;
  AllocMark = GlobalAllocCount.load(std::memory_order_relaxed);
  Scan.Seconds = runThreads(1, [&](unsigned) {
    int64_t Sum = 0;
    for (size_t Rep = 0; Rep != ScanReps; ++Rep) {
      auto Sink = [&](const BindingFrame &F) {
        Sum += F.get(W.KeyCols.first()).asInt();
        return true;
      };
      if (Threads == 1)
        Rel.scanFrames(Tuple(), ScanCols, Sink);
      else
        Rel.scanFramesParallel(Tuple(), ScanCols, Sink);
    }
    benchSink(Sum);
  });
  Scan.Allocs = GlobalAllocCount.load(std::memory_order_relaxed) - AllocMark;

  // Snapshot acquisition: grabbing a consistent handle is O(shards) —
  // an all-stripe shared acquisition plus one refcount bump per shard,
  // no data copy — so ops/s here is the acquisition rate (invert for
  // latency). Handles are dropped immediately, so the release/retire
  // path is in the loop too.
  PhaseResult Snap;
  Snap.Ops = MixedOps;
  AllocMark = GlobalAllocCount.load(std::memory_order_relaxed);
  Snap.Seconds = runThreads(Threads, [&](unsigned T) {
    int64_t Sum = 0;
    for (size_t I = T; I < MixedOps; I += Threads) {
      ConcurrentRelation::Snapshot S = Rel.snapshot();
      Sum += int64_t(S.size());
    }
    benchSink(Sum);
  });
  Snap.Allocs = GlobalAllocCount.load(std::memory_order_relaxed) - AllocMark;

  // Commit throughput under an active checkpoint: a dedicated
  // checkpointer thread continuously snapshots and extracts every row
  // (what the server's checkpoint thread does off the committer) while
  // the measured threads run the upsert loop. Compare ops/s with the
  // plain upsert phase above: the COW design's claim is that a running
  // checkpoint costs writers almost nothing — the extractor holds no
  // lock while scanning, and writers only pay the copy-on-first-write
  // of shards the pinned snapshot still shares (which shows up in
  // allocs/op, not in stalls).
  PhaseResult CkptMix;
  CkptMix.Ops = MixedOps;
  std::atomic<bool> CkptStop{false};
  AllocMark = GlobalAllocCount.load(std::memory_order_relaxed);
  std::thread Checkpointer([&] {
    int64_t Rows = 0;
    while (!CkptStop.load(std::memory_order_relaxed)) {
      ConcurrentRelation::Snapshot S = Rel.snapshot();
      S.scanFrames(Tuple(), ScanCols, [&](const BindingFrame &F) {
        Rows += F.get(W.KeyCols.first()).asInt();
        return true;
      });
    }
    benchSink(Rows);
  });
  CkptMix.Seconds = runThreads(Threads, [&](unsigned T) {
    Rng R(0xc4b7 + T);
    for (size_t I = T; I < MixedOps; I += Threads) {
      int64_t Delta = int64_t(R.below(997)) + 1;
      Rel.upsert(KeyPats[R.below(N)], [&](const BindingFrame *Cur,
                                          Tuple &Values) {
        for (ColumnId C : W.ValueCols) {
          int64_t V = Cur ? Cur->get(C).asInt() : 0;
          Values.set(C, Value::ofInt(C == W.UpdateCol ? (V + Delta) % 100000
                                                      : V));
        }
      });
    }
  });
  CkptStop.store(true, std::memory_order_relaxed);
  Checkpointer.join();
  CkptMix.Allocs = GlobalAllocCount.load(std::memory_order_relaxed) - AllocMark;

  return {Ins, Reins, Probe, Mixed, Upsert, Transact, Scan, Snap, CkptMix};
}

/// Upper bound of --threads: the sweep doubles up to it, and far past
/// the core count it measures only oversubscription.
constexpr int64_t MaxBenchThreads = 256;

} // namespace

int main(int argc, char **argv) {
  bool Quick = hasArg(argc, argv, "--quick");
  const char *JsonPath = argValue(argc, argv, "--json");
  if (hasArg(argc, argv, "--json") && !JsonPath) {
    std::fprintf(stderr, "error: --json requires a path argument\n");
    return 1;
  }
  unsigned Shards =
      unsigned(intFlag(argc, argv, "--shards", 16, 1, MaxShards));
  unsigned MaxThreads =
      unsigned(intFlag(argc, argv, "--threads", 8, 1, MaxBenchThreads));

  size_t N = Quick ? 8000 : 40000;
  size_t Probes = Quick ? 24000 : 160000;
  size_t MixedOps = Quick ? 16000 : 120000;

  std::printf("hardware threads: %u, shards: %u\n",
              std::thread::hardware_concurrency(), Shards);
  std::fflush(stdout); // the configuration shows before the long run

  JsonReporter Json("concurrent", Quick ? "quick" : "full");
  // Provenance for the regression gate: results from a different
  // machine class or shard configuration are not comparable, and the
  // committed baseline records the revision it was captured at.
  const char *Rev = argValue(argc, argv, "--rev");
  if (!Rev)
    Rev = std::getenv("GITHUB_SHA");
  Json.meta("hardware_concurrency", double(std::thread::hardware_concurrency()))
      .meta("shards", double(Shards))
      .meta("max_threads", double(MaxThreads))
      .meta("git_rev", Rev ? Rev : "unknown");
  Workload Workloads[] = {makeScheduler(), makeGraph(), makeIpcap()};
  const char *Phases[] = {"insert",   "reinsert", "query",
                          "mixed",    "upsert",   "transact",
                          "scan",     "snapshot", "ckptmix"};

  // Warm fresh inserts must come out of the shard arenas, not the
  // global heap. The 0.25 allows the amortized residue (hash-bucket
  // vector regrowth and per-node EdgeMap wrappers) while still
  // catching any per-insert heap allocation sneaking back in.
  const double MaxReinsertAllocsPerOp = 0.25;
  bool AllocRegression = false;

  for (const Workload &W : Workloads) {
    std::printf("%s (n=%zu)\n", W.Name.c_str(), N);
    std::vector<Tuple> Tuples;
    Tuples.reserve(N);
    for (size_t I = 0; I != N; ++I)
      Tuples.push_back(W.Make(int64_t(I)));
    std::vector<Tuple> KeyPats;
    KeyPats.reserve(N);
    for (const Tuple &T : Tuples)
      KeyPats.push_back(T.project(W.KeyCols));

    std::vector<double> Baselines(9, 0.0);
    for (unsigned Threads = 1; Threads <= MaxThreads; Threads *= 2) {
      std::vector<PhaseResult> Results = runSystem(
          W, Shards, Threads, N, Probes, MixedOps, Tuples, KeyPats);
      for (size_t P = 0; P != Results.size(); ++P) {
        if (Threads == 1)
          Baselines[P] = Results[P].opsPerSec();
        report(Json, W.Name, Phases[P], Threads, Results[P], Baselines[P]);
        if (std::string(Phases[P]) == "reinsert" &&
            Results[P].allocsPerOp() > MaxReinsertAllocsPerOp) {
          std::fprintf(stderr,
                       "FAIL: %s reinsert t=%u allocates %.3f/op from the "
                       "global heap (limit %.2f) — the arena path regressed\n",
                       W.Name.c_str(), Threads, Results[P].allocsPerOp(),
                       MaxReinsertAllocsPerOp);
          AllocRegression = true;
        }
      }
    }
  }

  if (JsonPath && !Json.write(JsonPath))
    return 1;
  return AllocRegression ? 1 : 0;
}
