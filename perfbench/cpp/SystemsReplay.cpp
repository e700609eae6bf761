//===- perfbench/cpp/SystemsReplay.cpp - The systems-replay workload ------===//
//
// Part of the RelC data representation synthesis library.
//
//===----------------------------------------------------------------------===//
//
// Section 6.2's experiment, on one thread. Five case-study traces (ipcap
// packets, thttpd mmaps, ztopo tiles, the scheduler mix, a road-network
// build and teardown) are replayed through the synthesized systems/
// modules over the interpreted engine, and the scheduler mix once more
// through the relc-generated `sched_ns` class. Every synthesized replay
// is paired with a hand-coded baselines/ instance that replays exactly
// the same stream prefix: its time is the parity denominator and its
// answers are the expected output, compared digest against digest.
//
// Replays are stateful and continue round after round: each round
// gives every synthesized replay one time slice, then lets its baseline
// catch up on the same operations. The end-to-end figures are taken
// per round relative to that baseline (see endToEnd).
//
//===----------------------------------------------------------------------===//

#include "Bench.h"

#include "baselines/GraphBaseline.h"
#include "baselines/IpcapBaseline.h"
#include "baselines/SchedulerBaseline.h"
#include "baselines/ThttpdBaseline.h"
#include "baselines/ZtopoBaseline.h"
#include "systems/GraphRelational.h"
#include "systems/IpcapRelational.h"
#include "systems/SchedulerRelational.h"
#include "systems/ThttpdRelational.h"
#include "systems/ZtopoRelational.h"
#include "workloads/MmapTrace.h"
#include "workloads/PacketTrace.h"
#include "workloads/RoadNetwork.h"
#include "workloads/Rng.h"
#include "workloads/TileTrace.h"

#include "sched_ns_gen.h"

#include <algorithm>
#include <cmath>
#include <deque>
#include <functional>

using namespace relc;
using namespace pb;

namespace {

/// Operations per latency window: the untraced run reads the clock
/// once per window, not once per operation.
constexpr size_t Window = 64;
/// Time each synthesized replay gets per round.
constexpr double SliceSeconds = 0.1;
/// Set-up/measure alternations per run (see runSystemsReplay).
constexpr int Chunks = 5;
/// Tile requests each chunk skips past the previous one's start.
constexpr uint64_t ZtopoChunkSkip = 20000;
/// The hand-coded speed the end-to-end figures are scaled to (the six
/// baselines' geometric mean is about 9 Mops/s on the 4-vCPU host this
/// benchmark was set up on).
constexpr double RefOpsPerSecond = 1e7;
/// Bytes of tiles ztopo keeps resident: ~20k tiles of 8-64 KiB.
constexpr int64_t ZtopoBudget = int64_t(720) << 20;

/// Span kinds, registered once. Synthesized replays get one span per
/// call; baselines get one per catch-up (a per-call clock read would
/// cost as much as their calls).
struct Kinds {
  uint16_t Ipcap[3], Thttpd[3], Ztopo[3], Sched[5], Graph[3], Gen[4];
  Kinds() {
    auto K = [](const char *N) { return tracer::kind(N); };
    Ipcap[0] = K("systems.ipcap.account_packet");
    Ipcap[1] = K("systems.ipcap.flow_of");
    Ipcap[2] = K("systems.ipcap.flush");
    Thttpd[0] = K("systems.thttpd.map_file");
    Thttpd[1] = K("systems.thttpd.unmap_file");
    Thttpd[2] = K("systems.thttpd.cleanup");
    Ztopo[0] = K("systems.ztopo.touch_tile");
    Ztopo[1] = K("systems.ztopo.add_tile");
    Ztopo[2] = K("systems.ztopo.evict_to_budget");
    Sched[0] = K("systems.scheduler.add");
    Sched[1] = K("systems.scheduler.remove");
    Sched[2] = K("systems.scheduler.set_state");
    Sched[3] = K("systems.scheduler.charge");
    Sched[4] = K("systems.scheduler.probe");
    Graph[0] = K("systems.graph.add_edge");
    Graph[1] = K("systems.graph.weight_of");
    Graph[2] = K("systems.graph.remove_edge");
    Gen[0] = K("codegen.sched.insert");
    Gen[1] = K("codegen.sched.remove");
    Gen[2] = K("codegen.sched.update");
    Gen[3] = K("codegen.sched.query");
  }
};

const Kinds &kinds() {
  static Kinds K;
  return K;
}

/// Combines \p V into a running output digest (order-sensitive).
uint64_t digest(uint64_t H, uint64_t V) {
  H ^= V + 0x9e3779b97f4a7c15ULL + (H << 6) + (H >> 2);
  return H * 0xff51afd7ed558ccdULL;
}

//===----------------------------------------------------------------------===//
// Streams and replayers. Replayer<Impl, Synth>::step() performs the next
// stream element against Impl and folds every answer into Digest.
//===----------------------------------------------------------------------===//

struct Streams {
  std::vector<Packet> Packets;
  std::vector<MmapRequest> Mmaps;
  std::vector<TileRequest> Tiles;
  struct SchedOp {
    uint8_t Kind;
    uint8_t State;
    int32_t Ns;
    int32_t Pid;
  };
  std::vector<SchedOp> Sched;
  std::vector<RoadEdge> Edges;

  explicit Streams(uint64_t Seed) {
    PacketTraceOptions P;
    P.NumPackets = 300000;
    P.Seed = Seed * 0x9e3779b97f4a7c15ULL + 1;
    Packets = generatePacketTrace(P);
    MmapTraceOptions M;
    M.NumRequests = 200000;
    M.Seed = Seed * 0x9e3779b97f4a7c15ULL + 2;
    Mmaps = generateMmapTrace(M);
    TileTraceOptions T;
    T.NumRequests = 300000;
    T.Seed = Seed * 0x9e3779b97f4a7c15ULL + 3;
    Tiles = generateTileTrace(T);
    Rng R(Seed * 0x9e3779b97f4a7c15ULL + 4);
    Sched.resize(1 << 20);
    for (SchedOp &Op : Sched) {
      Op.Ns = static_cast<int32_t>(R.below(8));
      Op.Pid = static_cast<int32_t>(R.below(2048));
      Op.Kind = static_cast<uint8_t>(R.below(6));
      Op.State = static_cast<uint8_t>(R.chance(0.5));
    }
    RoadNetworkOptions G;
    G.Width = G.Height = 96;
    G.Seed = Seed * 0x9e3779b97f4a7c15ULL + 5;
    Edges = generateRoadNetwork(G);
  }
};

template <class Impl, bool Synth> struct IpcapReplay {
  Impl I;
  const std::vector<Packet> &S;
  uint64_t Pos = 0, Digest = 0;
  explicit IpcapReplay(const Streams &St) : S(St.Packets) {}
  void step() {
    const Packet &P = S[Pos % S.size()];
    {
      MaybeSpan<Synth> Sp(kinds().Ipcap[0]);
      I.accountPacket(P.LocalHost, P.RemoteHost, P.Bytes, P.Outgoing);
    }
    if (Pos % 16 == 0) {
      MaybeSpan<Synth> Sp(kinds().Ipcap[1]);
      const FlowStats *F = I.flowOf(P.LocalHost, P.RemoteHost);
      Digest = digest(Digest, F ? uint64_t(F->BytesIn) * 31 + uint64_t(F->BytesOut) * 7 +
                                      uint64_t(F->Packets)
                                : ~0ULL);
    }
    if (++Pos % 65536 == 0) {
      std::vector<FlowRecord> Flows;
      {
        MaybeSpan<Synth> Sp(kinds().Ipcap[2]);
        Flows = I.flush();
      }
      std::sort(Flows.begin(), Flows.end(),
                [](const FlowRecord &A, const FlowRecord &B) {
                  return A.LocalHost != B.LocalHost ? A.LocalHost < B.LocalHost
                                                    : A.RemoteHost < B.RemoteHost;
                });
      for (const FlowRecord &F : Flows)
        Digest = digest(Digest, uint64_t(F.LocalHost) ^ (uint64_t(F.RemoteHost) << 20) ^
                                    (uint64_t(F.Stats.BytesIn) << 7) ^
                                    uint64_t(F.Stats.BytesOut) ^
                                    (uint64_t(F.Stats.Packets) << 40));
    }
  }
};

template <class Impl, bool Synth> struct ThttpdReplay {
  Impl I;
  const std::vector<MmapRequest> &S;
  uint64_t Pos = 0, Digest = 0;
  std::deque<int64_t> InFlight;
  int64_t LastCleanup = 0;
  explicit ThttpdReplay(const Streams &St) : S(St.Mmaps) {}
  void step() {
    const MmapRequest &Q = S[Pos % S.size()];
    // Each wrap of the trace moves the clock forward past its end.
    int64_t Now = Q.Timestamp +
                  int64_t(Pos / S.size()) * (S.back().Timestamp + 60);
    ++Pos;
    {
      MaybeSpan<Synth> Sp(kinds().Thttpd[0]);
      Digest = digest(Digest, uint64_t(I.mapFile(Q.FileId, Q.Size, Now)));
    }
    InFlight.push_back(Q.FileId);
    if (InFlight.size() > 32) {
      MaybeSpan<Synth> Sp(kinds().Thttpd[1]);
      I.unmapFile(InFlight.front(), Now);
      InFlight.pop_front();
    }
    if (Now - LastCleanup >= 10) {
      MaybeSpan<Synth> Sp(kinds().Thttpd[2]);
      Digest = digest(Digest, I.cleanup(Now, 30));
      LastCleanup = Now;
    }
    Digest = digest(Digest, uint64_t(I.mappedBytes()));
  }
};

template <class Impl, bool Synth> struct ZtopoReplay {
  Impl I;
  const std::vector<TileRequest> &S;
  uint64_t Pos = 0, Digest = 0, Evictions = 0;
  explicit ZtopoReplay(const Streams &St) : S(St.Tiles) {}
  void step() {
    const TileRequest &Q = S[Pos++ % S.size()];
    TileState St;
    bool Hit;
    {
      MaybeSpan<Synth> Sp(kinds().Ztopo[0]);
      Hit = I.touchTile(Q.TileId, St);
    }
    if (Hit) {
      Digest = digest(Digest, uint64_t(St));
    } else {
      MaybeSpan<Synth> Sp(kinds().Ztopo[1]);
      I.addTile(Q.TileId, TileState::InMemory, Q.Size);
    }
    if (I.bytesIn(TileState::InMemory) > ZtopoBudget) {
      std::vector<int64_t> Evicted;
      {
        MaybeSpan<Synth> Sp(kinds().Ztopo[2]);
        Evicted = I.evictToBudget(TileState::InMemory, ZtopoBudget);
      }
      ++Evictions;
      for (int64_t T : Evicted)
        Digest = digest(Digest, uint64_t(T));
    }
  }
};

/// The scheduler mix, written against the systems/baselines API.
template <class Impl, bool Synth> struct SchedReplay {
  Impl I;
  const std::vector<Streams::SchedOp> &S;
  uint64_t Pos = 0, Digest = 0;
  explicit SchedReplay(const Streams &St) : S(St.Sched) {}
  void step() {
    const Streams::SchedOp &Op = S[Pos++ % S.size()];
    ProcState St = Op.State ? ProcState::Running : ProcState::Sleeping;
    int64_t Out;
    switch (Op.Kind) {
    case 0:
    case 1: {
      MaybeSpan<Synth> Sp(kinds().Sched[0]);
      Out = I.addProcess(Op.Ns, Op.Pid, St, 0);
      break;
    }
    case 2: {
      MaybeSpan<Synth> Sp(kinds().Sched[1]);
      Out = I.removeProcess(Op.Ns, Op.Pid);
      break;
    }
    case 3: {
      MaybeSpan<Synth> Sp(kinds().Sched[2]);
      Out = I.setState(Op.Ns, Op.Pid, St);
      break;
    }
    case 4: {
      MaybeSpan<Synth> Sp(kinds().Sched[3]);
      Out = I.chargeCpu(Op.Ns, Op.Pid, 1);
      break;
    }
    default: {
      MaybeSpan<Synth> Sp(kinds().Sched[4]);
      Out = I.cpuOf(Op.Ns, Op.Pid);
      break;
    }
    }
    Digest = digest(Digest, uint64_t(Out));
  }
};

/// The same mix through the generated class, whose interface is the
/// relational one: existence checks are key queries.
struct GenSchedReplay {
  pbgen::sched_ns I;
  const std::vector<Streams::SchedOp> &S;
  uint64_t Pos = 0, Digest = 0;
  explicit GenSchedReplay(const Streams &St) : S(St.Sched) {}
  bool get(int64_t Ns, int64_t Pid, int64_t &State, int64_t &Cpu) {
    SpanScope Sp(kinds().Gen[3]);
    bool Found = false;
    I.by_key(Ns, Pid, [&](int64_t StOut, int64_t CpuOut) {
      Found = true;
      State = StOut;
      Cpu = CpuOut;
    });
    return Found;
  }
  void step() {
    const Streams::SchedOp &Op = S[Pos++ % S.size()];
    int64_t State = 0, Cpu = 0, Out;
    switch (Op.Kind) {
    case 0:
    case 1:
      Out = !get(Op.Ns, Op.Pid, State, Cpu);
      if (Out) {
        SpanScope Sp(kinds().Gen[0]);
        I.insert(Op.Ns, Op.Pid, Op.State, 0);
      }
      break;
    case 2: {
      SpanScope Sp(kinds().Gen[1]);
      Out = I.remove_by_ns_pid(Op.Ns, Op.Pid);
      break;
    }
    case 3:
    case 4:
      Out = get(Op.Ns, Op.Pid, State, Cpu);
      if (Out) {
        SpanScope Sp(kinds().Gen[2]);
        if (Op.Kind == 3)
          I.update_by_ns_pid(Op.Ns, Op.Pid, Op.State, Cpu);
        else
          I.update_by_ns_pid(Op.Ns, Op.Pid, State, Cpu + 1);
      }
      break;
    default:
      Out = get(Op.Ns, Op.Pid, State, Cpu) ? Cpu : -1;
      break;
    }
    Digest = digest(Digest, uint64_t(Out));
  }
};

/// Road-network build and teardown, forever: the stream is every edge
/// added, then every edge probed and removed, so the graph is empty at
/// each wrap.
template <class Impl, bool Synth> struct GraphReplay {
  Impl I;
  const std::vector<RoadEdge> &S;
  uint64_t Pos = 0, Digest = 0;
  template <class... A>
  explicit GraphReplay(const Streams &St, A &&...Args)
      : I(std::forward<A>(Args)...), S(St.Edges) {}
  void step() {
    const RoadEdge &E = S[Pos % S.size()];
    bool Adding = (Pos++ / S.size()) % 2 == 0;
    if (Adding) {
      MaybeSpan<Synth> Sp(kinds().Graph[0]);
      Digest = digest(Digest, I.addEdge(E.Src, E.Dst, E.Weight));
      return;
    }
    {
      MaybeSpan<Synth> Sp(kinds().Graph[1]);
      Digest = digest(Digest, uint64_t(I.weightOf(E.Src, E.Dst)));
    }
    MaybeSpan<Synth> Sp(kinds().Graph[2]);
    Digest = digest(Digest, I.removeEdge(E.Src, E.Dst));
  }
};

//===----------------------------------------------------------------------===//
// Measurement
//===----------------------------------------------------------------------===//

/// One synthesized replay and its baseline control.
struct Pair {
  std::string Layer, Name;
  /// Advances the synthesized side until \p Deadline, in windows;
  /// returns the stream elements done.
  std::function<uint64_t(uint64_t Deadline, Samples &WindowUs)> RunSynth;
  /// Advances the baseline by exactly \p N elements.
  std::function<void(uint64_t N)> RunBase;
  std::function<uint64_t()> SynthDigest, BaseDigest;
  uint16_t SynthSpan, BaseSpan;
};

/// What one replay measured, accumulated over a run's chunks.
struct PairStats {
  std::string Layer, Name;
  /// Per round: the slice's rates, and its window latency percentiles
  /// in units of the round's baseline time per operation.
  Samples SynthRate, BaseRate, RelP50, RelP99;
  uint64_t Ops = 0, Allocs = 0;
  double SynthSec = 0, BaseSec = 0;
};

template <class R> auto synthRunner(R &Rep) {
  return [&Rep](uint64_t Deadline, Samples &WindowUs) {
    uint64_t N = 0;
    uint64_t T0 = nowNs(), T1;
    do {
      for (size_t I = 0; I != Window; ++I)
        Rep.step();
      N += Window;
      T1 = nowNs();
      WindowUs.add(double(T1 - T0) * 1e-3 / Window);
      T0 = T1;
    } while (T1 < Deadline);
    return N;
  };
}

template <class R> auto baseRunner(R &Rep) {
  return [&Rep](uint64_t N) {
    for (uint64_t I = 0; I != N; ++I)
      Rep.step();
  };
}

struct System {
  Streams St;
  IpcapReplay<IpcapRelational, true> IpS{St};
  IpcapReplay<IpcapBaseline, false> IpB{St};
  ThttpdReplay<ThttpdRelational, true> ThS{St};
  ThttpdReplay<ThttpdBaseline, false> ThB{St};
  ZtopoReplay<ZtopoRelational, true> ZtS{St};
  ZtopoReplay<ZtopoBaseline, false> ZtB{St};
  SchedReplay<SchedulerRelational, true> ScS{St};
  SchedReplay<SchedulerBaseline, false> ScB{St};
  GenSchedReplay GenS{St};
  SchedReplay<SchedulerBaseline, false> GenB{St};
  GraphReplay<GraphRelational, true> GrS{
      St, GraphRelational::makeSharedBidirectional(GraphRelational::makeSpec())};
  GraphReplay<GraphBaseline, false> GrB{St};
  std::vector<Pair> Pairs;

  // The pairs hold references to the replays.
  System(const System &) = delete;
  System &operator=(const System &) = delete;

  System(uint64_t Seed, unsigned Chunk) : St(Seed) {
    // Warm ztopo to its budget so the measured replay runs against a
    // full, tens-of-thousands-tile resident set. Then each chunk jumps
    // to its own point of the trace (both sides alike), so a run
    // measures five stretches of it, not one stretch five times:
    // ztopo's rate depends on how many misses its short measured
    // stretch holds.
    while (ZtS.Evictions == 0)
      ZtS.step();
    while (ZtB.Pos != ZtS.Pos)
      ZtB.step();
    ZtS.Pos = ZtB.Pos += uint64_t(Chunk) * ZtopoChunkSkip;
    add("systems", "ipcap", IpS, IpB);
    add("systems", "thttpd", ThS, ThB);
    add("systems", "ztopo", ZtS, ZtB);
    add("systems", "scheduler", ScS, ScB);
    add("systems", "graph", GrS, GrB);
    add("codegen", "sched", GenS, GenB);
  }

  template <class S, class B>
  void add(const char *Layer, const char *Name, S &Syn, B &Base) {
    Pair P;
    P.Layer = Layer;
    P.Name = Name;
    P.RunSynth = synthRunner(Syn);
    P.RunBase = baseRunner(Base);
    P.SynthDigest = [&Syn] { return Syn.Digest; };
    P.BaseDigest = [&Base] { return Base.Digest; };
    P.SynthSpan = tracer::kind(std::string(Layer) + "." + Name + ".replay");
    P.BaseSpan = tracer::kind(std::string("baselines.") +
                              (std::string(Layer) == "codegen" ? "sched_gen" : Name) +
                              ".replay");
    Pairs.push_back(std::move(P));
  }
};

double geomean(const std::vector<double> &V) {
  double L = 0;
  for (double X : V)
    L += std::log(X);
  return V.empty() ? 0 : std::exp(L / double(V.size()));
}

/// Runs rounds until \p Seconds have passed, adding to \p Stats. With
/// \p SliceSpans every slice and catch-up is also recorded as a span,
/// which is what the per-layer rates of a traced run are read from.
void measure(System &Sys, double Seconds, std::vector<PairStats> &Stats,
             Report &R, bool CorruptExpected, bool SliceSpans) {
  Stats.resize(Sys.Pairs.size());
  uint64_t End = nowNs() + uint64_t(Seconds * 1e9);
  do {
    for (size_t I = 0; I != Sys.Pairs.size(); ++I) {
      Pair &P = Sys.Pairs[I];
      PairStats &St = Stats[I];
      Samples WindowUs;
      WindowUs.reserve(1 << 15);
      uint64_t A0 = threadAllocs();
      uint64_t T0 = nowNs();
      uint64_t N = P.RunSynth(T0 + uint64_t(SliceSeconds * 1e9), WindowUs);
      uint64_t T1 = nowNs();
      St.Allocs += threadAllocs() - A0;
      P.RunBase(N);
      uint64_t T2 = nowNs();
      if (SliceSpans) {
        tracer::record(P.SynthSpan, T0, T1, 0);
        tracer::record(P.BaseSpan, T1, T2, 0);
      }
      double S = secondsBetween(T0, T1), B = secondsBetween(T1, T2);
      St.Layer = P.Layer;
      St.Name = P.Name;
      St.Ops += N;
      St.SynthSec += S;
      St.BaseSec += B;
      St.SynthRate.add(double(N) / S);
      St.BaseRate.add(double(N) / B);
      double BaseOpUs = B * 1e6 / double(N);
      St.RelP50.add(WindowUs.pct(0.5) / BaseOpUs);
      St.RelP99.add(WindowUs.pct(0.99) / BaseOpUs);
      uint64_t Want = P.BaseDigest() ^ (CorruptExpected ? 1 : 0);
      R.attempted(2 * N);
      R.check(P.SynthDigest() == Want,
              P.Layer + "." + P.Name + ": answers differ from the baseline's");
    }
  } while (nowNs() < End);
}

/// The end-to-end figures, in reference time. The host's speed swings
/// by a third from run to run with its other tenants, and the
/// interleaved baselines swing with it while the parity between the two
/// barely moves. So each round's synthesized rate and window latencies
/// are taken relative to the baseline replaying the same operations
/// beside it, and scaled to a host on which hand-coded operations run
/// at RefOpsPerSecond. Every replay weighs the same: geometric means
/// over the six of the per-round medians.
EndToEnd endToEnd(const std::vector<PairStats> &Stats) {
  std::vector<double> Rates, P50, P99;
  for (const PairStats &St : Stats) {
    Samples Rel;
    for (size_t I = 0; I != St.SynthRate.size(); ++I)
      Rel.add(St.SynthRate.values()[I] / St.BaseRate.values()[I]);
    Rates.push_back(RefOpsPerSecond * Rel.median());
    P50.push_back(St.RelP50.median() * 1e6 / RefOpsPerSecond);
    P99.push_back(St.RelP99.median() * 1e6 / RefOpsPerSecond);
  }
  return {geomean(Rates), geomean(P50), geomean(P99)};
}

/// The host's speed over each replay's rounds from \p From on: the
/// geometric mean of the baselines' median rates, relative to
/// RefOpsPerSecond.
double hostSpeed(const std::vector<PairStats> &Stats,
                 const std::vector<size_t> &From) {
  std::vector<double> Rates;
  for (size_t P = 0; P != Stats.size(); ++P) {
    const std::vector<double> &V = Stats[P].BaseRate.values();
    Samples Chunk;
    for (size_t I = P < From.size() ? From[P] : 0; I < V.size(); ++I)
      Chunk.add(V[I]);
    Rates.push_back(Chunk.median());
  }
  return geomean(Rates) / RefOpsPerSecond;
}

/// Rates, allocations and parity.
void emitRates(const std::vector<PairStats> &Stats, Report &R) {
  std::vector<double> Engine;
  for (const PairStats &St : Stats) {
    std::string Pre = St.Layer + "." + St.Name;
    double Mops = nearBestRate(St.SynthRate) / 1e6;
    R.metric(Pre + ".mops", Mops, "Mops/s");
    R.metric(Pre + ".allocs_per_op", double(St.Allocs) / double(St.Ops), "count");
    R.metric(Pre + ".parity_x", St.SynthSec / St.BaseSec, "x");
    if (St.Layer == "systems") {
      Engine.push_back(Mops);
      R.metric("baselines." + St.Name + ".mops",
               nearBestRate(St.BaseRate) / 1e6, "Mops/s");
    } else {
      R.metric("codegen_mops", Mops, "Mops/s");
    }
  }
  R.metric("engine_mops", geomean(Engine), "Mops/s");
  R.metric("samples.rounds", double(Stats.front().SynthRate.size()), "count");
}

/// Per-call figures of the traced phase.
void emitPerCall(Report &R) {
  R.metric("systems.ztopo.evict_us",
           tracer::summary("systems.ztopo.evict_to_budget").MeanNs / 1e3, "us");
  const char *SchedOps[] = {"add", "remove", "set_state", "charge", "probe"};
  for (const char *Op : SchedOps)
    R.metric(std::string("systems.scheduler.") + Op + "_ns",
             tracer::summary(std::string("systems.scheduler.") + Op).MeanNs,
             "ns");
  const char *GenOps[] = {"insert", "remove", "update", "query"};
  for (const char *Op : GenOps)
    R.metric(std::string("codegen.sched.") + Op + "_ns",
             tracer::summary(std::string("codegen.sched.") + Op).MeanNs, "ns");
}

} // namespace

void pb::runSystemsReplay(const Config &C, Report &R) {
  kinds();
  // Set-up (trace generation, relation builds, ztopo warm-up) and
  // measurement alternate, Chunks times, so both sample the whole run.
  // A traced run measures each chunk half untraced, recording only
  // slice spans (per-layer rates, undistorted by per-call clock reads),
  // and half with a span around every call.
  std::vector<PairStats> U, T;
  for (int K = 0; K != Chunks; ++K) {
    uint64_t T0 = nowNs();
    System Sys(C.Seed, unsigned(K));
    R.Setup.add(secondsBetween(T0, nowNs()));
    std::vector<size_t> From;
    for (const PairStats &St : U)
      From.push_back(St.BaseRate.size());
    if (K == 0)
      R.metric("systems.ztopo.resident_tiles", double(Sys.ZtS.I.numTiles()),
               "count");
    if (!C.Trace) {
      measure(Sys, C.Seconds / Chunks, U, R, C.CorruptExpected, false);
      R.SetupSpeed.add(hostSpeed(U, From));
      continue;
    }
    // Alternate which half goes first, so neither gets all the fresh
    // state.
    for (int Half = 0; Half != 2; ++Half) {
      bool Traced = (Half + K) % 2;
      tracer::enable(Traced);
      measure(Sys, C.Seconds / Chunks / 2, Traced ? T : U, R,
              C.CorruptExpected, true);
    }
    tracer::enable(false);
    R.SetupSpeed.add(hostSpeed(U, From));
  }
  emitRates(U, R);
  EndToEnd E = endToEnd(U);
  if (!C.Trace) {
    R.metric("ops_s", E.OpsS, "1/s");
    R.metric("lat_p50_us", E.LatP50Us, "us");
    R.metric("lat_p99_us", E.LatP99Us, "us");
    return;
  }
  emitPerCall(R);
  emitTraceOverhead(R, E, endToEnd(T));
  R.metric("trace.spans",
           double(tracer::writeSpans(C.OutDir + "/spans.bin")), "count");
}
