//===- bench/bench_systems_parity.cpp - Section 6.2 parity claim -------------===//
//
// Part of the RelC data representation synthesis library.
//
//===----------------------------------------------------------------------===//
//
// Section 6.2's performance claim: "for each system, the relational and
// non-relational versions had equivalent performance". Replays the same
// trace through the hand-coded baseline and the synthesized relational
// module for every case study and prints the throughput ratio.
//
//   bench_systems_parity [scale]
//
//===----------------------------------------------------------------------===//

#include "BenchCommon.h"

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

#include <cstdio>
#include <cstdlib>
#include <deque>

using namespace relc;
using namespace relcbench;

namespace {

void report(const char *Name, size_t Ops, double Base, double Synth) {
  std::printf("%-10s %9zu ops   baseline %8.4fs (%7.2f Mops/s)   "
              "synthesized %8.4fs (%7.2f Mops/s)   ratio %.2fx\n",
              Name, Ops, Base, Ops / Base / 1e6, Synth, Ops / Synth / 1e6,
              Synth / Base);
}

template <typename CacheT>
double runThttpd(CacheT &Cache, const std::vector<MmapRequest> &Trace) {
  Clock::time_point T0 = Clock::now();
  std::deque<int64_t> InFlight;
  int64_t LastCleanup = 0;
  for (const MmapRequest &Q : Trace) {
    Cache.mapFile(Q.FileId, Q.Size, Q.Timestamp);
    InFlight.push_back(Q.FileId);
    if (InFlight.size() > 32) {
      Cache.unmapFile(InFlight.front(), Q.Timestamp);
      InFlight.pop_front();
    }
    if (Q.Timestamp - LastCleanup >= 10) {
      Cache.cleanup(Q.Timestamp, 30);
      LastCleanup = Q.Timestamp;
    }
  }
  return secondsSince(T0);
}

template <typename CacheT>
double runZtopo(CacheT &Cache, const std::vector<TileRequest> &Trace) {
  constexpr int64_t Budget = 4 * 1024 * 1024;
  Clock::time_point T0 = Clock::now();
  for (const TileRequest &Q : Trace) {
    TileState S;
    if (!Cache.touchTile(Q.TileId, S))
      Cache.addTile(Q.TileId, TileState::InMemory, Q.Size);
    if (Cache.bytesIn(TileState::InMemory) > Budget)
      Cache.evictToBudget(TileState::InMemory, Budget);
  }
  return secondsSince(T0);
}

template <typename SchedT> double runScheduler(SchedT &S, size_t Ops) {
  Rng R(42);
  Clock::time_point T0 = Clock::now();
  for (size_t Op = 0; Op != Ops; ++Op) {
    int64_t Ns = static_cast<int64_t>(R.below(8));
    int64_t Pid = static_cast<int64_t>(R.below(2048));
    switch (R.below(6)) {
    case 0:
    case 1:
      S.addProcess(Ns, Pid,
                   R.chance(0.5) ? ProcState::Running : ProcState::Sleeping,
                   0);
      break;
    case 2:
      S.removeProcess(Ns, Pid);
      break;
    case 3:
      S.setState(Ns, Pid,
                 R.chance(0.5) ? ProcState::Running : ProcState::Sleeping);
      break;
    case 4:
      S.chargeCpu(Ns, Pid, 1);
      break;
    case 5:
      S.cpuOf(Ns, Pid);
      break;
    }
  }
  return secondsSince(T0);
}

} // namespace

int main(int argc, char **argv) {
  PositionalArgs Args(argc, argv, 1, "usage: bench_systems_parity [scale]\n");
  double Scale = Args.get(1, 1.0, 0.001, 1000.0);

  // --- IpCap -------------------------------------------------------------
  {
    PacketTraceOptions Opts;
    Opts.NumPackets = static_cast<size_t>(300000 * Scale);
    std::vector<Packet> Trace = generatePacketTrace(Opts);
    double Base, Synth;
    {
      IpcapBaseline B;
      Clock::time_point T0 = Clock::now();
      for (const Packet &P : Trace)
        B.accountPacket(P.LocalHost, P.RemoteHost, P.Bytes, P.Outgoing);
      Base = secondsSince(T0);
    }
    {
      IpcapRelational S;
      Clock::time_point T0 = Clock::now();
      for (const Packet &P : Trace)
        S.accountPacket(P.LocalHost, P.RemoteHost, P.Bytes, P.Outgoing);
      Synth = secondsSince(T0);
    }
    report("ipcap", Trace.size(), Base, Synth);
  }

  // --- thttpd ------------------------------------------------------------
  {
    MmapTraceOptions Opts;
    Opts.NumRequests = static_cast<size_t>(200000 * Scale);
    std::vector<MmapRequest> Trace = generateMmapTrace(Opts);
    ThttpdBaseline B;
    ThttpdRelational S;
    double Base = runThttpd(B, Trace);
    double Synth = runThttpd(S, Trace);
    report("thttpd", Trace.size(), Base, Synth);
  }

  // --- ZTopo -------------------------------------------------------------
  {
    TileTraceOptions Opts;
    Opts.NumRequests = static_cast<size_t>(100000 * Scale);
    std::vector<TileRequest> Trace = generateTileTrace(Opts);
    ZtopoBaseline B;
    ZtopoRelational S;
    double Base = runZtopo(B, Trace);
    double Synth = runZtopo(S, Trace);
    report("ztopo", Trace.size(), Base, Synth);
  }

  // --- Scheduler (the running example) ------------------------------------
  {
    size_t Ops = static_cast<size_t>(200000 * Scale);
    SchedulerBaseline B;
    SchedulerRelational S;
    double Base = runScheduler(B, Ops);
    double Synth = runScheduler(S, Ops);
    report("scheduler", Ops, Base, Synth);
  }

  // --- Graph -------------------------------------------------------------
  {
    RoadNetworkOptions Opts;
    Opts.Width = static_cast<unsigned>(64 * Scale);
    Opts.Height = Opts.Width;
    std::vector<RoadEdge> Edges = generateRoadNetwork(Opts);
    double Base, Synth;
    {
      GraphBaseline B;
      Clock::time_point T0 = Clock::now();
      for (const RoadEdge &E : Edges)
        B.addEdge(E.Src, E.Dst, E.Weight);
      for (const RoadEdge &E : Edges)
        B.removeEdge(E.Src, E.Dst);
      Base = secondsSince(T0);
    }
    {
      GraphRelational S(GraphRelational::makeSharedBidirectional(
          GraphRelational::makeSpec()));
      Clock::time_point T0 = Clock::now();
      for (const RoadEdge &E : Edges)
        S.addEdge(E.Src, E.Dst, E.Weight);
      for (const RoadEdge &E : Edges)
        S.removeEdge(E.Src, E.Dst);
      Synth = secondsSince(T0);
    }
    report("graph", Edges.size() * 2, Base, Synth);
  }

  std::printf("\n# shape check (paper): ratios near 1x mean the synthesized "
              "modules match hand-written\n"
              "# performance. The dynamic engine interprets plans and "
              "tuples, so some overhead is\n"
              "# expected here; the RELC code generator (bench: see "
              "tests/codegen) removes it.\n");
  return 0;
}
