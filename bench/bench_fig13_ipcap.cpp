//===- bench/bench_fig13_ipcap.cpp - Figure 13 reproduction ------------------===//
//
// Part of the RelC data representation synthesis library.
//
//===----------------------------------------------------------------------===//
//
// Figure 13: elapsed time for IpCap to log a random packet trace, for
// the autotuner's decompositions of the flow relation up to 4 map
// edges, ranked by elapsed time; decompositions exceeding the limit are
// elided (the paper's 58 of 84). Also reports:
//  - the paper's "best vs transposed" comparison (btree(local) →
//    hash(remote) beats the transposed variant severalfold), and
//  - parity with the hand-coded baseline.
//
//   bench_fig13_ipcap [num-packets] [time-limit-seconds] [max-edges]
//
//===----------------------------------------------------------------------===//

#include "BenchCommon.h"

#include "autotuner/Enumerator.h"
#include "baselines/IpcapBaseline.h"
#include "systems/IpcapRelational.h"
#include "workloads/PacketTrace.h"

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <vector>

using namespace relc;
using namespace relcbench;

namespace {

double replay(IpcapRelational &Daemon, const std::vector<Packet> &Trace,
              double Limit) {
  Deadline Dl(Limit);
  size_t Tick = 0;
  for (const Packet &P : Trace) {
    Daemon.accountPacket(P.LocalHost, P.RemoteHost, P.Bytes, P.Outgoing);
    if (++Tick % 1024 == 0 && Dl.expired())
      return -1;
  }
  // Drain to the log, as the daemon's periodic pass does.
  (void)Daemon.flush();
  return Dl.elapsed();
}

} // namespace

int main(int argc, char **argv) {
  PositionalArgs Args(argc, argv, 3,
                      "usage: bench_fig13_ipcap [packets [time-limit-s "
                      "[max-map-edges]]]\n");
  PacketTraceOptions TOpts;
  TOpts.NumPackets =
      Args.get<size_t>(1, 300000, 1, size_t(1) << 32);
  double Limit = Args.get(2, 2.0, 0.001, 1e6);
  EnumeratorOptions EOpts;
  EOpts.MaxEdges = Args.get(3, 4u, 1u, 64u);
  EOpts.MaxJoinWidth = 2;
  EOpts.MaxResults = 150;

  std::vector<Packet> Trace = generatePacketTrace(TOpts);
  std::printf("# Figure 13: IpCap logging %zu random packets, limit %.1fs\n",
              Trace.size(), Limit);

  RelSpecRef Spec = IpcapRelational::makeSpec();
  std::vector<Decomposition> Decomps = enumerateDecompositions(Spec, EOpts);
  std::printf("# %zu adequate decomposition structures enumerated\n\n",
              Decomps.size());

  struct Row {
    std::string Decomp;
    double Seconds;
  };
  std::vector<Row> Rows;
  size_t TimedOut = 0;
  for (const Decomposition &D : Decomps) {
    IpcapRelational Daemon{Decomposition(D)};
    double S = replay(Daemon, Trace, Limit);
    if (S < 0) {
      ++TimedOut;
      continue;
    }
    Rows.push_back({D.canonicalString(/*IncludeDs=*/false), S});
  }
  std::sort(Rows.begin(), Rows.end(),
            [](const Row &A, const Row &B) { return A.Seconds < B.Seconds; });

  std::printf("%-4s %-10s %s\n", "rank", "time(s)", "decomposition");
  unsigned Rank = 1;
  for (const Row &R : Rows)
    std::printf("%-4u %s  %s\n", Rank++, formatSeconds(R.Seconds).c_str(),
                R.Decomp.c_str());
  std::printf("\n# %zu decompositions did not complete within %.1fs "
              "(elided, as in the paper)\n\n",
              TimedOut, Limit);

  // Best vs transposed (the paper's ~5x spread).
  double BestS, TransS;
  {
    IpcapRelational Best(IpcapRelational::makeDefaultDecomposition(Spec));
    BestS = replay(Best, Trace, Limit * 10);
  }
  {
    IpcapRelational Trans(IpcapRelational::makeTransposedDecomposition(Spec));
    TransS = replay(Trans, Trace, Limit * 10);
  }
  std::printf("best (btree local -> hash remote): %.4fs\n", BestS);
  std::printf("transposed (hash remote -> btree local): %.4fs  "
              "(%.1fx slower)\n",
              TransS, TransS / BestS);

  // Hand-coded parity (Section 6.2's equivalence claim).
  {
    Clock::time_point T0 = Clock::now();
    IpcapBaseline Base;
    for (const Packet &P : Trace)
      Base.accountPacket(P.LocalHost, P.RemoteHost, P.Bytes, P.Outgoing);
    (void)Base.flush();
    double BaseS = secondsSince(T0);
    std::printf("hand-coded baseline: %.4fs  (synthesized best is %.2fx)\n",
                BaseS, BestS / BaseS);
  }
  return 0;
}
