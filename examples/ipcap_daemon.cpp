//===- examples/ipcap_daemon.cpp - Network flow accounting -------------------===//
//
// Part of the RelC data representation synthesis library.
//
//===----------------------------------------------------------------------===//
//
// The IpCap scenario of Section 6.2: a network accounting daemon
// counts bytes per (local, remote) flow, then periodically flushes the
// accumulated statistics to a log. The flow table is a synthesized
// relation flows(local, remote, in, out, packets); the decomposition —
// btree(local) → hash(remote) → counters — is Fig. 13's best.
//
// Build & run:  ./build/examples/ipcap_daemon [num-packets]
//               ./build/examples/ipcap_daemon [num-packets] --threads 4
//
// With --threads N (at most 16: the flow table gets 4N shards, capped
// by MaxShards) the flow table is one sharded ConcurrentRelation and
// the packet stream is split round-robin across the workers —
// packet i goes to thread i mod N, regardless of which flow it
// belongs to. Per-packet accounting is one atomic upsert: the key
// (local, remote) binds the shard column, so the read-modify-write
// cycle linearizes under a single shard writer lock and two workers
// racing on the same flow can never lose an increment. (Earlier
// versions steered flows by LocalHost ≡ tid (mod N) so each worker
// owned its keys outright — upsert makes that external ownership
// partitioning unnecessary.) Both modes end by flushing every flow
// and printing totals, which must agree between a sequential and a
// threaded run over the same trace. A malformed or out-of-range
// number, or an unknown argument, prints the usage and exits 2.
//
//===----------------------------------------------------------------------===//

#include "concurrent/ConcurrentRelation.h"
#include "support/ParseInt.h"
#include "systems/IpcapRelational.h"
#include "workloads/PacketTrace.h"

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <thread>
#include <vector>

using namespace relc;

namespace {

/// Largest trace accepted: it is generated and held in memory whole.
constexpr int64_t MaxPackets = 100000000;

int runSequential(const std::vector<Packet> &Trace) {
  IpcapRelational Daemon;
  size_t FlushedFlows = 0;
  int64_t LoggedBytes = 0;

  auto T0 = std::chrono::steady_clock::now();
  size_t N = 0;
  for (const Packet &P : Trace) {
    Daemon.accountPacket(P.LocalHost, P.RemoteHost, P.Bytes, P.Outgoing);
    // Every ~50k packets the daemon writes the accumulated flows out
    // and starts over (the paper's periodic log pass).
    if (++N % 50000 == 0) {
      for (const FlowRecord &R : Daemon.flush()) {
        ++FlushedFlows;
        LoggedBytes += R.Stats.BytesIn + R.Stats.BytesOut;
      }
    }
  }
  for (const FlowRecord &R : Daemon.flush()) {
    ++FlushedFlows;
    LoggedBytes += R.Stats.BytesIn + R.Stats.BytesOut;
  }
  auto T1 = std::chrono::steady_clock::now();

  std::printf("logged %zu flow records, %lld bytes total, in %.3fs\n",
              FlushedFlows, static_cast<long long>(LoggedBytes),
              std::chrono::duration<double>(T1 - T0).count());

  // A point probe through the same relation.
  Daemon.accountPacket(1, 2, 100, /*Outgoing=*/true);
  Daemon.accountPacket(1, 2, 40, /*Outgoing=*/false);
  if (const FlowStats *S = Daemon.flowOf(1, 2))
    std::printf("flow (1, 2): in=%lld out=%lld packets=%lld\n",
                static_cast<long long>(S->BytesIn),
                static_cast<long long>(S->BytesOut),
                static_cast<long long>(S->Packets));
  return 0;
}

int runThreaded(const std::vector<Packet> &Trace, unsigned NumThreads) {
  RelSpecRef Spec = IpcapRelational::makeSpec();
  ConcurrentOptions Opts;
  Opts.NumShards = 4 * NumThreads;
  ConcurrentRelation Flows(IpcapRelational::makeDefaultDecomposition(Spec),
                           Opts);
  const Catalog &Cat = Spec->catalog();
  ColumnId ColLocal = Cat.get("local"), ColRemote = Cat.get("remote");
  ColumnId ColIn = Cat.get("bytes_in"), ColOut = Cat.get("bytes_out");
  ColumnId ColPackets = Cat.get("packets");

  auto T0 = std::chrono::steady_clock::now();
  std::vector<std::thread> Workers;
  for (unsigned Tid = 0; Tid != NumThreads; ++Tid)
    Workers.emplace_back([&, Tid] {
      for (size_t I = Tid; I < Trace.size(); I += NumThreads) {
        const Packet &P = Trace[I];
        Tuple Key;
        Key.set(ColLocal, Value::ofInt(P.LocalHost));
        Key.set(ColRemote, Value::ofInt(P.RemoteHost));
        // One atomic read-modify-write under the flow's shard writer
        // lock: the key binds the shard column (local), so this is a
        // routed single-shard operation and concurrent workers hitting
        // the same flow linearize instead of losing increments.
        Flows.upsert(Key, [&](const BindingFrame *Cur, Tuple &Values) {
          int64_t In = Cur ? Cur->get(ColIn).asInt() : 0;
          int64_t Out = Cur ? Cur->get(ColOut).asInt() : 0;
          int64_t Pkts = Cur ? Cur->get(ColPackets).asInt() : 0;
          Values.set(ColIn, Value::ofInt(In + (P.Outgoing ? 0 : P.Bytes)));
          Values.set(ColOut, Value::ofInt(Out + (P.Outgoing ? P.Bytes : 0)));
          Values.set(ColPackets, Value::ofInt(Pkts + 1));
        });
      }
    });
  for (std::thread &W : Workers)
    W.join();

  // The final log pass: a parallel fan-out scan, one worker per shard
  // feeding the bounded merge queue.
  size_t FlushedFlows = 0;
  int64_t LoggedBytes = 0;
  Flows.scanParallel(Tuple(), Spec->columns(), [&](const Tuple &T) {
    ++FlushedFlows;
    LoggedBytes += T.get(ColIn).asInt() + T.get(ColOut).asInt();
    return true;
  });
  auto T1 = std::chrono::steady_clock::now();

  std::printf(
      "logged %zu flow records, %lld bytes total, in %.3fs (%u threads, "
      "%u shards)\n",
      FlushedFlows, static_cast<long long>(LoggedBytes),
      std::chrono::duration<double>(T1 - T0).count(), NumThreads,
      Flows.numShards());
  return 0;
}

} // namespace

int main(int argc, char **argv) {
  PacketTraceOptions Opts;
  Opts.NumPackets = 300000; // the paper's 3×10^5
  unsigned NumThreads = 0;
  bool HavePackets = false;
  auto Usage = [&](const char *Why) {
    std::fprintf(stderr,
                 "%s: %s\nusage: %s [num-packets] [--threads N]\n"
                 "  num-packets in [1, %lld]; N in [1, %u] (the flow "
                 "table is sharded four ways per thread)\n",
                 argv[0], Why, argv[0], static_cast<long long>(MaxPackets),
                 MaxShards / 4);
    return 2;
  };
  for (int I = 1; I < argc; ++I) {
    int64_t N = 0;
    if (std::strcmp(argv[I], "--threads") == 0) {
      if (I + 1 == argc || !parseInt(argv[++I], 1, MaxShards / 4, N))
        return Usage("--threads needs an integer in range");
      NumThreads = static_cast<unsigned>(N);
    } else if (argv[I][0] == '-' || HavePackets) {
      return Usage("unexpected argument");
    } else if (!parseInt(argv[I], 1, MaxPackets, N)) {
      return Usage("num-packets must be an integer in range");
    } else {
      Opts.NumPackets = static_cast<size_t>(N);
      HavePackets = true;
    }
  }

  std::vector<Packet> Trace = generatePacketTrace(Opts);
  std::printf("replaying %zu packets (%u local hosts, %u remote hosts)\n",
              Trace.size(), Opts.NumLocalHosts, Opts.NumRemoteHosts);

  if (NumThreads > 0)
    return runThreaded(Trace, NumThreads);
  return runSequential(Trace);
}
