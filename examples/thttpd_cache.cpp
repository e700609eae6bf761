//===- examples/thttpd_cache.cpp - The web server's mmap cache ---------------===//
//
// Part of the RelC data representation synthesis library.
//
//===----------------------------------------------------------------------===//
//
// The thttpd scenario of Section 6.2: the web server caches the results
// of mmap() calls — a file is mapped once, shared by concurrent
// requests via a refcount, and unmapped by a periodic cleanup pass once
// idle past a TTL. The cache is one synthesized relation
// maps(file, addr, size, refcount, last_use).
//
// Build & run:  ./build/examples/thttpd_cache [num-requests]
//
//===----------------------------------------------------------------------===//

#include "support/CliArgs.h"
#include "systems/ThttpdRelational.h"
#include "workloads/MmapTrace.h"

#include <chrono>
#include <cstdio>
#include <deque>

using namespace relc;

int main(int argc, char **argv) {
  PositionalArgs Args(argc, argv, 1, "usage: thttpd_cache [num-requests]\n");
  MmapTraceOptions Opts;
  Opts.NumRequests = Args.get<size_t>(1, 200000, 1, 100000000);
  std::vector<MmapRequest> Trace = generateMmapTrace(Opts);
  std::printf("replaying %zu requests over %u files (zipf %.2f)\n",
              Trace.size(), Opts.NumFiles, Opts.ZipfSkew);

  constexpr int64_t TtlSeconds = 30;
  constexpr size_t ConcurrentRequests = 32;
  ThttpdRelational Cache;
  std::deque<int64_t> InFlight;
  size_t Evicted = 0;
  int64_t LastCleanup = 0;

  auto T0 = std::chrono::steady_clock::now();
  for (const MmapRequest &Q : Trace) {
    Cache.mapFile(Q.FileId, Q.Size, Q.Timestamp);
    InFlight.push_back(Q.FileId);
    // A bounded pool of in-flight requests: the oldest finishes.
    if (InFlight.size() > ConcurrentRequests) {
      Cache.unmapFile(InFlight.front(), Q.Timestamp);
      InFlight.pop_front();
    }
    // Periodic idle cleanup, as in the original module.
    if (Q.Timestamp - LastCleanup >= 10) {
      Evicted += Cache.cleanup(Q.Timestamp, TtlSeconds);
      LastCleanup = Q.Timestamp;
    }
  }
  auto T1 = std::chrono::steady_clock::now();

  std::printf("resident: %zu mappings, %lld bytes; evicted %zu; %.3fs\n",
              Cache.numMapped(),
              static_cast<long long>(Cache.mappedBytes()), Evicted,
              std::chrono::duration<double>(T1 - T0).count());

  WfResult Wf = Cache.relation().checkWellFormed();
  std::printf("cache representation well-formed: %s\n",
              Wf.Ok ? "yes" : Wf.Error.c_str());
  return Wf.Ok ? 0 : 1;
}
