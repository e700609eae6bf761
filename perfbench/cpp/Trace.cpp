//===- perfbench/cpp/Trace.cpp - In-memory span tracer --------------------===//
//
// Part of the RelC data representation synthesis library.
//
//===----------------------------------------------------------------------===//
//
// Every thread records spans into its own buffer (no sharing on the
// hot path; a finished thread's buffer is reused by the next one). A buffer holds at most SpanCap raw spans: when it fills,
// every other span is dropped and the recording stride doubles, so the
// kept spans stay a uniform systematic sample of the run while the
// per-kind totals (count, time, allocations) stay exact. Spans are
// written out once, at the end of the run.
//
//===----------------------------------------------------------------------===//

#include "Bench.h"

#include <map>
#include <memory>
#include <mutex>

namespace pb {
namespace tracer {

std::atomic<bool> On{false};

namespace {

constexpr size_t SpanCap = size_t(1) << 18;

struct ThreadBuf {
  std::vector<Span> Spans;
  std::vector<SpanTotals> Totals;
  uint32_t Stride = 1;
  uint32_t Skip = 0;
  /// Held by a live thread. A finished thread's buffer passes to the
  /// next thread that records, so workloads that start fresh threads
  /// per phase keep as many buffers as they run threads at once.
  bool InUse = false;
};

std::mutex Mu;
std::vector<std::string> Names;
std::map<std::string, uint16_t> Ids;
std::vector<std::unique_ptr<ThreadBuf>> Bufs;

/// The calling thread's buffer, handed back when the thread ends.
struct Holder {
  ThreadBuf *B = nullptr;
  ~Holder() {
    if (B) {
      std::lock_guard<std::mutex> L(Mu);
      B->InUse = false;
    }
  }
};
thread_local Holder Mine;

ThreadBuf &mine() {
  if (!Mine.B) {
    std::lock_guard<std::mutex> L(Mu);
    for (auto &B : Bufs)
      if (!B->InUse) {
        Mine.B = B.get();
        break;
      }
    if (!Mine.B) {
      Bufs.push_back(std::make_unique<ThreadBuf>());
      Mine.B = Bufs.back().get();
      Mine.B->Spans.reserve(SpanCap);
    }
    Mine.B->InUse = true;
  }
  return *Mine.B;
}

} // namespace

uint16_t kind(const std::string &Name) {
  std::lock_guard<std::mutex> L(Mu);
  auto It = Ids.find(Name);
  if (It != Ids.end())
    return It->second;
  uint16_t Id = static_cast<uint16_t>(Names.size());
  Names.push_back(Name);
  Ids.emplace(Name, Id);
  return Id;
}

void enable(bool E) { On.store(E, std::memory_order_relaxed); }

void record(uint16_t Kind, uint64_t StartNs, uint64_t EndNs, uint64_t Allocs) {
  ThreadBuf &B = mine();
  if (Kind >= B.Totals.size())
    B.Totals.resize(size_t(Kind) + 1);
  uint64_t Dur = EndNs - StartNs;
  SpanTotals &T = B.Totals[Kind];
  ++T.Count;
  T.SumNs += Dur;
  T.SumAllocs += Allocs;
  if (++B.Skip < B.Stride)
    return;
  B.Skip = 0;
  B.Spans.push_back({StartNs, static_cast<uint32_t>(std::min<uint64_t>(Dur, UINT32_MAX)),
                     Kind, static_cast<uint16_t>(std::min<uint64_t>(Allocs, UINT16_MAX))});
  if (B.Spans.size() == SpanCap) {
    for (size_t I = 0; I * 2 < SpanCap; ++I)
      B.Spans[I] = B.Spans[I * 2];
    B.Spans.resize(SpanCap / 2);
    B.Stride *= 2;
  }
}

KindSummary summary(const std::string &Name) {
  std::lock_guard<std::mutex> L(Mu);
  KindSummary S;
  auto It = Ids.find(Name);
  if (It == Ids.end())
    return S;
  uint16_t K = It->second;
  uint64_t SumNs = 0, SumAllocs = 0;
  Samples Durs;
  for (const auto &B : Bufs) {
    if (K < B->Totals.size()) {
      S.Count += B->Totals[K].Count;
      SumNs += B->Totals[K].SumNs;
      SumAllocs += B->Totals[K].SumAllocs;
    }
    for (const Span &Sp : B->Spans)
      if (Sp.Kind == K)
        Durs.add(Sp.DurNs);
  }
  if (S.Count) {
    S.MeanNs = double(SumNs) / double(S.Count);
    S.AllocsPerCall = double(SumAllocs) / double(S.Count);
    S.P50Ns = Durs.pct(0.5);
    S.P99Ns = Durs.pct(0.99);
  }
  return S;
}

long long writeSpans(const std::string &Path) {
  std::lock_guard<std::mutex> L(Mu);
  std::FILE *F = std::fopen(Path.c_str(), "wb");
  if (!F)
    return -1;
  // Layout: "PBSPANS1", u32 kinds, per kind (u16 length, bytes), u32
  // threads, per thread (u32 stride, u64 count, count x Span).
  bool Ok = std::fwrite("PBSPANS1", 1, 8, F) == 8;
  uint32_t NK = static_cast<uint32_t>(Names.size());
  Ok &= std::fwrite(&NK, sizeof NK, 1, F) == 1;
  for (const std::string &N : Names) {
    uint16_t Len = static_cast<uint16_t>(N.size());
    Ok &= std::fwrite(&Len, sizeof Len, 1, F) == 1;
    Ok &= std::fwrite(N.data(), 1, Len, F) == Len;
  }
  uint32_t NT = static_cast<uint32_t>(Bufs.size());
  Ok &= std::fwrite(&NT, sizeof NT, 1, F) == 1;
  long long Total = 0;
  for (const auto &B : Bufs) {
    uint64_t N = B->Spans.size();
    Ok &= std::fwrite(&B->Stride, sizeof B->Stride, 1, F) == 1;
    Ok &= std::fwrite(&N, sizeof N, 1, F) == 1;
    if (N)
      Ok &= std::fwrite(B->Spans.data(), sizeof(Span), N, F) == N;
    Total += static_cast<long long>(N);
  }
  Ok &= std::fclose(F) == 0;
  return Ok ? Total : -1;
}

} // namespace tracer
} // namespace pb
