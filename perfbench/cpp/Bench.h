//===- perfbench/cpp/Bench.h - Shared benchmark infrastructure --*- C++ -*-===//
//
// Part of the RelC data representation synthesis library.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// What every perfbench workload shares: the run configuration, the
/// report it fills (outcome counters, named metrics, setup samples),
/// sample sets with percentiles, the per-thread allocation counter, and
/// the span tracer. The benchmark measures each layer from outside:
/// spans wrap the calls it makes into a layer's public functions, so
/// the library itself carries no instrumentation.
///
//===----------------------------------------------------------------------===//

#ifndef PERFBENCH_BENCH_H
#define PERFBENCH_BENCH_H

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

namespace pb {

using Clock = std::chrono::steady_clock;

inline uint64_t nowNs() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          Clock::now().time_since_epoch())
          .count());
}

inline double secondsBetween(uint64_t T0, uint64_t T1) {
  return static_cast<double>(T1 - T0) * 1e-9;
}

/// Heap allocations made by the calling thread so far (operator new
/// is replaced in Alloc.cpp; every thread counts its own).
uint64_t threadAllocs();

/// Peak resident set of the process, in MiB.
double peakRssMb();

//===----------------------------------------------------------------------===//
// Run configuration and report
//===----------------------------------------------------------------------===//

struct Config {
  std::string Workload;
  uint64_t Seed = 0;
  double Seconds = 0;
  bool Trace = false;
  /// Scratch directory for spans, the WAL and the report.
  std::string OutDir;
  /// Self-test hook: perturb one expected value so the output check
  /// must fail.
  bool CorruptExpected = false;
};

/// Latency or value samples with nearest-rank percentiles.
class Samples {
public:
  void add(double V) { V_.push_back(V); }
  void reserve(size_t N) { V_.reserve(N); }
  void append(const Samples &O) {
    V_.insert(V_.end(), O.V_.begin(), O.V_.end());
  }
  size_t size() const { return V_.size(); }
  const std::vector<double> &values() const { return V_; }
  bool empty() const { return V_.empty(); }
  /// \p Q in [0, 1]; 0 for an empty set.
  double pct(double Q) const {
    if (V_.empty())
      return 0;
    std::vector<double> S = V_;
    size_t K = static_cast<size_t>(Q * static_cast<double>(S.size() - 1) + 0.5);
    std::nth_element(S.begin(), S.begin() + static_cast<long>(K), S.end());
    return S[K];
  }
  double median() const { return pct(0.5); }

private:
  std::vector<double> V_;
};

/// The host's speed moves with its other tenants, in spells of seconds,
/// and a run's median round inherits whichever spell it fell in. Where
/// there is no control to measure against, a run is cut into short
/// rounds and reports its near-best round: the 90th percentile of
/// per-round rates, the 10th of per-round latencies. Interference only
/// slows a round, so these move with the code and hardly with the
/// spells.
inline double nearBestRate(const Samples &PerRound) { return PerRound.pct(0.9); }
inline double nearBestLatency(const Samples &PerRound) {
  return PerRound.pct(0.1);
}

/// What a workload run produces. Attempted/Failed count the operations
/// the benchmark issued and the ones that failed or answered wrongly
/// (each failed output check counts as one failed operation).
class Report {
public:
  struct Metric {
    std::string Name;
    double Value;
    std::string Unit;
  };

  void metric(std::string Name, double Value, std::string Unit) {
    Metrics.push_back({std::move(Name), Value, std::move(Unit)});
  }
  /// Records one output check; a failure is remembered with \p What.
  bool check(bool Ok, const std::string &What) {
    Attempted.fetch_add(1, std::memory_order_relaxed);
    if (!Ok)
      fail(What);
    return Ok;
  }
  void fail(const std::string &What);
  void attempted(uint64_t N) {
    Attempted.fetch_add(N, std::memory_order_relaxed);
  }

  std::atomic<uint64_t> Attempted{0};
  std::atomic<uint64_t> Failed{0};
  std::vector<Metric> Metrics;
  /// Wall time of each set-up repetition (seconds).
  Samples Setup;
  /// Where a workload measures against a control: for each set-up
  /// repetition, the host's speed relative to the reference host while
  /// the measurement after it ran. setup_s is then in reference time,
  /// each repetition's wall time times its speed.
  Samples SetupSpeed;
  /// Peak RSS when the workload's measurement ended; 0 means at exit.
  double PeakRssMb = 0;
  std::vector<std::string> FirstErrors;
};

//===----------------------------------------------------------------------===//
// Span tracing
//===----------------------------------------------------------------------===//

/// One timed call into a layer: 16 bytes, kept in memory per thread.
struct Span {
  uint64_t StartNs;
  uint32_t DurNs;
  uint16_t Kind;
  uint16_t Allocs;
};

/// Exact per-kind totals, kept beside the (possibly decimated) raw
/// spans.
struct SpanTotals {
  uint64_t Count = 0;
  uint64_t SumNs = 0;
  uint64_t SumAllocs = 0;
};

/// Summary of one span kind across threads.
struct KindSummary {
  uint64_t Count = 0;
  double MeanNs = 0;
  double P50Ns = 0;
  double P99Ns = 0;
  double AllocsPerCall = 0;
};

namespace tracer {

/// Tracing is off until enable(); spans are then recorded by every
/// thread into its own buffer.
extern std::atomic<bool> On;

/// Registers (or finds) a span kind named "<layer>.<op>".
uint16_t kind(const std::string &Name);
void enable(bool E);
void record(uint16_t Kind, uint64_t StartNs, uint64_t EndNs, uint64_t Allocs);
/// Summary over every thread's spans of \p Name (zeros if none).
KindSummary summary(const std::string &Name);
/// Writes every span plus the kind table to \p Path; returns the span
/// count written, or -1 on an I/O failure.
long long writeSpans(const std::string &Path);

} // namespace tracer

/// RAII span around one call; free when tracing is off.
class SpanScope {
public:
  explicit SpanScope(uint16_t K) : Kind(K) {
    if (tracer::On.load(std::memory_order_relaxed)) {
      A0 = threadAllocs();
      T0 = nowNs();
    }
  }
  ~SpanScope() {
    if (T0)
      tracer::record(Kind, T0, nowNs(), threadAllocs() - A0);
  }
  SpanScope(const SpanScope &) = delete;
  SpanScope &operator=(const SpanScope &) = delete;

private:
  uint16_t Kind;
  uint64_t T0 = 0;
  uint64_t A0 = 0;
};

/// A span only where \p Traced: lets one templated call site serve both
/// the measured layer and its untraced control.
template <bool Traced> struct MaybeSpan;
template <> struct MaybeSpan<true> : SpanScope {
  explicit MaybeSpan(uint16_t K) : SpanScope(K) {}
};
template <> struct MaybeSpan<false> {
  explicit MaybeSpan(uint16_t) {}
};

//===----------------------------------------------------------------------===//
// Workloads
//===----------------------------------------------------------------------===//

/// The workload-generic end-to-end figures (ops_s, lat_p50_us,
/// lat_p99_us); README.md defines them per workload.
struct EndToEnd {
  double OpsS = 0, LatP50Us = 0, LatP99Us = 0;
};

/// The traced run's end-to-end figures beside the untraced ones
/// (trace.*), so tracing overhead is itself measured.
void emitTraceOverhead(Report &R, const EndToEnd &Untraced,
                       const EndToEnd &Traced);

void runSystemsReplay(const Config &C, Report &R);
void runShardedMix(const Config &C, Report &R);
void runServerDurable(const Config &C, Report &R);

} // namespace pb

#endif // PERFBENCH_BENCH_H
