//===- perfbench/cpp/Main.cpp - Benchmark driver entry point --------------===//
//
// Part of the RelC data representation synthesis library.
//
//===----------------------------------------------------------------------===//
//
//   perfbench_driver --workload NAME --seed N --seconds S --trace 0|1
//                    --out DIR [--corrupt-expected]
//
// Runs one workload and prints one JSON object on stdout: the outcome
// counters, every metric the workload measured (name, value, unit),
// the set-up samples and the run's meta stamp. run.py builds this
// binary, calls it and turns that object into the benchmark's result
// line. Every flag is required except --corrupt-expected; unknown
// flags and malformed values exit with status 2.
//
//===----------------------------------------------------------------------===//

#include "Bench.h"

#include <cerrno>
#include <cmath>
#include <cstdlib>
#include <cstring>
#include <mutex>
#include <thread>

using namespace pb;

void Report::fail(const std::string &What) {
  Failed.fetch_add(1, std::memory_order_relaxed);
  static std::mutex Mu;
  std::lock_guard<std::mutex> L(Mu);
  if (FirstErrors.size() < 8)
    FirstErrors.push_back(What);
}

void pb::emitTraceOverhead(Report &R, const EndToEnd &U, const EndToEnd &T) {
  R.metric("trace.ops_s_untraced", U.OpsS, "1/s");
  R.metric("trace.ops_s_traced", T.OpsS, "1/s");
  R.metric("trace.lat_p50_us_untraced", U.LatP50Us, "us");
  R.metric("trace.lat_p50_us_traced", T.LatP50Us, "us");
  R.metric("trace.lat_p99_us_untraced", U.LatP99Us, "us");
  R.metric("trace.lat_p99_us_traced", T.LatP99Us, "us");
  R.metric("trace.overhead_pct",
           T.OpsS > 0 ? (U.OpsS / T.OpsS - 1) * 100 : 0, "%");
}

namespace {

[[noreturn]] void usage(const char *Msg) {
  std::fprintf(stderr,
               "perfbench_driver: %s\nusage: perfbench_driver --workload "
               "NAME --seed N --seconds S --trace 0|1 --out DIR "
               "[--corrupt-expected]\n",
               Msg);
  std::exit(2);
}

bool parseU64(const char *S, uint64_t &Out) {
  if (!*S || *S == '-' || *S == '+')
    return false;
  errno = 0;
  char *End = nullptr;
  unsigned long long V = std::strtoull(S, &End, 10);
  if (errno || *End)
    return false;
  Out = V;
  return true;
}

bool parsePositive(const char *S, double &Out) {
  errno = 0;
  char *End = nullptr;
  double V = std::strtod(S, &End);
  if (errno || End == S || *End || !std::isfinite(V) || V <= 0)
    return false;
  Out = V;
  return true;
}

void jsonString(const std::string &S) {
  std::putchar('"');
  for (char Ch : S) {
    if (Ch == '"' || Ch == '\\')
      std::printf("\\%c", Ch);
    else if (static_cast<unsigned char>(Ch) < 0x20)
      std::printf("\\u%04x", Ch);
    else
      std::putchar(Ch);
  }
  std::putchar('"');
}

} // namespace

int main(int argc, char **argv) {
  Config C;
  bool HaveWorkload = false, HaveSeed = false, HaveSeconds = false,
       HaveTrace = false;
  for (int I = 1; I < argc; ++I) {
    std::string Flag = argv[I];
    if (Flag == "--corrupt-expected") {
      C.CorruptExpected = true;
      continue;
    }
    if (I + 1 >= argc)
      usage(("missing value for " + Flag).c_str());
    const char *V = argv[++I];
    if (Flag == "--workload") {
      C.Workload = V;
      HaveWorkload = true;
    } else if (Flag == "--seed") {
      if (!parseU64(V, C.Seed))
        usage("--seed takes a non-negative integer");
      HaveSeed = true;
    } else if (Flag == "--seconds") {
      if (!parsePositive(V, C.Seconds))
        usage("--seconds takes a positive number");
      HaveSeconds = true;
    } else if (Flag == "--trace") {
      if (std::strcmp(V, "0") && std::strcmp(V, "1"))
        usage("--trace takes 0 or 1");
      C.Trace = V[0] == '1';
      HaveTrace = true;
    } else if (Flag == "--out") {
      C.OutDir = V;
    } else {
      usage(("unknown flag " + Flag).c_str());
    }
  }
  if (!HaveWorkload || !HaveSeed || !HaveSeconds || !HaveTrace ||
      C.OutDir.empty())
    usage("--workload, --seed, --seconds, --trace and --out are required");

  Report R;
  if (C.Workload == "systems-replay")
    runSystemsReplay(C, R);
  else if (C.Workload == "sharded-mix")
    runShardedMix(C, R);
  else if (C.Workload == "server-durable")
    runServerDurable(C, R);
  else
    usage(("unknown workload " + C.Workload).c_str());

  uint64_t Attempted = R.Attempted.load(), Failed = R.Failed.load();
  Samples Setup = R.Setup;
  if (R.SetupSpeed.size() == R.Setup.size() && !R.Setup.empty()) {
    Setup = Samples();
    for (size_t I = 0; I != R.Setup.size(); ++I)
      Setup.add(R.Setup.values()[I] * R.SetupSpeed.values()[I]);
  }
  R.metric("setup_s", Setup.median(), "s");
  R.metric("peak_rss_mb", R.PeakRssMb > 0 ? R.PeakRssMb : peakRssMb(), "MB");
  R.metric("error_ratio",
           Attempted ? double(Failed) / double(Attempted) : 1.0, "ratio");

  // The result object: one line, all digits.
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, ",
              Failed == 0 && Attempted > 0 ? "true" : "false",
              static_cast<unsigned long long>(Attempted),
              static_cast<unsigned long long>(Failed));
  std::printf("\"meta\": {\"hardware_concurrency\": %u, \"compiler\": ",
              std::thread::hardware_concurrency());
#if defined(__clang__)
  jsonString(std::string("clang ") + __clang_version__);
#elif defined(__GNUC__)
  jsonString(std::string("gcc ") + __VERSION__);
#else
  jsonString("unknown");
#endif
  std::printf(", \"build_type\": ");
  jsonString(PB_BUILD_TYPE);
#ifdef NDEBUG
  std::printf(", \"relc_assertions\": false");
#else
  std::printf(", \"relc_assertions\": true");
#endif
  std::printf(", \"seed\": %llu, \"workload\": ",
              static_cast<unsigned long long>(C.Seed));
  jsonString(C.Workload);
  std::printf(", \"traced\": %s, \"seconds\": %.17g}, \"setup_samples_s\": [",
              C.Trace ? "true" : "false", C.Seconds);
  for (size_t I = 0; I != R.Setup.size(); ++I)
    std::printf("%s%.17g", I ? ", " : "", R.Setup.values()[I]);
  std::printf("], \"errors\": [");
  for (size_t I = 0; I != R.FirstErrors.size(); ++I) {
    if (I)
      std::printf(", ");
    jsonString(R.FirstErrors[I]);
  }
  std::printf("], \"metrics\": {");
  for (size_t I = 0; I != R.Metrics.size(); ++I) {
    const Report::Metric &M = R.Metrics[I];
    std::printf("%s", I ? ", " : "");
    jsonString(M.Name);
    std::printf(": {\"value\": %.17g, \"unit\": ", M.Value);
    jsonString(M.Unit);
    std::printf("}");
  }
  std::printf("}}\n");
  return 0;
}
