//===- bench/BenchCommon.h - Shared benchmark helpers ------------*- C++ -*-===//
//
// Part of the RelC data representation synthesis library.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Wall-clock timing, time-limit and JSON-reporting helpers shared by
/// the figure/table reproduction benches, which parse their arguments
/// with support/CliArgs.h.
///
//===----------------------------------------------------------------------===//

#ifndef RELC_BENCH_BENCHCOMMON_H
#define RELC_BENCH_BENCHCOMMON_H

#include "support/CliArgs.h"

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <deque>
#include <string>
#include <vector>

namespace relcbench {

using Clock = std::chrono::steady_clock;

inline double secondsSince(Clock::time_point Start) {
  return std::chrono::duration<double>(Clock::now() - Start).count();
}

/// Runs \p Fn and returns elapsed seconds, or a negative value if \p Fn
/// itself bailed out (Fn returns false to signal a timeout).
template <typename FnT> double timeOrTimeout(FnT &&Fn) {
  Clock::time_point Start = Clock::now();
  if (!Fn())
    return -1.0;
  return secondsSince(Start);
}

/// A cooperative deadline: workloads call expired() periodically and
/// unwind when it trips.
class Deadline {
public:
  explicit Deadline(double LimitSeconds)
      : Start(Clock::now()), Limit(LimitSeconds) {}

  bool expired() const { return secondsSince(Start) > Limit; }
  double elapsed() const { return secondsSince(Start); }

private:
  Clock::time_point Start;
  double Limit;
};

inline std::string formatSeconds(double S) {
  if (S < 0)
    return "   --   ";
  char Buf[32];
  std::snprintf(Buf, sizeof(Buf), "%8.4f", S);
  return Buf;
}

using relc::argValue;
using relc::hasArg;
using relc::intFlag;
using relc::PositionalArgs;

/// One measured benchmark series: a name plus named numeric metrics.
/// Metrics are kept in insertion order so reports are diffable.
struct BenchRecord {
  std::string Name;
  std::vector<std::pair<std::string, double>> Metrics;

  BenchRecord &metric(std::string Key, double V) {
    Metrics.emplace_back(std::move(Key), V);
    return *this;
  }
};

/// Accumulates BenchRecords and writes them as a small self-contained
/// JSON document (the --json reporting mode shared by the bench
/// drivers; CI uploads these as per-PR artifacts so the perf
/// trajectory is visible over time).
class JsonReporter {
public:
  explicit JsonReporter(std::string BenchName, std::string Mode = "full")
      : BenchName(std::move(BenchName)), Mode(std::move(Mode)) {}

  /// The returned reference stays valid across later record() calls
  /// (deque storage), so callers may hold it instead of chaining.
  BenchRecord &record(std::string Name) {
    Records.push_back(BenchRecord{std::move(Name), {}});
    return Records.back();
  }

  /// Attaches one piece of run metadata (hardware, configuration,
  /// provenance), emitted as a "meta" object in the JSON header so a
  /// regression gate can tell results from different machines or
  /// configurations apart. Values are written as JSON strings; numeric
  /// callers use the overload below.
  JsonReporter &meta(std::string Key, std::string V) {
    Meta.emplace_back(std::move(Key), MetaValue{std::move(V), 0, true});
    return *this;
  }
  JsonReporter &meta(std::string Key, double V) {
    Meta.emplace_back(std::move(Key), MetaValue{{}, V, false});
    return *this;
  }

  /// Writes the report; \returns false (with a message on stderr) if
  /// the file cannot be opened.
  bool write(const char *Path) const {
    std::FILE *F = std::fopen(Path, "w");
    if (!F) {
      std::fprintf(stderr, "error: cannot open %s for writing\n", Path);
      return false;
    }
    std::fprintf(F, "{\n  \"bench\": \"%s\",\n  \"mode\": \"%s\",\n",
                 BenchName.c_str(), Mode.c_str());
    if (!Meta.empty()) {
      std::fprintf(F, "  \"meta\": {");
      for (size_t I = 0; I != Meta.size(); ++I) {
        const auto &[Key, V] = Meta[I];
        std::fprintf(F, "%s\"%s\": ", I ? ", " : "", Key.c_str());
        if (V.IsString)
          std::fprintf(F, "\"%s\"", V.Str.c_str());
        else
          std::fprintf(F, "%.6g", V.Num);
      }
      std::fprintf(F, "},\n");
    }
    std::fprintf(F, "  \"results\": [\n");
    for (size_t I = 0; I != Records.size(); ++I) {
      const BenchRecord &R = Records[I];
      std::fprintf(F, "    {\"name\": \"%s\"", R.Name.c_str());
      for (const auto &[Key, V] : R.Metrics)
        std::fprintf(F, ", \"%s\": %.6g", Key.c_str(), V);
      std::fprintf(F, "}%s\n", I + 1 == Records.size() ? "" : ",");
    }
    std::fprintf(F, "  ]\n}\n");
    std::fclose(F);
    return true;
  }

private:
  struct MetaValue {
    std::string Str;
    double Num;
    bool IsString;
  };

  std::string BenchName;
  std::string Mode;
  std::vector<std::pair<std::string, MetaValue>> Meta;
  std::deque<BenchRecord> Records;
};

} // namespace relcbench

#endif // RELC_BENCH_BENCHCOMMON_H
