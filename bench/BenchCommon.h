//===- bench/BenchCommon.h - Shared benchmark helpers ------------*- C++ -*-===//
//
// Part of the RelC data representation synthesis library.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Wall-clock timing, time-limit, argument-parsing and JSON-reporting
/// helpers shared by the figure/table reproduction benches.
///
//===----------------------------------------------------------------------===//

#ifndef RELC_BENCH_BENCHCOMMON_H
#define RELC_BENCH_BENCHCOMMON_H

#include "support/ParseInt.h"

#include <cerrno>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <deque>
#include <string>
#include <type_traits>
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

/// True if \p Flag appears among the arguments.
inline bool hasArg(int Argc, char **Argv, const char *Flag) {
  for (int I = 1; I < Argc; ++I)
    if (std::strcmp(Argv[I], Flag) == 0)
      return true;
  return false;
}

/// The value following \p Flag ("--json out.json"), or nullptr when
/// the flag is absent, last, or followed by another "--" flag (a
/// missing value must not silently swallow the next option — callers
/// pair this with hasArg to reject the malformed invocation loudly).
inline const char *argValue(int Argc, char **Argv, const char *Flag) {
  for (int I = 1; I + 1 < Argc; ++I)
    if (std::strcmp(Argv[I], Flag) == 0)
      return std::strncmp(Argv[I + 1], "--", 2) == 0 ? nullptr : Argv[I + 1];
  return nullptr;
}

/// The value of "--flag N", a whole decimal integer in [\p Min, \p Max],
/// or \p Default when the flag is absent. A missing, malformed ("4x")
/// or out-of-range value prints why and exits 2.
inline int64_t intFlag(int Argc, char **Argv, const char *Flag,
                       int64_t Default, int64_t Min, int64_t Max) {
  if (!hasArg(Argc, Argv, Flag))
    return Default;
  const char *V = argValue(Argc, Argv, Flag);
  int64_t N = 0;
  if (!relc::parseInt(V, Min, Max, N)) {
    std::fprintf(stderr, "%s: %s needs an integer in [%lld, %lld], got '%s'\n",
                 Argv[0], Flag, static_cast<long long>(Min),
                 static_cast<long long>(Max), V ? V : "");
    std::exit(2);
  }
  return N;
}

/// Strict positional arguments of a figure/table driver that takes at
/// most \p MaxArgs of them, all numeric. --help prints \p Usage and
/// exits 0; a surplus argument, a flag (a "--quick" is not a size), a
/// malformed number or one out of range prints it and exits 2.
class PositionalArgs {
public:
  PositionalArgs(int Argc, char **Argv, int MaxArgs, const char *Usage)
      : Argc(Argc), Argv(Argv), Usage(Usage) {
    for (int I = 1; I < Argc; ++I)
      if (std::strcmp(Argv[I], "--help") == 0) {
        std::fputs(Usage, stdout);
        std::exit(0);
      }
    if (Argc - 1 > MaxArgs)
      fail("unexpected argument '" + std::string(Argv[MaxArgs + 1]) + "'");
  }

  /// Argument \p I (1-based) in [\p Min, \p Max], or \p Default when
  /// absent. Integral \p T takes only whole decimal numbers.
  template <typename T> T get(int I, T Default, T Min, T Max) const {
    if (I >= Argc)
      return Default;
    const char *V = Argv[I];
    if constexpr (std::is_integral_v<T>) {
      int64_t N = 0;
      if (relc::parseInt(V, int64_t(Min), int64_t(Max), N))
        return static_cast<T>(N);
    } else {
      char *End = nullptr;
      errno = 0;
      double D = std::strtod(V, &End);
      if (*V && !*End && errno != ERANGE && D >= double(Min) &&
          D <= double(Max))
        return static_cast<T>(D);
    }
    fail("argument " + std::to_string(I) + " must be a number in [" +
         show(Min) + ", " + show(Max) + "], got '" + V + "'");
  }

private:
  template <typename T> static std::string show(T V) {
    char Buf[32];
    std::snprintf(Buf, sizeof(Buf), "%g", double(V));
    return std::is_integral_v<T> ? std::to_string(V) : Buf;
  }

  [[noreturn]] void fail(const std::string &Why) const {
    std::fprintf(stderr, "%s: %s\n%s", Argv[0], Why.c_str(), Usage);
    std::exit(2);
  }

  int Argc;
  char **Argv;
  const char *Usage;
};

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
