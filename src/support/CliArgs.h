//===- support/CliArgs.h - Strict command-line arguments ---------*- C++ -*-===//
//
// Part of the RelC data representation synthesis library.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Flag lookup and strict numeric arguments for the bench and example
/// drivers. Every number goes through parseInt (or a whole-string
/// strtod), so "abc", "4x", a missing value or one out of range exits 2
/// with the usage instead of running a different experiment.
///
//===----------------------------------------------------------------------===//

#ifndef RELC_SUPPORT_CLIARGS_H
#define RELC_SUPPORT_CLIARGS_H

#include "support/ParseInt.h"

#include <cerrno>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <type_traits>

namespace relc {

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

} // namespace relc

#endif // RELC_SUPPORT_CLIARGS_H
