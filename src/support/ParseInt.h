//===- support/ParseInt.h - Strict decimal integer parsing -------*- C++ -*-===//
//
// Part of the RelC data representation synthesis library.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The one parser for numbers given on a command line. atoi-style
/// parsing reads "abc" as 0 and "4x" as 4, so a typo silently runs a
/// different experiment; here the whole string must be a decimal
/// integer in range.
///
//===----------------------------------------------------------------------===//

#ifndef RELC_SUPPORT_PARSEINT_H
#define RELC_SUPPORT_PARSEINT_H

#include <cerrno>
#include <cstdint>
#include <cstdlib>

namespace relc {

/// Parses all of \p S as a decimal integer in [\p Min, \p Max] into
/// \p Out. False (and \p Out untouched) for a null or empty string,
/// trailing characters, overflow, or a value out of range.
inline bool parseInt(const char *S, int64_t Min, int64_t Max, int64_t &Out) {
  if (!S || !*S)
    return false;
  char *End = nullptr;
  errno = 0;
  long long V = std::strtoll(S, &End, 10);
  if (*End || errno == ERANGE || V < Min || V > Max)
    return false;
  Out = V;
  return true;
}

} // namespace relc

#endif // RELC_SUPPORT_PARSEINT_H
