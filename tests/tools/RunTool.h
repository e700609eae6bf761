//===- tests/tools/RunTool.h - Run a built binary in a test ------*- C++ -*-===//
//
// Part of the RelC data representation synthesis library.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Runs a built executable as a subprocess under a timeout and returns
/// its exit status and combined stdout/stderr, so a test can check how
/// a command line is accepted or rejected. The timeout turns a program
/// that never returns into a failure instead of a hang.
///
//===----------------------------------------------------------------------===//

#ifndef RELC_TESTS_TOOLS_RUNTOOL_H
#define RELC_TESTS_TOOLS_RUNTOOL_H

#include <gtest/gtest.h>

#include <sys/wait.h>

#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>
#include <utility>

namespace relctest {

/// A per-test path under gtest's temp dir.
inline std::string uniquePath(const std::string &Suffix) {
  const auto *Info = ::testing::UnitTest::GetInstance()->current_test_info();
  return ::testing::TempDir() + Info->test_suite_name() + "_" +
         Info->name() + "_" + Suffix;
}

/// Runs `timeout <Secs> <Path> <Args>` through the shell; returns (exit
/// status, combined output). The status is 124 when the timeout fired,
/// -1 when the process died of a signal.
inline std::pair<int, std::string> runTool(const std::string &Path,
                                           const std::string &Args,
                                           int Secs = 20) {
  std::string Out = uniquePath("out.txt");
  int Rc = std::system(("timeout " + std::to_string(Secs) + " " + Path + " " +
                        Args + " > " + Out + " 2>&1")
                           .c_str());
  std::ifstream In(Out);
  std::stringstream Ss;
  Ss << In.rdbuf();
  return {WIFEXITED(Rc) ? WEXITSTATUS(Rc) : -1, Ss.str()};
}

} // namespace relctest

#endif // RELC_TESTS_TOOLS_RUNTOOL_H
