//===- tests/tools/NumericArgsCliTest.cpp - Strict numbers in drivers -----===//
//
// Part of the RelC data representation synthesis library.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The example and bench drivers parse their numbers strictly, as
/// relserved does: a malformed ("abc", "4x"), missing or out-of-range
/// number exits 2 before any work runs, instead of running a different
/// experiment than the one asked for. Each case skips when its binary
/// is not part of the build (RELC_BUILD_EXAMPLES / RELC_BUILD_BENCH).
///
//===----------------------------------------------------------------------===//

#include "RunTool.h"

#include <string>

namespace {

using relctest::runTool;

TEST(NumericArgsCliTest, IpcapDaemonRejectsMalformedNumbers) {
#ifndef IPCAP_DAEMON_PATH
  GTEST_SKIP() << "examples are not built";
#else
  for (const char *Bad :
       {"abc", "12x", "0", "-5", "''", "1000 2000", "1000 --threads",
        "1000 --threads 2x", "1000 --threads 0", "1000 --threads 17",
        "--bogus"}) {
    auto [Rc, Out] = runTool(IPCAP_DAEMON_PATH, Bad);
    EXPECT_EQ(Rc, 2) << Bad << ":\n" << Out;
    EXPECT_NE(Out.find("usage:"), std::string::npos) << Out;
    EXPECT_EQ(Out.find("replaying"), std::string::npos)
        << Bad << ": a trace was replayed";
  }
  // Well-formed numbers are taken as given, and the sharded run agrees
  // with the sequential one.
  auto [SeqRc, Seq] = runTool(IPCAP_DAEMON_PATH, "1000");
  ASSERT_EQ(SeqRc, 0) << Seq;
  EXPECT_NE(Seq.find("replaying 1000 packets"), std::string::npos) << Seq;
  auto [ParRc, Par] = runTool(IPCAP_DAEMON_PATH, "1000 --threads 2");
  ASSERT_EQ(ParRc, 0) << Par;
  auto Totals = [](const std::string &Out) {
    size_t At = Out.find("logged ");
    return At == std::string::npos ? std::string()
                                   : Out.substr(At, Out.find(" in ", At) - At);
  };
  EXPECT_FALSE(Totals(Seq).empty()) << Seq;
  EXPECT_EQ(Totals(Seq), Totals(Par));
#endif
}

TEST(NumericArgsCliTest, BenchConcurrentRejectsMalformedNumbers) {
#ifndef BENCH_CONCURRENT_PATH
  GTEST_SKIP() << "benches are not built";
#else
  for (const char *Bad :
       {"--shards 4x", "--shards", "--shards 0", "--shards 65",
        "--threads abc", "--threads 0", "--threads -1", "--threads 257",
        "--quick --threads 2 --shards ''"}) {
    auto [Rc, Out] = runTool(BENCH_CONCURRENT_PATH, Bad);
    EXPECT_EQ(Rc, 2) << Bad << ":\n" << Out;
    EXPECT_NE(Out.find("needs an integer"), std::string::npos) << Out;
    EXPECT_EQ(Out.find("hardware threads"), std::string::npos)
        << Bad << ": the bench started";
  }
  // A well-formed count is taken as given: the bench announces its
  // configuration before the (long) run, which the timeout then ends.
  auto [Rc, Out] =
      runTool(BENCH_CONCURRENT_PATH, "--quick --threads 1 --shards 4", 2);
  EXPECT_TRUE(Rc == 124 || Rc == 0) << Rc << ":\n" << Out;
  EXPECT_NE(Out.find("shards: 4\n"), std::string::npos) << Out;
#endif
}

} // namespace
