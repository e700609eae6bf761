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

#include <initializer_list>
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

/// Bad argument lists that must exit 2 with the usage or the flag's
/// complaint and without running, plus one small well-formed run whose
/// output must contain \p Ran.
void expectStrictNumbers(const char *Path,
                         std::initializer_list<const char *> Bad,
                         const char *Complaint, const char *Good,
                         const char *Ran) {
  for (const char *Args : Bad) {
    auto [Rc, Out] = runTool(Path, Args);
    EXPECT_EQ(Rc, 2) << Args << ":\n" << Out;
    EXPECT_NE(Out.find(Complaint), std::string::npos) << Args << ":\n" << Out;
    EXPECT_EQ(Out.find(Ran), std::string::npos) << Args << ": it ran";
  }
  auto [Rc, Out] = runTool(Path, Good);
  EXPECT_EQ(Rc, 0) << Good << ":\n" << Out;
  EXPECT_NE(Out.find(Ran), std::string::npos) << Good << ":\n" << Out;
}

TEST(NumericArgsCliTest, ThttpdCacheRejectsMalformedNumbers) {
#ifndef THTTPD_CACHE_PATH
  GTEST_SKIP() << "examples are not built";
#else
  expectStrictNumbers(THTTPD_CACHE_PATH,
                      {"abc", "12x", "0", "-5", "''", "100000001", "10 20",
                       "--quick"},
                      "usage:", "1000", "replaying 1000 requests");
#endif
}

TEST(NumericArgsCliTest, ZtopoCacheRejectsMalformedNumbers) {
#ifndef ZTOPO_CACHE_PATH
  GTEST_SKIP() << "examples are not built";
#else
  expectStrictNumbers(ZTOPO_CACHE_PATH,
                      {"abc", "2000x", "0", "-1", "99999999999999999999",
                       "10 20"},
                      "usage:", "2000", "replaying 2000 tile requests");
#endif
}

TEST(NumericArgsCliTest, GraphDfsRejectsMalformedNumbers) {
#ifndef GRAPH_DFS_PATH
  GTEST_SKIP() << "examples are not built";
#else
  expectStrictNumbers(GRAPH_DFS_PATH, {"12x", "abc", "0", "4097", "6 6"},
                      "usage:", "6", "36 nodes");
#endif
}

TEST(NumericArgsCliTest, AutotuneDemoRejectsMalformedNumbers) {
#ifndef AUTOTUNE_DEMO_PATH
  GTEST_SKIP() << "examples are not built";
#else
  expectStrictNumbers(AUTOTUNE_DEMO_PATH,
                      {"x", "2x", "0", "65", "2 4x", "2 0", "1 4 9"},
                      "usage:", "1 4", "ranked");
#endif
}

TEST(NumericArgsCliTest, AccountTransferRejectsMalformedNumbers) {
#ifndef ACCOUNT_TRANSFER_PATH
  GTEST_SKIP() << "examples are not built";
#else
  expectStrictNumbers(ACCOUNT_TRANSFER_PATH,
                      {"--threads 2x", "--threads 0", "--threads", "--accounts",
                       "--accounts 1", "--accounts abc --threads 2",
                       "--transfers -1", "--transfers 1e3"},
                      "needs an integer",
                      "--threads 2 --accounts 8 --transfers 200",
                      "transfers: 200 over 2 threads");
#endif
}

TEST(NumericArgsCliTest, BenchAblationCostModelRejectsMalformedNumbers) {
#ifndef BENCH_ABLATION_COSTMODEL_PATH
  GTEST_SKIP() << "benches are not built";
#else
  expectStrictNumbers(BENCH_ABLATION_COSTMODEL_PATH,
                      {"abc", "200x", "0", "''", "--quick", "200 1"},
                      "usage:", "200", "(200 rows");
#endif
}

} // namespace
